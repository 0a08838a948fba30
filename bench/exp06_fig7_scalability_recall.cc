// Figure 7: blocking scalability (recall and precision) over the synthetic
// Febrl dirty-ER datasets of Table 2(b), using HNSW with k=10 as in
// Section 4.3. Also records the timing series rendered by exp13 (Figure 13).
//
// Default sizes are the first four of Table 2(b) scaled by --scale; --full
// runs all seven at paper scale.

#include <cstdlib>
#include <utility>

#include "bench_common.h"
#include "common/timer.h"
#include "core/blocking.h"
#include "datagen/febrl.h"
#include "embed/model_registry.h"
#include "eval/ascii_chart.h"

namespace {

std::vector<size_t> ScalabilitySizes(const ember::bench::BenchEnv& env) {
  using ember::datagen::FebrlScalabilitySizes;
  std::vector<size_t> sizes;
  const size_t count = env.full ? FebrlScalabilitySizes().size() : 3;
  for (size_t i = 0; i < count; ++i) {
    const double scaled =
        static_cast<double>(FebrlScalabilitySizes()[i]) * env.scale;
    sizes.push_back(std::max<size_t>(500, static_cast<size_t>(scaled)));
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ember;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::PrintBanner(env, "exp06 / Figure 7",
                     "Scalability over Febrl dirty-ER data: recall & "
                     "precision, HNSW, k=10");

  const std::vector<size_t> sizes = ScalabilitySizes(env);

  eval::Table recall_table("Figure 7(a) — recall vs input size");
  eval::Table precision_table("Figure 7(b) — precision vs input size");
  eval::Table times("Figure 13 data — vectorization / blocking seconds");
  std::vector<std::string> header = {"model"};
  for (const size_t n : sizes) header.push_back(std::to_string(n));
  recall_table.SetHeader(header);
  precision_table.SetHeader(header);
  {
    std::vector<std::string> time_header = {"model", "size", "vec_s",
                                            "index_s", "query_s"};
    times.SetHeader(time_header);
  }

  // Generate each dataset once, shared across models.
  std::vector<datagen::DirtyDataset> datasets;
  for (const size_t n : sizes) {
    datagen::FebrlOptions options;
    options.n_records = n;
    options.seed = env.seed ^ (n * 2654435761ULL);
    datasets.push_back(datagen::GenerateFebrl(options));
    std::fprintf(stderr, "[fig7] febrl %zu: %zu duplicate pairs\n", n,
                 datasets.back().matches.size());
  }

  for (const embed::ModelId id : embed::AllModels()) {
    auto model = embed::CreateModel(id);
    std::vector<std::string> recall_row = {
        std::string(model->info().name)};
    std::vector<std::string> precision_row = recall_row;
    for (size_t s = 0; s < sizes.size(); ++s) {
      const datagen::DirtyDataset& dataset = datasets[s];
      eval::GroundTruth truth;
      for (const auto& [a, b] : dataset.matches) truth.AddDirtyPair(a, b);

      const std::string key = "febrl_" + std::to_string(sizes[s]) + "_" +
                              std::to_string(env.seed);
      double vec_seconds = 0;
      la::Matrix vectors = bench::VectorsKeyed(
          *model, key, dataset.records.AllSentences(), env, &vec_seconds);

      core::BlockingOptions options;
      options.k = 10;
      options.use_hnsw = true;
      options.hnsw.seed = env.seed;
      // Move the vectors into the index: at the largest Febrl sizes keeping
      // a second copy alive doubles peak memory for no benefit.
      const core::BlockingResult blocked =
          core::BlockDirty(std::move(vectors), options);
      const eval::PrfMetrics prf =
          eval::EvaluateDirtyCandidates(blocked.candidates, truth);
      recall_row.push_back(eval::Table::Num(prf.recall, 3));
      precision_row.push_back(eval::Table::Num(prf.precision, 4));
      times.AddRow({model->info().code, std::to_string(sizes[s]),
                    eval::Table::Num(vec_seconds, 3),
                    eval::Table::Num(blocked.index_seconds, 3),
                    eval::Table::Num(blocked.query_seconds, 3)});
      std::fprintf(stderr, "[fig7] %s n=%zu recall=%.3f\n",
                   model->info().code.c_str(), sizes[s], prf.recall);
    }
    recall_table.AddRow(recall_row);
    precision_table.AddRow(precision_row);
  }

  recall_table.Print();
  precision_table.Print();

  // Render the figure itself: recall lines for a representative subset.
  {
    std::vector<std::string> labels;
    for (const size_t n : sizes) labels.push_back(std::to_string(n / 1000) + "K");
    eval::AsciiChart chart("Figure 7(a) — blocking recall vs input size",
                           labels);
    const std::vector<std::string> highlight = {"S5", "FT", "GE", "WC",
                                                "DT", "SM"};
    for (const auto& code : highlight) {
      for (const auto& row : recall_table.rows()) {
        const auto id = embed::ModelIdFromString(row[0]);
        if (!id.ok() || embed::GetModelInfo(id.value()).code != code) {
          continue;
        }
        eval::ChartSeries series;
        series.label = code;
        for (size_t c = 1; c < row.size(); ++c) {
          series.values.push_back(std::atof(row[c].c_str()));
        }
        chart.AddSeries(std::move(series));
        break;
      }
    }
    chart.Print();
  }
  bench::SaveArtifact(env, "fig7_recall", recall_table);
  bench::SaveArtifact(env, "fig7_precision", precision_table);
  bench::SaveArtifact(env, "scalability_times", times);
  return 0;
}
