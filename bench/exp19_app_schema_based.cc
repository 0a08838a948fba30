// Appendix I (Figures 17-22): schema-based experiments. Instead of one
// schema-agnostic sentence per entity, every attribute value is vectorized
// separately and the entity embeds as the normalized mean of its attribute
// vectors. Reports blocking recall (k=10) and unsupervised matching best F1
// per model, plus the per-family averages that summarize Figures 17-22.
//
// Default covers D1-D6; --full adds the four largest datasets.

#include <cstdlib>

#include "bench_common.h"
#include "core/blocking.h"
#include "core/schema_vectorizer.h"
#include "core/vector_cache.h"
#include "embed/model_registry.h"
#include "la/vector_ops.h"
#include "match/unsupervised.h"

int main(int argc, char** argv) {
  using namespace ember;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::PrintBanner(env, "exp19 / Appendix Figures 17-22",
                     "Schema-based variant: per-attribute vectorization, "
                     "blocking recall (k=10) and unsupervised best F1");

  std::vector<std::string> dataset_ids = {"D1", "D2", "D3",
                                          "D4", "D5", "D6"};
  if (env.full) {
    for (const char* id : {"D7", "D8", "D9", "D10"}) {
      dataset_ids.push_back(id);
    }
  }

  // Reuse a previous run's artifacts if present (per-attribute vectorization
  // is not served by the vector cache, so recomputing is expensive).
  const auto cached_recall = bench::LoadArtifact(env, "schema_based_recall");
  const auto cached_f1 = bench::LoadArtifact(env, "schema_based_f1");
  if (cached_recall.ok() && cached_f1.ok()) {
    for (const auto& [rows, title] :
         {std::pair{&cached_recall.value(),
                    "Figure 17/21 — schema-based blocking recall (k=10)"},
          std::pair{&cached_f1.value(),
                    "Figure 19/22 — schema-based unsupervised best F1"}}) {
      eval::Table table(title);
      table.SetHeader((*rows)[0]);
      std::vector<std::vector<double>> scores;
      for (size_t r = 1; r < rows->size(); ++r) {
        table.AddRow((*rows)[r]);
        std::vector<double> row_scores;
        for (size_t c = 1; c < (*rows)[r].size(); ++c) {
          row_scores.push_back(std::atof((*rows)[r][c].c_str()));
        }
        scores.push_back(std::move(row_scores));
      }
      table.Print();
      const auto ranks = eval::RankMatrix(scores);
      eval::Table summary(std::string(title) + " — avg rank");
      summary.SetHeader({"model", "avg_rank"});
      for (size_t r = 1; r < rows->size(); ++r) {
        summary.AddRow({(*rows)[r][0],
                        eval::Table::Num(ranks[r - 1].back(), 2)});
      }
      summary.Print();
    }
    return 0;
  }

  eval::Table recall_table("Figure 17/21 — schema-based blocking recall "
                           "(k=10)");
  eval::Table f1_table("Figure 19/22 — schema-based unsupervised best F1");
  std::vector<std::string> header = {"model"};
  for (const auto& d : dataset_ids) header.push_back(d);
  recall_table.SetHeader(header);
  f1_table.SetHeader(header);

  std::vector<std::vector<double>> recall_scores;
  std::vector<std::vector<double>> f1_scores;

  for (const embed::ModelId id : embed::AllModels()) {
    auto model = embed::CreateModel(id);
    model->Initialize();
    std::vector<std::string> recall_row = {
        std::string(model->info().name)};
    std::vector<std::string> f1_row = recall_row;
    std::vector<double> recalls, f1s;
    for (const auto& dataset_id : dataset_ids) {
      const datagen::CleanCleanDataset& dataset =
          bench::GetDataset(dataset_id, env);
      const eval::GroundTruth truth = bench::TruthOf(dataset);

      const la::Matrix left = core::SchemaBasedVectorize(*model,
                                                          dataset.left);
      const la::Matrix right = core::SchemaBasedVectorize(*model,
                                                          dataset.right);

      core::BlockingOptions options;
      options.k = 10;
      const core::BlockingResult blocked =
          core::BlockCleanClean(left, right, options);
      const double recall =
          eval::EvaluateCleanCleanCandidates(blocked.candidates, truth)
              .recall;

      std::vector<cluster::ScoredPair> pairs =
          match::UnsupervisedMatcher::AllPairSimilarities(left, right);
      const match::SweepResult sweep = match::UnsupervisedMatcher::Sweep(
          pairs, left.rows(), right.rows(), truth);

      recall_row.push_back(eval::Table::Num(recall, 3));
      f1_row.push_back(eval::Table::Num(sweep.best.metrics.f1, 3));
      recalls.push_back(recall);
      f1s.push_back(sweep.best.metrics.f1);
      std::fprintf(stderr, "[schema-based] %s %s recall=%.3f f1=%.3f\n",
                   model->info().code.c_str(), dataset_id.c_str(), recall,
                   sweep.best.metrics.f1);
    }
    recall_table.AddRow(recall_row);
    f1_table.AddRow(f1_row);
    recall_scores.push_back(std::move(recalls));
    f1_scores.push_back(std::move(f1s));
  }
  recall_table.Print();
  f1_table.Print();

  // Figures 18/20 condensed: average rank per model (schema-based).
  for (const bool use_f1 : {false, true}) {
    const auto ranks =
        eval::RankMatrix(use_f1 ? f1_scores : recall_scores);
    eval::Table table(use_f1 ? "Figure 20 summary — schema-based F1 avg rank"
                             : "Figure 18 summary — schema-based recall avg "
                               "rank");
    table.SetHeader({"model", "avg_rank"});
    size_t m = 0;
    for (const embed::ModelId id : embed::AllModels()) {
      table.AddRow({embed::GetModelInfo(id).name,
                    eval::Table::Num(ranks[m].back(), 2)});
      ++m;
    }
    table.Print();
  }
  bench::SaveArtifact(env, "schema_based_recall", recall_table);
  bench::SaveArtifact(env, "schema_based_f1", f1_table);
  return 0;
}
