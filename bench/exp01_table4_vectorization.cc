// Table 4: vectorization time (initialization + transformation) per model
// and dataset. Always measures fresh compute; as a side effect it fills the
// shared vector cache, so the rest of the bench suite reuses these vectors.

#include "bench_common.h"
#include "common/timer.h"
#include "core/vector_cache.h"
#include "embed/model_registry.h"

int main(int argc, char** argv) {
  using namespace ember;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::PrintBanner(env, "exp01 / Table 4",
                     "Vectorization time (s): init row + transform per "
                     "dataset, 12 models x D1-D10");

  eval::Table table("Table 4 — vectorization time in seconds");
  std::vector<std::string> header = {"dataset"};
  for (const embed::ModelId id : embed::AllModels()) {
    header.push_back(embed::GetModelInfo(id).code);
  }
  table.SetHeader(header);

  std::vector<std::string> init_row = {"Init"};
  std::vector<std::vector<std::string>> transform_rows;
  for (const std::string& dataset_id : bench::AllDatasetIds()) {
    transform_rows.push_back({dataset_id});
  }

  for (const embed::ModelId id : embed::AllModels()) {
    auto model = embed::CreateModel(id);
    const double init_seconds = model->Initialize();
    init_row.push_back(eval::Table::Num(init_seconds, 2));
    size_t row = 0;
    for (const std::string& dataset_id : bench::AllDatasetIds()) {
      const datagen::CleanCleanDataset& dataset =
          bench::GetDataset(dataset_id, env);
      // Vectorize through the shared cache: a cold run measures fresh
      // compute and warms the cache for the whole suite; a warm rerun
      // reports the recorded fresh timings (--no-cache forces remeasuring).
      double vec_left = 0, vec_right = 0;
      bench::Vectors(*model, dataset, true, env, &vec_left);
      bench::Vectors(*model, dataset, false, env, &vec_right);
      const double seconds =
          vec_left >= 0 && vec_right >= 0 ? vec_left + vec_right : -1e9;
      transform_rows[row++].push_back(eval::Table::Num(seconds, 2));
    }
    std::fprintf(stderr, "[table4] %s done\n", model->info().code.c_str());
  }

  table.AddRow(init_row);
  for (auto& row : transform_rows) table.AddRow(std::move(row));
  table.Print();
  bench::SaveArtifact(env, "table4", table);
  return 0;
}
