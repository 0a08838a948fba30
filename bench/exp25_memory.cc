// Memory & cold-start benchmark (beyond the paper; DESIGN.md §12): measures
// what the EMBS0002 mmap container and the int8 scan tier buy on synthetic
// S-GTR-T5-shaped corpora (dim 768):
//
//   (a) cold-start: LoadFrom wall time and the RSS the load itself adds,
//       for mmap with the payload checksum verified (the default) and
//       mmap trusted (verify off), across growing corpus sizes. The
//       trusted open must stay flat (O(1): header + section table only)
//       while the verified open grows with the file (one linear checksum
//       pass that also pages the file in).
//   (b) scan throughput: float GemmBt scan vs int8 GemmBtI8Strided scan +
//       float rescore, same snapshot, same queries, k=10; each side is the
//       median of 7 timed scans after one warm-up.
//   (c) quality: recall@10 of the rescored int8 scan against the float
//       oracle (BruteForceTopK), which the rescore must keep ~1.0.
//
// Artifacts: exp25_cold_start.csv and exp25_quantized_scan.csv under
// bench_artifacts/.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "index/exact_index.h"
#include "la/vector_ops.h"
#include "serve/snapshot.h"

namespace {

using namespace ember;

constexpr size_t kDim = 768;
constexpr size_t kQueries = 256;
constexpr size_t kTopK = 10;

la::Matrix RandomUnitRows(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  m.FillGaussian(rng, 1.f);
  for (size_t r = 0; r < rows; ++r) la::NormalizeInPlace(m.Row(r), cols);
  return m;
}

// VmRSS in kilobytes from /proc/self/status (Linux-only, like the rest of
// the serving stack's /proc probes).
long RssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atol(line.c_str() + 6);
    }
  }
  return -1;
}

serve::Snapshot BuildExact(const la::Matrix& corpus) {
  serve::SnapshotManifest manifest;
  manifest.model_code = "BM";
  manifest.default_k = kTopK;
  manifest.kind = serve::IndexKind::kExact;
  manifest.dataset = "exp25-synthetic";
  return serve::Snapshot::Build(manifest, corpus, index::HnswOptions{},
                                index::LshOptions{});
}

struct LoadPoint {
  double millis = 0;
  long rss_delta_kb = 0;
  uint64_t bytes_mapped = 0;
};

LoadPoint MeasureLoad(const std::string& path,
                      const serve::LoadOptions& options) {
  const long rss_before = RssKb();
  WallTimer timer;
  auto loaded = serve::Snapshot::LoadFrom(path, options);
  EMBER_CHECK(loaded.ok());
  LoadPoint point;
  point.millis = timer.Seconds() * 1e3;
  point.rss_delta_kb = RssKb() - rss_before;
  point.bytes_mapped = loaded.value().bytes_mapped();
  return point;
}

/// Median wall seconds of `repeats` timed runs of `scan`, after one untimed
/// warm-up run (the first scan also pays page faults and the thread pool's
/// start-up). The median keeps one descheduled run from setting the speedup.
template <class Scan>
double MedianSeconds(const Scan& scan, size_t repeats = 7) {
  scan();
  std::vector<double> seconds;
  for (size_t i = 0; i < repeats; ++i) {
    WallTimer timer;
    scan();
    seconds.push_back(timer.Seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[repeats / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::PrintBanner(env, "exp25",
                     "memory: mmap cold start + int8 quantized scan");

  // Corpus sizes scale with --scale (default 0.25 -> 1k/4k/16k rows); the
  // point is the TREND across a 16x size span, not the absolute values.
  std::vector<size_t> sizes;
  for (const size_t base : {4000, 16000, 64000}) {
    sizes.push_back(static_cast<size_t>(static_cast<double>(base) *
                                        (env.full ? 1.0 : env.scale)));
  }

  std::printf("\n-- cold start: checksum-verified vs trusted mmap, dim %zu "
              "--\n",
              kDim);
  std::printf("%8s %14s %16s %14s %14s\n", "rows", "mmap_ck_ms",
              "mmap_ck_rss_kb", "mmap_ms", "mmap_rss_kb");
  eval::Table cold("exp25 cold start");
  cold.SetHeader({"rows", "file_bytes", "mmap_verify_ms",
                  "mmap_verify_rss_kb", "mmap_ms", "mmap_rss_kb"});
  for (const size_t rows : sizes) {
    const la::Matrix corpus = RandomUnitRows(rows, kDim, env.seed + rows);
    const serve::Snapshot built = BuildExact(corpus);
    const std::string path = env.artifacts_dir + "/exp25_snap.bin";
    EMBER_CHECK(built.SaveTo(path).ok());

    const LoadPoint mmap_ck = MeasureLoad(path, serve::LoadOptions{});
    serve::LoadOptions trusted;
    trusted.verify_checksum = false;
    const LoadPoint mmap = MeasureLoad(path, trusted);
    EMBER_CHECK(mmap_ck.bytes_mapped > 0 &&
                mmap.bytes_mapped == mmap_ck.bytes_mapped);

    std::printf("%8zu %14.2f %16ld %14.3f %14ld\n", rows, mmap_ck.millis,
                mmap_ck.rss_delta_kb, mmap.millis, mmap.rss_delta_kb);
    cold.AddRow({std::to_string(rows), std::to_string(mmap.bytes_mapped),
                 eval::Table::Num(mmap_ck.millis, 3),
                 std::to_string(mmap_ck.rss_delta_kb),
                 eval::Table::Num(mmap.millis, 4),
                 std::to_string(mmap.rss_delta_kb)});
    std::remove(path.c_str());
  }
  EMBER_CHECK(bench::SaveArtifact(env, "exp25_cold_start", cold).ok());

  // -- quantized scan: throughput + recall against the float oracle --
  const size_t rows = sizes.back();
  const la::Matrix corpus = RandomUnitRows(rows, kDim, env.seed);
  const la::Matrix queries = RandomUnitRows(kQueries, kDim, env.seed + 1);

  index::ExactIndex fp32;
  fp32.Build(corpus);
  std::vector<std::vector<index::Neighbor>> float_results, i8_results;
  const double float_seconds = MedianSeconds(
      [&] { float_results = fp32.QueryBatch(queries, kTopK); });

  fp32.Quantize();
  const double i8_seconds =
      MedianSeconds([&] { i8_results = fp32.QueryBatch(queries, kTopK); });

  size_t hits = 0, total = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    std::set<uint32_t> truth;
    for (const index::Neighbor& n : float_results[q]) truth.insert(n.id);
    for (const index::Neighbor& n : i8_results[q]) hits += truth.count(n.id);
    total += float_results[q].size();
  }
  const double recall = static_cast<double>(hits) / static_cast<double>(total);
  const double float_qps = kQueries / float_seconds;
  const double i8_qps = kQueries / i8_seconds;
  const double vec_bytes_f32 = static_cast<double>(rows) * kDim * 4;
  const double vec_bytes_i8 =
      static_cast<double>(rows) * (kDim + sizeof(la::QuantParams));

  std::printf("\n-- quantized scan vs float scan (%zu rows, %zu queries, "
              "k=%zu) --\n",
              rows, kQueries, kTopK);
  std::printf("float:  %8.1f q/s\n", float_qps);
  std::printf("int8:   %8.1f q/s  (%.2fx, scan tier %.1fx smaller)\n", i8_qps,
              i8_qps / float_qps, vec_bytes_f32 / vec_bytes_i8);
  std::printf("recall@%zu vs float oracle: %.4f\n", kTopK, recall);

  eval::Table scan("exp25 quantized scan");
  scan.SetHeader({"rows", "float_qps", "int8_qps", "speedup", "storage_ratio",
                  "recall_at_10"});
  scan.AddRow({std::to_string(rows), eval::Table::Num(float_qps, 1),
               eval::Table::Num(i8_qps, 1),
               eval::Table::Num(i8_qps / float_qps, 2),
               eval::Table::Num(vec_bytes_f32 / vec_bytes_i8, 2),
               eval::Table::Num(recall, 4)});
  EMBER_CHECK(bench::SaveArtifact(env, "exp25_quantized_scan", scan).ok());
  return 0;
}
