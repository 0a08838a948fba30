// Figure 13: scalability of (a) blocking time (HNSW index + query) and (b)
// vectorization time over the Febrl datasets. Renders the timing series
// recorded by exp06 (Figure 7); run exp06 first (the suite is ordered).

#include <algorithm>
#include <cstdlib>

#include "bench_common.h"
#include "eval/ascii_chart.h"

int main(int argc, char** argv) {
  using namespace ember;
  const bench::BenchEnv env = bench::ParseArgs(argc, argv);
  bench::PrintBanner(env, "exp13 / Figure 13",
                     "Scalability of blocking and vectorization time over "
                     "Febrl data (from the exp06 run)");

  const auto rows = bench::LoadArtifact(env, "scalability_times");
  if (!rows.ok()) {
    std::printf("scalability_times artifact missing — run exp06 first "
                "(%s)\n", rows.status().ToString().c_str());
    return 0;
  }
  // rows: model, size, vec_s, index_s, query_s
  std::map<std::string, std::map<size_t, std::pair<double, double>>> series;
  std::vector<size_t> sizes;
  std::vector<std::string> models;
  for (size_t i = 1; i < rows.value().size(); ++i) {
    const auto& row = rows.value()[i];
    if (row.size() < 5) continue;
    const size_t n = std::strtoull(row[1].c_str(), nullptr, 10);
    const double vec = std::atof(row[2].c_str());
    const double block = std::atof(row[3].c_str()) + std::atof(row[4].c_str());
    if (series.find(row[0]) == series.end()) models.push_back(row[0]);
    series[row[0]][n] = {block, vec};
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  std::sort(sizes.begin(), sizes.end());

  for (const bool blocking : {true, false}) {
    eval::Table table(blocking
                          ? "Figure 13(a) — blocking time (s), HNSW"
                          : "Figure 13(b) — vectorization time (s)");
    std::vector<std::string> header = {"model"};
    for (const size_t n : sizes) header.push_back(std::to_string(n));
    table.SetHeader(header);
    for (const auto& model : models) {
      std::vector<std::string> row = {model};
      for (const size_t n : sizes) {
        const auto it = series[model].find(n);
        row.push_back(it == series[model].end()
                          ? "-"
                          : eval::Table::Num(
                                blocking ? it->second.first
                                         : it->second.second,
                                3));
      }
      table.AddRow(row);
    }
    table.Print();

    // Figure rendering: log-scale time lines for a representative subset.
    std::vector<std::string> labels;
    for (const size_t n : sizes) {
      labels.push_back(std::to_string(n / 1000) + "K");
    }
    eval::AsciiChart chart(blocking
                               ? "Figure 13(a) — blocking time"
                               : "Figure 13(b) — vectorization time",
                           labels);
    chart.set_log_y(true);
    for (const char* code : {"S5", "FT", "GE", "WC", "XT", "SM"}) {
      if (series.find(code) == series.end()) continue;
      eval::ChartSeries line;
      line.label = code;
      for (const size_t n : sizes) {
        const auto it = series[code].find(n);
        if (it != series[code].end()) {
          line.values.push_back(blocking ? it->second.first
                                         : it->second.second);
        }
      }
      chart.AddSeries(std::move(line));
    }
    chart.Print();
  }
  return 0;
}
