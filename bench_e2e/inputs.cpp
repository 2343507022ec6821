// Seeded inputs and the timed set-up that turns them into served graphs.
#include "e2e.hpp"

#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

#include <filesystem>
#include <optional>

namespace e2e {

namespace gb = bitgb::gb;

std::vector<GraphSpec> graph_specs(bool quick) {
  // rmat_s16's formats exceed L2 and fit in L3; hybrid_4096's fit in L2;
  // road_256x256 has a long diameter, so a 64-wide wave shares little.
  if (quick) {
    return {
        {"rmat_s10", [](std::uint64_t s) { return bitgb::gen_rmat(10, 1 << 14, s); }},
        {"road_32x32", [](std::uint64_t s) { return bitgb::gen_road(32, 32, 0.02, s); }},
        {"hybrid_512", [](std::uint64_t s) { return bitgb::gen_hybrid(512, s); }},
    };
  }
  return {
      {"rmat_s16", [](std::uint64_t s) { return bitgb::gen_rmat(16, 1 << 20, s); }},
      {"road_256x256", [](std::uint64_t s) { return bitgb::gen_road(256, 256, 0.02, s); }},
      {"hybrid_4096", [](std::uint64_t s) { return bitgb::gen_hybrid(4096, s); }},
  };
}

GraphFiles write_inputs(const std::vector<GraphSpec>& specs, std::uint64_t seed,
                        const std::string& dir) {
  GraphFiles files;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string base =
        (std::filesystem::path(dir) / specs[i].name).string();
    bitgb::write_matrix_market_file(base + ".mtx",
                                    specs[i].make(mix_seed(seed * 8 + i)));
    files.names.push_back(specs[i].name);
    files.mtx.push_back(base + ".mtx");
    files.snap.push_back(base + ".bgbs");
  }
  return files;
}

Setup setup_graphs(const GraphFiles& files, int builds, HostSpeed& speed,
                   TraceLog& trace) {
  const std::size_t n = files.names.size();
  std::vector<double> totals;
  std::vector<std::vector<double>> read(n), from_coo(n), prewarm(n);
  Setup setup;
  for (int b = 0; b < builds; ++b) {
    std::vector<gb::Graph> graphs;
    double build_s = 0.0;
    const double slowdown = speed.phase([&] {
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& name = files.names[i];
        bitgb::Coo coo;
        read[i].push_back(trace.timed("read_matrix_market " + name, "sparse",
                                      TraceLog::kMain, [&] {
                                        coo = bitgb::read_matrix_market_file(
                                            files.mtx[i]);
                                      }));
        std::optional<gb::Graph> g;
        from_coo[i].push_back(trace.timed("from_coo " + name, "graphblas",
                                          TraceLog::kMain,
                                          [&] { g.emplace(gb::Graph::from_coo(coo)); }));
        prewarm[i].push_back(trace.timed("prewarm " + name, "graphblas",
                                         TraceLog::kMain,
                                         [&] { g->prewarm(gb::kBitFormats); }));
        graphs.push_back(std::move(*g));
      }
      build_s = ms_between(start, Clock::now()) / 1000.0;
    });
    totals.push_back(build_s / slowdown);
    if (b == builds - 2) setup.serve = std::move(graphs);
    if (b == builds - 1) setup.own = std::move(graphs);
  }
  setup.setup_s = median(totals);
  for (std::size_t i = 0; i < n; ++i) {
    setup.read_ms.push_back(median(read[i]));
    setup.from_coo_ms.push_back(median(from_coo[i]));
    setup.prewarm_ms.push_back(median(prewarm[i]));
  }
  return setup;
}

}  // namespace e2e
