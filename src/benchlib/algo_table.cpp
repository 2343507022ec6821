#include "benchlib/algo_table.hpp"

#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/msbfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/tc.hpp"
#include "algorithms/workspace.hpp"
#include "platform/context.hpp"
#include "platform/timer.hpp"

#include <algorithm>
#include <ostream>

namespace bitgb::bench {

const char* algo_name(TableAlgo a) {
  switch (a) {
    case TableAlgo::kBfs: return "BFS";
    case TableAlgo::kSssp: return "SSSP";
    case TableAlgo::kPr: return "PR";
    case TableAlgo::kCc: return "CC";
    case TableAlgo::kTc: return "TC";
    case TableAlgo::kMsBfs: return "MSBFS";
  }
  return "?";
}

std::vector<vidx_t> batch_sources(vidx_t n) {
  const int batch = static_cast<int>(
      std::min<vidx_t>(n, FrontierBatch::kMaxBatch));
  std::vector<vidx_t> sources(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    sources[static_cast<std::size_t>(b)] =
        static_cast<vidx_t>(static_cast<std::int64_t>(b) * n / batch);
  }
  return sources;
}

namespace {

// Traversals start from the maximum-degree vertex so every matrix gets
// a substantive run (row 0 of a block/scatter analog can be isolated).
vidx_t pick_source(const gb::Graph& g) {
  const auto& deg = g.degrees();
  vidx_t best = 0;
  for (vidx_t v = 1; v < g.num_vertices(); ++v) {
    if (deg[static_cast<std::size_t>(v)] > deg[static_cast<std::size_t>(best)]) {
      best = v;
    }
  }
  return best;
}

SplitTiming measure(const DeviceProfile& profile, const gb::Graph& g,
                    TableAlgo algo, Backend backend) {
  KernelTimeSink sink;
  const Context ctx = context_for(profile, &sink).with_backend(backend);
  // One reusable workspace per measurement: the steady-state serving
  // shape (repeat queries reuse scratch and result capacity).
  algo::Workspace ws;
  switch (algo) {
    case TableAlgo::kBfs:
      return time_split_ms(sink, [&, s = pick_source(g),
                                  out = algo::BfsResult{}]() mutable {
        algo::bfs(ctx, g, {s}, ws, out);
      });
    case TableAlgo::kSssp:
      return time_split_ms(sink, [&, s = pick_source(g),
                                  out = algo::SsspResult{}]() mutable {
        algo::sssp(ctx, g, {s}, ws, out);
      });
    case TableAlgo::kPr:
      return time_split_ms(sink, [&, out = algo::PageRankResult{}]() mutable {
        algo::pagerank(ctx, g, {}, ws, out);
      });
    case TableAlgo::kCc:
      return time_split_ms(sink, [&, out = algo::CcResult{}]() mutable {
        algo::connected_components(ctx, g, {}, ws, out);
      });
    case TableAlgo::kTc:
      return time_split_ms(sink, [&, out = algo::TcResult{}]() mutable {
        algo::triangle_count(ctx, g, {}, ws, out);
      });
    case TableAlgo::kMsBfs: {
      if (g.num_vertices() == 0) return {};  // no sources to batch
      return time_split_ms(sink, [&, srcs = batch_sources(g.num_vertices()),
                                  out = algo::MsBfsResult{}]() mutable {
        algo::msbfs(ctx, g, {srcs}, ws, out);
      });
    }
  }
  return {};
}

}  // namespace

std::vector<AlgoRow> run_algo_table(const DeviceProfile& profile,
                                    const std::vector<CorpusEntry>& matrices,
                                    TableAlgo algo) {
  std::vector<AlgoRow> rows;
  for (const auto& entry : matrices) {
    gb::GraphOptions opts;  // tile size auto-selected by sampling
    opts.ingest = Exec{.threads = profile.num_threads};
    const gb::Graph g = gb::Graph::from_csr(entry.matrix, opts);

    // Prewarm the one-time conversions so the measurement covers the
    // algorithm itself (the paper's accounting).
    g.prewarm(gb::kAllFormats);

    const SplitTiming ref = measure(profile, g, algo, Backend::kReference);
    const SplitTiming bit = measure(profile, g, algo, Backend::kBit);
    rows.push_back({entry.name, ref.algorithm_ms, bit.algorithm_ms,
                    ref.kernel_ms, bit.kernel_ms});
  }
  return rows;
}

void print_spmv_algorithm_table(std::ostream& os, const DeviceProfile& profile,
                                const std::string& title,
                                const std::vector<CorpusEntry>& matrices) {
  for (const TableAlgo algo :
       {TableAlgo::kBfs, TableAlgo::kSssp, TableAlgo::kPr, TableAlgo::kCc,
        TableAlgo::kMsBfs}) {
    print_algo_table(os, title, algo_name(algo),
                     run_algo_table(profile, matrices, algo));
  }
}

}  // namespace bitgb::bench
