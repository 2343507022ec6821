// Algorithm-table driver — Tables VII, VIII (BFS/SSSP/PR/CC) and IX
// (TC): per named-matrix analog, the algorithm and in-kernel latency of
// the GraphBLAST-substitute baseline vs the B2SR bit backend, averaged
// over the paper's 5-run protocol.
#pragma once

#include "benchlib/corpus.hpp"
#include "benchlib/reporting.hpp"
#include "platform/device_profile.hpp"

#include <iosfwd>
#include <string>
#include <vector>

namespace bitgb::bench {

enum class TableAlgo { kBfs, kSssp, kPr, kCc, kTc, kMsBfs };

[[nodiscard]] const char* algo_name(TableAlgo a);

/// The deterministic source batch the MSBFS row measures: up to 64
/// evenly spaced vertex ids (bench_batched_traversal reuses it, so both
/// harnesses time the same workload shape; the concurrent-queries
/// example instead draws random sources to simulate live traffic).
[[nodiscard]] std::vector<vidx_t> batch_sources(vidx_t n);

/// Measure one algorithm over the given matrices under the given device
/// profile (its thread width becomes the per-run Context; nothing
/// global is touched).  Format conversion / transposes
/// are prewarmed outside the timed region (the paper amortizes the
/// one-time conversion, §III-B, and its tables report algorithm time
/// only).
[[nodiscard]] std::vector<AlgoRow> run_algo_table(
    const DeviceProfile& profile, const std::vector<CorpusEntry>& matrices,
    TableAlgo algo);

/// Run & print the full SpMV-algorithm table (BFS, SSSP, PR, CC) —
/// one block per algorithm, the paper's Table VII/VIII content.
void print_spmv_algorithm_table(std::ostream& os,
                                const DeviceProfile& profile,
                                const std::string& title,
                                const std::vector<CorpusEntry>& matrices);

}  // namespace bitgb::bench
