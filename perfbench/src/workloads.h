#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file
/// The three workloads and the metric names they report. BENCHMARK.json
/// lists the same names; README.md maps each per-layer metric to the
/// end-to-end metric it should move.

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Untraced mode reports these, on every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"rounds_per_s", "rounds/s"},
    {"upload_ack_p50_ms", "ms"},
};

/// Traced mode reports these, on every workload; a layer a workload
/// bypasses reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"data.generate_s", "s"},
    {"data.split_s", "s"},
    {"fed.setup_s", "s"},
    {"fed.select_us", "us"},
    {"fed.local_train_us", "us"},
    {"fed.local_train_pairs", "count"},
    {"attack.produce_us", "us"},
    {"attack.rounds", "count"},
    {"fed.aggregate_us", "us"},
    {"fed.aggregate_rows", "count"},
    {"fed.apply_us", "us"},
    {"common.parallel_for_us", "us"},
    {"fed.pipelined_share", "share"},
    {"fed.round_residual_us", "us"},
    {"model.eval_er_s", "s"},
    {"ckpt.capture_ms", "ms"},
    {"ckpt.encode_ms", "ms"},
    {"ckpt.write_ms", "ms"},
    {"ckpt.bytes", "bytes"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.upload_bytes", "bytes"},
    {"shard.route_us", "us"},
    {"shard.exchange_us", "us"},
    {"shard.merge_us", "us"},
    {"fleet.apply_us", "us"},
    {"shard.wire_bytes", "bytes"},
    {"fleet.residual_us", "us"},
};

/// Metric values by name; the driver prints the mode's full list in order.
using Values = std::map<std::string, double>;

void RunPaperAttack(const RunOptions& options, Outcome& outcome,
                    Values& values);
void RunRobustCrossDevice(const RunOptions& options, Outcome& outcome,
                          Values& values);
void RunSocketFleet(const RunOptions& options, Outcome& outcome,
                    Values& values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
