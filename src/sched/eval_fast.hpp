// Plan-free closed-form latency/traffic evaluator: the production latency
// engine.
//
// The plan fold (plan_latency over systolic::lower) costs a layer by
// materializing its MappingPlan (a heap-allocated op list) and walking
// every fold tile. That walk visits ceil(a/R) * ceil(b/C) tiles — fine
// for one network, far too slow for sweeps over hundreds of ArrayConfigs.
//
// This module computes the SAME numbers in closed form. A row-major fold
// grid has at most 2 distinct tile sizes per axis (the full tile and the
// edge remainder), so any per-tile cost sums as a 2x2 class
// decomposition: (na-1)(nb-1) interior tiles, nb-1 / na-1 edge strips,
// and 1 corner. Per-fold skew/compute/drain terms, preloads, traffic
// bytes, and peak fold footprints all collapse this way, and the op
// shapes themselves are mirrored from systolic::lower() without building
// the plan.
//
// Equality contract (the repo's oracle-vs-fast idiom, like kernels PR 4
// and the simulator PR 5): for every layer and every ArrayConfig,
//
//   eval_layer_fast(l, cfg, mem).latency == plan_latency(lower(l, cfg))
//   eval_layer_fast(l, cfg, mem).traffic == plan_traffic(lower(l, cfg))
//   eval_layer_fast(l, cfg, mem).peak_fold_bytes
//                                == plan_peak_fold_bytes(lower(l, cfg))
//
// and eval_network_fast's schedule/roofline equal plan_network /
// plan_roofline — structurally, because both paths feed the identical
// LayerCosts through the shared schedule_costs / roofline_over
// (netplan.hpp). tests/test_eval_fast.cpp FUSE_CHECKs the whole grid
// (5 networks x 5 variants x dataflows x broadcast x sched modes), and
// bench_dse gates the >= 10x configs-per-second win this buys.
//
// This is the production latency engine: sched::layer_latency,
// layer_traffic, network_latency, network_roofline, network_energy, the
// SweepEngine, the serving ModelPool and the design-space explorer all
// compute through it. Plans are lowered only where their folds are
// needed (netplan segments, the simulators, the executor, traces,
// attribution, timelines, batched serving) and as the test oracle.
//
// Telemetry: each eval_layer_fast call records the per-layer sched.*
// metrics once, exactly as plan_latency does on the plan path, so sched.*
// counts computed layer latencies from either engine. The EvalCache feeds
// the shared memo.* family (util/sharded_memo.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "sched/netplan.hpp"
#include "util/sharded_memo.hpp"

namespace fuse::sched {

/// Closed-form LayerCost of one layer: latency, DRAM traffic, and peak
/// per-fold SRAM footprint, equal to the plan-folded path (see the
/// equality contract above). Pure function of (layer geometry, cfg, mem).
LayerCost eval_layer_fast(const nn::LayerDesc& layer,
                          const systolic::ArrayConfig& cfg,
                          const systolic::MemoryConfig& mem);

/// Every LayerDesc and ArrayConfig field the analytic latency model reads,
/// flattened to integers. Excluded on purpose: layer name, activation,
/// bias/batchnorm flags, squeeze-excite/fuse-slot tags (never affect
/// cycles) and ArrayConfig::freq_mhz (converts cycles to time, does not
/// produce them).
struct LatencyKey {
  std::array<std::int64_t, 18> fields{};

  bool operator==(const LatencyKey& other) const = default;
};

LatencyKey make_latency_key(const nn::LayerDesc& layer,
                            const systolic::ArrayConfig& cfg);

/// Memo key: the latency shape key plus the memory dtype width, which
/// scales the byte fields. Bandwidth and SRAM size stay OUT of the key:
/// the cached cost stores bytes, and memory_cycles / buffer placement are
/// derived downstream.
struct EvalKey {
  LatencyKey shape;
  std::int64_t dtype_bytes = 0;

  bool operator==(const EvalKey& other) const = default;
};

/// One word-wise mix over the key (util::hash_words).
struct EvalKeyHash {
  std::size_t operator()(const EvalKey& key) const {
    return static_cast<std::size_t>(util::hash_words(
        key.shape.fields, static_cast<std::uint64_t>(key.dtype_bytes)));
  }
};

/// The memo of eval_layer_fast: one util::ShardedMemo keyed by EvalKey.
/// Pure function, so memoization never changes a value, only skips
/// recomputation. Latency-only callers (network_latency, the SweepEngine)
/// look up with a default MemoryConfig and read `.latency`.
class EvalCache : public util::ShardedMemo<EvalKey, LayerCost, EvalKeyHash> {
 public:
  /// The memoized cost, computing eval_layer_fast on a miss. Safe to call
  /// concurrently; the reference lives as long as the entry.
  const LayerCost& get_or_compute(const nn::LayerDesc& layer,
                                  const systolic::ArrayConfig& cfg,
                                  const systolic::MemoryConfig& mem);
};

/// Whole-network closed-form evaluation: per-layer costs plus the shared
/// schedule (SRAM liveness + fusion legality) and roofline.
struct NetworkEval {
  std::vector<LayerCost> layers;  // parallel to model.layers
  /// Sum of per-layer analytic latencies — equals NetworkPlan::total_cycles.
  std::uint64_t total_cycles = 0;
  CostSchedule schedule;
  NetworkRoofline roofline;
};

/// Evaluates the network without materializing any MappingPlan. With a
/// non-null cache, per-layer costs are memoized across calls (identical
/// values — eval_layer_fast is pure). The roofline equals
/// plan_roofline(plan_network(model, cfg, mem, mode)) field for field.
NetworkEval eval_network_fast(const nets::NetworkModel& model,
                              const systolic::ArrayConfig& cfg,
                              const systolic::MemoryConfig& mem,
                              SchedMode mode, EvalCache* cache = nullptr);

}  // namespace fuse::sched
