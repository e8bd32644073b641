// Network -> systolic-array latency estimation (paper §V-A3).
//
// Every query here computes through the closed-form engine
// (sched/eval_fast.hpp), which is proven equal to folding the layer's
// lowered MappingPlan (systolic/mapping.hpp holds the per-kind mapping
// rules; plan_latency below is that fold). Only the batched entry points
// still lower plans. Pool/activation/add layers cost zero cycles: the
// paper considers only compute-bound convolutional (incl. squeeze-excite)
// and FC layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/transform.hpp"
#include "hw/energy.hpp"
#include "nets/zoo.hpp"
#include "nn/layer.hpp"
#include "systolic/config.hpp"
#include "systolic/cycle_model.hpp"
#include "systolic/mapping.hpp"
#include "systolic/memory.hpp"

namespace fuse::sched {

using core::FuseMode;
using core::NetworkVariant;
using nets::NetworkId;
using nets::NetworkModel;
using nn::LayerDesc;
using systolic::ArrayConfig;
using systolic::LatencyEstimate;

class EvalCache;  // eval_fast.hpp — the shape-keyed layer memo

/// Cycles (and fold/MAC/utilization accounting) for one layer (batch 1,
/// the paper's setting): eval_layer_fast(layer, cfg, {}).latency. Pure
/// function of the layer geometry and the array config — which is what
/// makes the EvalCache memoization and the SweepEngine's parallel walks
/// (sweep.hpp) bit-identical to the serial path.
LatencyEstimate layer_latency(const LayerDesc& layer,
                              const ArrayConfig& cfg);

/// The estimate of an already-lowered plan (the plan-fold engine):
/// layer_latency(l, cfg) == plan_latency(systolic::lower(l, cfg)). The
/// network scheduler (netplan.hpp) lowers each layer once and costs it
/// through this.
LatencyEstimate plan_latency(const systolic::MappingPlan& plan);

/// Records the per-layer sched.* metrics of one computed layer latency.
/// Each engine calls it once per layer it computes (plan_latency and
/// eval_layer_fast), so the counters never double count.
void record_layer_metrics(const LatencyEstimate& est);

/// Batched inference: `batch` images processed together. For the conv
/// family the batch stacks along the output-position (M) dimension; for FC
/// layers it fills otherwise-idle array rows (M = batch), which is why
/// datacenter accelerators batch — and why batch-1 edge inference is where
/// the depthwise pathology (and FuSeConv's fix) matters most.
LatencyEstimate layer_latency_batched(const LayerDesc& layer,
                                      const ArrayConfig& cfg,
                                      std::int64_t batch);

/// Whole-network batched latency (cycles for the whole batch).
std::uint64_t network_latency_batched(const NetworkModel& model,
                                      const ArrayConfig& cfg,
                                      std::int64_t batch);

/// Roofline-bounded batched layer cost: max(compute, memory) cycles for
/// the whole batch. Batching amortizes weight traffic (weights stream in
/// once per batch, not once per image) and fill/drain overhead, which is
/// what makes dynamic batching pay off in the serving engine (src/serve)
/// — especially at small resolutions where weights dominate the traffic.
std::uint64_t layer_bound_batched(const LayerDesc& layer,
                                  const ArrayConfig& cfg,
                                  const systolic::MemoryConfig& mem,
                                  std::int64_t batch);

/// Whole-network batched roofline bound: sum over layers of
/// layer_bound_batched. At batch 1 this matches the per-layer
/// network_roofline bound (same lowering, same traffic model).
std::uint64_t network_bound_batched(const NetworkModel& model,
                                    const ArrayConfig& cfg,
                                    const systolic::MemoryConfig& mem,
                                    std::int64_t batch);

/// Whole-network latency with the per-layer breakdown preserved.
struct NetworkLatency {
  std::uint64_t total_cycles = 0;
  std::vector<LatencyEstimate> per_layer;  // parallel to model.layers

  /// Average utilization over latency-bearing cycles.
  double utilization(const ArrayConfig& cfg) const;
};

/// Serial walk. With a non-null `cache`, per-layer results are memoized
/// through it (same values — layer_latency is pure).
NetworkLatency network_latency(const NetworkModel& model,
                               const ArrayConfig& cfg,
                               EvalCache* cache = nullptr);

/// Operator classes of the paper's Fig. 8(c) latency-distribution plot.
enum class OperatorClass {
  kStandardConv,
  kDepthwise,
  kPointwise,
  kFuse,
  kFcAndSe,
};
std::string operator_class_name(OperatorClass cls);
OperatorClass classify_layer(const LayerDesc& layer);

/// Total cycles per operator class.
struct OperatorBreakdown {
  std::uint64_t cycles[5] = {0, 0, 0, 0, 0};

  std::uint64_t total() const;
  double fraction(OperatorClass cls) const;
  std::uint64_t of(OperatorClass cls) const {
    return cycles[static_cast<int>(cls)];
  }
};
OperatorBreakdown operator_breakdown(const NetworkModel& model,
                                     const ArrayConfig& cfg);

/// Per-slot cycle savings of switching one depthwise slot to FuSeConv with
/// `mode` (kFull or kHalf), everything else baseline. Savings include the
/// ripple onto the slot's squeeze-excite and projection pointwise (tagged
/// via LayerDesc::fuse_slot). Used to pick the 50% variants.
std::vector<double> slot_savings(NetworkId id, FuseMode mode,
                                 const ArrayConfig& cfg,
                                 EvalCache* cache = nullptr);

/// A fully resolved network variant: the lowered model plus the per-slot
/// modes that produced it.
struct VariantBuild {
  NetworkModel model;
  std::vector<FuseMode> modes;
};

/// Builds any Table-I variant; the 50% variants select slots greedily by
/// latency savings on the given array.
VariantBuild build_variant(NetworkId id, NetworkVariant variant,
                           const ArrayConfig& cfg,
                           EvalCache* cache = nullptr);

/// Convenience: latency ratio baseline/variant on the given array.
double speedup_vs_baseline(NetworkId id, NetworkVariant variant,
                           const ArrayConfig& cfg,
                           EvalCache* cache = nullptr);

// --- roofline extension (beyond the paper's compute-bound assumption) --------

/// DRAM traffic generated by one layer's mapping (zero for glue ops).
systolic::TrafficEstimate layer_traffic(const LayerDesc& layer,
                                        const ArrayConfig& cfg,
                                        const systolic::MemoryConfig& mem);

/// Whole-network roofline: per-layer max(compute, memory) summed, plus the
/// totals for reporting.
struct NetworkRoofline {
  std::uint64_t compute_cycles = 0;   // the paper's metric
  std::uint64_t memory_cycles = 0;    // traffic / bandwidth
  std::uint64_t bound_cycles = 0;     // sum of per-layer max()
  std::uint64_t total_bytes = 0;
  int memory_bound_layers = 0;
};
/// Whole-network roofline under the process-wide schedule mode
/// (netplan.hpp): per-layer mode reproduces the historical per-layer walk
/// exactly; fused mode charges legal depthwise/FuSe -> pointwise pairs as
/// single units with their redundant intermediate traffic removed, so the
/// bound is never above the per-layer one.
NetworkRoofline network_roofline(const NetworkModel& model,
                                 const ArrayConfig& cfg,
                                 const systolic::MemoryConfig& mem);

/// Speedup of a variant with the roofline model at the given bandwidth.
double roofline_speedup(NetworkId id, NetworkVariant variant,
                        const ArrayConfig& cfg,
                        const systolic::MemoryConfig& mem);

/// Energy of one inference: per-layer MAC + idle + SRAM + DRAM energy
/// under the hw::EnergyModel (see hw/energy.hpp for the decomposition).
hw::EnergyReport network_energy(const NetworkModel& model,
                                const ArrayConfig& cfg,
                                const systolic::MemoryConfig& mem,
                                const hw::EnergyModel& energy);

}  // namespace fuse::sched
