// Configurable-array design-space explorer.
//
// Sweeps the full ArrayConfig axis set — array shape at a fixed PE
// budget, weight-broadcast links, inter-PE pipelining (transparency),
// datapath width, SRAM capacity — over a fixed network workload, scoring
// each candidate with the plan-free closed-form evaluator
// (sched/eval_fast.hpp) and pruning dominated points incrementally into a
// Pareto frontier over {latency, area, power}.
//
// The evaluator is what makes the sweep cheap: hundreds of configurations
// x a 15-model workload never materialize a MappingPlan (bench_dse gates
// the >= 10x configs-per-second win over the plan-folded path). Area and
// power come from hw/area_power.cpp; latency converts roofline bound
// cycles at the configuration's post-derate clock
// (ArrayConfig::effective_freq_mhz).
//
// Determinism: evaluation is parallel with index-slot writes; frontier
// offers happen serially in index order afterwards (the SweepEngine
// discipline), so the frontier — and the CSV the driver writes — is
// byte-identical at any thread count. tests/test_dse.cpp pins this.
//
// docs/design_space.md documents the axes and the output formats.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dse/pareto.hpp"
#include "nets/zoo.hpp"
#include "sched/eval_fast.hpp"

namespace fuse::dse {

/// One swept candidate: the array plus the memory system paired to it
/// (dtype matches the datapath; SRAM capacity is itself an axis).
struct DesignPoint {
  systolic::ArrayConfig cfg;
  systolic::MemoryConfig mem;

  /// "32x128 bcast fp16 pipelined sram8MiB" — stable across runs; the CSV
  /// key column.
  std::string label() const;
};

/// The swept axes. Defaults give the standard 180-point grid:
/// 5 shapes x 2 broadcast x 3 pipelining x 3 datapath x 2 SRAM.
struct DseAxes {
  /// Array shapes (rows, cols), all at the paper's 64x64 = 4096-PE budget
  /// by default so area differences come from aspect-dependent edge and
  /// broadcast hardware, not PE count.
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
      {16, 256}, {32, 128}, {64, 64}, {128, 32}, {256, 16}};
  std::vector<bool> broadcast = {false, true};
  std::vector<systolic::Pipelining> pipelinings = {
      systolic::Pipelining::kPipelined, systolic::Pipelining::kTransparent2,
      systolic::Pipelining::kTransparent4};
  std::vector<systolic::Datapath> datapaths = {systolic::Datapath::kInt8,
                                               systolic::Datapath::kFp16,
                                               systolic::Datapath::kFp32};
  std::vector<std::int64_t> sram_bytes = {4 * 1024 * 1024, 8 * 1024 * 1024};
  double dram_bytes_per_cycle = 16.0;
};

/// The axis cross product, in a fixed nested order (shape-major), so point
/// indices are stable.
std::vector<DesignPoint> enumerate_design_points(const DseAxes& axes);

/// The standard workload: the five paper networks x {baseline, FuSe-Full,
/// FuSe-Half} (uniform modes — deliberately NOT the 50% variants, whose
/// slot selection depends on the ArrayConfig being evaluated; the model
/// set must be constant across the sweep).
std::vector<nets::NetworkModel> default_dse_workload();

/// Scores one candidate over a workload: latency is the sum of the
/// workload's roofline bound cycles divided by the effective clock;
/// area/power from the component hw model. `bound_cycles_out` (optional)
/// receives the summed bound cycles.
Objectives evaluate_design_point(const DesignPoint& point,
                                 const std::vector<nets::NetworkModel>& workload,
                                 sched::SchedMode mode,
                                 sched::EvalCache* cache,
                                 std::uint64_t* bound_cycles_out = nullptr);

struct ExploreOptions {
  sched::SchedMode mode = sched::SchedMode::kFused;
  /// Worker threads: -1 = hardware concurrency, 0/1 = serial.
  int threads = -1;
  /// Memoize per-layer costs across configurations.
  bool use_cache = true;
};

struct ExploreResult {
  std::vector<DesignPoint> points;
  std::vector<Objectives> objectives;      // parallel to points
  std::vector<std::uint64_t> bound_cycles;  // parallel to points
  ParetoFront front;
  /// EvalCache memo hit rate over the sweep, percent (0 with cache off).
  double memo_hit_pct = 0.0;
};

/// The sweep: parallel evaluation (index-slot writes), then serial
/// index-order frontier pruning. Records dse.configs_evaluated /
/// dse.points_pruned counters and the memo.hit_pct gauge.
ExploreResult explore(const DseAxes& axes,
                      const std::vector<nets::NetworkModel>& workload,
                      const ExploreOptions& options = {});

/// Writes the full point table as CSV: one row per point (stable index
/// order) with objectives and a `frontier` 0/1 column.
void write_explore_csv(const ExploreResult& result, const std::string& path);

}  // namespace fuse::dse
