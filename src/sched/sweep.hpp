// SweepEngine: the parallel, memoized evaluation engine behind every
// variant x array-config sweep in the repo.
//
// Two ingredients:
//   * a util::ThreadPool (work-stealing) that fans independent sweep
//     tasks — (network, variant) builds, array sizes — across worker
//     threads (a single layer costs well under a pool dispatch, so layer
//     walks stay serial inside each task), and
//   * an EvalCache that memoizes the closed-form layer costs
//     (eval_fast.hpp) by shape key, so the shapes MobileNet-style nets
//     repeat (and that recur across FuSe variants and sweep points) are
//     computed once.
//
// Determinism guarantee: every parallel loop writes results into a slot
// indexed by its iteration number and reductions happen serially in index
// order afterwards, so the output is BYTE-IDENTICAL for any thread count
// (including 0/1) and with the cache on or off. layer_latency is a pure
// function of (layer geometry, array config) — memoization cannot change
// a value, only skip recomputation. tests/test_sweep_determinism.cpp and
// the differential property in tests/test_properties.cpp pin this.
#pragma once

#include <cstdint>
#include <string>

#include "sched/eval_fast.hpp"
#include "sched/report.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace fuse::sched {

struct SweepOptions {
  /// Worker threads. -1 -> util::ThreadPool::hardware_threads();
  /// 0 and 1 both execute serially (0 = no workers at all).
  int threads = -1;

  /// Memoize layer costs through the engine's EvalCache.
  bool use_cache = true;
};

/// Observability counters for bench output.
struct SweepStats {
  int threads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t cache_entries = 0;
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  /// Memoized whole-network latency (== sched::network_latency). A serial
  /// walk: cheap enough to run inside other parallel tasks.
  NetworkLatency network_latency(const NetworkModel& model,
                                 const ArrayConfig& cfg);

  /// Table I: 5 networks x 5 variants, variants fanned across the pool.
  std::vector<Table1Row> table1_rows(const ArrayConfig& cfg);

  /// Fig. 8(d): one task per array size.
  std::vector<ScalingPoint> scaling_sweep(
      NetworkId id, NetworkVariant variant,
      const std::vector<std::int64_t>& sizes);

  /// Memoized variant build / speedup (see latency.hpp).
  VariantBuild build_variant(NetworkId id, NetworkVariant variant,
                             const ArrayConfig& cfg);
  double speedup_vs_baseline(NetworkId id, NetworkVariant variant,
                             const ArrayConfig& cfg);

  SweepStats stats() const;
  const SweepOptions& options() const { return options_; }
  util::ThreadPool& pool() { return pool_; }
  EvalCache* cache() { return options_.use_cache ? &cache_ : nullptr; }

 private:
  SweepOptions options_;
  util::ThreadPool pool_;
  EvalCache cache_;
};

/// Process-wide engine (hardware threads, cache on) that the free
/// report-builder functions (sched::table1_rows, sched::scaling_sweep)
/// run on.
SweepEngine& default_sweep_engine();

/// Registers the standard sweep flags on a bench binary:
///   --threads=N   worker threads (default -1 = hardware concurrency)
///   --no-cache    disable layer-latency memoization
void add_sweep_flags(util::CliFlags& flags);

/// Reads the flags registered by add_sweep_flags.
SweepOptions sweep_options_from_flags(const util::CliFlags& flags);

/// One-line bench footer, e.g.
/// "sweep: 8 threads, cache 512 hits / 40 misses (40 shapes), 1.23 ms".
std::string sweep_stats_line(const SweepEngine& engine, double wall_ms);

}  // namespace fuse::sched
