// The SweepEngine's headline guarantee: results are BYTE-IDENTICAL for any
// thread count and with the memoization cache on or off, and they equal
// the serial free-function reference path. A deterministic parallel sweep
// is what lets bench output stay diffable against results/ regardless of
// the host's core count. Serialization below is exhaustive (every field,
// full precision) so any divergence — value or ordering — trips the
// string comparison.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sched/latency.hpp"
#include "sched/sweep.hpp"
#include "util/telemetry.hpp"
#include "util/trace_sink.hpp"

namespace fuse::sched {
namespace {

systolic::ArrayConfig paper_array() { return systolic::square_array(64); }

const std::vector<std::int64_t>& scaling_sizes() {
  static const std::vector<std::int64_t> sizes = {8, 16, 32, 64, 128, 256};
  return sizes;
}

// Every field of every row, full precision; ordering differences show up
// as string differences.
std::string serialize(const std::vector<Table1Row>& rows) {
  std::ostringstream out;
  out.precision(17);
  for (const Table1Row& r : rows) {
    out << static_cast<int>(r.network) << '|' << static_cast<int>(r.variant)
        << '|' << r.macs << '|' << r.params << '|' << r.cycles << '|'
        << r.speedup << '|' << r.paper_accuracy << '|'
        << r.paper_macs_millions << '|' << r.paper_params_millions << '|'
        << r.paper_speedup << '\n';
  }
  return out.str();
}

std::string serialize(const std::vector<ScalingPoint>& points) {
  std::ostringstream out;
  out.precision(17);
  for (const ScalingPoint& p : points) {
    out << p.array_size << '|' << p.speedup << '\n';
  }
  return out.str();
}

std::string serialize(const NetworkLatency& net) {
  std::ostringstream out;
  out << net.total_cycles;
  for (const auto& layer : net.per_layer) {
    out << '\n'
        << layer.cycles << '|' << layer.folds << '|' << layer.mac_ops
        << '|' << layer.pe_count;
  }
  return out.str();
}

// One full sweep workload under the given options, serialized.
std::string run_workload(const SweepOptions& options) {
  SweepEngine engine(options);
  std::ostringstream out;
  out << serialize(engine.table1_rows(paper_array()));
  for (nets::NetworkId id : nets::paper_networks()) {
    out << serialize(engine.scaling_sweep(
        id, core::NetworkVariant::kFuseHalf, scaling_sizes()));
  }
  out << serialize(engine.network_latency(
      nets::build_network(nets::NetworkId::kMobileNetV2), paper_array()));
  return out.str();
}

TEST(SweepDeterminism, ByteIdenticalAcrossThreadCounts) {
  const std::string reference =
      run_workload({.threads = 1, .use_cache = true});
  for (int threads : {0, 2, 8}) {
    EXPECT_EQ(run_workload({.threads = threads, .use_cache = true}),
              reference)
        << "threads=" << threads;
  }
}

TEST(SweepDeterminism, ByteIdenticalWithCacheOnAndOff) {
  for (int threads : {1, 8}) {
    EXPECT_EQ(run_workload({.threads = threads, .use_cache = false}),
              run_workload({.threads = threads, .use_cache = true}))
        << "threads=" << threads;
  }
}

TEST(SweepDeterminism, RepeatedRunsOnOneEngineAreStable) {
  // Second run hits a warm cache everywhere; results must not move.
  SweepEngine engine({.threads = 8, .use_cache = true});
  const auto first = serialize(engine.table1_rows(paper_array()));
  const auto second = serialize(engine.table1_rows(paper_array()));
  EXPECT_EQ(first, second);
  EXPECT_GT(engine.stats().cache_hits, 0u);
}

TEST(SweepDeterminism, EngineMatchesSerialFreeFunctions) {
  SweepEngine engine({.threads = 8, .use_cache = true});
  const auto cfg = paper_array();
  for (nets::NetworkId id : nets::paper_networks()) {
    const auto model = nets::build_network(id);
    // Free sched::network_latency with no cache argument is the serial
    // reference implementation.
    EXPECT_EQ(serialize(engine.network_latency(model, cfg)),
              serialize(network_latency(model, cfg)))
        << nets::network_name(id);
  }
}

TEST(SweepDeterminism, GoldenConstantsSurviveTheParallelEngine) {
  // The same pinned values as test_golden.cpp, but produced through a
  // multi-threaded cached engine.
  SweepEngine engine({.threads = 8, .use_cache = true});
  const auto cfg = paper_array();
  struct Expected {
    nets::NetworkId id;
    std::uint64_t cycles;
    double half_speedup;
  };
  const Expected expected[] = {
      {nets::NetworkId::kMobileNetV1, 2594775, 7.90},
      {nets::NetworkId::kMobileNetV2, 3128106, 8.96},
      {nets::NetworkId::kMnasNetB1, 2984050, 9.30},
      {nets::NetworkId::kMobileNetV3Small, 738162, 6.01},
      {nets::NetworkId::kMobileNetV3Large, 2109939, 6.85},
  };
  for (const Expected& e : expected) {
    const auto model = nets::build_network(e.id);
    EXPECT_EQ(engine.network_latency(model, cfg).total_cycles, e.cycles)
        << nets::network_name(e.id);
    EXPECT_NEAR(engine.speedup_vs_baseline(
                    e.id, core::NetworkVariant::kFuseHalf, cfg),
                e.half_speedup, 0.005)
        << nets::network_name(e.id);
  }
}

TEST(SweepDeterminism, CacheStatsAccountForEveryLookup) {
  SweepEngine engine({.threads = 2, .use_cache = true});
  const auto model = nets::build_network(nets::NetworkId::kMobileNetV2);
  const auto cfg = paper_array();
  const std::uint64_t layers =
      static_cast<std::uint64_t>(model.layers.size());

  engine.network_latency(model, cfg);
  SweepStats stats = engine.stats();
  EXPECT_EQ(stats.threads, 2);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, layers);
  EXPECT_EQ(stats.cache_entries, stats.cache_misses);
  const std::uint64_t first_misses = stats.cache_misses;

  // A second pass over the same network is all hits.
  engine.network_latency(model, cfg);
  stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, first_misses);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 2 * layers);
}

TEST(SweepDeterminism, CacheOffEngineReportsNoCacheTraffic) {
  SweepEngine engine({.threads = 2, .use_cache = false});
  engine.network_latency(
      nets::build_network(nets::NetworkId::kMobileNetV1), paper_array());
  const SweepStats stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(SweepDeterminism, ByteIdenticalWithTelemetryAttached) {
  // Tracing and stats export must never perturb results: the same
  // workload with a global trace sink attached (what --trace-json +
  // --stats-json enable in the benches) serializes identically.
  const std::string reference =
      run_workload({.threads = 8, .use_cache = true});

  util::TraceSink sink;
  util::set_global_trace_sink(&sink);
  const std::string traced = run_workload({.threads = 8, .use_cache = true});
  util::set_global_trace_sink(nullptr);
  std::ostringstream stats_json;
  util::metrics().write_json(stats_json);

  EXPECT_EQ(traced, reference);
  if (util::telemetry_enabled()) {
    EXPECT_GT(sink.event_count(), 0u);
    EXPECT_FALSE(stats_json.str().empty());
  }
}

TEST(SweepDeterminism, StatsLineMentionsThreadsAndCacheState) {
  SweepEngine cached({.threads = 3, .use_cache = true});
  const std::string on = sweep_stats_line(cached, 1.5);
  EXPECT_NE(on.find("3 threads"), std::string::npos) << on;
  EXPECT_NE(on.find("cache"), std::string::npos) << on;

  SweepEngine uncached({.threads = 1, .use_cache = false});
  const std::string off = sweep_stats_line(uncached, 0.25);
  EXPECT_NE(off.find("cache off"), std::string::npos) << off;
}

}  // namespace
}  // namespace fuse::sched
