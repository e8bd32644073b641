#include "sched/sweep.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace fuse::sched {

namespace {

/// The calling thread participates in every parallel_for, so an engine
/// asked for N threads spawns N-1 workers (N <= 1 means no workers: the
/// exact serial execution).
int worker_count(int threads) {
  const int resolved =
      threads < 0 ? util::ThreadPool::hardware_threads() : threads;
  return std::max(0, resolved - 1);
}

}  // namespace

SweepEngine::SweepEngine(SweepOptions options)
    : options_(options), pool_(worker_count(options.threads)) {}

NetworkLatency SweepEngine::network_latency(const NetworkModel& model,
                                            const ArrayConfig& cfg) {
  util::ScopedSpan span("sweep.network_latency");
  if (span.active()) {
    span.annotate("network", model.name);
    span.annotate("layers", static_cast<std::uint64_t>(model.layers.size()));
  }
  return sched::network_latency(model, cfg, cache());
}

VariantBuild SweepEngine::build_variant(NetworkId id, NetworkVariant variant,
                                        const ArrayConfig& cfg) {
  return sched::build_variant(id, variant, cfg, cache());
}

double SweepEngine::speedup_vs_baseline(NetworkId id, NetworkVariant variant,
                                        const ArrayConfig& cfg) {
  return sched::speedup_vs_baseline(id, variant, cfg, cache());
}

std::vector<Table1Row> SweepEngine::table1_rows(const ArrayConfig& cfg) {
  util::ScopedSpan sweep_span("sweep.table1_rows");
  const std::vector<NetworkId> networks = nets::paper_networks();
  const std::vector<NetworkVariant> variants = core::all_network_variants();
  const std::int64_t num_networks = static_cast<std::int64_t>(networks.size());
  const std::int64_t num_variants = static_cast<std::int64_t>(variants.size());

  // Phase 1: each network's baseline cycles (the speedup denominator).
  std::vector<std::uint64_t> baseline_cycles(
      static_cast<std::size_t>(num_networks), 0);
  pool_.parallel_for(num_networks, [&](std::int64_t i) {
    const NetworkId id = networks[static_cast<std::size_t>(i)];
    util::ScopedSpan span("sweep.table1.baseline");
    if (span.active()) {
      span.annotate("network", nets::network_name(id));
    }
    const VariantBuild baseline =
        build_variant(id, NetworkVariant::kBaseline, cfg);
    baseline_cycles[static_cast<std::size_t>(i)] =
        network_latency(baseline.model, cfg).total_cycles;
  });

  // Phase 2: one task per (network, variant) cell, written by index so the
  // row order matches the serial walk exactly.
  std::vector<Table1Row> rows(
      static_cast<std::size_t>(num_networks * num_variants));
  pool_.parallel_for(num_networks * num_variants, [&](std::int64_t flat) {
    const std::size_t net_index = static_cast<std::size_t>(flat / num_variants);
    const NetworkId id = networks[net_index];
    const NetworkVariant variant =
        variants[static_cast<std::size_t>(flat % num_variants)];

    util::ScopedSpan span("sweep.table1.cell");
    if (span.active()) {
      span.annotate("network", nets::network_name(id));
      span.annotate("variant", core::network_variant_name(variant));
    }
    const VariantBuild build = build_variant(id, variant, cfg);
    Table1Row row;
    row.network = id;
    row.variant = variant;
    row.macs = build.model.total_macs();
    row.params = build.model.total_params();
    row.cycles = network_latency(build.model, cfg).total_cycles;
    FUSE_CHECK(row.cycles > 0) << "zero-cycle network";
    row.speedup = static_cast<double>(baseline_cycles[net_index]) /
                  static_cast<double>(row.cycles);
    for (const auto& paper : nets::paper_table1(id)) {
      if (paper.variant == variant) {
        row.paper_accuracy = paper.imagenet_accuracy;
        row.paper_macs_millions = paper.macs_millions;
        row.paper_params_millions = paper.params_millions;
        row.paper_speedup = paper.speedup;
      }
    }
    rows[static_cast<std::size_t>(flat)] = row;
  });
  return rows;
}

std::vector<ScalingPoint> SweepEngine::scaling_sweep(
    NetworkId id, NetworkVariant variant,
    const std::vector<std::int64_t>& sizes) {
  std::vector<ScalingPoint> points(sizes.size());
  pool_.parallel_for(
      static_cast<std::int64_t>(sizes.size()), [&](std::int64_t i) {
        const std::size_t s = static_cast<std::size_t>(i);
        util::ScopedSpan span("sweep.scaling_point");
        if (span.active()) {
          span.annotate("network", nets::network_name(id));
          span.annotate("array_size",
                        static_cast<std::uint64_t>(sizes[s]));
        }
        const ArrayConfig cfg = systolic::square_array(sizes[s]);
        points[s] = ScalingPoint{sizes[s],
                                 speedup_vs_baseline(id, variant, cfg)};
      });
  return points;
}

SweepStats SweepEngine::stats() const {
  SweepStats stats;
  stats.threads = pool_.size() + 1;  // workers + the calling thread
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_entries = cache_.entries();
  return stats;
}

SweepEngine& default_sweep_engine() {
  static SweepEngine engine;  // hardware threads, cache on
  return engine;
}

void add_sweep_flags(util::CliFlags& flags) {
  flags.add_int("threads", -1,
                "sweep worker threads (-1 = hardware concurrency)");
  flags.add_bool("no-cache", false, "disable layer-latency memoization");
}

SweepOptions sweep_options_from_flags(const util::CliFlags& flags) {
  SweepOptions options;
  options.threads = static_cast<int>(flags.get_int("threads"));
  options.use_cache = !flags.get_bool("no-cache");
  return options;
}

std::string sweep_stats_line(const SweepEngine& engine, double wall_ms) {
  const SweepStats stats = engine.stats();
  std::ostringstream out;
  out << "sweep: " << stats.threads << " thread"
      << (stats.threads == 1 ? "" : "s") << ", cache ";
  if (engine.options().use_cache) {
    out << util::format_count(stats.cache_hits) << " hits / "
        << util::format_count(stats.cache_misses) << " misses ("
        << util::format_count(stats.cache_entries) << " shapes)";
  } else {
    out << "off";
  }
  out << ", " << util::fixed(wall_ms, 2) << " ms";
  return out.str();
}

}  // namespace fuse::sched
