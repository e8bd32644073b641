// table_sweep: the plan path behind every table and figure bench. One op is
// one seeded ArrayConfig: build_variant, network_latency, plan_network and
// plan_roofline over the 25 Table-I variants in a seeded sched mode on a
// fresh sched::SweepEngine (1 thread, memo on), then table1_rows on another
// fresh engine. No kernels, no simulation.
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "nets/zoo.hpp"
#include "sched/netplan.hpp"
#include "sched/sweep.hpp"
#include "systolic/mapping.hpp"
#include "systolic/sim.hpp"

namespace perfbench {
namespace {

using fuse::core::NetworkVariant;
using fuse::nets::NetworkId;
using fuse::sched::SchedMode;
using fuse::systolic::ArrayConfig;
using fuse::systolic::Dataflow;

constexpr std::uint64_t kStreamRound = 1;
constexpr std::uint64_t kStreamOp = 2;
constexpr std::uint64_t kStreamCheck = 3;

// A round covers every dataflow x broadcast x fold-drain-overlap stratum
// once, in a seeded order; rows and cols are Latin-hypercube draws over the
// round and the sched mode is drawn per op.
constexpr int kRound = 12;
// Ops of the first rounds that also re-run one seeded layer through the
// simulator (bounded: the simulator is far slower than the sweep).
constexpr std::int64_t kSimCheckedOps = 2 * kRound;

struct Draw {
  ArrayConfig cfg;
  SchedMode mode = SchedMode::kPerLayer;
};

struct SimCheck {
  std::int64_t op = 0;
  fuse::nn::LayerDesc layer;
  ArrayConfig cfg;
  std::uint64_t sweep_cycles = 0;
};

struct Cell {
  NetworkId id;
  NetworkVariant variant;
  fuse::sched::VariantBuild build;
  fuse::sched::NetworkLatency latency;
  std::uint64_t plan_cycles = 0;
  std::uint64_t roofline_compute = 0;
};

class TableSweep final : public Workload {
 public:
  const char* name() const override { return "table_sweep"; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    // Set-up builds what every op reads: the network list, and one sweep
    // of the paper's array so the variant builders and lowering code have
    // run once before timing.
    networks_ = fuse::nets::paper_networks();
    fuse::sched::SweepEngine engine({/*threads=*/1, /*use_cache=*/true});
    paper_rows_ = engine.table1_rows(fuse::systolic::square_array(64));
  }

  /// One warm-up op per dataflow.
  std::vector<std::int64_t> warm_up_ops() const override {
    return {-1, -2, -3};
  }
  int round_size() const override { return kRound; }

  /// Negative indices are the warm-up ops: the paper's 64x64 array in
  /// each dataflow.
  Draw draw(std::int64_t index) const {
    if (index < 0) {
      Draw d;
      d.cfg.dataflow = static_cast<Dataflow>(-1 - index);
      return d;
    }
    fuse::util::Rng round_rng(stream_seed(seed_, kStreamRound,
                                          static_cast<std::uint64_t>(
                                              index / kRound)));
    const std::size_t pos = static_cast<std::size_t>(index % kRound);
    const int stratum = permutation(round_rng, kRound)[pos];
    // Rows and cols are Latin-hypercube draws: the round's ops take one
    // value from each of kRound equal slices of 16..256, in seeded orders.
    const int row_slice = permutation(round_rng, kRound)[pos];
    const int col_slice = permutation(round_rng, kRound)[pos];
    fuse::util::Rng rng(
        stream_seed(seed_, kStreamOp, static_cast<std::uint64_t>(index)));
    auto lhs = [&](int slice) {
      return 16 + static_cast<std::int64_t>(241.0 * (slice + rng.uniform()) /
                                            kRound);
    };
    Draw d;
    d.cfg.rows = lhs(row_slice);
    d.cfg.cols = lhs(col_slice);
    d.cfg.dataflow = static_cast<Dataflow>(stratum % 3);
    d.cfg.broadcast_links = (stratum / 3) % 2 == 1;
    d.cfg.overlap_fold_drain = stratum / 6 == 1;
    d.mode = rng.uniform_index(2) == 0 ? SchedMode::kPerLayer
                                       : SchedMode::kFused;
    return d;
  }

  void run_op(std::int64_t index) override {
    const Draw d = draw(index);
    cells_.clear();
    // Two engines, so that neither pass is served from the other's memo:
    // the per-cell spans time real layer evaluations, and the memo figures
    // are table1_rows' own.
    fuse::sched::SweepEngine engine({/*threads=*/1, /*use_cache=*/true});
    for (NetworkId id : networks_) {
      for (NetworkVariant v : fuse::core::all_network_variants()) {
        Cell cell{id, v, {}, {}, 0, 0};
        {
          Span span("nets.build_variant");
          cell.build = engine.build_variant(id, v, d.cfg);
        }
        {
          Span span("sched.network_latency");
          cell.latency = engine.network_latency(cell.build.model, d.cfg);
        }
        {
          Span span("sched.plan");
          const fuse::sched::NetworkPlan plan = fuse::sched::plan_network(
              cell.build.model, d.cfg, mem_, d.mode);
          const fuse::sched::NetworkRoofline roof =
              fuse::sched::plan_roofline(plan);
          cell.plan_cycles = plan.total_cycles;
          cell.roofline_compute = roof.compute_cycles;
        }
        cells_.push_back(std::move(cell));
      }
    }
    fuse::sched::SweepEngine table_engine({/*threads=*/1, /*use_cache=*/true});
    {
      Span span("sched.table1_rows");
      rows_ = table_engine.table1_rows(d.cfg);
    }
    stats_ = table_engine.stats();
  }

  bool after_op(std::int64_t index) override {
    const Draw d = draw(index);
    const std::uint64_t lookups = stats_.cache_hits + stats_.cache_misses;
    hit_pct_.push_back(lookups == 0 ? 0.0
                                    : 100.0 *
                                          static_cast<double>(
                                              stats_.cache_hits) /
                                          static_cast<double>(lookups));
    layer_evals_.push_back(static_cast<double>(stats_.cache_misses));

    std::size_t row_count = rows_.size();
    if (checks_.corrupt("table_sweep.cells")) {
      row_count -= 1;
    }
    bool ok = checks_.expect("table_sweep.cells", row_count == cells_.size(),
                             "table1_rows returned " +
                                 std::to_string(row_count) + " rows for " +
                                 std::to_string(cells_.size()) + " cells");
    for (std::size_t c = 0; c < cells_.size() && c < rows_.size(); ++c) {
      const Cell& cell = cells_[c];
      std::uint64_t net_macs = 0;
      ok &= check_layer_macs(checks_, cell.build.model.layers, &net_macs);
      std::uint64_t row_macs = rows_[c].macs;
      if (checks_.corrupt("table_sweep.row_macs")) {
        row_macs += 1;
      }
      ok &= checks_.expect("table_sweep.row_macs", row_macs == net_macs,
                           cell.build.model.name + " Table-I MACs " +
                               std::to_string(row_macs) + " != textbook " +
                               std::to_string(net_macs));
      // The network plan's total is the per-layer analytic sum in both
      // sched modes, and the roofline's compute term is that total.
      std::uint64_t plan_cycles = cell.plan_cycles;
      if (checks_.corrupt("table_sweep.plan_vs_latency")) {
        plan_cycles += 1;
      }
      ok &= checks_.expect(
          "table_sweep.plan_vs_latency",
          plan_cycles == cell.latency.total_cycles &&
              cell.roofline_compute == cell.latency.total_cycles &&
              rows_[c].cycles == cell.latency.total_cycles,
          cell.build.model.name + ": plan " + std::to_string(plan_cycles) +
              ", roofline compute " + std::to_string(cell.roofline_compute) +
              ", table " + std::to_string(rows_[c].cycles) + ", latency " +
              std::to_string(cell.latency.total_cycles));
    }
    if (!d.cfg.overlap_fold_drain && index < kSimCheckedOps &&
        !cells_.empty()) {
      queue_simulator_check(index, d.cfg);
    }
    return ok;
  }

  /// Without fold-drain overlap the sweep's per-layer cycles must equal
  /// the PE-grid simulator's run of the same plan. The seeded layer is
  /// picked here and simulated in finish_checks.
  void queue_simulator_check(std::int64_t index, const ArrayConfig& cfg) {
    fuse::util::Rng rng(
        stream_seed(seed_, kStreamCheck, static_cast<std::uint64_t>(index)));
    const Cell& cell = cells_[rng.uniform_index(cells_.size())];
    std::vector<std::size_t> on_array;
    for (std::size_t i = 0; i < cell.build.model.layers.size(); ++i) {
      if (cell.latency.per_layer[i].cycles > 0) {
        on_array.push_back(i);
      }
    }
    const std::size_t li = on_array[rng.uniform_index(on_array.size())];
    sim_checks_.push_back({index, cell.build.model.layers[li], cfg,
                           cell.latency.per_layer[li].cycles});
  }

  std::vector<std::int64_t> finish_checks() override {
    std::vector<std::int64_t> failed_ops;
    for (const SimCheck& c : sim_checks_) {
      fuse::systolic::SystolicArraySim sim(c.cfg);
      std::uint64_t simulated =
          sim.run_plan(fuse::systolic::lower(c.layer, c.cfg)).cycles;
      if (checks_.corrupt("table_sweep.sweep_vs_sim")) {
        simulated += 1;
      }
      if (!checks_.expect("table_sweep.sweep_vs_sim",
                          simulated == c.sweep_cycles,
                          c.layer.name + " on " + c.cfg.to_string() +
                              ": sweep " + std::to_string(c.sweep_cycles) +
                              " != simulated " + std::to_string(simulated))) {
        failed_ops.push_back(c.op);
      }
    }
    sim_checks_.clear();

    // At the paper's 64x64 broadcast OS array every network ranks its
    // four FuSe variants as Table I does, and every one is a speedup.
    for (NetworkId id : networks_) {
      std::vector<std::pair<double, NetworkVariant>> measured, paper;
      for (const fuse::sched::Table1Row& row : paper_rows_) {
        if (row.network == id && row.variant != NetworkVariant::kBaseline) {
          double speedup = row.speedup;
          if (checks_.corrupt("table_sweep.table1_order")) {
            speedup = 0.5;
          }
          measured.push_back({speedup, row.variant});
          paper.push_back({row.paper_speedup, row.variant});
        }
      }
      std::sort(measured.rbegin(), measured.rend());
      std::sort(paper.rbegin(), paper.rend());
      bool same = measured.size() == 4 && paper.size() == 4;
      std::string got;
      for (std::size_t i = 0; i < measured.size() && same; ++i) {
        same = measured[i].second == paper[i].second &&
               measured[i].first > 1.0;
        got += fuse::core::network_variant_name(measured[i].second) + "=" +
               std::to_string(measured[i].first) + " ";
      }
      checks_.expect("table_sweep.table1_order", same,
                     fuse::nets::network_name(id) + " ranks " + got);
    }
    return failed_ops;
  }

  void layer_metrics(const Tracer& trace, Metrics* out) override {
    (*out)["nets.build_ms"] = {span_ms_p50(trace, "nets.build_variant"),
                               "ms"};
    (*out)["sched.latency_ms"] = {
        span_ms_p50(trace, "sched.network_latency"), "ms"};
    (*out)["sched.plan_ms"] = {span_ms_p50(trace, "sched.plan"), "ms"};
    (*out)["sched.latency_memo_hit_pct"] = {median(hit_pct_), "%"};
    (*out)["sched.layer_evals"] = {median(layer_evals_), "count"};
  }

  void reset_records() override {
    hit_pct_.clear();
    layer_evals_.clear();
    sim_checks_.clear();
  }

  std::string describe_settings() const override {
    return "one op = two fresh SweepEngines (1 thread, memo on) on one "
           "seeded array, one for the 25 cells and one for table1_rows: "
           "rows, cols Latin-hypercube in 16..256, sched mode of "
           "plan_network per-layer or fused (seeded coin per op); each "
           "round of 12 ops "
           "covers {OS,WS,IS} x broadcast on/off x fold-drain overlap on/off "
           "once";
  }

 private:
  std::uint64_t seed_ = 0;
  fuse::systolic::MemoryConfig mem_;
  std::vector<NetworkId> networks_;
  std::vector<fuse::sched::Table1Row> paper_rows_;
  std::vector<fuse::sched::Table1Row> rows_;
  std::vector<Cell> cells_;
  std::vector<SimCheck> sim_checks_;
  fuse::sched::SweepStats stats_;
  std::vector<double> hit_pct_;
  std::vector<double> layer_evals_;
};

}  // namespace

std::unique_ptr<Workload> make_table_sweep() {
  return std::make_unique<TableSweep>();
}

}  // namespace perfbench
