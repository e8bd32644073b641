// design_sweep: the plan-free latency path and its memo. One op is one
// dse::explore call (1 thread, memo on, fused sched mode) over a seeded
// axis grid on dse::default_dse_workload(). The traced run composes the
// same public calls itself (eval_network_fast with the op's EvalCache,
// hw::array_hw, ParetoFront::offer) so each layer gets its own span.
#include <algorithm>

#include "common.hpp"
#include "dse/explore.hpp"
#include "hw/area_power.hpp"

namespace perfbench {
namespace {

using fuse::dse::DesignPoint;
using fuse::dse::DseAxes;
using fuse::dse::Objectives;
using fuse::sched::SchedMode;

constexpr std::uint64_t kStreamOp = 11;
constexpr std::uint64_t kStreamCheck = 12;
constexpr SchedMode kMode = SchedMode::kFused;
// Traced ops whose grids also run the direct-versus-memo probe.
constexpr std::size_t kProbeOps = 8;

/// What a traced op leaves for the deferred checks and metrics.
struct TracedOp {
  std::int64_t index = 0;
  double hit_pct = 0.0;
  std::vector<std::size_t> front;  // entry ids in offer order
};

/// Picks `k` distinct entries of `all`, in their original order.
template <typename T>
std::vector<T> pick(fuse::util::Rng& rng, const std::vector<T>& all,
                    std::size_t k) {
  std::vector<int> order = permutation(rng, static_cast<int>(all.size()));
  order.resize(k);
  std::sort(order.begin(), order.end());
  std::vector<T> out;
  for (int i : order) {
    out.push_back(all[static_cast<std::size_t>(i)]);
  }
  return out;
}

bool same_objectives(const Objectives& a, const Objectives& b) {
  return a.latency_ms == b.latency_ms && a.area_mm2 == b.area_mm2 &&
         a.power_w == b.power_w;
}

class DesignSweep final : public Workload {
 public:
  const char* name() const override { return "design_sweep"; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    workload_ = fuse::dse::default_dse_workload();
    for (const fuse::nets::NetworkModel& model : workload_) {
      layers_ += model.layers.size();
    }
  }

  /// One warm-up op, on a grid no timed op draws.
  std::vector<std::int64_t> warm_up_ops() const override { return {-1}; }
  int round_size() const override { return 1; }

  /// Every op draws the same number of values per axis (so every op
  /// scores the same number of design points): 3 of the 5 default
  /// 4096-PE shapes, both broadcast settings, 2 of 3 pipelinings, 2 of 3
  /// datapaths and 1 of 2 SRAM sizes -> 24 points.
  DseAxes draw(std::int64_t index) const {
    fuse::util::Rng rng(
        stream_seed(seed_, kStreamOp, static_cast<std::uint64_t>(index)));
    const DseAxes all;
    DseAxes axes = all;
    axes.shapes = pick(rng, all.shapes, 3);
    axes.pipelinings = pick(rng, all.pipelinings, 2);
    axes.datapaths = pick(rng, all.datapaths, 2);
    axes.sram_bytes = pick(rng, all.sram_bytes, 1);
    return axes;
  }

  void run_op(std::int64_t index) override {
    const DseAxes axes = draw(index);
    if (!tracer().enabled()) {
      fuse::dse::ExploreOptions options;
      options.mode = kMode;
      options.threads = 1;
      options.use_cache = true;
      result_ = fuse::dse::explore(axes, workload_, options);
      return;
    }
    // Traced: explore's own sequence of public calls, one span each.
    fuse::sched::EvalCache memo;
    fuse::dse::ExploreResult r;
    r.points = fuse::dse::enumerate_design_points(axes);
    for (const DesignPoint& point : r.points) {
      std::uint64_t bound = 0;
      for (const fuse::nets::NetworkModel& model : workload_) {
        Span span("sched.eval_network_fast");
        bound += fuse::sched::eval_network_fast(model, point.cfg, point.mem,
                                                kMode, &memo)
                     .roofline.bound_cycles;
      }
      fuse::hw::ArrayHwReport hw;
      {
        Span span("hw.array_hw");
        hw = fuse::hw::array_hw(point.cfg, fuse::hw::nangate45_model());
      }
      Objectives obj;
      obj.latency_ms = static_cast<double>(bound) /
                       (point.cfg.effective_freq_mhz() * 1e3);
      obj.area_mm2 = hw.area_mm2;
      obj.power_w = hw.power_mw * 1e-3;
      r.objectives.push_back(obj);
      r.bound_cycles.push_back(bound);
    }
    for (std::size_t i = 0; i < r.objectives.size(); ++i) {
      Span span("dse.pareto_offer");
      r.front.offer(i, r.objectives[i]);
    }
    r.memo_hit_pct = memo.hit_rate_pct();
    result_ = std::move(r);
  }

  bool after_op(std::int64_t index) override {
    const DseAxes axes = draw(index);
    bool ok = true;
    if (index == 0) {
      // The networks are built once, in set-up; their layers are checked
      // with the first op of every section.
      for (const fuse::nets::NetworkModel& model : workload_) {
        ok &= check_layer_macs(checks_, model.layers);
      }
    }
    if (tracer().enabled()) {
      // Compared with explore's frontier in finish_checks, so that the
      // extra explore call does not run between traced ops.
      TracedOp t;
      t.index = index;
      t.hit_pct = result_.memo_hit_pct;
      for (const fuse::dse::ParetoEntry& e : result_.front.entries()) {
        t.front.push_back(e.id);
      }
      traced_.push_back(std::move(t));
    }

    // Frontier == brute-force O(n^2) dominance filter over every point.
    const std::vector<Objectives>& objs = result_.objectives;
    std::vector<std::size_t> brute;
    for (std::size_t i = 0; i < objs.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < objs.size() && !dominated; ++j) {
        const auto a = objs[j].axes();
        const auto b = objs[i].axes();
        bool no_worse = true, better = false;
        for (std::size_t k = 0; k < a.size(); ++k) {
          no_worse = no_worse && a[k] <= b[k];
          better = better || a[k] < b[k];
        }
        dominated = no_worse && better;
      }
      if (!dominated) {
        brute.push_back(i);
      }
    }
    std::vector<std::size_t> front;
    for (const fuse::dse::ParetoEntry& e : result_.front.entries()) {
      front.push_back(e.id);
    }
    std::sort(front.begin(), front.end());
    if (checks_.corrupt("design_sweep.front_eq_bruteforce")) {
      front.pop_back();
    }
    ok &= checks_.expect("design_sweep.front_eq_bruteforce", front == brute,
                         "op " + std::to_string(index) + ": frontier of " +
                             std::to_string(front.size()) + ", brute force " +
                             std::to_string(brute.size()));

    // Memo-on objectives == memo-off objectives on two sampled points.
    fuse::util::Rng rng(
        stream_seed(seed_, kStreamCheck, static_cast<std::uint64_t>(index)));
    for (int s = 0; s < 2; ++s) {
      const std::size_t i = rng.uniform_index(result_.points.size());
      Objectives memo_off = fuse::dse::evaluate_design_point(
          result_.points[i], workload_, kMode, nullptr);
      if (checks_.corrupt("design_sweep.memo_eq_no_memo")) {
        memo_off.latency_ms *= 1.0001;
      }
      ok &= checks_.expect("design_sweep.memo_eq_no_memo",
                           same_objectives(memo_off, result_.objectives[i]),
                           result_.points[i].label());
    }
    return ok;
  }

  std::vector<std::int64_t> finish_checks() override {
    std::vector<std::int64_t> failed;
    for (std::size_t i = 0; i < traced_.size(); ++i) {
      const TracedOp& t = traced_[i];
      // The direct-versus-memo probe runs on the grids of the first
      // kProbeOps traced ops.
      if (i < kProbeOps && !probe_layer_calls(draw(t.index))) {
        failed.push_back(t.index);
      }
      // The composed frontier must be explore's, entry for entry.
      fuse::dse::ExploreOptions options;
      options.mode = kMode;
      options.threads = 1;
      const fuse::dse::ExploreResult ref =
          fuse::dse::explore(draw(t.index), workload_, options);
      std::vector<std::size_t> want;
      for (const fuse::dse::ParetoEntry& e : ref.front.entries()) {
        want.push_back(e.id);
      }
      std::vector<std::size_t> got = t.front;
      if (checks_.corrupt("design_sweep.traced_front_eq_explore")) {
        got.pop_back();
      }
      if (!checks_.expect("design_sweep.traced_front_eq_explore", got == want,
                          "op " + std::to_string(t.index))) {
        failed.push_back(t.index);
      }
    }
    return failed;
  }

  /// Per-call cost of the layer evaluator with and without the memo, on
  /// the op's own grid: every layer of every point once through
  /// eval_layer_fast, then through a fresh EvalCache (the lookup sequence
  /// explore makes). Returns whether both gave the same cycles.
  bool probe_layer_calls(const DseAxes& axes) {
    const std::vector<DesignPoint> points =
        fuse::dse::enumerate_design_points(axes);
    double calls = 0.0;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (const DesignPoint& p : points) {
      for (const fuse::nets::NetworkModel& model : workload_) {
        for (const fuse::nn::LayerDesc& layer : model.layers) {
          sink += fuse::sched::eval_layer_fast(layer, p.cfg, p.mem)
                      .latency.cycles;
          calls += 1.0;
        }
      }
    }
    const Clock::time_point t1 = Clock::now();
    fuse::sched::EvalCache memo;
    for (const DesignPoint& p : points) {
      for (const fuse::nets::NetworkModel& model : workload_) {
        for (const fuse::nn::LayerDesc& layer : model.layers) {
          sink -= memo.get_or_compute(layer, p.cfg, p.mem).latency.cycles;
        }
      }
    }
    const Clock::time_point t2 = Clock::now();
    eval_layer_us_.push_back(seconds_between(t0, t1) * 1e6 / calls);
    eval_memo_us_.push_back(seconds_between(t1, t2) * 1e6 / calls);
    if (checks_.corrupt("design_sweep.memo_probe_eq")) {
      sink += 1;
    }
    return checks_.expect("design_sweep.memo_probe_eq", sink == 0,
                          "memo and direct layer evaluations differ");
  }

  void layer_metrics(const Tracer& trace, Metrics* out) override {
    std::vector<double> hit_pct;
    for (const TracedOp& t : traced_) {
      hit_pct.push_back(t.hit_pct);
    }
    (*out)["sched.eval_memo_hit_pct"] = {median(hit_pct), "%"};
    (*out)["sched.eval_network_ms"] = {
        span_ms_p50(trace, "sched.eval_network_fast"), "ms"};
    (*out)["sched.eval_layer_us"] = {median(eval_layer_us_), "us"};
    (*out)["sched.eval_memo_us"] = {median(eval_memo_us_), "us"};
    std::vector<double> hw_us, offer_us;
    for (const SpanTotals& t : trace.per_op("hw.array_hw")) {
      hw_us.push_back(t.calls ? t.total_s * 1e6 / t.calls : 0.0);
    }
    for (const SpanTotals& t : trace.per_op("dse.pareto_offer")) {
      offer_us.push_back(t.calls ? t.total_s * 1e6 / t.calls : 0.0);
    }
    (*out)["hw.array_hw_us"] = {median(hw_us), "us"};
    (*out)["dse.pareto_offer_us"] = {median(offer_us), "us"};
  }

  void reset_records() override {
    traced_.clear();
    eval_layer_us_.clear();
    eval_memo_us_.clear();
  }

  std::string describe_settings() const override {
    return "one op = dse::explore (1 thread, memo on, sched mode fused) over "
           "24 seeded design points (3 of 5 shapes x broadcast on/off x 2 of "
           "3 pipelinings x 2 of 3 datapaths x 1 of 2 SRAM sizes) on the " +
           std::to_string(workload_.size()) + " default DSE networks (" +
           std::to_string(layers_) + " layers)";
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<fuse::nets::NetworkModel> workload_;
  std::size_t layers_ = 0;
  fuse::dse::ExploreResult result_;
  std::vector<TracedOp> traced_;
  std::vector<double> eval_layer_us_;
  std::vector<double> eval_memo_us_;
};

}  // namespace

std::unique_ptr<Workload> make_design_sweep() {
  return std::make_unique<DesignSweep>();
}

}  // namespace perfbench
