// Shared machinery of the benchmark harness: seeded op streams, the span
// tracer that times calls into the program's layers, order statistics and
// the workload interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seed of one independent random stream: `stream` separates the uses of a
/// run's seed (op draws, tensor values, check samples) and `index` the ops,
/// so op i's inputs never depend on the ops drawn before it.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<int> permutation(fuse::util::Rng& rng, int n);

// --- order statistics --------------------------------------------------------

double median(std::vector<double> values);
/// The q-th quantile (0 <= q <= 1), linear interpolation between ranks.
double quantile(std::vector<double> values, double q);
double sum(const std::vector<double>& values);

// --- tracing -----------------------------------------------------------------

/// Per-name totals of the spans of one op.
struct SpanTotals {
  double total_s = 0.0;  // wall time inside the span
  double self_s = 0.0;   // minus the time inside nested spans
  std::uint64_t calls = 0;
};

/// Records spans around the harness's calls into the program. Spans nest
/// (a stack of open spans); each op's spans are folded into per-op totals,
/// from which the per-layer figures are taken per op.
/// The harness is single-threaded: every pool of the program is pinned to
/// one thread, so all spans open and close on the main thread.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void begin_op();
  /// Closes the op; `op_s` is its wall time, used for the uncovered share.
  void end_op(double op_s);

  /// Per-op totals of every span name seen, in op order. An op in which a
  /// name did not occur contributes a zero entry.
  std::vector<SpanTotals> per_op(const std::string& name) const;
  std::vector<std::string> names() const;
  /// Sum over ops of (op wall time - time covered by top-level spans)
  /// divided by the summed op wall time.
  double uncovered_share() const;
  std::size_t ops() const { return op_wall_s_.size(); }

  void clear();

  // Used by Span.
  void open(const char* name);
  void close();

 private:
  struct Frame {
    const char* name;
    Clock::time_point start;
    double child_s;
  };
  bool enabled_ = false;
  std::vector<Frame> stack_;
  // The open op's totals, keyed by the span's name literal (no allocation
  // per span); folded into a by-name map when the op ends.
  std::vector<std::pair<const char*, SpanTotals>> current_;
  double current_top_s_ = 0.0;
  std::vector<std::map<std::string, SpanTotals>> ops_;
  std::vector<double> op_wall_s_;
  std::vector<double> op_top_s_;
};

Tracer& tracer();

/// RAII span; costs one branch when tracing is off.
class Span {
 public:
  explicit Span(const char* name) : on_(tracer().enabled()) {
    if (on_) {
      tracer().open(name);
    }
  }
  ~Span() {
    if (on_) {
      tracer().close();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// --- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// --- checks ------------------------------------------------------------------

/// Tallies of the output checks. Every check has a name; `expect` records
/// one comparison. In the self-test, `corrupt(name)` answers true exactly
/// once per check name, and the check then damages the value it is about
/// to compare, which the check must report as a failure.
class CheckBook {
 public:
  bool expect(const std::string& check, bool ok, const std::string& detail);
  bool corrupt(const std::string& check);
  void set_corrupting(bool on) { corrupting_ = on; }
  /// One line per check: "ok"/"FAIL", name, comparisons, failures.
  std::vector<std::string> summary() const;
  bool all_passed() const;
  void clear() { tallies_.clear(); corrupted_.clear(); }

 private:
  struct Tally {
    std::int64_t checked = 0;
    std::int64_t failed = 0;
    std::string first_failure;
  };
  std::map<std::string, Tally> tallies_;
  std::map<std::string, bool> corrupted_;
  bool corrupting_ = false;
};

// --- workloads ---------------------------------------------------------------

/// One workload: a seeded stream of independent ops against one layer of
/// the program. Ops run in whole rounds of round_size(); a round is a fixed
/// make-up of ops (a seeded order, or seeded draws within fixed strata) so
/// every run attempts the same mix whatever its seed or length.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Builds every input the ops need. Deterministic given the seed.
  virtual void setup(std::uint64_t seed) = 0;
  /// Indices of the untimed warm-up ops, one per op kind.
  virtual std::vector<std::int64_t> warm_up_ops() const = 0;
  virtual int round_size() const = 0;
  /// Runs op `index` (the timed part). Throws fuse::util::Error when the
  /// program fails. Keeps what after_op needs.
  virtual void run_op(std::int64_t index) = 0;
  /// Untimed, right after run_op: checks the op's outputs against
  /// computations made apart from the timed path and records its counters.
  /// Returns false when a check failed.
  virtual bool after_op(std::int64_t index) = 0;
  /// Run-level checks, and per-op checks deferred to the end of the
  /// section (so that their memory stays out of the measured peak RSS).
  /// Returns the indices of the ops that failed a deferred check.
  virtual std::vector<std::int64_t> finish_checks() { return {}; }
  /// Per-layer metrics of the traced section (spans plus the counters
  /// after_op recorded), then forgets those counters.
  virtual void layer_metrics(const Tracer& trace, Metrics* out) = 0;
  /// Forgets the counters after_op recorded.
  virtual void reset_records() = 0;
  /// One line describing how the ops are drawn.
  virtual std::string describe_settings() const = 0;

  CheckBook& checks() { return checks_; }

 protected:
  CheckBook checks_;
};

std::unique_ptr<Workload> make_table_sweep();
std::unique_ptr<Workload> make_design_sweep();
std::unique_ptr<Workload> make_host_infer();
std::unique_ptr<Workload> make_array_sim();

/// All workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name);

// --- helpers shared by the workloads ----------------------------------------

/// The "macs.layer" check: every layer's MAC count equals the textbook
/// formula recomputed here from its geometry, and its output geometry
/// follows from its input geometry. Adds the textbook MACs to `total` when
/// given. Returns false on a mismatch.
bool check_layer_macs(CheckBook& book,
                      const std::vector<fuse::nn::LayerDesc>& layers,
                      std::uint64_t* total = nullptr);

/// The textbook MAC count of one layer (0 for glue); false when the
/// declared output geometry does not follow from the input geometry.
bool textbook_macs(const fuse::nn::LayerDesc& layer, std::uint64_t* macs);

/// Seeded tensors shared by every layer that reads the same shape: each
/// distinct (role, shape) is made once, uniform in [-scale, scale].
class TensorPool {
 public:
  const fuse::tensor::Tensor* get(const std::string& role,
                                  const fuse::tensor::Shape& shape,
                                  fuse::util::Rng& rng, float scale);
  std::size_t size() const { return tensors_.size(); }
  std::size_t bytes() const;

 private:
  std::map<std::string, fuse::tensor::Tensor> tensors_;
};

/// Median per-op total of a span name, in milliseconds.
double span_ms_p50(const Tracer& trace, const std::string& name);

}  // namespace perfbench
