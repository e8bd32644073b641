#include "common.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  // Two SplitMix64 steps: one over the seed and stream, one over that
  // result and the index.
  fuse::util::Rng mix(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  std::uint64_t z = mix.next_u64();
  fuse::util::Rng mix2(z ^ (index * 0x9e3779b97f4a7c15ULL));
  return mix2.next_u64();
}

std::vector<int> permutation(fuse::util::Rng& rng, int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(i) + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total;
}

// --- tracing -----------------------------------------------------------------

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::begin_op() {
  stack_.clear();
  current_.clear();
  current_top_s_ = 0.0;
}

void Tracer::end_op(double op_s) {
  std::map<std::string, SpanTotals> op;
  for (const auto& [name, totals] : current_) {
    SpanTotals& t = op[name];
    t.total_s += totals.total_s;
    t.self_s += totals.self_s;
    t.calls += totals.calls;
  }
  ops_.push_back(std::move(op));
  op_wall_s_.push_back(op_s);
  op_top_s_.push_back(current_top_s_);
  current_.clear();
  current_top_s_ = 0.0;
}

void Tracer::open(const char* name) {
  stack_.push_back(Frame{name, Clock::now(), 0.0});
}

void Tracer::close() {
  const Clock::time_point end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double dur = seconds_between(frame.start, end);
  auto it = std::find_if(current_.begin(), current_.end(),
                         [&](const auto& e) { return e.first == frame.name; });
  if (it == current_.end()) {
    current_.push_back({frame.name, SpanTotals{}});
    it = current_.end() - 1;
  }
  SpanTotals& totals = it->second;
  totals.total_s += dur;
  totals.self_s += dur - frame.child_s;
  totals.calls += 1;
  if (stack_.empty()) {
    current_top_s_ += dur;
  } else {
    stack_.back().child_s += dur;
  }
}

std::vector<SpanTotals> Tracer::per_op(const std::string& name) const {
  std::vector<SpanTotals> out;
  out.reserve(ops_.size());
  for (const auto& op : ops_) {
    const auto it = op.find(name);
    out.push_back(it == op.end() ? SpanTotals{} : it->second);
  }
  return out;
}

std::vector<std::string> Tracer::names() const {
  std::vector<std::string> out;
  for (const auto& op : ops_) {
    for (const auto& [name, totals] : op) {
      if (std::find(out.begin(), out.end(), name) == out.end()) {
        out.push_back(name);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Tracer::uncovered_share() const {
  const double wall = sum(op_wall_s_);
  return wall > 0.0 ? (wall - sum(op_top_s_)) / wall : 0.0;
}

void Tracer::clear() {
  stack_.clear();
  current_.clear();
  current_top_s_ = 0.0;
  ops_.clear();
  op_wall_s_.clear();
  op_top_s_.clear();
}

double span_ms_p50(const Tracer& trace, const std::string& name) {
  std::vector<double> ms;
  for (const SpanTotals& t : trace.per_op(name)) {
    ms.push_back(t.total_s * 1e3);
  }
  return median(std::move(ms));
}

// --- checks ------------------------------------------------------------------

bool CheckBook::expect(const std::string& check, bool ok,
                       const std::string& detail) {
  Tally& t = tallies_[check];
  t.checked += 1;
  if (!ok) {
    t.failed += 1;
    if (t.first_failure.empty()) {
      t.first_failure = detail;
    }
  }
  return ok;
}

bool CheckBook::corrupt(const std::string& check) {
  if (!corrupting_ || corrupted_[check]) {
    return false;
  }
  corrupted_[check] = true;
  return true;
}

std::vector<std::string> CheckBook::summary() const {
  std::vector<std::string> lines;
  for (const auto& [name, t] : tallies_) {
    std::string line = (t.failed == 0 ? "ok   " : "FAIL ") + name + ": " +
                       std::to_string(t.checked) + " compared, " +
                       std::to_string(t.failed) + " failed";
    if (t.failed != 0) {
      line += " (first: " + t.first_failure + ")";
    }
    lines.push_back(line);
  }
  return lines;
}

bool CheckBook::all_passed() const {
  for (const auto& [name, t] : tallies_) {
    if (t.failed != 0) {
      return false;
    }
  }
  return true;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table_sweep", "design_sweep", "host_infer", "array_sim"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "table_sweep") {
    return make_table_sweep();
  }
  if (name == "design_sweep") {
    return make_design_sweep();
  }
  if (name == "host_infer") {
    return make_host_infer();
  }
  if (name == "array_sim") {
    return make_array_sim();
  }
  return nullptr;
}

bool textbook_macs(const fuse::nn::LayerDesc& l, std::uint64_t* macs) {
  using fuse::nn::OpKind;
  auto out_dim = [](std::int64_t in, std::int64_t k, std::int64_t s,
                    std::int64_t p) { return (in + 2 * p - k) / s + 1; };
  *macs = 0;
  switch (l.kind) {
    case OpKind::kStandardConv:
    case OpKind::kGroupedConv:
    case OpKind::kDepthwiseConv:
    case OpKind::kPointwiseConv:
    case OpKind::kFuseRowConv:
    case OpKind::kFuseColConv: {
      if (l.groups <= 0 || l.in_c % l.groups != 0 ||
          out_dim(l.in_h, l.kernel_h, l.stride_h, l.pad_h) != l.out_h ||
          out_dim(l.in_w, l.kernel_w, l.stride_w, l.pad_w) != l.out_w) {
        return false;
      }
      // Each output element is a dot product over its group's input
      // channels and the kernel window.
      std::uint64_t per_output = 1;
      for (std::int64_t f : {l.in_c / l.groups, l.kernel_h, l.kernel_w}) {
        per_output *= static_cast<std::uint64_t>(f);
      }
      *macs = per_output * static_cast<std::uint64_t>(l.out_c) *
              static_cast<std::uint64_t>(l.out_h) *
              static_cast<std::uint64_t>(l.out_w);
      return true;
    }
    case OpKind::kFullyConnected:
      *macs = static_cast<std::uint64_t>(l.in_c) *
              static_cast<std::uint64_t>(l.out_c);
      return true;
    default:
      return true;
  }
}

bool check_layer_macs(CheckBook& book,
                      const std::vector<fuse::nn::LayerDesc>& layers,
                      std::uint64_t* total) {
  bool ok = true;
  for (const fuse::nn::LayerDesc& layer : layers) {
    std::uint64_t macs = 0;
    const bool geometry = textbook_macs(layer, &macs);
    std::uint64_t reported = layer.macs();
    if (book.corrupt("macs.layer")) {
      reported += 1;
    }
    ok &= book.expect("macs.layer", geometry && reported == macs,
                      layer.name + ": " +
                          (geometry ? std::to_string(reported) +
                                          " != textbook " +
                                          std::to_string(macs)
                                    : "inconsistent geometry"));
    if (total != nullptr) {
      *total += macs;
    }
  }
  return ok;
}

const fuse::tensor::Tensor* TensorPool::get(const std::string& role,
                                            const fuse::tensor::Shape& shape,
                                            fuse::util::Rng& rng,
                                            float scale) {
  std::string key = role;
  for (std::int64_t d : shape.dims()) {
    key += ":" + std::to_string(d);
  }
  auto it = tensors_.find(key);
  if (it == tensors_.end()) {
    fuse::tensor::Tensor t(shape);
    t.fill_uniform(rng, -scale, scale);
    it = tensors_.emplace(key, std::move(t)).first;
  }
  return &it->second;
}

std::size_t TensorPool::bytes() const {
  std::size_t total = 0;
  for (const auto& [key, t] : tensors_) {
    total += static_cast<std::size_t>(t.num_elements()) * sizeof(float);
  }
  return total;
}

}  // namespace perfbench
