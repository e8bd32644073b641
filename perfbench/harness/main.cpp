// perfbench_harness: runs one benchmark workload against the program's
// libraries and prints its metrics; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--smoke]
//
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the same ops
// with spans around every call into a layer and reports the per-layer
// metrics. --smoke runs one round of ops, then a second round in which every
// check is fed one corrupted output, and exits non-zero unless the first
// round passes and every check reports its corruption in the second.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "nn/kernels.hpp"
#include "sched/netplan.hpp"
#include "systolic/sim.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args.seconds > 0.0 && args.seconds <= 600.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  bool known = false;
  for (const std::string& name : workload_names()) {
    known = known || name == args.workload;
  }
  if (!known) {
    usage(("unknown workload " + args.workload).c_str());
  }
  return args;
}

/// Every execution setting the program reads from the environment is
/// cleared and then set here, so an exported FUSE_* variable cannot change
/// what is measured. Returns the header line describing them.
std::string pin_settings() {
  std::string ignored;
  for (const char* var :
       {"FUSE_KERNEL_BACKEND", "FUSE_KERNEL_THREADS", "FUSE_KERNEL_ISA",
        "FUSE_SIM_BACKEND", "FUSE_SIM_THREADS", "FUSE_SCHED_MODE"}) {
    if (const char* value = std::getenv(var)) {
      ignored += std::string(" ") + var + "=" + value;
      unsetenv(var);
    }
  }
  namespace nn = fuse::nn;
  nn::set_kernel_backend(nn::KernelBackend::kFast);
  nn::set_kernel_threads(1);
  nn::KernelIsa isa = nn::KernelIsa::kScalar;
  nn::parse_kernel_isa("auto", &isa);  // resolved once, here
  nn::set_kernel_isa(isa);
  fuse::systolic::set_sim_backend(fuse::systolic::SimBackend::kFast);
  fuse::systolic::set_sim_threads(1);
  fuse::sched::set_sched_mode(fuse::sched::SchedMode::kPerLayer);

  std::string line = "settings: kernel_backend=";
  line += nn::kernel_backend_name(nn::kernel_backend());
  line += " kernel_isa=" + std::string(nn::kernel_isa_name(nn::kernel_isa()));
  line += " (auto, cpu: " + fuse::util::cpu_features().to_string() + ")";
  line += " kernel_threads=" + std::to_string(nn::kernel_threads());
  line += " sim_backend=";
  line += fuse::systolic::sim_backend_name(fuse::systolic::sim_backend());
  line += " sim_threads=" + std::to_string(fuse::systolic::sim_threads());
  line += " sweep_threads=1 explore_threads=1 default_sched_mode=";
  line += fuse::sched::sched_mode_name(fuse::sched::sched_mode());
  if (!ignored.empty()) {
    line += "; ignored from the environment:" + ignored;
  }
  return line;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is only the fallback: Linux carries it over exec from the parent that
/// forked us, so under run.py it reports the Python parent's size.
double peak_rss_mib() {
  long kib = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(f);
  }
  if (kib <= 0) {
    std::printf("peak_rss_mb: no VmHWM in /proc/self/status, using "
                "getrusage's ru_maxrss\n");
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    kib = usage.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

/// Timings of one section of ops.
struct Section {
  std::vector<double> op_s;  // per op, in op order
  double wall_s = 0.0;       // the whole section, checks included
  std::set<std::int64_t> failed_ops;

  std::int64_t failed() const {
    return static_cast<std::int64_t>(failed_ops.size());
  }
};

/// Runs whole rounds of ops starting at op 0 until the ops have taken
/// `seconds` (or exactly `fixed_ops` ops when that is positive). Each op is
/// timed alone; its checks run untimed right after it.
Section run_section(Workload& wl, double seconds, std::int64_t fixed_ops) {
  Section s;
  const int round = wl.round_size();
  const Clock::time_point start = Clock::now();
  std::int64_t index = 0;
  Tracer& trace = tracer();
  while (true) {
    for (int j = 0; j < round; ++j, ++index) {
      if (trace.enabled()) {
        trace.begin_op();
      }
      bool ok = true;
      const Clock::time_point t0 = Clock::now();
      try {
        wl.run_op(index);
      } catch (const fuse::util::Error& e) {
        ok = false;
        std::printf("op %" PRId64 " failed: %s\n", index, e.what());
      }
      const double op_s = seconds_between(t0, Clock::now());
      s.op_s.push_back(op_s);
      if (trace.enabled()) {
        trace.end_op(op_s);
      }
      if (ok && !wl.after_op(index)) {
        ok = false;
        std::printf("op %" PRId64 " failed a check\n", index);
      }
      if (!ok) {
        s.failed_ops.insert(index);
      }
    }
    // The length is counted in op time, so the untimed checks do not
    // shorten the measurement.
    if (fixed_ops > 0 ? index >= fixed_ops : sum(s.op_s) >= seconds) {
      break;
    }
  }
  s.wall_s = seconds_between(start, Clock::now());
  return s;
}

/// Runs the run-level and deferred checks, folds the ops they fail into
/// the section and prints every check's tally.
bool report_checks(Workload& wl, Section* s) {
  const Clock::time_point t0 = Clock::now();
  for (std::int64_t op : wl.finish_checks()) {
    s->failed_ops.insert(op);
  }
  for (const std::string& line : wl.checks().summary()) {
    std::printf("check [%s] %s\n", wl.name(), line.c_str());
  }
  const bool ok = wl.checks().all_passed();
  std::printf("checks [%s]: %s (deferred checks %.2f s; every check runs "
              "outside the timed ops)\n",
              wl.name(), ok ? "all passed" : "FAILED",
              seconds_between(t0, Clock::now()));
  return ok;
}

std::string format_ms_summary(const std::vector<double>& op_s) {
  std::vector<double> ms;
  for (double v : op_s) {
    ms.push_back(v * 1e3);
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "op_ms p50 %.4f, p90 %.4f (n=%zu; %zu samples above p90), "
                "min %.4f, max %.4f",
                median(ms), quantile(ms, 0.9), ms.size(),
                ms.size() - static_cast<std::size_t>(
                                0.9 * static_cast<double>(ms.size())),
                quantile(ms, 0.0), quantile(ms, 1.0));
  return buf;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Set-ups per run, before and after the timed section; setup_s is the
/// median of all of them. Each batch takes at least kSetupReps set-ups and
/// at least kSetupBatchSeconds, so that a set-up of a few tens of ms is
/// sampled over as long a stretch as one of a second, and a short slow
/// spell of the machine cannot set the median. The batch after the section
/// keeps a slow spell at start-up from setting it.
constexpr int kSetupReps = 3;
constexpr double kSetupBatchSeconds = 0.5;

/// Set-up from scratch, warm-up ops included; adds its time to `times`.
std::unique_ptr<Workload> set_up(const std::string& name, std::uint64_t seed,
                                 std::vector<double>* times) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Workload> wl = make_workload(name);
  wl->setup(seed);
  for (std::int64_t op : wl->warm_up_ops()) {
    wl->run_op(op);
  }
  wl->reset_records();
  times->push_back(seconds_between(t0, Clock::now()));
  return wl;
}

/// At least `reps` set-ups taking at least `seconds` together, holding
/// only one at a time; returns the last.
std::unique_ptr<Workload> set_up_n(const std::string& name,
                                   std::uint64_t seed, int reps,
                                   double seconds,
                                   std::vector<double>* times) {
  std::unique_ptr<Workload> wl;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < reps || seconds_between(start, Clock::now()) < seconds;
       ++r) {
    wl.reset();
    wl = set_up(name, seed, times);
  }
  return wl;
}

std::string format_setups(const std::vector<double>& times) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu set-ups from scratch, median %.6f s (min %.6f, first "
                "%.6f, max %.6f)",
                times.size(), median(times), quantile(times, 0.0),
                times.front(), quantile(times, 1.0));
  return buf;
}

/// --trace 1 for one workload: the same ops untraced, then traced, so the
/// difference of the two medians is the tracing overhead.
bool traced_pass(Workload& wl, double seconds, std::int64_t fixed_ops,
                 Metrics* metrics, std::int64_t* attempted,
                 std::int64_t* failed) {
  Tracer& trace = tracer();
  trace.set_enabled(false);
  Section plain = run_section(wl, seconds, fixed_ops);
  const bool plain_ok = report_checks(wl, &plain) && plain.failed() == 0;
  wl.reset_records();
  const std::int64_t n = static_cast<std::int64_t>(plain.op_s.size());
  trace.clear();
  trace.set_enabled(true);
  Section traced = run_section(wl, 0.0, n);
  trace.set_enabled(false);
  const bool ok =
      report_checks(wl, &traced) && traced.failed() == 0 && plain_ok;
  *attempted += 2 * n;
  *failed += plain.failed() + traced.failed();

  std::printf("[%s] untraced %s\n", wl.name(),
              format_ms_summary(plain.op_s).c_str());
  std::printf("[%s] traced   %s\n", wl.name(),
              format_ms_summary(traced.op_s).c_str());
  const double p50_plain = median(plain.op_s) * 1e3;
  const double p50_traced = median(traced.op_s) * 1e3;
  std::printf("[%s] tracing overhead: traced - untraced op_ms_p50 = %.4f ms "
              "(%+.2f%%)\n",
              wl.name(), p50_traced - p50_plain,
              100.0 * (p50_traced - p50_plain) / p50_plain);
  std::printf("[%s] share of op wall time not covered by layer spans: "
              "%.2f%%\n",
              wl.name(), 100.0 * trace.uncovered_share());
  std::printf("[%s] per op, median over %zu traced ops:\n", wl.name(),
              trace.ops());
  for (const std::string& name : trace.names()) {
    std::vector<double> self_ms, total_ms, calls;
    for (const SpanTotals& t : trace.per_op(name)) {
      self_ms.push_back(t.self_s * 1e3);
      total_ms.push_back(t.total_s * 1e3);
      calls.push_back(static_cast<double>(t.calls));
    }
    std::printf("  %-26s self %11.4f ms  total %11.4f ms  calls %9.0f\n",
                name.c_str(), median(self_ms), median(total_ms),
                median(calls));
  }
  Metrics layer;
  wl.layer_metrics(trace, &layer);
  for (const auto& [name, metric] : layer) {
    std::printf("  metric %-30s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    (*metrics)[name] = metric;
  }
  wl.reset_records();
  return ok;
}

/// The self-test: one clean round must pass every check, and a round in
/// which each check is fed one corrupted output must fail every check.
int smoke(Workload& wl) {
  // Traced, so that the checks only a traced run makes are exercised too.
  tracer().set_enabled(true);
  Section clean = run_section(wl, 0.0, wl.round_size());
  const bool clean_ok = report_checks(wl, &clean) && clean.failed() == 0;
  wl.reset_records();
  wl.checks().clear();
  wl.checks().set_corrupting(true);
  Section bad = run_section(wl, 0.0, wl.round_size());
  for (std::int64_t op : wl.finish_checks()) {
    bad.failed_ops.insert(op);
  }
  int missed = 0;
  for (const std::string& line : wl.checks().summary()) {
    const bool detected = line.rfind("FAIL", 0) == 0;
    std::printf("smoke [%s] corrupted %s -> %s\n", wl.name(), line.c_str(),
                detected ? "detected" : "NOT DETECTED");
    missed += detected ? 0 : 1;
  }
  const bool ok = clean_ok && missed == 0 && bad.failed() > 0;
  std::printf("smoke [%s]: %s (clean round %s; %" PRId64
              " of %zu corrupted-round ops counted as failed)\n",
              wl.name(), ok ? "PASS" : "FAIL",
              clean_ok ? "passed" : "FAILED", bad.failed(), bad.op_s.size());
  return ok ? 0 : 1;
}

int run(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const Args args = parse_args(argc, argv);
  const std::string settings = pin_settings();
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("%s\n", settings.c_str());

  std::vector<double> setups;
  std::unique_ptr<Workload> wl =
      args.smoke ? set_up_n(args.workload, args.seed, 1, 0.0, &setups)
                 : set_up_n(args.workload, args.seed, kSetupReps,
                            kSetupBatchSeconds, &setups);
  std::printf("setup: %s\n", format_setups(setups).c_str());
  std::printf("ops: %s\n", wl->describe_settings().c_str());
  if (args.smoke) {
    return smoke(*wl);
  }

  Metrics metrics;
  std::int64_t attempted = 0, failed = 0;
  bool correct = true;
  if (!args.trace) {
    std::printf("process start to first timed op: %.4f s\n",
                seconds_between(process_start, Clock::now()));
    struct rusage before {};
    getrusage(RUSAGE_SELF, &before);
    Section s = run_section(*wl, args.seconds, 0);
    const double rss = peak_rss_mib();
    struct rusage after {};
    getrusage(RUSAGE_SELF, &after);
    auto cpu_s = [](const timeval& a, const timeval& b) {
      return static_cast<double>(b.tv_sec - a.tv_sec) +
             1e-6 * static_cast<double>(b.tv_usec - a.tv_usec);
    };
    std::printf("timed section resources: user %.3f s, system %.3f s, "
                "%ld minor page faults, %ld involuntary context switches\n",
                cpu_s(before.ru_utime, after.ru_utime),
                cpu_s(before.ru_stime, after.ru_stime),
                after.ru_minflt - before.ru_minflt,
                after.ru_nivcsw - before.ru_nivcsw);
    correct = report_checks(*wl, &s) && s.failed() == 0;
    attempted = static_cast<std::int64_t>(s.op_s.size());
    failed = s.failed();
    const double op_wall = sum(s.op_s);
    std::printf("timed: %" PRId64 " ops, %.4f s inside ops, %.4f s with "
                "checks; %s\n",
                attempted, op_wall, s.wall_s,
                format_ms_summary(s.op_s).c_str());
    std::vector<double> ms;
    std::vector<double> rounds(s.op_s.size() / wl->round_size(), 0.0);
    for (std::size_t i = 0; i < s.op_s.size(); ++i) {
      ms.push_back(s.op_s[i] * 1e3);
      rounds[i / wl->round_size()] += s.op_s[i];
    }
    std::printf("rounds: %zu of %d ops; round seconds min %.4f, median "
                "%.4f, max %.4f\n",
                rounds.size(), wl->round_size(), quantile(rounds, 0.0),
                median(rounds), quantile(rounds, 1.0));
    wl.reset();
    set_up_n(args.workload, args.seed, kSetupReps, kSetupBatchSeconds,
             &setups);
    std::printf("setup: %s\n", format_setups(setups).c_str());
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_mb"] = {rss, "MiB"};
    metrics["op_ms_p50"] = {median(ms), "ms"};
    metrics["ops_per_s"] = {static_cast<double>(attempted) / op_wall, "1/s"};
  } else {
    correct = traced_pass(*wl, args.seconds, 0, &metrics, &attempted, &failed);
    wl.reset();
    // Every traced run reports every per-layer metric: each other
    // workload gets one round, untraced then traced, after the named one.
    for (const std::string& other : workload_names()) {
      if (other == args.workload) {
        continue;
      }
      std::vector<double> other_setup;
      std::unique_ptr<Workload> companion =
          set_up(other, args.seed, &other_setup);
      correct = traced_pass(*companion, 0.0, companion->round_size(),
                            &metrics, &attempted, &failed) &&
                correct;
    }
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
