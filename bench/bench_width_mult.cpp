// Extension: does the FuSe speedup hold across the MobileNet width-
// multiplier family ("the MobileNet family of networks" of the paper's
// abstract)? Sweeps alpha for V1 and V2 and reports baseline MACs and the
// Full/Half speedups on the paper's 64x64 array. Narrower networks expose
// the array's under-utilization even more, so the speedup should not decay
// at small alpha.
//
// Usage: bench_width_mult [--size=64] [--csv] [--threads=N] [--no-cache]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "sched/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_bool("csv", false, "also write bench_width_mult.csv");
  bench::SweepHarness harness(flags);
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const std::vector<nets::NetworkId> networks = {
      nets::NetworkId::kMobileNetV1, nets::NetworkId::kMobileNetV2};
  const std::vector<double> alphas = {0.25, 0.5, 0.75, 1.0};

  std::printf(
      "Width-multiplier sweep on %s — FuSe speedups across the MobileNet "
      "family\n\n",
      cfg.to_string().c_str());

  struct Point {
    std::uint64_t macs = 0;
    std::uint64_t params = 0;
    double full_speedup = 0.0;
    double half_speedup = 0.0;
  };
  const std::int64_t cells =
      static_cast<std::int64_t>(networks.size() * alphas.size());
  std::vector<Point> points(static_cast<std::size_t>(cells));
  sched::SweepEngine& engine = harness.engine(flags);
  engine.pool().parallel_for(cells, [&](std::int64_t flat) {
    const std::size_t n = static_cast<std::size_t>(flat) / alphas.size();
    const double alpha =
        alphas[static_cast<std::size_t>(flat) % alphas.size()];
    const nets::NetworkId id = networks[n];
    const int slots = nets::num_fuse_slots(id);
    const auto baseline = nets::build_network_scaled(id, alpha);
    const auto full = nets::build_network_scaled(
        id, alpha, core::uniform_modes(slots, core::FuseMode::kFull));
    const auto half = nets::build_network_scaled(
        id, alpha, core::uniform_modes(slots, core::FuseMode::kHalf));
    const auto cycles = [&](const nets::NetworkModel& model) {
      return static_cast<double>(
          engine.network_latency(model, cfg).total_cycles);
    };
    const double base_cycles = cycles(baseline);
    Point& p = points[static_cast<std::size_t>(flat)];
    p.macs = baseline.total_macs();
    p.params = baseline.total_params();
    p.full_speedup = base_cycles / cycles(full);
    p.half_speedup = base_cycles / cycles(half);
  });
  harness.stop();

  util::TablePrinter table({"Network", "alpha", "MACs (M)", "Params (M)",
                            "Full speedup", "Half speedup"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t n = 0; n < networks.size(); ++n) {
    const nets::NetworkId id = networks[n];
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      const Point& p = points[n * alphas.size() + a];
      table.add_row(
          {nets::network_name(id), util::fixed(alphas[a], 2),
           util::fixed(static_cast<double>(p.macs) / 1e6, 0),
           util::fixed(static_cast<double>(p.params) / 1e6, 2),
           util::fixed(p.full_speedup, 2) + "x",
           util::fixed(p.half_speedup, 2) + "x"});
      csv_rows.push_back({nets::network_name(id), util::fixed(alphas[a], 2),
                          std::to_string(p.macs), std::to_string(p.params),
                          util::fixed(p.full_speedup, 3),
                          util::fixed(p.half_speedup, 3)});
    }
    table.add_separator();
  }
  table.print(std::cout);
  harness.print_footer();

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_width_mult.csv");
    csv.write_header({"network", "alpha", "macs", "params", "full_speedup",
                      "half_speedup"});
    for (const auto& row : csv_rows) {
      csv.write_row(row);
    }
    std::printf("\nwrote bench_width_mult.csv\n");
  }
  return 0;
}
