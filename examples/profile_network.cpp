// profile_network: the full per-layer execution timeline of any zoo
// network x variant, exported as Perfetto / chrome://tracing JSON.
//
// Every latency-bearing layer is lowered to its MappingPlan, expanded to a
// FoldTrace (systolic::plan_trace), and concatenated on one cycle axis:
// a span per layer on the "layers" track, a span per fold on the "folds"
// track, and per-operand SRAM-footprint counter series ("ph":"C"). The
// timestamp unit is ARRAY CYCLES (one viewer microsecond == one cycle),
// so the trace's end timestamp equals the analytic network latency — the
// program checks that identity, and that the summed per-layer PE
// occupancy matches the MappingPlan-derived utilization, before writing.
//
// With --sched-mode=fused the trace shows the fused NetworkPlan instead:
// one span per ScheduleSegment (fused groups alternate producer/consumer
// stripes on the layer track), DRAM prefetch spans on a "loads" track
// overlapping the PREVIOUS segment's compute (the double-buffering the
// fused schedule models), and an SRAM-occupancy counter stepping through
// each segment's planned residency. The end timestamp is FUSE_CHECKed
// against the fused schedule's analytic total exactly as the per-layer
// path checks network_latency.
//
// With --attribution-json=<path> the program additionally runs the
// bottleneck-attribution engine (sched/attribution.hpp) over the same
// schedule, writes the per-layer / per-unit decomposition as JSON, and
// adds an "attribution" counter track to the trace: at each segment
// boundary the attributed compute vs fill/drain cycles of the segment,
// so the viewer shows WHERE the array's time goes, not just when layers
// run.
//
// Usage: profile_network [--net=v2] [--variant=fuse_full] [--size=64]
//        [--trace-json=profile.json] [--stats-json=] [--fold-events=true]
//        [--sched-mode=per-layer] [--attribution-json=]
//   --net      v1|v2|v3s|v3l|mnas|resnet50 (mobilenet_v2-style long
//              names accepted)
//   --variant  baseline|fuse_full|fuse_half|fuse_full50|fuse_half50
//              (short forms full|half|full50|half50 accepted)
//   --fold-events=false drops the per-fold spans + SRAM counters (layer
//              spans only) for small files on fold-heavy baselines.
#include <algorithm>
#include <cstdio>

#include "sched/attribution.hpp"
#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "systolic/mapping.hpp"
#include "systolic/trace.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

using namespace fuse;

namespace {

core::NetworkVariant parse_variant(const std::string& name) {
  if (name == "baseline") return core::NetworkVariant::kBaseline;
  if (name == "full" || name == "fuse_full") {
    return core::NetworkVariant::kFuseFull;
  }
  if (name == "half" || name == "fuse_half") {
    return core::NetworkVariant::kFuseHalf;
  }
  if (name == "full50" || name == "fuse_full50") {
    return core::NetworkVariant::kFuseFull50;
  }
  if (name == "half50" || name == "fuse_half50") {
    return core::NetworkVariant::kFuseHalf50;
  }
  FUSE_CHECK(false) << "unknown --variant '" << name
                    << "' (baseline|fuse_full|fuse_half|fuse_full50|"
                       "fuse_half50)";
  return core::NetworkVariant::kBaseline;
}

// DRAM prefetch spans land on their own track below the SRAM counters.
constexpr int kLoadTrack = 3;
// Attributed-category counters (compute vs fill/drain per segment).
constexpr int kAttributionTrack = 4;

/// Emits the attribution counter series: at each schedule segment's start,
/// the segment's attributed compute and fill/drain cycle counts (stepped
/// series; a closing zero sample at the end). Works for both modes — the
/// per-layer schedule has one segment per on-array layer.
void export_attribution_track(util::TraceSink& sink,
                              const sched::NetworkPlan& plan,
                              const sched::AttributionReport& report) {
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    const sched::SegmentAttribution& sa = report.segments[s];
    sink.counter_event("attribution", plan.segments[s].start_cycle,
                       kAttributionTrack,
                       {{"compute", sa.split.compute},
                        {"fill_drain", sa.split.fill_drain}});
  }
  if (!plan.segments.empty()) {
    sink.counter_event("attribution", plan.total_cycles, kAttributionTrack,
                       {{"compute", 0}, {"fill_drain", 0}});
  }
}

/// Exports the fused NetworkPlan: one span per schedule segment, prefetch
/// spans overlapping the previous segment's compute, and the planned SRAM
/// residency as a counter series. Returns the trace's end timestamp.
std::uint64_t export_fused_schedule(util::TraceSink& sink,
                                    const sched::NetworkPlan& plan,
                                    const nets::NetworkModel& model,
                                    bool fold_events) {
  std::uint64_t end = 0;
  for (const sched::ScheduleSegment& seg : plan.segments) {
    const nn::LayerDesc& layer = model.layers[seg.layer_index];
    const sched::FusedPair* pair = plan.pair_of(seg.layer_index);
    sink.complete_event(
        layer.name, seg.fused ? "fused-segment" : "segment",
        seg.start_cycle, seg.duration(), systolic::kLayerTrack,
        {util::trace_str("kind", nn::op_kind_name(layer.kind)),
         util::trace_num("folds", seg.folds),
         util::trace_num("fused",
                         static_cast<std::uint64_t>(seg.fused ? 1 : 0)),
         util::trace_num("sram_bytes", seg.sram_bytes)});
    if (fold_events) {
      sink.counter_event("sram_planned", seg.start_cycle,
                         systolic::kSramTrack,
                         {{"resident+staging", seg.sram_bytes}});
      // Operand bytes this segment streams from DRAM (weights always; the
      // input too unless it is a fused consumer reading SRAM), spread over
      // the layer's segments by fold share. The prefetch overlaps the
      // previous segment's compute — that overlap IS the double-buffering
      // the roofline max() models.
      const systolic::TrafficEstimate& traffic =
          plan.layer_traffic[seg.layer_index];
      std::uint64_t stream_bytes = traffic.weight_bytes;
      const bool fused_consumer =
          pair != nullptr && pair->consumer == seg.layer_index;
      if (!fused_consumer) {
        stream_bytes += traffic.input_bytes;
      }
      const std::uint64_t layer_folds =
          plan.layer_latency[seg.layer_index].folds;
      if (layer_folds > 0 && stream_bytes > 0) {
        systolic::TrafficEstimate slice;
        slice.input_bytes = stream_bytes * seg.folds / layer_folds;
        const std::uint64_t load_cycles = slice.memory_cycles(plan.mem);
        const std::uint64_t dur =
            std::min<std::uint64_t>(load_cycles, seg.start_cycle);
        if (dur > 0) {
          sink.complete_event(
              layer.name + " prefetch", "load", seg.start_cycle - dur,
              dur, kLoadTrack,
              {util::trace_num("bytes", slice.input_bytes),
               util::trace_num(
                   "from_sram",
                   static_cast<std::uint64_t>(fused_consumer ? 1 : 0))});
        }
      }
    }
    end = std::max(end, seg.end_cycle);
  }
  if (fold_events && !plan.segments.empty()) {
    sink.counter_event("sram_planned", end, systolic::kSramTrack,
                       {{"resident+staging", 0}});
  }
  return end;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("net", "v2", "network: v1|v2|v3s|v3l|mnas|resnet50");
  flags.add_string("variant", "fuse_full",
                   "baseline|fuse_full|fuse_half|fuse_full50|fuse_half50");
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_string("trace-json", "profile.json",
                   "trace-event output path (open in ui.perfetto.dev)");
  flags.add_string("stats-json", "",
                   "also dump the metrics registry as JSON here");
  flags.add_string("attribution-json", "",
                   "write the cycle-attribution report here and add an "
                   "'attribution' counter track to the trace");
  flags.add_bool("fold-events", true,
                 "emit per-fold spans and SRAM counter series");
  flags.add_string("sched-mode",
                   sched::sched_mode_name(sched::sched_mode()),
                   "network schedule: per-layer or fused");
  flags.parse(argc, argv);

  const nets::NetworkId id = nets::parse_network_flag(flags.get_string("net"));
  const core::NetworkVariant variant =
      parse_variant(flags.get_string("variant"));
  const auto cfg = systolic::square_array(flags.get_int("size"));
  FUSE_CHECK(id != nets::NetworkId::kResNet50 ||
             variant == core::NetworkVariant::kBaseline)
      << "ResNet-50 has no depthwise layers; only --variant=baseline";
  const bool fold_events = flags.get_bool("fold-events");
  const systolic::MemoryConfig mem;
  sched::SchedMode mode;
  FUSE_CHECK(sched::parse_sched_mode(flags.get_string("sched-mode"), &mode))
      << "--sched-mode must be 'per-layer' or 'fused', got '"
      << flags.get_string("sched-mode") << "'";

  const sched::VariantBuild build = sched::build_variant(id, variant, cfg);

  if (mode == sched::SchedMode::kFused) {
    const sched::NetworkPlan plan =
        sched::plan_network(build.model, cfg, mem, mode);
    util::TraceSink sink;
    sink.process_name(build.model.name + " " +
                      core::network_variant_name(variant) + " on " +
                      cfg.to_string() +
                      " (fused schedule; ts unit = array cycles)");
    sink.thread_name(systolic::kLayerTrack, "schedule segments");
    if (fold_events) {
      sink.thread_name(systolic::kSramTrack, "sram occupancy");
      sink.thread_name(kLoadTrack, "dram loads");
    }
    const std::uint64_t end =
        export_fused_schedule(sink, plan, build.model, fold_events);
    // The schedule IS the analytic model: reordering whole folds
    // preserves the total exactly.
    FUSE_CHECK(end == plan.total_cycles)
        << "fused trace end " << end << " != schedule total "
        << plan.total_cycles;
    const std::string attribution_path =
        flags.get_string("attribution-json");
    std::uint64_t attribution_stall = 0;
    if (!attribution_path.empty()) {
      const sched::AttributionReport report =
          sched::attribute_network(plan, build.model);
      sink.thread_name(kAttributionTrack, "attribution");
      export_attribution_track(sink, plan, report);
      sched::write_attribution_json_file(attribution_path, report);
      attribution_stall = report.total_dram_stall;
    }
    const std::string trace_path = flags.get_string("trace-json");
    sink.write_json_file(trace_path);
    std::printf(
        "%s %s on %s array — fused schedule\n"
        "  segments    : %zu (%zu fused groups)\n"
        "  total       : %s cycles (= per-layer total, verified)\n"
        "  sram        : %s high water of %s configured\n"
        "wrote %s: %zu trace events — open in ui.perfetto.dev\n",
        build.model.name.c_str(),
        core::network_variant_name(variant).c_str(),
        cfg.to_string().c_str(), plan.segments.size(),
        plan.fused_pairs.size(),
        util::with_commas(plan.total_cycles).c_str(),
        util::format_bytes(plan.sram_high_water).c_str(),
        util::format_bytes(
            static_cast<std::uint64_t>(plan.mem.sram_bytes))
            .c_str(),
        trace_path.c_str(), sink.event_count());
    if (!attribution_path.empty()) {
      std::printf("wrote %s (cycle attribution; %s DRAM stall cycles on "
                  "top of compute)\n",
                  attribution_path.c_str(),
                  util::with_commas(attribution_stall).c_str());
    }
    const std::string stats_path = flags.get_string("stats-json");
    if (!stats_path.empty()) {
      util::metrics().write_json_file(stats_path);
      std::printf("wrote %s (metrics registry%s)\n", stats_path.c_str(),
                  util::telemetry_enabled() ? "" : " — FUSE_TELEMETRY off");
    }
    return 0;
  }

  const sched::NetworkLatency analytic =
      sched::network_latency(build.model, cfg);

  util::TraceSink sink;
  sink.process_name(build.model.name + " " +
                    core::network_variant_name(variant) + " on " +
                    cfg.to_string() + " (ts unit = array cycles)");
  sink.thread_name(systolic::kLayerTrack, "layers");
  if (fold_events) {
    sink.thread_name(systolic::kFoldTrack, "folds");
    sink.thread_name(systolic::kSramTrack, "sram footprint");
  }

  std::uint64_t cursor = 0;
  std::uint64_t pe_cycles_busy = 0;
  std::uint64_t pe_cycles_total = 0;
  std::uint64_t peak_fold_bytes = 0;
  std::size_t on_array_layers = 0;
  for (const nn::LayerDesc& layer : build.model.layers) {
    const systolic::MappingPlan plan = systolic::lower(layer, cfg);
    if (plan.ops.empty()) {
      continue;  // glue op: zero array cycles in the paper's methodology
    }
    ++on_array_layers;
    const systolic::FoldTrace trace = systolic::plan_trace(plan, cfg, mem);
    const systolic::LatencyEstimate est = plan.total_latency();
    FUSE_CHECK(trace.total_cycles == est.cycles)
        << "fold trace of '" << layer.name
        << "' diverges from its analytic latency";
    const std::uint64_t layer_pe_total =
        est.cycles * static_cast<std::uint64_t>(cfg.pe_count());
    sink.complete_event(
        layer.name, "layer", cursor, trace.total_cycles,
        systolic::kLayerTrack,
        {util::trace_str("kind", nn::op_kind_name(layer.kind)),
         util::trace_num("macs", est.mac_ops),
         util::trace_num("folds", est.folds),
         util::trace_num("pe_cycles_busy", est.mac_ops),
         util::trace_num("pe_cycles_total", layer_pe_total),
         util::trace_num("utilization", est.utilization())});
    if (fold_events) {
      append_fold_trace_events(sink, trace, layer.name, cursor);
    }
    cursor += trace.total_cycles;
    pe_cycles_busy += est.mac_ops;
    pe_cycles_total += layer_pe_total;
    peak_fold_bytes = std::max(peak_fold_bytes, trace.peak_fold_bytes());
  }

  // The plan traces' timeline must equal the closed-form analytic total.
  FUSE_CHECK(cursor == analytic.total_cycles)
      << "trace timeline " << cursor << " != analytic network latency "
      << analytic.total_cycles;

  const std::string attribution_path = flags.get_string("attribution-json");
  std::uint64_t attribution_stall = 0;
  if (!attribution_path.empty()) {
    // The per-layer NetworkPlan schedules the same lowered plans
    // back-to-back, so its segments line up with the trace's layer spans
    // (plan.total_cycles == analytic total, FUSE_CHECKed in
    // attribute_network).
    const sched::NetworkPlan plan = sched::plan_network(
        build.model, cfg, mem, sched::SchedMode::kPerLayer);
    const sched::AttributionReport report =
        sched::attribute_network(plan, build.model);
    sink.thread_name(kAttributionTrack, "attribution");
    export_attribution_track(sink, plan, report);
    sched::write_attribution_json_file(attribution_path, report);
    attribution_stall = report.total_dram_stall;
  }

  const std::string trace_path = flags.get_string("trace-json");
  sink.write_json_file(trace_path);

  std::printf(
      "%s %s on %s array\n"
      "  layers      : %zu on-array, %zu glue (zero-cycle)\n"
      "  total       : %s cycles (= analytic network_latency, verified)\n"
      "  PE occupancy: %s%% (%s busy / %s total PE-cycles)\n"
      "  peak fold   : %s SRAM (%s double-buffered)\n"
      "wrote %s: %zu trace events — open in ui.perfetto.dev\n",
      build.model.name.c_str(),
      core::network_variant_name(variant).c_str(), cfg.to_string().c_str(),
      on_array_layers, build.model.layers.size() - on_array_layers,
      util::with_commas(cursor).c_str(),
      util::fixed(100.0 * static_cast<double>(pe_cycles_busy) /
                      static_cast<double>(pe_cycles_total),
                  2)
          .c_str(),
      util::format_count(pe_cycles_busy).c_str(),
      util::format_count(pe_cycles_total).c_str(),
      util::format_bytes(peak_fold_bytes).c_str(),
      util::format_bytes(2 * peak_fold_bytes).c_str(), trace_path.c_str(),
      sink.event_count());

  if (!attribution_path.empty()) {
    std::printf("wrote %s (cycle attribution; %s DRAM stall cycles on "
                "top of compute)\n",
                attribution_path.c_str(),
                util::with_commas(attribution_stall).c_str());
  }

  const std::string stats_path = flags.get_string("stats-json");
  if (!stats_path.empty()) {
    util::metrics().write_json_file(stats_path);
    std::printf("wrote %s (metrics registry%s)\n", stats_path.c_str(),
                util::telemetry_enabled() ? "" : " — FUSE_TELEMETRY off");
  }
  return 0;
}
