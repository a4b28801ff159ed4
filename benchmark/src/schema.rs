//! Every metric the benchmark prints: name, unit, which way is better and —
//! for the end-to-end ones — the share of the parent's median by which it
//! may worsen before a change counts as a regression. `BENCHMARK.json`
//! repeats this list; `tests/schema.rs` keeps the two identical.

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (negative when better)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// One metric.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Does the value repeat exactly for a given seed and size (a count
    /// taken from the simulation, not a time)? `compare` flags any
    /// difference in these.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn counted(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, reported on every workload by
/// `--trace 0`.
pub const END_TO_END: [Metric; 6] = [
    // Host time of one cold construction (generate → instantiate → boot →
    // warm up to steady state), the fastest of one per round; for
    // `sweep_render`, spec expansion plus the cold first pass over one seed.
    e2e("setup_s", "s", Lower, 0.25, false),
    // Host time of one round of the workload's fixed work, put together
    // from the fastest execution of each of its parts (see `harness`).
    e2e("wall_s", "s", Lower, 0.25, false),
    // `World::frames_delivered` gained in a round ÷ `wall_s`.
    e2e("frames_per_s", "frames/s", Higher, 0.25, false),
    // Heap allocations of one whole round (construction, warm-up and the
    // fixed work) ÷ frames the fixed work delivered. Counting the
    // construction keeps the metric above zero on the paths that allocate
    // nothing per frame, where one allocation per frame would multiply it
    // a thousandfold.
    e2e("allocs_per_frame", "allocs/frame", Lower, 0.10, true),
    // `VmHWM` of the workload's process.
    e2e("peak_rss_mb", "MB", Lower, 0.15, false),
    // Share of judged results that were right: delivered blast frames,
    // completed transfers, and on `sweep_render` invariants the judge
    // passed (below 1 there: see README).
    e2e("ok_share", "ratio", Higher, 0.01, true),
];

/// Single layers, reported on every workload by `--trace 1`. The first
/// block comes from the traced rounds of the workload (0 where a row does
/// not apply to it), the second from the kernel suite, which is the same
/// for every workload.
pub const PER_LAYER: [Metric; 71] = [
    timed("netsim.self_ns_per_frame", "ns/frame", Lower),
    timed("netsim.share", "ratio", Lower),
    counted("netsim.wire_frames", "count", Lower),
    counted("netsim.deliveries_per_wire_frame", "ratio", Higher),
    counted("netsim.queue_drops", "count", Lower),
    counted("netsim.peak_queue", "count", Lower),
    counted("active_bridge.calls", "count", Lower),
    timed("active_bridge.ns_per_call", "ns", Lower),
    timed("active_bridge.share", "ratio", Lower),
    counted("active_bridge.cache_hit_ratio", "ratio", Higher),
    counted("active_bridge.flood_ratio", "ratio", Lower),
    counted("active_bridge.queue_drops", "count", Lower),
    counted("active_bridge.learn_occupancy", "count", Lower),
    counted("active_bridge.learn_evictions", "count", Lower),
    counted("active_bridge.learn_rejects", "count", Lower),
    counted("active_bridge.storm_suppressions", "count", Lower),
    counted("active_bridge.bpdu_guard_trips", "count", Lower),
    counted("active_bridge.policed_drops", "count", Lower),
    counted("switchlet.instr_per_frame", "instr/frame", Lower),
    counted("hostsim.calls", "count", Lower),
    timed("hostsim.ns_per_call", "ns", Lower),
    timed("hostsim.share", "ratio", Lower),
    counted("hostsim.sim_goodput_mbps.direct", "Mb/s", Higher),
    counted("hostsim.sim_goodput_mbps.repeater", "Mb/s", Higher),
    counted("hostsim.sim_goodput_mbps.bridge", "Mb/s", Higher),
    counted("hostsim.sim_goodput_mbps.vm_bridge", "Mb/s", Higher),
    timed("ab_scenario.run_in_ms_p50", "ms", Lower),
    timed("ab_scenario.run_in_ms_p99", "ms", Lower),
    timed("ab_scenario.run_in_share", "ratio", Lower),
    timed("ab_scenario.to_json_share", "ratio", Lower),
    timed("ab_scenario.render_share", "ratio", Lower),
    counted("ab_scenario.report_kb_per_scenario", "KiB", Lower),
    counted("ab_scenario.invariants_judged", "count", Higher),
    counted("ab_scenario.invariants_failed", "count", Lower),
    counted("ab_scenario.quality_mean", "score", Higher),
    timed("trace.span_cost_ns", "ns", Lower),
    timed("trace.overhead_pct", "%", Lower),
    // ---- the kernel suite
    timed("ether.parse_ns", "ns", Lower),
    timed("ether.build_ns", "ns", Lower),
    timed("ether.crc32_ns_per_kb", "ns/KiB", Lower),
    timed("switchlet.decode_us", "us", Lower),
    timed("switchlet.verify_us", "us", Lower),
    timed("switchlet.link_init_us", "us", Lower),
    timed("switchlet.unseal_us", "us", Lower),
    timed("switchlet.call_ns", "ns", Lower),
    timed("switchlet.ns_per_instr", "ns", Lower),
    timed("netsim.timer_ns", "ns", Lower),
    timed("netsim.fanout_ns_per_delivery", "ns", Lower),
    timed("netsim.reset_us", "us", Lower),
    timed("netsim.framebuf_share_ns", "ns", Lower),
    timed("netstack.ipv4_parse_ns", "ns", Lower),
    timed("netstack.ipv4_build_ns", "ns", Lower),
    timed("netstack.checksum_ns_per_kb", "ns/KiB", Lower),
    timed("netstack.tcplite_segment_ns", "ns", Lower),
    timed("netstack.tftp_block_ns", "ns", Lower),
    timed("active_bridge.learn_refresh_ns", "ns", Lower),
    timed("active_bridge.learn_fresh_ns", "ns", Lower),
    timed("active_bridge.learn_evict_ns", "ns", Lower),
    timed("active_bridge.lookup_ns", "ns", Lower),
    timed("active_bridge.cache_probe_ns", "ns", Lower),
    timed("active_bridge.cache_store_ns", "ns", Lower),
    counted("active_bridge.cache_live_slots", "count", Higher),
    timed("active_bridge.on_frame_ns", "ns", Lower),
    timed("active_bridge.bpdu_decode_ns", "ns", Lower),
    timed("ab_scenario.topo_generate_us", "us", Lower),
    timed("ab_scenario.workload_generate_us", "us", Lower),
    timed("ab_scenario.instantiate_us", "us", Lower),
    timed("ab_scenario.score_us", "us", Lower),
    timed("ab_scenario.json_render_ns_per_kb", "ns/KiB", Lower),
    timed("ab_scenario.json_parse_ns_per_kb", "ns/KiB", Lower),
    timed("ab_scenario.sketch_record_ns", "ns", Lower),
];

/// The definition of the metric called `name`.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}
