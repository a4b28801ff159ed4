//! The Section 7 performance/agility experiments as pass/fail checks:
//! every relationship the paper reports must hold in the reproduction.

use ab_scenario::paper::{fig5_walk, run_agility, run_ping, run_ttcp, Forwarder};

#[test]
fn agility_numbers_match_the_paper_shape() {
    // Paper: "the average start to IEEE time measured was 0.056 seconds,
    // and the average start to received ping time was 30.1 seconds. Thus,
    // the active bridge's reconfiguration was much faster (<0.1 second)
    // than timeouts (accounting for the additional 30 seconds) built into
    // the bridge protocols."
    let a = run_agility(5);
    let to_ieee = a.to_ieee_s.expect("IEEE seen on eth1");
    let to_ping = a.to_ping_s.expect("ping crossed");
    assert!(
        to_ieee < 0.1,
        "switch-over must beat 0.1 s (got {to_ieee:.4} s)"
    );
    assert!(
        (29.0..32.0).contains(&to_ping),
        "re-forwarding is governed by 2 x forward delay (got {to_ping:.2} s)"
    );
    assert!(a.pings_sent >= 29, "one ping per second until success");
}

#[test]
fn ping_latency_ordering_holds() {
    // Figure 9's ordering at every size: direct < repeater < bridge.
    for size in [32usize, 512, 1024] {
        let d = run_ping(Forwarder::Direct, size, 10, 2);
        let r = run_ping(Forwarder::Repeater, size, 10, 2);
        let b = run_ping(Forwarder::Bridge, size, 10, 2);
        assert_eq!(d.received, 10);
        assert_eq!(r.received, 10);
        assert_eq!(b.received, 10);
        assert!(
            d.avg_rtt_ms < r.avg_rtt_ms && r.avg_rtt_ms < b.avg_rtt_ms,
            "size {size}: {:.3} < {:.3} < {:.3}",
            d.avg_rtt_ms,
            r.avg_rtt_ms,
            b.avg_rtt_ms
        );
    }
}

#[test]
fn ping_latency_grows_with_size() {
    let small = run_ping(Forwarder::Bridge, 64, 10, 2);
    let large = run_ping(Forwarder::Bridge, 4096, 10, 2);
    assert_eq!(large.received, 10, "4 KB pings fragment and reassemble");
    assert!(large.avg_rtt_ms > small.avg_rtt_ms * 1.5);
}

#[test]
fn ttcp_headline_numbers() {
    // Paper: 76 Mb/s unbridged, 16 Mb/s bridged (8 KB writes), bridge =
    // ~44% of the C repeater.
    let direct = run_ttcp(Forwarder::Direct, 8192, 2_000_000, 3);
    let rep = run_ttcp(Forwarder::Repeater, 8192, 2_000_000, 3);
    let bridge = run_ttcp(Forwarder::Bridge, 8192, 2_000_000, 3);
    assert!(direct.completed && rep.completed && bridge.completed);
    assert!(
        (60.0..85.0).contains(&direct.mbps),
        "direct {:.1} Mb/s (paper: 76)",
        direct.mbps
    );
    assert!(
        (13.0..19.0).contains(&bridge.mbps),
        "bridged {:.1} Mb/s (paper: 16)",
        bridge.mbps
    );
    let ratio = bridge.mbps / rep.mbps;
    assert!(
        (0.35..0.55).contains(&ratio),
        "bridge/repeater {:.2} (paper: 0.44)",
        ratio
    );
}

/// The ttcp hosts run the 1997 cost model, so they declare no receive
/// filter and every frame on their LAN still takes its turn in their
/// receive queue: the transfers take, to the nanosecond, what they took
/// before receive filters existed.
#[test]
fn ttcp_goodput_is_what_it_was_before_receive_filters() {
    for (fwd, ns) in [
        (Forwarder::Direct, 48_829_080),
        (Forwarder::Repeater, 98_955_472),
        (Forwarder::Bridge, 223_879_464),
        (Forwarder::VmBridge, 223_879_464),
    ] {
        let t = run_ttcp(fwd, 8192, 400_000, 3);
        assert!(t.completed, "{fwd:?}");
        assert_eq!(t.frames, 293, "{fwd:?}");
        assert_eq!((t.secs * 1e9).round() as u64, ns, "{fwd:?}");
    }
}

#[test]
fn ttcp_frame_rates_match_the_table() {
    // Paper: "about 360 frames per second for small frames (ca. 50
    // bytes) to 1790 frames per second for 1024 byte frames".
    let small = run_ttcp(Forwarder::Bridge, 50, 40_000, 3);
    assert!(small.completed);
    assert!(
        (250.0..500.0).contains(&small.frames_per_sec),
        "small-frame rate {:.0} f/s (paper: ~360)",
        small.frames_per_sec
    );
    let big = run_ttcp(Forwarder::Bridge, 1024, 2_000_000, 3);
    assert!(big.completed);
    assert!(
        (1400.0..2100.0).contains(&big.frames_per_sec),
        "1024-byte rate {:.0} f/s (paper: ~1790)",
        big.frames_per_sec
    );
    // Paper: the interpreted per-frame cost alone (0.47 ms => 2100 f/s)
    // is a ceiling: the bridge serves one frame at a time, so no measured
    // rate exceeds what the cost model allows for the same wire frame
    // (payload + TcpLite/IP/Ethernet headers).
    let model = netsim::CostModel::active_bridge_1997();
    for (stats, write) in [(&small, 50), (&big, 1024)] {
        let limit = model.limiting_frame_rate(write + 18 + 20 + 14);
        assert!(
            stats.frames_per_sec <= limit,
            "{write}-byte writes: measured {:.0} f/s above the cost-model ceiling {limit:.0}",
            stats.frames_per_sec
        );
    }
}

#[test]
fn vm_data_path_also_bridges() {
    // The bytecode data plane carries real traffic end to end.
    let s = run_ping(Forwarder::VmBridge, 256, 10, 4);
    assert_eq!(s.received, 10);
}

#[test]
fn fig5_steps_sum_to_service_time() {
    let steps = fig5_walk(1024);
    assert_eq!(steps.len(), 7);
    let sw: f64 = steps
        .iter()
        .filter(|s| (2..=6).contains(&s.step))
        .map(|s| s.us)
        .sum();
    let model = netsim::CostModel::active_bridge_1997()
        .service_time(1024)
        .as_micros_f64();
    assert!(
        (sw - model).abs() < 1.0,
        "software steps ({sw:.1} us) must sum to the model ({model:.1} us)"
    );
}
