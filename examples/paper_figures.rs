//! The paper's Section 7 tables that no other example prints: the
//! Figure 5 packet path, Figure 9 ping latencies, Figure 10 ttcp
//! throughput and the Section 7.3 frame rates, each with the paper's own
//! value beside it. (Table 1 is `protocol_upgrade`, Section 7.5 is
//! `ring_agility`.) Every number is simulated time, so two runs print the
//! same bytes.
//!
//! ```sh
//! cargo run --release --example paper_figures
//! ```

use ab_scenario::paper::{fig5_walk, run_ping, run_ttcp, Forwarder};
use netsim::CostModel;

/// Figure 5: the seven steps of a frame's path through the active node
/// with the modelled cost of each at three frame sizes.
fn fig5_path() {
    println!("=== Figure 5: path for a packet in the active node (us) ===");
    println!(
        "{:>4}  {:<53}  {:>6}  {:>6}  {:>6}",
        "step", "what", "64B", "1024B", "1514B"
    );
    let sizes = [64usize, 1024, 1514];
    let walks = sizes.map(fig5_walk);
    for (i, step) in walks[0].iter().enumerate() {
        println!(
            "{:>4}  {:<53}  {:>6.1}  {:>6.1}  {:>6.1}",
            step.step, step.what, step.us, walks[1][i].us, walks[2][i].us
        );
    }
    let [small, mid, full] = sizes.map(|len| {
        CostModel::active_bridge_1997()
            .service_time(len)
            .as_micros_f64()
    });
    println!(
        "{:>4}  {:<53}  {small:>6.1}  {mid:>6.1}  {full:>6.1}\n",
        "", "total software path (steps 2-6)"
    );
}

/// Figure 9: ping round-trip time against payload size.
fn fig9_ping() {
    println!("=== Figure 9: ping latencies (ms RTT, 20 echoes each) ===");
    println!(
        "{:>7}  {:>7}  {:>10}  {:>13}",
        "size(B)", "direct", "C repeater", "active bridge"
    );
    for size in [32usize, 256, 512, 1024, 2048, 4096] {
        let rtt = |fwd| run_ping(fwd, size, 20, 9).avg_rtt_ms;
        println!(
            "{size:>7}  {:>7.3}  {:>10.3}  {:>13.3}",
            rtt(Forwarder::Direct),
            rtt(Forwarder::Repeater),
            rtt(Forwarder::Bridge)
        );
    }
    println!("paper (Figure 9): direct < repeater < bridge at every size; the");
    println!("bridge's extra latency is the user-space crossing + interpretation.\n");
}

/// Figure 10: ttcp goodput against write size. The VM-bridge column runs
/// the bytecode dumb switchlet on every frame; its modelled per-frame
/// cost is the native bridge's, so the two columns agree.
fn fig10_ttcp() {
    println!("=== Figure 10: ttcp throughput (Mb/s) ===");
    println!(
        "{:>7}  {:>7}  {:>10}  {:>13}  {:>9}  {:>15}",
        "size(B)", "direct", "C repeater", "active bridge", "VM bridge", "bridge/repeater"
    );
    for size in [32usize, 512, 1024, 2048, 4096, 8192] {
        // Enough writes to reach steady state without hour-long
        // small-write transfers: at least 60 KB, at most 2 MB, targeting
        // ~400 writes.
        let volume = (size as u64 * 400).clamp(60_000, 2_000_000);
        let mbps = |fwd| run_ttcp(fwd, size, volume, 10).mbps;
        let (repeater, bridge) = (mbps(Forwarder::Repeater), mbps(Forwarder::Bridge));
        println!(
            "{size:>7}  {:>7.2}  {repeater:>10.2}  {bridge:>13.2}  {:>9.2}  {:>14.0}%",
            mbps(Forwarder::Direct),
            mbps(Forwarder::VmBridge),
            bridge / repeater * 100.0
        );
    }
    println!("paper: direct 76 Mb/s and bridge 16 Mb/s at 8 KB; bridge = 44% of repeater.\n");
}

/// Section 7.3: frames per second through the active bridge during ttcp,
/// beside the rate the cost model's per-frame cost alone would allow (the
/// paper's 0.47 ms => 2100 f/s arithmetic).
fn sec73_frame_rates() {
    println!("=== Section 7.3: frame rates through the active bridge ===");
    println!(
        "{:>17}  {:>12}  {:>16}  {:>6}",
        "write(B)", "measured f/s", "bridge-limit f/s", "Mb/s"
    );
    let model = CostModel::active_bridge_1997();
    for (write, label) in [
        (50usize, "~50"),
        (512, "512"),
        (1024, "1024"),
        (8192, "8192 (MSS frames)"),
    ] {
        let total = (write as u64 * 400).clamp(40_000, 2_000_000);
        let s = run_ttcp(Forwarder::Bridge, write, total, 11);
        // Wire frame: write-sized payload + TcpLite/IP/Ethernet headers
        // (MSS-capped for large writes).
        let frame = write.min(1462) + 18 + 20 + 14;
        println!(
            "{label:>17}  {:>12.0}  {:>16.0}  {:>6.2}",
            s.frames_per_sec,
            model.limiting_frame_rate(frame),
            s.mbps
        );
    }
    println!("paper: ~360 f/s at ~50 B rising to ~1790 f/s at 1024 B; a ~2100 f/s");
    println!("ceiling from the interpreted per-frame cost alone.");
}

fn main() {
    fig5_path();
    fig9_ping();
    fig10_ttcp();
    sec73_frame_rates();
}
