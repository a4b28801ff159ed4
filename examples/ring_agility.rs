//! The Section 7.5 agility measurement: a probe with two NICs injects an
//! 802.1D BPDU on eth0 and measures (a) how long until the new protocol
//! reaches eth1 and (b) how long until data flows again.
//!
//! Paper: "the average start to IEEE time measured was 0.056 seconds, and
//! the average start to received ping time was 30.1 seconds."
//!
//! ```sh
//! cargo run --example ring_agility
//! ```

use ab_scenario::paper::run_agility;

fn main() {
    println!("ring of 3 active bridges between probe eth0 and eth1");
    println!("protocol: DEC-style running, 802.1D dormant, control armed\n");
    for seed in [1u64, 2, 3] {
        let a = run_agility(seed);
        println!(
            "run {}: start->IEEE {:>8.4} s   start->ping {:>7.3} s   ({} pings sent)",
            seed,
            a.to_ieee_s.unwrap_or(f64::NAN),
            a.to_ping_s.unwrap_or(f64::NAN),
            a.pings_sent
        );
    }
    println!(
        "\npaper:       start->IEEE   0.056 s   start->ping  30.1   s\n\
         The switch-over is far faster than the protocol's own forward-delay\n\
         timers (2 x 15 s), which govern when frames forward again."
    );
}
