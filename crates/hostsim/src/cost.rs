//! End-system cost model.
//!
//! The paper's hosts were "Intel Pentiums running with a version 2.0.28
//! Linux kernel"; their software costs (syscall per write, protocol
//! processing per packet, copying per byte) bound the *unbridged* ttcp at
//! 76 Mb/s and pin the small-write rates. [`HostCostModel::pc_1997`] is
//! calibrated against the first: a 1 514-octet frame's receive path costs
//! 95 µs + 40 ns an octet ≈ 156 µs, a bound of ≈ 75 Mb/s
//! (`unbridged_ttcp_bound_is_paper_neighborhood` below), and the simulated
//! unbridged ttcp moves 70.6 Mb/s at 8 KB writes (`examples/paper_figures`,
//! Figure 10) against the paper's 76.

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use netsim::SimDuration;

/// Per-host software costs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HostCostModel {
    /// Receive-path fixed cost per frame (interrupt, protocol processing).
    pub rx_frame_ns: u64,
    /// Receive-path per-byte cost (copy to user space).
    pub rx_byte_ns: u64,
    /// Transmit-path fixed cost per send (syscall + protocol).
    pub tx_frame_ns: u64,
    /// Transmit-path per-byte cost.
    pub tx_byte_ns: u64,
    /// Cost of one application `write()` before data reaches the
    /// protocol (ttcp's writing loop).
    pub write_ns: u64,
}

impl HostCostModel {
    /// Free (infinitely fast) hosts, for logic-only tests.
    pub const FREE: HostCostModel = HostCostModel {
        rx_frame_ns: 0,
        rx_byte_ns: 0,
        tx_frame_ns: 0,
        tx_byte_ns: 0,
        write_ns: 0,
    };

    /// The 1997 Pentium/Linux preset. Receive-side processing of a
    /// full-size frame ≈ 156 µs; together with the ACK stream's share it
    /// bounds the unbridged ttcp near the paper's 76 Mb/s.
    #[inline]
    pub fn pc_1997() -> HostCostModel {
        HostCostModel {
            rx_frame_ns: 95_000,
            rx_byte_ns: 40,
            tx_frame_ns: 50_000,
            tx_byte_ns: 35,
            write_ns: 30_000,
        }
    }

    /// Receive service time for a frame of `len` octets.
    #[inline]
    pub fn rx_time(&self, len: usize) -> SimDuration {
        SimDuration::from_ns(self.rx_frame_ns + self.rx_byte_ns * len as u64)
    }

    /// Transmit service time for a frame of `len` octets.
    #[inline]
    pub fn tx_time(&self, len: usize) -> SimDuration {
        SimDuration::from_ns(self.tx_frame_ns + self.tx_byte_ns * len as u64)
    }

    /// Application write cost.
    #[inline]
    pub fn write_time(&self) -> SimDuration {
        SimDuration::from_ns(self.write_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbridged_ttcp_bound_is_paper_neighborhood() {
        let m = HostCostModel::pc_1997();
        // Receiver-side service of a full frame bounds unbridged
        // throughput (ACK emission overlaps on the separate tx path); the
        // measured end-to-end figure lands at ~72 Mb/s (paper: 76).
        let t = m.rx_time(1514).as_ns() as f64 / 1e9;
        let mbps = 1462.0 * 8.0 / t / 1e6;
        assert!((65.0..85.0).contains(&mbps), "unbridged bound {mbps} Mb/s");
    }

    #[test]
    fn free_model_is_free() {
        assert_eq!(HostCostModel::FREE.rx_time(5000), SimDuration::ZERO);
    }
}
