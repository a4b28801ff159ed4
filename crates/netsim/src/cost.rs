//! Per-node software cost models.
//!
//! The paper's performance story (Section 7) is entirely about software
//! path costs: the seven-step path of Figure 5 — interrupt service, kernel
//! buffer handling, the copy to user space, the Caml program, the copy back,
//! and the transmit queue. [`CostModel`] represents that path as a fixed
//! per-frame cost plus per-byte costs, split into "kernel" (steps 2-3, 5-6)
//! and "processing" (step 4) components so that the C-repeater baseline and
//! the Caml bridge differ only in the processing component — exactly the
//! comparison the paper draws.
//!
//! All constants live here as *presets* calibrated against the paper's
//! reported endpoints: each preset's doc names the endpoint, and
//! `examples/paper_figures` prints the tables the calibration reproduces
//! (Figures 5, 9 and 10, § 7.3).

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use crate::time::SimDuration;

/// Decomposed per-frame software cost of a store-compute-forward element.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed kernel-path cost per frame: interrupt service, buffer chain
    /// handling, scheduler wakeup, `recvfrom`/`sendto` syscalls
    /// (Figure 5 steps 2, 3, 5, 6).
    pub kernel_frame_ns: u64,
    /// Per-byte cost of moving the frame kernel→user and user→kernel
    /// (both copies combined).
    pub copy_byte_ns: u64,
    /// Fixed per-frame cost of the forwarding program itself
    /// (Figure 5 step 4): for the active bridge this is the Caml/VM
    /// dispatch + bridge logic; for the C repeater it is nearly zero.
    pub proc_frame_ns: u64,
    /// Per-byte cost of the forwarding program (interpreted data touching).
    pub proc_byte_ns: u64,
}

impl CostModel {
    /// A zero-cost model (infinitely fast element); useful in unit tests.
    pub const FREE: CostModel = CostModel {
        kernel_frame_ns: 0,
        copy_byte_ns: 0,
        proc_frame_ns: 0,
        proc_byte_ns: 0,
    };

    /// The active bridge preset, calibrated against the paper's measured
    /// *throughputs* (the ground truth its Section 7 reports):
    ///
    /// * kernel path ≈ 0.09 ms/frame + 122 ns/byte: the C repeater
    ///   (kernel path + trivial program) sustains ≈ 36 Mb/s at full-size
    ///   frames once the ttcp ACK stream's share is charged;
    /// * interpreted processing ≈ 0.20 ms/frame + 67 ns/byte: the bridge
    ///   lands at ≈ 15–16 Mb/s for 8 KB ttcp writes and ≈ 44% of the
    ///   repeater — the paper's headline relationship.
    ///
    /// The paper's *instrumented* Caml costs (0.34 ms ping path, 0.47 ms
    /// ttcp average) exceed what its own measured throughput implies by
    /// ~1.6× (0.47 ms against the ≈ 0.30 ms a 1 514-octet frame's
    /// processing costs here); this model sides with the throughputs. With
    /// it the bridge moves 15.2 Mb/s at 8 KB writes, the paper's 16, and
    /// 44 % of the repeater's 34.2 Mb/s (`examples/paper_figures`,
    /// Figure 10).
    #[inline]
    pub fn active_bridge_1997() -> CostModel {
        CostModel {
            kernel_frame_ns: 90_000,
            copy_byte_ns: 122,
            proc_frame_ns: 200_000,
            proc_byte_ns: 67,
        }
    }

    /// The user-mode C buffered repeater: the same kernel path with a
    /// negligible forwarding program (a couple of microseconds).
    #[inline]
    pub fn c_repeater_1997() -> CostModel {
        CostModel {
            kernel_frame_ns: 90_000,
            copy_byte_ns: 122,
            proc_frame_ns: 2_000,
            proc_byte_ns: 0,
        }
    }

    /// Total service time for a frame of `len` octets.
    #[inline]
    pub fn service_time(&self, len: usize) -> SimDuration {
        let len = len as u64;
        SimDuration::from_ns(
            self.kernel_frame_ns
                + self.copy_byte_ns * len
                + self.proc_frame_ns
                + self.proc_byte_ns * len,
        )
    }

    /// The processing (step 4) component alone — what the paper's extra
    /// instrumentation measured as "cost per frame within Caml".
    #[inline]
    pub fn processing_time(&self, len: usize) -> SimDuration {
        SimDuration::from_ns(self.proc_frame_ns + self.proc_byte_ns * len as u64)
    }

    /// The kernel component alone.
    #[inline]
    pub fn kernel_time(&self, len: usize) -> SimDuration {
        SimDuration::from_ns(self.kernel_frame_ns + self.copy_byte_ns * len as u64)
    }

    /// The frame rate this element can sustain for frames of `len` octets,
    /// in frames per second (the paper's "limiting rate" arithmetic).
    #[inline]
    pub fn limiting_frame_rate(&self, len: usize) -> f64 {
        1e9 / self.service_time(len).as_ns() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_is_sum_of_components() {
        let m = CostModel::active_bridge_1997();
        let len = 1024;
        assert_eq!(
            m.service_time(len),
            m.kernel_time(len) + m.processing_time(len)
        );
    }

    #[test]
    fn caml_cost_calibration() {
        let m = CostModel::active_bridge_1997();
        // Interpreted cost keeps the paper's *shape*: a few tenths of a
        // millisecond per frame, growing with size. (The paper's own
        // instrumented values, 0.34/0.47 ms, overshoot what its measured
        // throughput implies by the ~1.6× `active_bridge_1997` states.)
        let ping = m.processing_time(550).as_millis_f64();
        assert!((0.18..0.34).contains(&ping), "ping-size Caml cost {ping}");
        let ttcp = m.processing_time(1514).as_millis_f64();
        assert!((0.25..0.47).contains(&ttcp), "ttcp-size Caml cost {ttcp}");
        assert!(ttcp > ping, "interpreted cost grows with frame size");
    }

    #[test]
    fn repeater_vs_bridge_throughput_ratio() {
        let bridge = CostModel::active_bridge_1997();
        let repeater = CostModel::c_repeater_1997();
        // Paper: the bridge sustains about 44% of the repeater's throughput.
        let ratio =
            repeater.service_time(1514).as_ns() as f64 / bridge.service_time(1514).as_ns() as f64;
        assert!((0.38..0.50).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn limiting_rate_matches_paper_neighborhood() {
        let m = CostModel::active_bridge_1997();
        // Paper: ~1790 frames/s for 1024-byte frames, 2100 f/s ceiling.
        let fps = m.limiting_frame_rate(1076);
        assert!(
            (1500.0..2300.0).contains(&fps),
            "1024B frame rate was {fps}"
        );
    }

    #[test]
    fn free_model_costs_nothing() {
        assert_eq!(CostModel::FREE.service_time(9999), SimDuration::ZERO);
    }
}
