//! Shared-medium Ethernet segment model.
//!
//! A segment is one LAN: every attached port hears every frame (the paper's
//! bridges put their ports in promiscuous mode and rely on this) unless it
//! declared a receive filter, as an ordinary station's NIC does in hardware
//! (see [`Attachment`]). The medium
//! serializes one frame at a time at the configured bandwidth — senders
//! queue behind each other exactly as they would contend for a shared
//! 100 Mb/s Ethernet. Collisions are idealized into queueing (a common DES
//! simplification; the paper's measurements were taken on otherwise idle
//! LANs where collisions are negligible).
//!
//! Per-frame wire overhead (preamble + SFD + inter-frame gap + FCS if the
//! caller does not include one) is charged via
//! [`SegmentConfig::overhead_bytes`].

use std::collections::VecDeque;

use framebuf::FrameBuf;

use crate::fault::FaultConfig;
use crate::node::{NodeId, PortId};
use crate::time::{SimDuration, SimTime};

/// Identifies a segment within a [`crate::World`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegId(pub usize);

impl core::fmt::Display for SegId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "lan{}", self.0)
    }
}

/// Configuration for one LAN segment.
#[derive(Clone, Debug)]
pub struct SegmentConfig {
    /// Human-readable name for traces.
    pub name: String,
    /// Link bandwidth in bits per second. Default: 100 Mb/s (the paper's
    /// "100 Mbps Ethernet LANs").
    pub bandwidth_bps: u64,
    /// One-way propagation delay. Default: 1 us (a few hundred meters).
    pub propagation: SimDuration,
    /// Extra octets charged per frame for preamble/SFD/IFG/FCS.
    /// Default: 24 (8 preamble + 12 IFG + 4 FCS).
    pub overhead_bytes: usize,
    /// Transmit queue capacity in frames; frames offered beyond this are
    /// dropped and counted. Default: 512.
    pub queue_cap: usize,
    /// Fault injection configuration.
    pub fault: FaultConfig,
    /// When true, every frame that completes serialization is recorded in
    /// [`Segment::captured`] (a pcap-like trace for tests).
    pub capture: bool,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            name: String::from("lan"),
            bandwidth_bps: 100_000_000,
            propagation: SimDuration::from_us(1),
            overhead_bytes: 24,
            queue_cap: 512,
            fault: FaultConfig::default(),
            capture: false,
        }
    }
}

impl SegmentConfig {
    /// A named 100 Mb/s segment with defaults.
    pub fn named(name: impl Into<String>) -> Self {
        SegmentConfig {
            name: name.into(),
            ..Default::default()
        }
    }
}

/// Traffic counters for one segment.
#[derive(Clone, Debug, Default)]
pub struct SegCounters {
    /// Frames fully serialized onto the wire.
    pub tx_frames: u64,
    /// Payload octets serialized (excluding configured overhead).
    pub tx_bytes: u64,
    /// Frame deliveries to ports (one frame to N listeners counts N).
    pub deliveries: u64,
    /// Frames that found the medium busy and had to queue behind another
    /// transmission — the idealized-collision count of this model (real
    /// CSMA/CD would have collided and backed off here).
    /// The medium reads busy until the frame in flight is delivered, so an
    /// offer made inside its propagation window queues for that one event
    /// and counts here too (its serialization still starts at the offer).
    pub contended: u64,
    /// Deepest the transmit queue ever got (frames waiting behind the
    /// one being serialized) — how close the segment came to dropping
    /// under load. Quality scoring reads this as degradation evidence.
    pub peak_queue: u64,
    /// Frames dropped because the transmit queue was full.
    pub queue_drops: u64,
    /// Frames offered while the segment was scripted down (see
    /// [`crate::chaos`]) and therefore dropped at the offer point.
    pub down_drops: u64,
    /// Frames dropped by fault injection.
    pub fault_drops: u64,
    /// The subset of `fault_drops` fired by the Gilbert–Elliott burst
    /// model's *bad* state (see [`crate::fault::BurstConfig`]) — how
    /// much of the loss arrived in correlated trains.
    pub burst_drops: u64,
    /// Frames corrupted by fault injection.
    pub corrupted: u64,
    /// Frames delivered twice by fault injection.
    pub fault_duplicates: u64,
}

/// A frame captured on the wire (when [`SegmentConfig::capture`] is set).
#[derive(Clone, Debug)]
pub struct CapturedFrame {
    /// Instant serialization completed.
    pub at: SimTime,
    /// Sending node and port.
    pub src: (NodeId, PortId),
    /// Frame contents (shared with the delivered copies; refcounted).
    pub data: FrameBuf,
}

/// One `(node, port)` attached to a segment, with the receive filter the
/// node declared for that port ([`crate::Ctx::set_rx_filter`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Attachment {
    /// The attached node.
    pub node: NodeId,
    /// Which of its ports this is.
    pub port: PortId,
    /// `None` = promiscuous, the default: the node is called for every
    /// frame on the segment. `Some(mac)` = the port's station address: the
    /// node is called only for frames addressed to `mac` or to broadcast.
    /// A filtered-out delivery is still counted and probe-recorded as a
    /// delivery; only the call is skipped.
    pub rx_filter: Option<[u8; 6]>,
    /// `rx_filter` as the word [`Attachment::hears`] compares: the
    /// address ([`mac_word`]) or, for a promiscuous port, [`PROMISCUOUS`].
    /// [`Attachment::set_filter`] writes the two together.
    key: u64,
}

/// The filter word of a promiscuous port: no address's word (those are 48
/// bits wide).
const PROMISCUOUS: u64 = u64::MAX;
/// The broadcast address as a word.
const BROADCAST: u64 = (1 << 48) - 1;
/// The destination word of a frame too short to carry an address: not
/// broadcast and no filter's word.
const NO_DST: u64 = 1 << 48;

/// A MAC address as a 48-bit word (first byte lowest: a plain load).
#[inline]
fn mac_word(mac: [u8; 6]) -> u64 {
    let mut word = [0; 8];
    word[..6].copy_from_slice(&mac);
    u64::from_le_bytes(word)
}

impl Attachment {
    /// A new attachment, promiscuous until its node says otherwise.
    pub(crate) fn new(node: NodeId, port: PortId) -> Attachment {
        Attachment {
            node,
            port,
            rx_filter: None,
            key: PROMISCUOUS,
        }
    }

    /// The attached `(node, port)`.
    #[inline]
    pub(crate) fn id(&self) -> (NodeId, PortId) {
        (self.node, self.port)
    }

    /// Declare what the port listens to (see [`Attachment::rx_filter`]).
    pub(crate) fn set_filter(&mut self, filter: Option<[u8; 6]>) {
        self.rx_filter = filter;
        self.key = filter.map_or(PROMISCUOUS, mac_word);
    }

    /// Would this attachment's node be called for a frame addressed to
    /// `dst` (see [`rx_dst`])? The one place the filter is tested: three
    /// integer compares, none of them a branch.
    #[inline]
    pub(crate) fn hears(&self, dst: u64) -> bool {
        (self.key == PROMISCUOUS) | (dst == self.key) | (dst == BROADCAST)
    }
}

/// What receive filters look at: a frame's first six bytes, its
/// destination address, as a word. A frame too short to carry one yields a
/// word that passes no filter.
#[inline]
pub(crate) fn rx_dst(frame: &[u8]) -> u64 {
    frame.first_chunk().map_or(NO_DST, |&mac| mac_word(mac))
}

/// A frame offered to a segment and not yet delivered: the one in flight
/// (`Segment::current`) or one waiting behind it. 40 bytes, and built where
/// it waits ([`Segment::offer`]) — a hop writes it once.
#[derive(Debug)]
pub(crate) struct PendingTx {
    pub frame: FrameBuf,
    /// When the frame was offered to the medium. A queued frame may have
    /// been offered *after* its predecessor's completion (during the
    /// propagation window, while the `SegDeliver` event was still in
    /// flight); its serialization then starts at the offer instant, not
    /// the predecessor's completion.
    pub offered_at: SimTime,
    /// Who sent it: the sender's slot among the segment's attachments
    /// (`World::attach` holds a slot to 32 bits).
    pub slot: u32,
}

/// One LAN segment: attachments plus the in-flight transmit state.
pub struct Segment {
    pub(crate) cfg: SegmentConfig,
    /// Attached `(node, port)` pairs in attachment order, each with its
    /// receive filter.
    pub(crate) attachments: Vec<Attachment>,
    /// The frame currently being serialized, if any.
    pub(crate) current: Option<PendingTx>,
    /// Frames waiting behind `current`.
    pub(crate) queue: VecDeque<PendingTx>,
    pub(crate) counters: SegCounters,
    pub(crate) captured: Vec<CapturedFrame>,
    /// True while a chaos script holds the segment down: offers are
    /// dropped (counted in [`SegCounters::down_drops`]); the frame in
    /// flight and the queue drain normally, like a cable pulled
    /// mid-preamble rather than a vaporized switch fabric.
    pub(crate) down: bool,
    /// Gilbert–Elliott burst state: `true` while the medium is in the
    /// bad state. Always `false` for configs without
    /// [`crate::fault::FaultConfig::burst`]; reset to good whenever the
    /// fault config is replaced mid-run.
    pub(crate) burst_bad: bool,
    /// Memoized `(len, serialization_time)` of the last frame: wire
    /// traffic is dominated by a couple of frame sizes, so this skips the
    /// 64-bit division on nearly every transmission.
    ser_memo: core::cell::Cell<(usize, SimDuration)>,
}

impl Segment {
    pub(crate) fn new(cfg: SegmentConfig) -> Self {
        Segment {
            cfg,
            attachments: Vec::new(),
            current: None,
            queue: VecDeque::new(),
            counters: SegCounters::default(),
            captured: Vec::new(),
            down: false,
            burst_bad: false,
            ser_memo: core::cell::Cell::new((usize::MAX, SimDuration::ZERO)),
        }
    }

    /// Time for `len` payload octets plus per-frame overhead on this medium.
    #[inline]
    pub(crate) fn serialization_time(&self, len: usize) -> SimDuration {
        let (memo_len, memo_t) = self.ser_memo.get();
        if memo_len == len {
            return memo_t;
        }
        let t = SimDuration::serialization(len + self.cfg.overhead_bytes, self.cfg.bandwidth_bps);
        self.ser_memo.set((len, t));
        t
    }

    /// Offer `frame`, sent at `offered_at` by the attachment at `slot`,
    /// for transmission. Returns `(accepted, started_now)`: the frame
    /// began serializing (the caller must schedule its completion), or
    /// queued behind the one that is, or — the queue full — was dropped
    /// and counted. The pending transmission is built where it waits,
    /// `current` or the queue slot, not handed in.
    #[inline]
    pub(crate) fn offer(
        &mut self,
        slot: u32,
        frame: FrameBuf,
        offered_at: SimTime,
    ) -> (bool, bool) {
        if self.current.is_none() {
            self.current = Some(PendingTx {
                frame,
                offered_at,
                slot,
            });
            (true, true)
        } else if self.queue.len() < self.cfg.queue_cap {
            self.counters.contended += 1;
            self.queue.push_back(PendingTx {
                frame,
                offered_at,
                slot,
            });
            self.counters.peak_queue = self.counters.peak_queue.max(self.queue.len() as u64);
            (true, false)
        } else {
            self.counters.queue_drops += 1;
            (false, false)
        }
    }

    /// Complete the current transmission; returns it, and moves the next
    /// queued frame (if any) into `current`, returning whether a new
    /// serialization must be scheduled.
    #[inline]
    pub(crate) fn complete(&mut self) -> (PendingTx, bool) {
        let done = self
            .current
            .take()
            .expect("completion with no frame in flight");
        self.current = self.queue.pop_front();
        (done, self.current.is_some())
    }

    /// Read-only counters.
    pub fn counters(&self) -> &SegCounters {
        &self.counters
    }

    /// Frames currently waiting behind the transmission in flight (the
    /// flight recorder stamps this onto queued offers).
    #[inline]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The segment's configured transmit-queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.cfg.queue_cap
    }

    /// Captured frames (empty unless capture was enabled).
    pub fn captured(&self) -> &[CapturedFrame] {
        &self.captured
    }

    /// Is the segment scripted down right now?
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Segment name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Attached `(node, port)` pairs, in attachment order.
    pub fn attachments(&self) -> &[Attachment] {
        &self.attachments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(seg: &mut Segment, slot: u32) -> (bool, bool) {
        seg.offer(slot, FrameBuf::from(vec![0u8; 10]), SimTime::ZERO)
    }

    #[test]
    fn offer_starts_when_idle_then_queues() {
        let mut seg = Segment::new(SegmentConfig::default());
        assert_eq!(offer(&mut seg, 0), (true, true));
        assert_eq!(offer(&mut seg, 1), (true, false));
        assert_eq!(offer(&mut seg, 2), (true, false));
        assert_eq!(seg.counters.peak_queue, 2, "two frames waited at the peak");
        let (done, more) = seg.complete();
        assert_eq!(done.slot, 0);
        assert!(more);
        let (done, more) = seg.complete();
        assert_eq!(done.slot, 1);
        assert!(more);
        let (done, more) = seg.complete();
        assert_eq!(done.slot, 2);
        assert!(!more);
    }

    #[test]
    fn queue_cap_drops() {
        let mut seg = Segment::new(SegmentConfig {
            queue_cap: 1,
            ..Default::default()
        });
        assert_eq!(offer(&mut seg, 0), (true, true)); // in flight
        assert_eq!(offer(&mut seg, 1), (true, false)); // queued
        assert_eq!(offer(&mut seg, 2), (false, false)); // dropped
        assert_eq!(seg.counters.queue_drops, 1);
    }

    #[test]
    fn serialization_includes_overhead() {
        let seg = Segment::new(SegmentConfig {
            bandwidth_bps: 100_000_000,
            overhead_bytes: 24,
            ..Default::default()
        });
        // (1500 + 24) * 8 / 100e6 = 121.92 us
        assert_eq!(seg.serialization_time(1500).as_ns(), 121_920);
    }

    #[test]
    #[should_panic(expected = "no frame in flight")]
    fn complete_without_current_panics() {
        let mut seg = Segment::new(SegmentConfig::default());
        let _ = seg.complete();
    }
}
