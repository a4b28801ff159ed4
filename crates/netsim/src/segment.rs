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
//! caller does not include one) is charged as [`WIRE_OVERHEAD`].

use std::collections::VecDeque;
use std::sync::Arc;

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

/// Extra octets charged per frame for preamble/SFD/IFG/FCS: 8 preamble +
/// 12 IFG + 4 FCS.
pub const WIRE_OVERHEAD: usize = 24;

/// Configuration for one LAN segment.
#[derive(Clone, Debug)]
pub struct SegmentConfig {
    /// Human-readable name for traces and statistics, shared with every
    /// [`crate::SegmentStats`] taken of the segment. Default: `lan`. A
    /// named segment's config starts from [`SegmentConfig::named`], which
    /// builds no default name only to drop it.
    pub name: Arc<str>,
    /// Link bandwidth in bits per second. Default: 100 Mb/s (the paper's
    /// "100 Mbps Ethernet LANs").
    pub bandwidth_bps: u64,
    /// One-way propagation delay. Default: 1 us (a few hundred meters).
    pub propagation: SimDuration,
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
        SegmentConfig::named("lan")
    }
}

impl SegmentConfig {
    /// A named 100 Mb/s segment with defaults.
    pub fn named(name: impl Into<Arc<str>>) -> Self {
        SegmentConfig {
            name: name.into(),
            bandwidth_bps: 100_000_000,
            propagation: SimDuration::from_us(1),
            queue_cap: 512,
            fault: FaultConfig::default(),
            capture: false,
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
    /// [`Listeners::set_filter`] writes the two together.
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

    /// Would this attachment's node be called for a frame addressed to
    /// `dst` (see [`rx_dst`])? Three integer compares, none of them a
    /// branch: the test of a two-attachment segment's one listener, and
    /// the definition the listener index of a wider one
    /// ([`Listeners::called`]) is held to.
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

/// Which bit of a segment's address summary ([`Listeners`]) stands for
/// address word `mac`: the top six bits of a product, as [`Stations`]
/// homes its keys.
#[inline]
fn address_bit(mac: u64) -> u64 {
    1 << (mac.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// One filtered attachment in [`Stations`]: its key ([`Stations::key`])
/// and the segment and slot it stands for, 16 bytes, so a lookup that
/// matches reads one cache line. `key == VACANT` marks an empty entry.
#[derive(Copy, Clone, Debug)]
struct Entry {
    key: u64,
    seg: u32,
    slot: u32,
}

/// The key of an empty [`Entry`]: its top bit is set, and no key's is.
const VACANT: u64 = u64::MAX;
const EMPTY: Entry = Entry {
    key: VACANT,
    seg: 0,
    slot: 0,
};

/// Every filtered attachment of a world, found by the address its filter
/// names: one open-addressed table of [`Entry`]s, linear probing, at most
/// half full. Attachments that share an address — on one segment or on
/// several — are separate entries, so a lookup walks its probe sequence
/// to the first empty entry and reports every one that matches. A key's
/// home is the top bits of the key times a 64-bit odd constant: station
/// addresses differ in their high bytes (`02:00` leads every
/// `MacAddr::local`), and a product's top bits mix all of its input's.
/// Removal shifts the entries behind the hole back, so no tombstone
/// lengthens later probes. The world keeps the one table across
/// [`crate::World::reset`] and sizes it in
/// [`crate::World::reserve_topology`], so declaring filters allocates
/// nothing in a world built to a reserved size.
#[derive(Default)]
pub(crate) struct Stations {
    table: Vec<Entry>,
    /// Occupied entries.
    len: usize,
    /// `64 − log2(table.len())`: what a product is shifted right by to
    /// give a home.
    shift: u32,
}

impl Stations {
    /// The key of address word `mac` on segment `seg`: the address with
    /// the low 15 bits of the segment number above it.
    #[inline]
    fn key(seg: u32, mac: u64) -> u64 {
        mac | u64::from(seg & 0x7FFF) << 48
    }

    /// The entry `key` probes from.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Call `found` with the slot of every attachment of `seg` whose
    /// filter is `mac`, in no particular order. Only called for a segment
    /// with at least one filtered attachment, so the table is never empty.
    #[inline]
    pub(crate) fn find(&self, seg: SegId, mac: u64, mut found: impl FnMut(usize)) {
        let seg = seg.0 as u32;
        let key = Stations::key(seg, mac);
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        loop {
            let entry = self.table[i];
            if entry.key == key {
                if entry.seg == seg {
                    found(entry.slot as usize);
                }
            } else if entry.key == VACANT {
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Make room for `stations` entries without growing again.
    pub(crate) fn reserve(&mut self, stations: usize) {
        let want = (2 * stations).next_power_of_two();
        if want > self.table.len() {
            self.rebuild(want);
        }
    }

    /// Forget every entry, keeping the table.
    pub(crate) fn clear(&mut self) {
        self.table.fill(EMPTY);
        self.len = 0;
    }

    /// Re-home every entry into a table of `cap` (a power of two).
    fn rebuild(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.table, vec![EMPTY; cap]);
        self.shift = 64 - cap.trailing_zeros();
        self.len = 0;
        for entry in old.into_iter().filter(|e| e.key != VACANT) {
            self.place(entry);
        }
    }

    /// File slot `slot` of segment `seg` under address word `mac`.
    fn insert(&mut self, seg: u32, slot: u32, mac: u64) {
        if 2 * (self.len + 1) > self.table.len() {
            self.rebuild((2 * (self.len + 1)).next_power_of_two().max(16));
        }
        let key = Stations::key(seg, mac);
        self.place(Entry { key, seg, slot });
    }

    /// Write `entry` at the first empty index from its home.
    fn place(&mut self, entry: Entry) {
        let mask = self.table.len() - 1;
        let mut i = self.home(entry.key);
        while self.table[i].key != VACANT {
            i = (i + 1) & mask;
        }
        self.table[i] = entry;
        self.len += 1;
    }

    /// Remove the entry of slot `slot` of segment `seg`, filed under `mac`.
    fn remove(&mut self, seg: u32, slot: u32, mac: u64) {
        let key = Stations::key(seg, mac);
        let mask = self.table.len() - 1;
        let mut hole = self.home(key);
        while (
            self.table[hole].key,
            self.table[hole].seg,
            self.table[hole].slot,
        ) != (key, seg, slot)
        {
            hole = (hole + 1) & mask;
        }
        // Pull back every entry behind the hole whose home is not between
        // the hole and where it sits, so each stays reachable from its home.
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let entry = self.table[next];
            if entry.key == VACANT {
                break;
            }
            let home = self.home(entry.key);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.table[hole] = entry;
                hole = next;
            }
        }
        self.table[hole] = EMPTY;
        self.len -= 1;
    }
}

/// One segment's part of the listener index.
#[derive(Default)]
struct SegmentListeners {
    /// The promiscuous attachments, a bit per slot: slots 0–63 here, the
    /// rest in `promiscuous_more`, a word per 64 further slots — so a
    /// segment of up to 64 attachments keeps its bits without allocating.
    promiscuous: u64,
    promiscuous_more: Vec<u64>,
    /// A summary of the addresses its stations filter for: bit
    /// [`address_bit`] of each. A destination whose bit is clear is no
    /// station's here, and [`Stations`] is not asked; zero when no
    /// attachment filters.
    addressed: u64,
}

impl SegmentListeners {
    fn set_promiscuous(&mut self, slot: usize, on: bool) {
        let word = match slot / 64 {
            0 => &mut self.promiscuous,
            more => {
                if self.promiscuous_more.len() < more {
                    self.promiscuous_more.resize(more, 0);
                }
                &mut self.promiscuous_more[more - 1]
            }
        };
        let bit = 1 << (slot % 64);
        *word = if on { *word | bit } else { *word & !bit };
    }
}

/// The listener index of a world: for each segment, which attachments
/// are promiscuous and a summary of its stations' addresses, and for all
/// of them [`Stations`], every station by address. It answers which
/// attachments a frame is for ([`Listeners::called`]) without asking
/// each one; [`crate::World::attach`] and [`crate::Ctx::set_rx_filter`]
/// keep it current. It lives beside the segments, not in them: every hop
/// reads most of a [`Segment`], which is six cache lines (384 bytes)
/// without it.
#[derive(Default)]
pub(crate) struct Listeners {
    /// By segment id.
    segments: Vec<SegmentListeners>,
    stations: Stations,
}

impl Listeners {
    /// Make room for `segments` segments and a filter per node of
    /// `nodes`, so a world built to that size never grows the index.
    pub(crate) fn reserve(&mut self, nodes: usize, segments: usize) {
        let more = segments.saturating_sub(self.segments.len());
        self.segments.reserve(more);
        self.stations.reserve(nodes);
    }

    /// Forget every segment and station, keeping the tables.
    pub(crate) fn clear(&mut self) {
        self.segments.clear();
        self.stations.clear();
    }

    /// Index the next segment, with nothing attached.
    pub(crate) fn add_segment(&mut self) {
        self.segments.push(SegmentListeners::default());
    }

    /// A new attachment at `slot` of `seg`: promiscuous until its node
    /// declares a filter.
    pub(crate) fn attach(&mut self, seg: SegId, slot: usize) {
        self.segments[seg.0].set_promiscuous(slot, true);
    }

    /// Declare what the attachment at `slot` of `attachments` (segment
    /// `seg`'s) listens to (see [`Attachment::rx_filter`]), and refile it:
    /// its promiscuous bit and, for a station, its entry in [`Stations`]
    /// and its bit in the segment's address summary.
    pub(crate) fn set_filter(
        &mut self,
        seg: SegId,
        attachments: &mut [Attachment],
        slot: usize,
        filter: Option<[u8; 6]>,
    ) {
        let att = &mut attachments[slot];
        if att.rx_filter == filter {
            return;
        }
        let old = att.key;
        att.rx_filter = filter;
        att.key = filter.map_or(PROMISCUOUS, mac_word);
        let key = att.key;
        let index = &mut self.segments[seg.0];
        if old != PROMISCUOUS {
            self.stations.remove(seg.0 as u32, slot as u32, old);
            index.addressed = attachments
                .iter()
                .filter(|att| att.key != PROMISCUOUS)
                .fold(0, |bits, att| bits | address_bit(att.key));
        }
        if key != PROMISCUOUS {
            self.stations.insert(seg.0 as u32, slot as u32, key);
            index.addressed |= address_bit(key);
        }
        index.set_promiscuous(slot, key == PROMISCUOUS);
    }

    /// Which attachments of `seg` a frame addressed to `dst` is for — the
    /// promiscuous ones and the stations whose filter is `dst`, or all of
    /// them for broadcast — a bit per slot, OR-ed into `called[word][1]`
    /// for the slots `called` has words for (one per 64; bits past the
    /// frame's listeners are the caller's to mask off). The set
    /// [`Attachment::hears`] selects, found by address instead of by
    /// asking every attachment.
    #[inline]
    pub(crate) fn called(&self, seg: SegId, dst: u64, called: &mut [[u64; 2]]) {
        if dst == BROADCAST {
            for word in called.iter_mut() {
                word[1] = u64::MAX;
            }
            return;
        }
        let index = &self.segments[seg.0];
        called[0][1] |= index.promiscuous;
        for (word, &bits) in called[1..].iter_mut().zip(&index.promiscuous_more) {
            word[1] |= bits;
        }
        if index.addressed & address_bit(dst) != 0 {
            self.stations.find(seg, dst, |slot| {
                if let Some(word) = called.get_mut(slot / 64) {
                    word[1] |= 1 << (slot % 64);
                }
            });
        }
    }
}

/// A frame offered to a segment and not yet delivered: the one in flight
/// (`Segment::current`) or one waiting behind it. 32 bytes, and built where
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
        let t = SimDuration::serialization(len + WIRE_OVERHEAD, self.cfg.bandwidth_bps);
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
            ..Default::default()
        });
        // (1500 + 24) * 8 / 100e6 = 121.92 us
        assert_eq!(seg.serialization_time(1500).as_ns(), 121_920);
    }

    /// The station index against a list of `(segment, slot, address)`:
    /// filings and removals in a random order, few addresses, so that
    /// entries share keys and probe runs, and segments 32 768 apart, whose
    /// keys are equal. Every lookup reports exactly the list's matches.
    #[test]
    fn stations_match_a_list_through_filings_and_removals() {
        let mut rng = crate::Xoshiro::seed_from_u64(7);
        let mut index = Stations::default();
        let mut model: Vec<(u32, u32, u64)> = Vec::new();
        let segs = [0, 1, 32_768, 32_769];
        for step in 0..4_000 {
            if model.is_empty() || rng.range(5) < 3 {
                let seg = segs[rng.range(4) as usize];
                let slot = step;
                let mac = mac_word([2, 0, 0, 0, 0, rng.range(12) as u8]);
                index.insert(seg, slot, mac);
                model.push((seg, slot, mac));
            } else {
                let (seg, slot, mac) = model.swap_remove(rng.range(model.len() as u64) as usize);
                index.remove(seg, slot, mac);
            }
            assert_eq!(index.len, model.len());
            let seg = segs[rng.range(4) as usize];
            let mac = mac_word([2, 0, 0, 0, 0, rng.range(13) as u8]);
            let mut found = Vec::new();
            index.find(SegId(seg as usize), mac, |slot| found.push(slot as u32));
            found.sort_unstable();
            let mut want: Vec<u32> = model
                .iter()
                .filter(|&&(s, _, m)| (s, m) == (seg, mac))
                .map(|&(_, slot, _)| slot)
                .collect();
            want.sort_unstable();
            assert_eq!(found, want, "step {step}");
        }
        index.clear();
        let mut found = 0;
        index.find(SegId(0), mac_word([2, 0, 0, 0, 0, 1]), |_| found += 1);
        assert_eq!((index.len, found), (0, 0));
    }

    #[test]
    #[should_panic(expected = "no frame in flight")]
    fn complete_without_current_panics() {
        let mut seg = Segment::new(SegmentConfig::default());
        let _ = seg.complete();
    }
}
