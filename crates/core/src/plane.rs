//! The shared forwarding plane — the state the paper's switchlets reach
//! through "access points in the previous switchlets": per-port
//! forwarding/learning flags (set by the spanning-tree switchlet, honored
//! by the switching function), the learning table, the demultiplexer's
//! address registrations, and the published spanning-tree snapshots the
//! control switchlet monitors.
//!
//! The plane also keeps what the data plane and each registered address
//! resolve to, until a writer of what the resolution read forgets it: a
//! data-plane selection, a lifecycle transition, a (re-)registration, or
//! `Plane::forget_targets` for the inputs the bridge holds
//! (`crates/switchlet/DESIGN.md` § 3). Port flags, the learning table and
//! timers feed no resolution and forget nothing; forwarding verdicts are
//! not kept — the learning table is the fast path.
//!
//! The plane also keeps the **switchlet directory**: a switchlet is a
//! slot. A name is resolved to its slot where it enters (an install, a
//! `switchctl` command, a registration) and the per-frame, per-BPDU and
//! per-timer paths test `status[slot]`; the by-name queries scan the
//! directory (a bridge holds a handful of units) and serve commands,
//! the control switchlet and tests.

use std::borrow::Cow;
use std::ops::Deref;
use std::rc::Rc;

use ether::MacAddr;
use netsim::{FastMap, PortId, SimDuration, SimTime};
use switchlet::FuncVal;

use crate::switchlets::stp::bpdu::{BridgeId, StpVariant};
use crate::switchlets::stp::engine::{StpEngine, StpSnapshot};
use crate::switchlets::stp::{DEC_NAME, IEEE_NAME};

/// Per-port permission flags (the spanning tree's access points).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PortFlags {
    /// May data frames be accepted from / emitted to this port?
    pub forward: bool,
    /// May source addresses be learned from this port?
    pub learn: bool,
}

impl Default for PortFlags {
    fn default() -> Self {
        // Before any spanning tree runs, the bridge forwards everywhere
        // (the paper's buffered repeater "cannot tolerate a network
        // topology with any loops").
        PortFlags {
            forward: true,
            learn: true,
        }
    }
}

/// The outcome of one [`LearningTable::learn`] call. Callers surface the
/// bounded-learning outcomes (eviction, rejection) as bridge counters and
/// flight-recorder probe records; the plain outcomes are free to ignore.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LearnOutcome {
    /// Group source: never learned (paper footnote 3).
    Ignored,
    /// A new entry was inserted.
    Fresh,
    /// An existing entry's timestamp was refreshed (mapping unchanged).
    Refreshed,
    /// An existing entry moved to a new port.
    Moved,
    /// A new entry was admitted by evicting the named victim — the
    /// oldest-refreshed entry on the offending port, ties broken by MAC
    /// order, so the choice is replay-stable by construction.
    Evicted(MacAddr),
    /// The new source was rejected: the table is at its hard capacity
    /// and the offending port holds no entry to evict. The mapping is
    /// untouched.
    Rejected,
}

/// The self-learning table: source address → (port, last-seen time).
/// Paper Section 5.3: "the triple (source address, current time, input
/// port) is placed into a hash table keyed by the source address,
/// replacing any previous entry".
///
/// A frame's source is learned on every bridge it crosses and nearly
/// always finds its entry where it left it: that refresh
/// is one probe of the map — the timestamp is written through the entry
/// the probe found, as a port move is — not a lookup and then an insert.
///
/// The table can be **bounded** ([`LearningTable::set_bounds`]):
/// a hard capacity plus a per-port occupancy quota, with a deterministic
/// victim-selection policy (oldest refresh within the offending port, MAC
/// order as the tiebreak — a total order independent of hash iteration
/// order, so replays evict identically). Both bounds default to 0 =
/// unlimited, the paper's table.
///
/// **A bucket is 16 bytes.** The 6-byte address keys a 10-byte entry
/// of alignment 1 (the last-seen time and a 16-bit port), so the map
/// keeps each `(MacAddr, Entry)` in 16 bytes where `(PortId, SimTime)`
/// took 24: a table reserved for 1 040 stations holds 34 832 heap bytes,
/// not 51 216. A port index must be below [`LearningTable::PORT_LIMIT`]
/// (65 536); [`LearningTable::learn`] panics on one that is not, and a
/// bridge has far fewer ports.
#[derive(Debug)]
pub struct LearningTable {
    /// Keyed by the fast deterministic hasher: this map is probed and
    /// refreshed once per data frame.
    map: FastMap<MacAddr, Entry>,
    age: SimDuration,
    /// Hard entry capacity (0 = unbounded).
    cap: usize,
    /// Per-port occupancy quota (0 = none).
    port_quota: usize,
    /// Live entry count per port, grown on demand.
    occupancy: Vec<u32>,
    /// The most entries the table has held at once.
    high_water: usize,
}

/// One learning-table value, read and written by value (a packed field
/// has no reference): the last-seen time in full and the port in 16 bits,
/// 10 bytes at alignment 1.
#[derive(Copy, Clone, Debug)]
#[repr(C, packed)]
struct Entry {
    seen: SimTime,
    port: u16,
}

impl Entry {
    /// `port` is below [`LearningTable::PORT_LIMIT`]: `learn` checked it.
    #[inline]
    fn new(port: PortId, seen: SimTime) -> Entry {
        Entry {
            seen,
            port: port.0 as u16,
        }
    }

    #[inline]
    fn port(self) -> PortId {
        PortId(usize::from(self.port))
    }
}

/// [`LearningTable::learn`]'s refusal of a port past the 16-bit entry.
#[cold]
#[inline(never)]
fn port_past_limit(port: PortId) -> ! {
    panic!(
        "learning table: port {} is past the limit of {} ports",
        port.0,
        LearningTable::PORT_LIMIT
    )
}

impl LearningTable {
    /// Ports a table can tell apart: an entry keeps its port in 16 bits.
    pub const PORT_LIMIT: usize = 1 << 16;

    /// Table with the given entry lifetime.
    pub fn new(age: SimDuration) -> LearningTable {
        LearningTable {
            map: FastMap::default(),
            age,
            cap: 0,
            port_quota: 0,
            occupancy: Vec::new(),
            high_water: 0,
        }
    }

    /// Arm the bounded-learning policy: a hard `cap` on total entries
    /// and a per-port occupancy `quota` (either 0 = unlimited, the
    /// default). Bounds gate admissions in
    /// [`LearningTable::learn`]; existing entries are not retroactively
    /// evicted.
    pub fn set_bounds(&mut self, cap: usize, quota: usize) {
        self.cap = cap;
        self.port_quota = quota;
    }

    /// The configured hard capacity (0 = unbounded).
    #[inline]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Live entries learned on one port.
    #[inline]
    pub fn occupancy_of(&self, port: PortId) -> usize {
        self.occupancy.get(port.0).map_or(0, |&c| c as usize)
    }

    fn occupancy_inc(&mut self, port: PortId) {
        if self.occupancy.len() <= port.0 {
            self.occupancy.resize(port.0 + 1, 0);
        }
        self.occupancy[port.0] += 1;
    }

    fn occupancy_dec(&mut self, port: PortId) {
        if let Some(c) = self.occupancy.get_mut(port.0) {
            *c = c.saturating_sub(1);
        }
    }

    /// The deterministic eviction victim on `port`: oldest refresh first,
    /// MAC order breaking ties — a total order over the entries, so the
    /// answer never depends on hash iteration order.
    fn victim_on(&self, port: PortId) -> Option<MacAddr> {
        self.map
            .iter()
            .filter(|&(_, e)| e.port() == port)
            .min_by_key(|&(mac, e)| (e.seen, mac.octets()))
            .map(|(mac, _)| *mac)
    }

    /// Record that `src` was seen on `port`. Group addresses are never
    /// learned (paper footnote 3). When bounds are armed, a new source
    /// that would exceed the port quota or the hard capacity evicts the
    /// deterministic victim *on the offending port* — an attacker's
    /// randomized sources cannibalize the attacker's own entries, never a
    /// victim port's — or is rejected outright when that port has
    /// nothing to evict. Panics if `port` is not below
    /// [`LearningTable::PORT_LIMIT`].
    #[inline]
    pub fn learn(&mut self, src: MacAddr, port: PortId, now: SimTime) -> LearnOutcome {
        if port.0 >= Self::PORT_LIMIT {
            port_past_limit(port);
        }
        if src.is_multicast() {
            return LearnOutcome::Ignored;
        }
        let over_quota = self.port_quota > 0 && self.occupancy_of(port) >= self.port_quota;
        // One probe: the refresh and the move write through its entry.
        if let Some(entry) = self.map.get_mut(&src) {
            let old_port = entry.port();
            if old_port == port {
                entry.seen = now;
                return LearnOutcome::Refreshed; // timestamp refresh
            }
            // A port move must honor the destination port's quota too,
            // else an attacker could herd existing sources onto one port
            // past its bound. The victim is chosen on the *destination*
            // port (the one gaining an entry), never the mover itself.
            if over_quota {
                return self.admit_by_eviction(src, port, Some(old_port), now);
            }
            *entry = Entry::new(port, now);
            self.occupancy_dec(old_port);
            self.occupancy_inc(port);
            return LearnOutcome::Moved;
        }
        let over_cap = self.cap > 0 && self.map.len() >= self.cap;
        if over_quota || over_cap {
            return self.admit_by_eviction(src, port, None, now);
        }
        self.map.insert(src, Entry::new(port, now));
        self.occupancy_inc(port);
        self.high_water = self.high_water.max(self.map.len());
        LearnOutcome::Fresh
    }

    /// The bounded arms of [`LearningTable::learn`]: `port` is at its
    /// quota (or the table at its capacity), so `src` — arriving from
    /// `moved_from` when it is a port move — is admitted in place of the
    /// deterministic victim on `port`. Out of line: 0.5 % of
    /// `defended_mix`'s learns and 0.3 % of `sweep_render`'s end here,
    /// none on the other five workloads.
    #[cold]
    fn admit_by_eviction(
        &mut self,
        src: MacAddr,
        port: PortId,
        moved_from: Option<PortId>,
        now: SimTime,
    ) -> LearnOutcome {
        let Some(victim) = self.victim_on(port) else {
            // A port over its quota holds an entry, so for a move this
            // cannot happen in practice, but stay total: refuse, keep the
            // old mapping.
            return LearnOutcome::Rejected;
        };
        self.map.remove(&victim);
        self.occupancy_dec(port);
        self.map.insert(src, Entry::new(port, now));
        if let Some(old_port) = moved_from {
            self.occupancy_dec(old_port);
        }
        self.occupancy_inc(port);
        LearnOutcome::Evicted(victim)
    }

    /// Look up a destination; a stale entry counts as absent (and is
    /// dropped).
    #[inline]
    pub fn lookup(&mut self, dst: MacAddr, now: SimTime) -> Option<PortId> {
        self.lookup_entry(dst, now).map(|(port, _)| port)
    }

    /// Like [`LearningTable::lookup`], also returning when the entry was
    /// last refreshed.
    #[inline]
    pub fn lookup_entry(&mut self, dst: MacAddr, now: SimTime) -> Option<(PortId, SimTime)> {
        match self.map.get(&dst) {
            Some(&e) if now.saturating_since(e.seen) <= self.age => Some((e.port(), e.seen)),
            Some(&e) => {
                self.map.remove(&dst);
                self.occupancy_dec(e.port());
                None
            }
            None => None,
        }
    }

    /// Non-mutating currency check: is there a live entry for `dst`?
    /// Stale entries count as absent but are left in place (unlike
    /// [`LearningTable::lookup`]), so policers can classify
    /// unknown-unicast traffic without perturbing the table.
    #[inline]
    pub fn peek(&self, dst: MacAddr, now: SimTime) -> bool {
        matches!(self.map.get(&dst), Some(&e) if now.saturating_since(e.seen) <= self.age)
    }

    /// Drop every entry older than the age limit.
    pub fn sweep(&mut self, now: SimTime) {
        let age = self.age;
        let occupancy = &mut self.occupancy;
        self.map.retain(|_, e| {
            let keep = now.saturating_since(e.seen) <= age;
            if !keep {
                if let Some(c) = occupancy.get_mut(e.port().0) {
                    *c = c.saturating_sub(1);
                }
            }
            keep
        });
    }

    /// Forget everything (used on topology change).
    pub fn flush(&mut self) {
        self.map.clear();
        self.occupancy.fill(0);
    }

    /// Pre-size the table for `stations` distinct source addresses, so
    /// steady-state learning at that scale never rehashes.
    pub fn reserve(&mut self, stations: usize) {
        self.map.reserve(stations.saturating_sub(self.map.len()));
    }

    /// The most entries the table has held at once, raised only by a fresh
    /// insert (a crash's fresh table continues the old one's mark).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Live entry count.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate entries as `(address, (port, last seen))`, by value (for
    /// display/debugging).
    pub fn entries(&self) -> impl Iterator<Item = (MacAddr, (PortId, SimTime))> + '_ {
        self.map.iter().map(|(&mac, &e)| (mac, (e.port(), e.seen)))
    }
}

/// Which switching function is installed.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum DataPlaneSel {
    /// No switching function yet: frames are dropped (the bare loader).
    #[default]
    None,
    /// A native switchlet, by its [`crate::NativeSwitchlet::name`].
    Native(&'static str),
    /// A VM switchlet handler (registered under "switching").
    Vm(FuncVal),
}

/// What a handler name resolves to: plain indices and values, so that
/// resolution can happen under an immutable borrow and dispatch under
/// the mutable one — and so that a resolved answer can be kept.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum HandlerTarget {
    /// Loaded native switchlet, by slot.
    Native(usize),
    /// VM handler function.
    Vm(FuncVal),
    /// No runnable handler.
    None,
}

/// One demultiplexer registration: the handler's name as registered, and
/// what it resolved to, once it has been asked (`None` again when a
/// writer of what it read forgets it).
#[derive(Debug)]
struct AddrHandler {
    addr: MacAddr,
    name: Cow<'static, str>,
    target: Option<HandlerTarget>,
}

/// A switchlet's unit name as its bridge already holds it, so that the
/// directory copies none.
#[derive(Debug)]
pub(crate) enum UnitName {
    /// A native switchlet's [`crate::NativeSwitchlet::name`].
    Native(&'static str),
    /// A VM module's name, the one its host calls act under.
    Vm(Rc<str>),
}

impl Deref for UnitName {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            UnitName::Native(name) => name,
            UnitName::Vm(name) => name,
        }
    }
}

impl From<&'static str> for UnitName {
    fn from(name: &'static str) -> UnitName {
        UnitName::Native(name)
    }
}

impl From<Rc<str>> for UnitName {
    fn from(name: Rc<str>) -> UnitName {
        UnitName::Vm(name)
    }
}

/// One entry of the switchlet directory.
#[derive(Debug)]
struct Unit {
    name: UnitName,
    status: SwitchletStatus,
}

/// The spanning-tree snapshots the protocol switchlets publish, one cell
/// per [`StpVariant`], rewritten in place (the plane's `publish` is the
/// only writer).
#[derive(Debug, Default)]
pub struct Published([Option<StpSnapshot>; 2]);

impl Published {
    /// The snapshot `variant`'s switchlet last published.
    #[inline]
    pub fn of(&self, variant: StpVariant) -> Option<&StpSnapshot> {
        self.0[variant as usize].as_ref()
    }

    /// The snapshot published under a switchlet's unit name.
    pub fn get(&self, name: &str) -> Option<&StpSnapshot> {
        match name {
            IEEE_NAME => self.of(StpVariant::Ieee),
            DEC_NAME => self.of(StpVariant::Dec),
            _ => None,
        }
    }
}

/// Lifecycle status of a switchlet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SwitchletStatus {
    /// Dispatching normally.
    Running,
    /// Loaded but not receiving events.
    Suspended,
    /// Halted permanently.
    Stopped,
}

/// Forwarding statistics.
#[derive(Clone, Debug, Default)]
pub struct BridgeStats {
    /// Frames accepted into the input queue.
    pub frames_in: u64,
    /// Frames dropped because the input queue was full.
    pub queue_drops: u64,
    /// Frames flooded to all other ports.
    pub flooded: u64,
    /// Frames forwarded to a single learned port.
    pub directed: u64,
    /// Frames suppressed because the learned port was the arrival port.
    pub filtered: u64,
    /// Frames dropped because a port was not forwarding.
    pub blocked: u64,
    /// Frames delivered to address-registered switchlets (BPDUs etc.).
    pub registered: u64,
    /// Frames consumed by the loader endpoint.
    pub to_loader: u64,
    /// Frames dropped for want of any switching function.
    pub no_plane: u64,
    /// Aggregate octets forwarded (directed + flooded).
    pub bytes_forwarded: u64,
    /// VM instructions retired on the data path.
    pub vm_instructions: u64,
    /// Switchlet images loaded over the network.
    pub images_loaded: u64,
    /// Switchlet images rejected (decode/link/verify failures).
    pub images_rejected: u64,
    /// Learn-table occupancy gauge (live entries at last learn/sweep).
    pub learn_occupancy: u64,
    /// Bounded learning: victims evicted to admit new sources.
    pub learn_evictions: u64,
    /// Bounded learning: new sources rejected (table full, offending
    /// port empty).
    pub learn_rejects: u64,
    /// Storm control: ingress port-classes suppressed for a hold-down.
    pub storm_suppressions: u64,
    /// BPDU guard: guarded ports shut down on BPDU receipt.
    pub bpdu_guard_trips: u64,
}

impl BridgeStats {
    /// The defense-plane counter names. Reports for scenarios that never
    /// arm a defense filter these out: there they are always 0, and an
    /// undefended report keeps the bytes a bridge without the defense
    /// plane renders.
    pub const SECURITY_KEYS: [&'static str; 5] = [
        "learn_occupancy",
        "learn_evictions",
        "learn_rejects",
        "storm_suppressions",
        "bpdu_guard_trips",
    ];

    /// Names with no counter behind them, always 0, kept in `as_pairs` for
    /// `benchmark/src/harness.rs` until ROADMAP item 5 deletes them there;
    /// reports leave them out.
    pub const RETIRED_KEYS: [&'static str; 2] = ["cache_hits", "cache_misses"];

    /// Every counter as a stable `(name, value)` list, in declaration
    /// order — the shape structured reports (JSON emitters, tables) want,
    /// so they never fall out of sync with the struct.
    pub fn as_pairs(&self) -> [(&'static str, u64); 21] {
        [
            ("frames_in", self.frames_in),
            ("queue_drops", self.queue_drops),
            ("flooded", self.flooded),
            ("directed", self.directed),
            ("filtered", self.filtered),
            ("blocked", self.blocked),
            ("registered", self.registered),
            ("to_loader", self.to_loader),
            ("no_plane", self.no_plane),
            ("bytes_forwarded", self.bytes_forwarded),
            ("vm_instructions", self.vm_instructions),
            ("images_loaded", self.images_loaded),
            ("images_rejected", self.images_rejected),
            (Self::RETIRED_KEYS[0], 0),
            (Self::RETIRED_KEYS[1], 0),
            ("learn_occupancy", self.learn_occupancy),
            ("learn_evictions", self.learn_evictions),
            ("learn_rejects", self.learn_rejects),
            ("storm_suppressions", self.storm_suppressions),
            ("bpdu_guard_trips", self.bpdu_guard_trips),
            ("forwarded", self.directed + self.flooded),
        ]
    }
}

/// The learning switchlet's verdict on a frame its arrival port let in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Destination learned on the arrival port: suppress.
    Filter,
    /// Forward to one learned, forwarding port.
    Direct(PortId),
    /// Flood to every other forwarding port (destination unknown).
    Flood,
}

#[derive(Copy, Clone, Debug)]
struct CacheEntry {
    src: MacAddr,
    dst: MacAddr,
    in_port: u16,
    gen: u64,
    /// Entry is replayable only up to this instant.
    valid_until: SimTime,
    verdict: Verdict,
}

/// Direct-mapped forwarding decision cache. **No bridge holds one.** A hit
/// must still refresh the source's learn entry, so a hit is a probe and a
/// refresh and a miss a refresh and a lookup: with [`LearningTable`] at
/// 4–5 ns a probe the two cost the same, and the cache's 1 024 slots of
/// 48 bytes a bridge are the only lines left to miss. It stays for
/// `benchmark/src/kernels.rs`'s `cache_*` kernels until ROADMAP item 5
/// deletes it.
#[derive(Debug)]
pub struct DecisionCache {
    slots: Vec<Option<CacheEntry>>,
}

/// Slot count (power of two).
const CACHE_SLOTS: usize = 1024;

impl Default for DecisionCache {
    fn default() -> Self {
        DecisionCache {
            slots: vec![None; CACHE_SLOTS],
        }
    }
}

impl DecisionCache {
    #[inline]
    fn index(in_port: PortId, src: MacAddr, dst: MacAddr) -> usize {
        // The simulator's shared fast deterministic hasher over the
        // 13-byte flow key.
        use std::hash::Hasher;
        let mut h = netsim::fasthash::FxHasher::default();
        h.write_u8(in_port.0 as u8);
        h.write(&src.octets());
        h.write(&dst.octets());
        (h.finish() as usize) & (CACHE_SLOTS - 1)
    }

    /// Replayable verdict for this flow at `now` under `gen`, if cached.
    #[inline]
    pub fn probe(
        &self,
        in_port: PortId,
        src: MacAddr,
        dst: MacAddr,
        gen: u64,
        now: SimTime,
    ) -> Option<Verdict> {
        let e = self.slots[Self::index(in_port, src, dst)].as_ref()?;
        if e.gen == gen
            && e.in_port == in_port.0 as u16
            && e.src == src
            && e.dst == dst
            && now <= e.valid_until
        {
            Some(e.verdict)
        } else {
            None
        }
    }

    /// Record a verdict computed by full execution.
    #[inline]
    pub fn store(
        &mut self,
        in_port: PortId,
        src: MacAddr,
        dst: MacAddr,
        gen: u64,
        valid_until: SimTime,
        verdict: Verdict,
    ) {
        self.slots[Self::index(in_port, src, dst)] = Some(CacheEntry {
            src,
            dst,
            in_port: in_port.0 as u16,
            gen,
            valid_until,
            verdict,
        });
    }
}

/// The shared plane.
pub struct Plane {
    /// Per-port flags, indexed by port. Written only through the setters,
    /// which stamp `control_changed_at`.
    flags: Vec<PortFlags>,
    /// The learning table (shared so the spanning tree can flush it).
    pub learn: LearningTable,
    /// Demultiplexer registrations: destination address → handler.
    addr_handlers: Vec<AddrHandler>,
    /// The installed switching function.
    data_plane: DataPlaneSel,
    /// What `data_plane` resolved to, once asked: the per-frame dispatch
    /// reads this instead of looking a name up.
    data_target: Option<HandlerTarget>,
    /// The switching function installed before the current one — the
    /// watchdog's last-known-good rollback target when the current one
    /// is quarantined.
    prev_data_plane: Option<DataPlaneSel>,
    /// The switchlet directory, indexed by slot: name and lifecycle
    /// status (readable by other switchlets — the control switchlet
    /// "checks that the DEC switchlet is operating and that the 802.1D
    /// switchlet is not").
    units: Vec<Unit>,
    /// Spanning-tree snapshots published by protocol switchlets.
    pub published: Published,
    /// Input-port ownership (paper: "the first switchlet to bind to a
    /// given port succeeds and all others fail"). An owner is the name it
    /// bound under, shared: a VM module's is its interned name, the one
    /// its every host call acts under.
    pub owners_in: Vec<Option<Rc<str>>>,
    /// Output-port ownership.
    pub owners_out: Vec<Option<Rc<str>>>,
    /// Counters.
    pub stats: BridgeStats,
    /// When the control plane last changed as an observer of convergence
    /// sees it: a port's `forward` flag or a published root (`None` until
    /// it first does).
    control_changed_at: Option<SimTime>,
    /// Per spanning-tree variant, the lowest root ever published.
    lowest_roots: [Option<BridgeId>; 2],
}

impl Plane {
    /// A plane for `n_ports` ports.
    pub fn new(n_ports: usize, learn_age: SimDuration) -> Plane {
        Plane {
            flags: vec![PortFlags::default(); n_ports],
            learn: LearningTable::new(learn_age),
            addr_handlers: Vec::new(),
            data_plane: DataPlaneSel::None,
            data_target: None,
            prev_data_plane: None,
            units: Vec::new(),
            published: Published::default(),
            owners_in: vec![None; n_ports],
            owners_out: vec![None; n_ports],
            stats: BridgeStats::default(),
            control_changed_at: None,
            lowest_roots: [None; 2],
        }
    }

    /// This bridge's last `forward` flag or published-root change (`None`
    /// if it never changed). Whoever watches the control plane converge
    /// reads this stamp instead of re-reading every flag and root; a
    /// crash's fresh plane continues the old one's.
    pub fn control_changed_at(&self) -> Option<SimTime> {
        self.control_changed_at
    }

    /// The lowest root `variant`'s switchlet ever published on this
    /// bridge, across crashes.
    pub fn lowest_root(&self, variant: StpVariant) -> Option<BridgeId> {
        self.lowest_roots[variant as usize]
    }

    fn control_moved(&mut self, now: SimTime) {
        self.control_changed_at = Some(now);
    }

    /// This fresh plane replaces `old`, which a crash wiped at `now`:
    /// continue its change stamp, lowest roots and learn high-water mark.
    /// The wipe moves the stamp if it reopened a blocked port or
    /// unpublished a root.
    pub(crate) fn carry_over_crash(&mut self, old: &Plane, now: SimTime) {
        self.control_changed_at = old.control_changed_at;
        self.lowest_roots = old.lowest_roots;
        self.learn.high_water = old.learn.high_water;
        if old.flags.iter().any(|f| !f.forward) || old.published.0.iter().any(Option::is_some) {
            self.control_moved(now);
        }
    }

    // ---------------------------------------------------------- flags

    /// All per-port flags.
    #[inline]
    pub fn flags(&self) -> &[PortFlags] {
        &self.flags
    }

    /// Flags of one port.
    #[inline]
    pub fn port_flags(&self, port: usize) -> PortFlags {
        self.flags[port]
    }

    /// Number of bridge ports.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.flags.len()
    }

    /// Set a port's forwarding permission at `now` (stamps the control
    /// plane on real changes — the spanning tree re-asserting a state is free).
    pub fn set_port_forward(&mut self, port: usize, forward: bool, now: SimTime) {
        if self.flags[port].forward != forward {
            self.flags[port].forward = forward;
            self.control_moved(now);
        }
    }

    /// Set a port's learning permission.
    pub fn set_port_learn(&mut self, port: usize, learn: bool) {
        self.flags[port].learn = learn;
    }

    /// Set both flags of a port at `now`.
    pub fn set_port_flags(&mut self, port: usize, flags: PortFlags, now: SimTime) {
        if self.flags[port].forward != flags.forward {
            self.control_moved(now);
        }
        self.flags[port] = flags;
    }

    // ------------------------------------------------------ data plane

    /// The installed switching function.
    #[inline]
    pub fn data_plane(&self) -> &DataPlaneSel {
        &self.data_plane
    }

    /// Install (or clear) the switching function. Real changes remember
    /// the displaced selection (see [`Plane::prev_data_plane`]) and forget
    /// what the old one resolved to.
    pub fn set_data_plane(&mut self, sel: DataPlaneSel) {
        if self.data_plane != sel {
            self.prev_data_plane = Some(std::mem::replace(&mut self.data_plane, sel));
            self.data_target = None;
        }
    }

    /// The switching function the current one displaced, if any — the
    /// watchdog rolls back to it when the current one is quarantined.
    #[inline]
    pub fn prev_data_plane(&self) -> Option<&DataPlaneSel> {
        self.prev_data_plane.as_ref()
    }

    // ------------------------------------------------------- lifecycle

    /// The directory slot of `name`, if the plane has heard of it.
    pub(crate) fn slot_of(&self, name: &str) -> Option<usize> {
        self.units.iter().position(|u| &*u.name == name)
    }

    /// A switchlet's lifecycle status, by slot.
    #[inline]
    pub(crate) fn slot_status(&self, slot: usize) -> Option<SwitchletStatus> {
        self.units.get(slot).map(|u| u.status)
    }

    /// Is the switchlet in `slot` currently running?
    #[inline]
    pub(crate) fn slot_running(&self, slot: usize) -> bool {
        self.slot_status(slot) == Some(SwitchletStatus::Running)
    }

    /// A switchlet's lifecycle status.
    pub fn status_of(&self, name: &str) -> Option<SwitchletStatus> {
        self.slot_status(self.slot_of(name)?)
    }

    /// Is a switchlet currently running?
    pub fn is_running(&self, name: &str) -> bool {
        self.status_of(name) == Some(SwitchletStatus::Running)
    }

    /// Is a switchlet loaded (running or suspended)?
    pub fn is_loaded(&self, name: &str) -> bool {
        matches!(
            self.status_of(name),
            Some(SwitchletStatus::Running | SwitchletStatus::Suspended)
        )
    }

    /// [`Plane::set_status`] for a name already resolved to its slot.
    pub(crate) fn set_slot_status(&mut self, slot: usize, status: SwitchletStatus) {
        self.units[slot].status = status;
        self.forget_targets();
    }

    /// Record a lifecycle transition (load/suspend/resume/halt) of the
    /// switchlet named `name` — each one forgets every kept target. A
    /// name the directory has not seen enters it here; returns its slot.
    pub(crate) fn set_status(
        &mut self,
        name: impl Into<UnitName>,
        status: SwitchletStatus,
    ) -> usize {
        let name = name.into();
        let slot = self.slot_of(&name).unwrap_or_else(|| {
            self.units.push(Unit { name, status });
            self.units.len() - 1
        });
        self.set_slot_status(slot, status);
        slot
    }

    // -------------------------------------------------------- bindings

    /// Claim an input port for `owner`; `false` if already bound to
    /// someone else (re-binding by the same owner succeeds).
    pub fn bind_in(&mut self, port: usize, owner: &Rc<str>) -> bool {
        Self::bind(&mut self.owners_in[port], owner)
    }

    /// Claim an output port for `owner`. (A VM data path re-binds every
    /// out-port on every frame: the held name is its own, so the test is
    /// a pointer compare.)
    #[inline]
    pub fn bind_out(&mut self, port: usize, owner: &Rc<str>) -> bool {
        Self::bind(&mut self.owners_out[port], owner)
    }

    #[inline]
    fn bind(slot: &mut Option<Rc<str>>, owner: &Rc<str>) -> bool {
        match slot {
            Some(existing) => Rc::ptr_eq(existing, owner) || **existing == **owner,
            None => {
                *slot = Some(Rc::clone(owner));
                true
            }
        }
    }

    /// Release `owner`'s claim on input port `port` (a no-op when someone
    /// else, or nobody, holds it).
    pub fn unbind_in(&mut self, port: usize, owner: &str) {
        Self::release(&mut self.owners_in, port, owner);
    }

    /// Release `owner`'s claim on output port `port`.
    pub fn unbind_out(&mut self, port: usize, owner: &str) {
        Self::release(&mut self.owners_out, port, owner);
    }

    fn release(owners: &mut [Option<Rc<str>>], port: usize, owner: &str) {
        if let Some(slot) = owners.get_mut(port) {
            if slot.as_deref() == Some(owner) {
                *slot = None;
            }
        }
    }

    /// Release every port bound by `owner`.
    pub fn unbind_all(&mut self, owner: &str) {
        for slot in self.owners_in.iter_mut().chain(self.owners_out.iter_mut()) {
            if slot.as_deref() == Some(owner) {
                *slot = None;
            }
        }
    }

    // ------------------------------------------------- demultiplexer

    /// Register (or rebind) the handler for a destination address.
    /// Rebinding is how the control switchlet takes over the All Bridges
    /// address and later hands it to the 802.1D switchlet. A native
    /// switchlet registers under its static name, which is kept without a
    /// copy.
    pub fn register_addr(&mut self, addr: MacAddr, switchlet: impl Into<Cow<'static, str>>) {
        let name = switchlet.into();
        if let Some(h) = self.addr_handlers.iter_mut().find(|h| h.addr == addr) {
            h.name = name;
            h.target = None;
        } else {
            self.addr_handlers.push(AddrHandler {
                addr,
                name,
                target: None,
            });
        }
    }

    /// Remove a registration.
    pub fn unregister_addr(&mut self, addr: MacAddr) {
        self.addr_handlers.retain(|h| h.addr != addr);
    }

    /// Who handles frames to `addr`?
    pub fn addr_handler(&self, addr: MacAddr) -> Option<&str> {
        let h = self.addr_handlers.iter().find(|h| h.addr == addr)?;
        Some(&h.name)
    }

    /// What the handler registered for `addr` resolves to, if one is
    /// registered (the per-frame test: a scan of one to three entries).
    /// `resolve` is asked only when nothing is kept, and its answer kept
    /// with the registration until a writer of what it reads forgets it:
    /// a lifecycle transition, a re-registration, or
    /// [`Plane::forget_targets`].
    #[inline]
    pub(crate) fn addr_target(
        &mut self,
        addr: MacAddr,
        resolve: impl FnOnce(&Plane, &str) -> HandlerTarget,
    ) -> Option<HandlerTarget> {
        let i = self.addr_handlers.iter().position(|h| h.addr == addr)?;
        if let Some(target) = self.addr_handlers[i].target {
            return Some(target);
        }
        let target = resolve(self, &self.addr_handlers[i].name);
        self.addr_handlers[i].target = Some(target);
        Some(target)
    }

    /// What the switching function resolves to, kept like
    /// [`Plane::addr_target`]'s answers and forgotten also by a new
    /// selection.
    #[inline]
    pub(crate) fn data_target(
        &mut self,
        resolve: impl FnOnce(&Plane) -> HandlerTarget,
    ) -> HandlerTarget {
        if let Some(target) = self.data_target {
            return target;
        }
        let target = resolve(self);
        self.data_target = Some(target);
        target
    }

    /// Forget every kept resolution. Called by whoever changes an input
    /// a resolution reads that lives outside the plane: which callable a
    /// VM handler key names, or which module owns a callable.
    pub(crate) fn forget_targets(&mut self) {
        self.data_target = None;
        for h in &mut self.addr_handlers {
            h.target = None;
        }
    }

    // ------------------------------------------------- spanning tree

    /// Publish `engine`'s tree under `variant` at `now`, over the
    /// snapshot already there. A changed root stamps the control plane.
    pub(crate) fn publish(&mut self, variant: StpVariant, engine: &StpEngine, now: SimTime) {
        let moved = match &mut self.published.0[variant as usize] {
            Some(snapshot) => {
                let root = snapshot.root_mac;
                engine.snapshot_into(snapshot);
                snapshot.root_mac != root
            }
            empty => {
                *empty = Some(engine.snapshot());
                true
            }
        };
        if moved {
            self.control_moved(now);
        }
        let lowest = &mut self.lowest_roots[variant as usize];
        if lowest.is_none_or(|l| engine.root() < l) {
            *lowest = Some(engine.root());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn learning_replaces_and_ages() {
        let mut lt = LearningTable::new(SimDuration::from_secs(300));
        let mac = MacAddr::local(7);
        lt.learn(mac, PortId(0), t(0));
        assert_eq!(lt.lookup(mac, t(10)), Some(PortId(0)));
        // Host moved: new port replaces old.
        lt.learn(mac, PortId(1), t(20));
        assert_eq!(lt.lookup(mac, t(21)), Some(PortId(1)));
        // Stale after 300 s.
        assert_eq!(lt.lookup(mac, t(321)), None);
        assert!(lt.is_empty(), "stale entry evicted on lookup");
    }

    #[test]
    fn group_addresses_never_learned() {
        let mut lt = LearningTable::new(SimDuration::from_secs(300));
        lt.learn(MacAddr::BROADCAST, PortId(0), t(0));
        lt.learn(MacAddr::ALL_BRIDGES, PortId(0), t(0));
        assert!(lt.is_empty());
    }

    #[test]
    fn sweep_evicts_only_stale() {
        let mut lt = LearningTable::new(SimDuration::from_secs(100));
        lt.learn(MacAddr::local(1), PortId(0), t(0));
        lt.learn(MacAddr::local(2), PortId(0), t(90));
        lt.sweep(t(120));
        assert_eq!(lt.len(), 1);
        assert_eq!(lt.lookup(MacAddr::local(2), t(120)), Some(PortId(0)));
    }

    #[test]
    fn bounded_learning_enforces_quota_with_deterministic_victims() {
        let mut lt = LearningTable::new(SimDuration::from_secs(300));
        lt.set_bounds(8, 2);
        assert_eq!(
            lt.learn(MacAddr::local(1), PortId(0), t(0)),
            LearnOutcome::Fresh
        );
        assert_eq!(
            lt.learn(MacAddr::local(2), PortId(0), t(1)),
            LearnOutcome::Fresh
        );
        // Quota reached on port 0: the oldest-refreshed entry there is
        // the victim.
        assert_eq!(
            lt.learn(MacAddr::local(3), PortId(0), t(2)),
            LearnOutcome::Evicted(MacAddr::local(1))
        );
        assert_eq!(lt.len(), 2);
        assert_eq!(lt.occupancy_of(PortId(0)), 2);
        // Other ports are untouched by port-0 pressure.
        assert_eq!(
            lt.learn(MacAddr::local(9), PortId(1), t(3)),
            LearnOutcome::Fresh
        );
        assert_eq!(lt.lookup(MacAddr::local(9), t(4)), Some(PortId(1)));
        // Equal refresh times: MAC order breaks the tie.
        let mut lt2 = LearningTable::new(SimDuration::from_secs(300));
        lt2.set_bounds(0, 2);
        lt2.learn(MacAddr::local(5), PortId(0), t(0));
        lt2.learn(MacAddr::local(4), PortId(0), t(0));
        assert_eq!(
            lt2.learn(MacAddr::local(6), PortId(0), t(1)),
            LearnOutcome::Evicted(MacAddr::local(4)),
            "tie on refresh time must fall to the smaller MAC"
        );
    }

    #[test]
    fn bounded_learning_rejects_when_offending_port_has_nothing() {
        let mut lt = LearningTable::new(SimDuration::from_secs(300));
        lt.set_bounds(2, 0);
        lt.learn(MacAddr::local(1), PortId(0), t(0));
        lt.learn(MacAddr::local(2), PortId(0), t(1));
        // Table at capacity, port 1 owns no entries: reject.
        assert_eq!(
            lt.learn(MacAddr::local(3), PortId(1), t(2)),
            LearnOutcome::Rejected
        );
        assert_eq!(lt.len(), 2);
        assert_eq!(lt.lookup(MacAddr::local(3), t(2)), None);
        // A refresh of an existing entry is always admitted.
        assert_eq!(
            lt.learn(MacAddr::local(1), PortId(0), t(3)),
            LearnOutcome::Refreshed
        );
        // Cap pressure on a port that has entries evicts within it.
        assert_eq!(
            lt.learn(MacAddr::local(4), PortId(0), t(4)),
            LearnOutcome::Evicted(MacAddr::local(2))
        );
    }

    #[test]
    fn bounded_occupancy_tracks_moves_sweeps_and_flushes() {
        let mut lt = LearningTable::new(SimDuration::from_secs(100));
        lt.set_bounds(8, 4);
        lt.learn(MacAddr::local(1), PortId(0), t(0));
        lt.learn(MacAddr::local(2), PortId(1), t(0));
        assert_eq!(lt.occupancy_of(PortId(0)), 1);
        assert_eq!(lt.occupancy_of(PortId(1)), 1);
        // A port move shifts occupancy between ports.
        assert_eq!(
            lt.learn(MacAddr::local(1), PortId(1), t(1)),
            LearnOutcome::Moved
        );
        assert_eq!(lt.occupancy_of(PortId(0)), 0);
        assert_eq!(lt.occupancy_of(PortId(1)), 2);
        // Stale-entry eviction through lookup releases occupancy.
        assert_eq!(lt.lookup(MacAddr::local(1), t(200)), None);
        assert_eq!(lt.occupancy_of(PortId(1)), 1);
        // Sweep releases occupancy for everything it drops.
        lt.sweep(t(500));
        assert_eq!(lt.occupancy_of(PortId(1)), 0);
        lt.learn(MacAddr::local(3), PortId(0), t(500));
        lt.flush();
        assert_eq!(lt.occupancy_of(PortId(0)), 0);
        assert!(lt.is_empty());
    }

    #[test]
    fn a_bucket_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 10);
        assert_eq!(std::mem::align_of::<Entry>(), 1);
        assert_eq!(std::mem::size_of::<(MacAddr, Entry)>(), 16);
    }

    /// Ports at the edges of the 16-bit field, and times at the edges of
    /// the 64-bit one, come back out of `lookup_entry` and `entries()`
    /// as they went in.
    #[test]
    fn the_compact_entry_keeps_every_port_and_time() {
        let mut lt = LearningTable::new(SimDuration::MAX);
        let ports = [0, 255, 65_535].map(PortId);
        let times = [0, 1 << 32, u64::MAX - 1].map(SimTime::from_ns);
        let mut want = Vec::new();
        for (i, &port) in ports.iter().enumerate() {
            for (j, &seen) in times.iter().enumerate() {
                let mac = MacAddr::local((i * times.len() + j) as u32);
                assert_eq!(lt.learn(mac, port, seen), LearnOutcome::Fresh);
                assert_eq!(lt.lookup_entry(mac, seen), Some((port, seen)));
                want.push((mac, (port, seen)));
            }
        }
        let mut got: Vec<_> = lt.entries().collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    /// A port move, a refresh and a bounded eviction on ports and times
    /// past 8 and 32 bits.
    #[test]
    fn the_compact_entry_keeps_the_outcomes() {
        let mut lt = LearningTable::new(SimDuration::MAX);
        lt.set_bounds(0, 1);
        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        let (low, high) = (PortId(300), PortId(65_535));
        let late = SimTime::from_ns(5 << 32);
        assert_eq!(lt.learn(a, low, late), LearnOutcome::Fresh);
        assert_eq!(
            lt.learn(a, low, late + SimDuration::from_ns(1)),
            LearnOutcome::Refreshed
        );
        assert_eq!(
            lt.lookup_entry(a, late),
            Some((low, late + SimDuration::from_ns(1)))
        );
        assert_eq!(lt.learn(a, high, late), LearnOutcome::Moved);
        assert_eq!((lt.occupancy_of(low), lt.occupancy_of(high)), (0, 1));
        assert_eq!(lt.learn(b, high, late), LearnOutcome::Evicted(a));
        assert_eq!(lt.entries().collect::<Vec<_>>(), [(b, (high, late))]);
    }

    #[test]
    #[should_panic(expected = "port 65536 is past the limit of 65536 ports")]
    fn a_port_past_sixteen_bits_is_refused() {
        let mut lt = LearningTable::new(SimDuration::MAX);
        lt.learn(MacAddr::local(1), PortId(LearningTable::PORT_LIMIT), t(0));
    }

    /// The table as [`LearningTable`]'s docs describe it, written for
    /// obviousness: a sorted map, occupancy by counting, the victim by a
    /// `min` over it.
    struct Model {
        map: std::collections::BTreeMap<MacAddr, (PortId, SimTime)>,
        age: SimDuration,
        cap: usize,
        quota: usize,
    }

    impl Model {
        fn occupancy_of(&self, port: PortId) -> usize {
            self.map.values().filter(|e| e.0 == port).count()
        }

        fn learn(&mut self, src: MacAddr, port: PortId, now: SimTime) -> LearnOutcome {
            if src.is_multicast() {
                return LearnOutcome::Ignored;
            }
            let old = self.map.get(&src).map(|e| e.0);
            if old == Some(port) {
                self.map.insert(src, (port, now));
                return LearnOutcome::Refreshed;
            }
            let over_quota = self.quota > 0 && self.occupancy_of(port) >= self.quota;
            let over_cap = old.is_none() && self.cap > 0 && self.map.len() >= self.cap;
            let mut outcome = match old {
                Some(_) => LearnOutcome::Moved,
                None => LearnOutcome::Fresh,
            };
            if over_quota || over_cap {
                let on_port = self.map.iter().filter(|(_, e)| e.0 == port);
                let Some(victim) = on_port.min_by_key(|(mac, e)| (e.1, **mac)).map(|(m, _)| *m)
                else {
                    return LearnOutcome::Rejected;
                };
                self.map.remove(&victim);
                outcome = LearnOutcome::Evicted(victim);
            }
            self.map.insert(src, (port, now));
            outcome
        }

        fn lookup_entry(&mut self, dst: MacAddr, now: SimTime) -> Option<(PortId, SimTime)> {
            let entry = *self.map.get(&dst)?;
            if now.saturating_since(entry.1) <= self.age {
                return Some(entry);
            }
            self.map.remove(&dst);
            None
        }

        fn sweep(&mut self, now: SimTime) {
            let age = self.age;
            self.map.retain(|_, e| now.saturating_since(e.1) <= age);
        }
    }

    proptest::proptest! {
        /// Arbitrary `learn` / `lookup_entry` / `sweep` / `flush`
        /// sequences, bounds armed and not, against [`Model`]: the same
        /// outcomes, length, per-port occupancy and entries
        /// after every step. (A refresh that forgot the timestamp shows in
        /// the entries, a move that forgot the occupancy in the counts.)
        #[test]
        fn learning_table_matches_a_sorted_map_model(
            ops in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..300),
            bounds in 0u32..4,
        ) {
            use proptest::prelude::*;
            let age = SimDuration::from_secs(20);
            let (cap, quota) = [(0, 0), (6, 0), (0, 3), (6, 3)][bounds as usize];
            let mut lt = LearningTable::new(age);
            lt.set_bounds(cap, quota);
            let mut model = Model { map: Default::default(), age, cap, quota };
            let mut now = 0;
            for word in ops {
                let (op, a, b) = (word % 16, (word >> 4) % 12, (word >> 8) % 4);
                // Time stands still two steps in three, so refreshes tie.
                now += u64::from((word >> 10) % 3 == 0) * u64::from((word >> 12) % 9);
                // Ten stations and two group addresses, four ports.
                let mac = match a {
                    10 => MacAddr::BROADCAST,
                    11 => MacAddr::ALL_BRIDGES,
                    n => MacAddr::local(n),
                };
                let port = PortId(b as usize);
                match op {
                    0..=9 => prop_assert_eq!(lt.learn(mac, port, t(now)), model.learn(mac, port, t(now))),
                    10..=13 => {
                        prop_assert_eq!(lt.lookup_entry(mac, t(now)), model.lookup_entry(mac, t(now)))
                    }
                    14 => {
                        lt.sweep(t(now));
                        model.sweep(t(now));
                    }
                    _ => {
                        lt.flush();
                        model.map.clear();
                    }
                }
                prop_assert_eq!(lt.len(), model.map.len());
                for p in 0..4 {
                    prop_assert_eq!(lt.occupancy_of(PortId(p)), model.occupancy_of(PortId(p)));
                }
                let mut entries: Vec<_> = lt.entries().collect();
                entries.sort();
                prop_assert_eq!(entries, model.map.iter().map(|(m, e)| (*m, *e)).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn peek_is_non_mutating() {
        let mut lt = LearningTable::new(SimDuration::from_secs(100));
        lt.learn(MacAddr::local(1), PortId(0), t(0));
        assert!(lt.peek(MacAddr::local(1), t(50)));
        assert!(
            !lt.peek(MacAddr::local(1), t(200)),
            "stale counts as absent"
        );
        assert!(!lt.peek(MacAddr::local(2), t(50)));
        assert_eq!(lt.len(), 1, "peek must not drop the stale entry");
    }

    #[test]
    fn addr_registration_rebinds() {
        let mut plane = Plane::new(2, SimDuration::from_secs(300));
        plane.register_addr(MacAddr::ALL_BRIDGES, "stp_ieee");
        assert_eq!(plane.addr_handler(MacAddr::ALL_BRIDGES), Some("stp_ieee"));
        // The control switchlet takes it over.
        plane.register_addr(MacAddr::ALL_BRIDGES, "control");
        assert_eq!(plane.addr_handler(MacAddr::ALL_BRIDGES), Some("control"));
        assert_eq!(plane.addr_handlers.len(), 1, "rebound, not duplicated");
        plane.unregister_addr(MacAddr::ALL_BRIDGES);
        assert_eq!(plane.addr_handler(MacAddr::ALL_BRIDGES), None);
    }

    #[test]
    fn first_bind_wins() {
        let mut plane = Plane::new(2, SimDuration::from_secs(300));
        let (dumb, other): (Rc<str>, Rc<str>) = ("dumb".into(), "other".into());
        assert!(plane.bind_in(0, &dumb));
        assert!(!plane.bind_in(0, &other), "second binder must fail");
        assert!(plane.bind_in(0, &dumb), "same owner may rebind");
        assert!(plane.bind_in(0, &"dumb".into()), "the name, not the handle");
        assert!(plane.bind_out(0, &other), "output space is separate");
        plane.unbind_all("dumb");
        assert!(plane.bind_in(0, &other));
    }

    #[test]
    fn status_queries() {
        let mut plane = Plane::new(1, SimDuration::from_secs(300));
        assert!(!plane.is_running("stp_dec"));
        plane.set_status("stp_dec", SwitchletStatus::Running);
        assert!(plane.is_running("stp_dec"));
        assert!(plane.is_loaded("stp_dec"));
        plane.set_status("stp_dec", SwitchletStatus::Suspended);
        assert!(!plane.is_running("stp_dec"));
        assert!(plane.is_loaded("stp_dec"));
        plane.set_status("stp_dec", SwitchletStatus::Stopped);
        assert!(!plane.is_loaded("stp_dec"));
    }

    #[test]
    fn a_name_keeps_the_slot_it_entered_the_directory_with() {
        let mut plane = Plane::new(1, SimDuration::from_secs(300));
        assert_eq!(plane.slot_of("a"), None);
        let a = plane.set_status("a", SwitchletStatus::Running);
        let b = plane.set_status("b", SwitchletStatus::Suspended);
        assert_ne!(a, b);
        assert_eq!(plane.set_status("a", SwitchletStatus::Stopped), a);
        assert_eq!((plane.slot_of("a"), plane.slot_of("b")), (Some(a), Some(b)));
        assert_eq!(plane.slot_status(a), Some(SwitchletStatus::Stopped));
        assert!(!plane.slot_running(a) && !plane.slot_running(b));
        assert_eq!(plane.slot_status(b + 1), None);
    }

    #[test]
    fn cache_probe_respects_generation_and_freshness() {
        let mut cache = DecisionCache::default();
        let (src, dst) = (MacAddr::local(1), MacAddr::local(2));
        cache.store(PortId(0), src, dst, 7, t(100), Verdict::Direct(PortId(1)));
        assert_eq!(
            cache.probe(PortId(0), src, dst, 7, t(50)),
            Some(Verdict::Direct(PortId(1)))
        );
        // Stale generation: dead.
        assert_eq!(cache.probe(PortId(0), src, dst, 8, t(50)), None);
        // Past the freshness deadline: dead.
        assert_eq!(cache.probe(PortId(0), src, dst, 7, t(101)), None);
        // Different flow key: miss.
        assert_eq!(cache.probe(PortId(1), src, dst, 7, t(50)), None);
        assert_eq!(cache.probe(PortId(0), dst, src, 7, t(50)), None);
    }

    /// The high-water mark rises only on a fresh insert: refreshes, moves,
    /// bounded evictions, sweeps and flushes leave it where it was.
    #[test]
    fn the_high_water_mark_follows_fresh_inserts_only() {
        let mut lt = LearningTable::new(SimDuration::from_secs(100));
        lt.set_bounds(2, 0);
        lt.learn(MacAddr::local(1), PortId(0), t(0));
        lt.learn(MacAddr::local(2), PortId(0), t(1));
        assert_eq!(lt.high_water(), 2);
        lt.learn(MacAddr::local(1), PortId(1), t(2));
        lt.learn(MacAddr::local(3), PortId(1), t(3));
        assert_eq!(
            (lt.len(), lt.high_water()),
            (2, 2),
            "a move and an eviction"
        );
        lt.flush();
        lt.learn(MacAddr::local(4), PortId(0), t(4));
        assert_eq!(
            (lt.len(), lt.high_water()),
            (1, 2),
            "a flush keeps the mark"
        );
    }

    /// A kept target is asked for again exactly when a writer of what it
    /// read has forgotten it; flag writes and learns feed no resolution.
    #[test]
    fn kept_targets_are_forgotten_by_the_writers_of_what_they_read() {
        let mut plane = Plane::new(2, SimDuration::from_secs(300));
        plane.register_addr(MacAddr::ALL_BRIDGES, "stp_ieee");
        plane.set_data_plane(DataPlaneSel::Native("x"));
        // Which of [data plane, registration] had to be resolved again.
        let asked = |plane: &mut Plane| {
            let mut asked = [false; 2];
            plane.data_target(|_| {
                asked[0] = true;
                HandlerTarget::None
            });
            plane.addr_target(MacAddr::ALL_BRIDGES, |_, _| {
                asked[1] = true;
                HandlerTarget::None
            });
            asked
        };
        assert_eq!(asked(&mut plane), [true, true], "nothing kept yet");
        assert_eq!(asked(&mut plane), [false, false], "kept");
        plane.set_port_forward(0, false, t(1));
        plane.set_port_learn(1, false);
        plane.set_port_flags(1, PortFlags::default(), t(1));
        plane.learn.learn(MacAddr::local(9), PortId(1), t(1));
        plane.learn.flush();
        assert_eq!(asked(&mut plane), [false, false], "flags and learns");
        plane.set_data_plane(DataPlaneSel::Native("x"));
        assert_eq!(asked(&mut plane), [false, false], "the same selection");
        plane.set_data_plane(DataPlaneSel::Native("y"));
        assert_eq!(asked(&mut plane), [true, false], "a new selection");
        plane.set_status("y", SwitchletStatus::Running);
        assert_eq!(asked(&mut plane), [true, true], "a lifecycle transition");
        plane.register_addr(MacAddr::ALL_BRIDGES, "control");
        assert_eq!(asked(&mut plane), [false, true], "a re-registration");
        plane.forget_targets();
        assert_eq!(asked(&mut plane), [true, true], "forget_targets");
    }
}
