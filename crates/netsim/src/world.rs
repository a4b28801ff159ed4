//! The [`World`]: owns nodes, segments, the event queue and the clock, and
//! drives the whole simulation.
//!
//! # Dispatch model
//!
//! Nodes are stored as `Option<Box<dyn Node>>`. To deliver an event the
//! world *takes* the node out of its slot, builds a [`Ctx`] borrowing the
//! world core, invokes the callback, and puts the node back. This gives the
//! node full mutable access to simulator services without aliasing itself.

use std::sync::Arc;

use framebuf::{FrameBuf, FrameBufMut};

use crate::chaos::ChaosEv;
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultConfig, FaultOutcome};
use crate::node::{Node, NodeId, PortId, TimerHandle, TimerToken};
use crate::probe::{Probe, ProbeRecord};
use crate::rng::Xoshiro;
use crate::segment::{rx_dst, Attachment, CapturedFrame, Listeners, SegId, Segment, SegmentConfig};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Counters, Trace};

/// Everything in the world except the nodes themselves (so a node callback
/// can borrow this mutably while the node is checked out of its slot).
pub struct WorldCore {
    time: SimTime,
    queue: EventQueue,
    segments: Vec<Segment>,
    /// Every node's ports, one run per node in port order: the segment
    /// each attaches to and its slot among that segment's attachments.
    ports: Vec<(SegId, u32)>,
    /// Per node: where its run starts in `ports`, and how many ports it
    /// has.
    node_ports: Vec<(u32, u32)>,
    /// The fault layer's stream; nothing else draws from it (see the
    /// replay contract in [`crate::fault`]).
    rng: Xoshiro,
    next_timer_id: u64,
    pub(crate) trace: Trace,
    pub(crate) counters: Counters,
    /// The flight recorder (disarmed by default; see [`crate::probe`]).
    /// Records only — arming it never changes event order or RNG draws.
    pub(crate) probe: Probe,
    /// Frames handed to `Ctx::send` (before segment queueing).
    pub frames_sent: u64,
    /// Frame deliveries to node ports.
    pub frames_delivered: u64,
    /// Per node: true while a chaos script holds it crashed. A crashed
    /// node receives no frames and none of its pending timers fire.
    crashed: Vec<bool>,
    /// How many nodes are currently crashed — the delivery and timer hot
    /// paths stay one compare (`crashed_count != 0`) in the common
    /// chaos-free case.
    crashed_count: usize,
    /// The fault configs a chaos script installs, indexed by
    /// [`ChaosEv::SetFault`] (an 80-byte config would widen every event).
    scripted_faults: Vec<FaultConfig>,
    /// Reusable listener scratch for `deliver_all` (kept across events so
    /// the delivery path never allocates): per 64 attachments, who hears
    /// the frame and whose node is called for it, a bit each.
    deliver_scratch: Vec<[u64; 2]>,
    /// Who each segment's frames are for, by address (see
    /// [`Listeners`]). Its tables are kept across resets, like the
    /// scratch.
    listeners: Listeners,
    /// Recycled frame storage, each entry whole (bytes and refcount
    /// header): builders take from here ([`Ctx::take_buf`]) and dead
    /// frames return here ([`Ctx::recycle_frame`]), so steady-state
    /// traffic reuses a small working set of allocations instead of
    /// hitting the allocator per frame.
    frame_pool: Vec<FrameBufMut>,
}

/// Upper bound on pooled buffers (a few per node is plenty; beyond that
/// the pool would just pin memory).
const FRAME_POOL_CAP: usize = 64;

#[cold]
#[inline(never)]
fn no_such_port(node: NodeId, port: PortId) -> ! {
    panic!("node {node} has no port {port}")
}

impl WorldCore {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Experiment counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The segment and attachment slot of `node`'s `port`: two dependent
    /// loads, the node's run and then the port in it.
    #[inline]
    fn port(&self, node: NodeId, port: PortId) -> (SegId, u32) {
        let (first, count) = self.node_ports[node.0];
        if port.0 >= count as usize {
            no_such_port(node, port);
        }
        self.ports[first as usize + port.0]
    }

    /// Take a cleared buffer of at least `cap` capacity from the frame
    /// pool (or a fresh one when the pool is empty).
    fn take_buf(&mut self, cap: usize) -> FrameBufMut {
        // Scan a few recent entries for one big enough; the pool turns
        // over the same frame-sized buffers in steady state.
        let n = self.frame_pool.len();
        for i in (n.saturating_sub(4)..n).rev() {
            if self.frame_pool[i].capacity() >= cap {
                return self.frame_pool.swap_remove(i);
            }
        }
        // Grow a pooled buffer in place rather than allocate beside it: a
        // pool full of ACK-sized buffers would otherwise turn every
        // full-sized frame away for the rest of the run.
        let mut buf = self.frame_pool.pop().unwrap_or_default();
        buf.reserve(cap);
        buf
    }

    /// Return a dead frame's storage to the pool. A frame some other
    /// handle still shares costs one refcount test here and then drops
    /// like any other clone.
    #[inline]
    fn recycle_frame(&mut self, frame: FrameBuf) {
        if frame.is_unique() && self.frame_pool.len() < FRAME_POOL_CAP {
            if let Ok(mut buf) = frame.try_into_mut() {
                buf.clear();
                self.frame_pool.push(buf);
            }
        }
    }

    #[inline]
    fn send_on_segment(&mut self, seg_id: SegId, slot: u32, frame: FrameBuf) {
        self.frames_sent += 1;
        let seg = &mut self.segments[seg_id.0];
        if seg.down {
            return self.refuse_on_down_segment(seg_id, frame);
        }
        let len = frame.len();
        let (accepted, started) = seg.offer(slot, frame, self.time);
        if self.probe.is_armed() {
            self.record_offer(seg_id, slot, len as u32, accepted, started);
        }
        if accepted && started {
            let ser = self.segments[seg_id.0].serialization_time(len);
            self.schedule_completion(seg_id, self.time + ser);
        }
    }

    /// The segment is scripted down: the offer never reaches the medium.
    /// Frames already serializing or queued keep draining (their
    /// `SegDeliver` event is in flight and clearing `current` under it
    /// would desynchronize the completion bookkeeping). Out of line: no
    /// send of six benchmark workloads and 3.8 % of `sweep_render`'s (its
    /// chaos sweep) finds a segment down.
    #[cold]
    fn refuse_on_down_segment(&mut self, seg_id: SegId, frame: FrameBuf) {
        self.segments[seg_id.0].counters.down_drops += 1;
        self.recycle_frame(frame);
    }

    /// The flight-recorder entry for one offer. Out of line: the recorder
    /// is armed on no benchmark workload, only by `trace` and armed tests.
    #[cold]
    fn record_offer(&mut self, seg_id: SegId, slot: u32, len: u32, accepted: bool, started: bool) {
        let src = self.segments[seg_id.0].attachments[slot as usize].id();
        let record = if accepted {
            ProbeRecord::FrameOffered {
                seg: seg_id,
                src,
                len,
                queued: !started,
                depth: self.segments[seg_id.0].queue_depth() as u32,
            }
        } else {
            ProbeRecord::QueueDrop {
                seg: seg_id,
                src,
                len,
            }
        };
        self.probe.record(self.time, record);
    }

    /// Schedule the completion of the transmission now starting on
    /// `seg_id`, finishing at `done_at`: one event per wire frame, firing
    /// at `done_at + propagation` (see `World::seg_deliver`).
    #[inline]
    fn schedule_completion(&mut self, seg_id: SegId, done_at: SimTime) {
        let seg = &self.segments[seg_id.0];
        self.queue.push_seg_deliver(
            done_at + seg.cfg.propagation,
            seg_id.0 as u32,
            seg.attachments.len() as u32,
        );
    }

    /// Fault injection on a frame that finished serializing on `seg_id`
    /// at `completion`, for a segment whose configuration can alter
    /// traffic: draw from the world RNG (see the replay contract in
    /// [`crate::fault`]), count and probe-record whatever the
    /// configuration did, and return the frame to deliver with its copy
    /// count (2 when duplicated) — `None` when it was dropped. Out of
    /// line: no delivery of six benchmark workloads and 3.1 % of
    /// `sweep_render`'s (its lossy and chaos sweeps) is on such a segment.
    ///
    /// The configuration is applied by reference, no per-frame clone
    /// (`segments` and `rng` are disjoint fields, so the borrows split,
    /// and the burst state threads through the same way); corruption is
    /// the one copy-on-write point.
    #[cold]
    fn inject_faults(
        &mut self,
        seg_id: SegId,
        frame: FrameBuf,
        completion: SimTime,
    ) -> Option<(FrameBuf, u64)> {
        let segment = &mut self.segments[seg_id.0];
        let len = frame.len() as u32;
        let verdict =
            segment
                .cfg
                .fault
                .apply_stateful(frame, &mut self.rng, &mut segment.burst_bad);
        let (seg, counters) = (seg_id, &mut segment.counters);
        if let Some(bad) = verdict.flipped {
            self.probe
                .record(completion, ProbeRecord::FaultBurst { seg, bad });
        }
        if verdict.corrupted {
            counters.corrupted += 1;
            self.probe
                .record(completion, ProbeRecord::FaultCorrupt { seg, len });
        }
        match verdict.outcome {
            FaultOutcome::Deliver(f) => Some((f, 1)),
            FaultOutcome::Duplicate(f) => {
                counters.fault_duplicates += 1;
                self.probe
                    .record(completion, ProbeRecord::FaultDuplicate { seg, len });
                Some((f, 2))
            }
            FaultOutcome::Drop => {
                counters.fault_drops += 1;
                counters.burst_drops += u64::from(verdict.burst_dropped);
                self.probe
                    .record(completion, ProbeRecord::FaultDrop { seg, len });
                None
            }
        }
    }
}

/// The services available to a node during a callback.
pub struct Ctx<'w> {
    core: &'w mut WorldCore,
    node: NodeId,
}

impl<'w> Ctx<'w> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// Number of ports this node has.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.core.node_ports[self.node.0].1 as usize
    }

    /// Declare what `port` listens to: `Some(mac)` — frames addressed to
    /// `mac` or to broadcast, as a station's NIC filters in hardware — or
    /// `None`, every frame on the segment (the default: bridges,
    /// repeaters, measurement probes). Frames the filter rejects are still
    /// counted and probe-recorded as deliveries to the port; the world
    /// just does not call [`Node::on_frame`] for them, so declare one only
    /// where that call would have done nothing. Panics if the port does
    /// not exist.
    pub fn set_rx_filter(&mut self, port: PortId, filter: Option<[u8; 6]>) {
        let (seg, slot) = self.core.port(self.node, port);
        let attachments = &mut self.core.segments[seg.0].attachments;
        self.core
            .listeners
            .set_filter(seg, attachments, slot as usize, filter);
    }

    /// Transmit a frame out of `port`. The frame contends for the segment's
    /// medium; delivery to every other attached port happens after
    /// serialization and propagation. Accepts anything convertible into a
    /// [`FrameBuf`] (a `FrameBuf` clone is a refcount bump, so re-sending
    /// a received or prebuilt frame never copies). Panics if the port
    /// does not exist.
    #[inline]
    pub fn send(&mut self, port: PortId, frame: impl Into<FrameBuf>) {
        let (seg, slot) = self.core.port(self.node, port);
        self.core.send_on_segment(seg, slot, frame.into());
    }

    /// Schedule a timer `after` from now carrying `token`.
    #[inline]
    pub fn schedule(&mut self, after: SimDuration, token: TimerToken) -> TimerHandle {
        let (id, deadline) = self.draw_timer(after);
        let node = self.node.0 as u32;
        let kind = EventKind::Timer { node, token, id };
        let slot = self.core.queue.push(deadline, kind);
        self.probe(|node| ProbeRecord::TimerArm { node, id, deadline });
        TimerHandle { id, slot }
    }

    /// Schedule the completion of the item a [`crate::ServiceQueue`] of
    /// this node begins serving now: [`Node::on_timer`] is called with
    /// `token` `after` from now, exactly as for [`Ctx::schedule`] (same
    /// order, same timer id draw, same probe records). Nothing cancels a
    /// service completion, so there is no handle; and a queue serves one
    /// item at a time, so the event waits with the segment completions
    /// rather than among the parked timers (`src/event.rs`).
    #[inline]
    pub fn schedule_service(&mut self, after: SimDuration, token: TimerToken) {
        let (id, deadline) = self.draw_timer(after);
        let node = self.node.0 as u32;
        self.core.queue.push_service_done(deadline, node, token, id);
        self.probe(|node| ProbeRecord::TimerArm { node, id, deadline });
    }

    /// Draw the id of a timer armed now to fire `after` from now, with its
    /// deadline.
    #[inline]
    fn draw_timer(&mut self, after: SimDuration) -> (u64, SimTime) {
        let id = self.core.next_timer_id;
        self.core.next_timer_id += 1;
        (id, self.core.time + after)
    }

    /// Cancel a previously scheduled timer. Cancelling an already-fired or
    /// already-cancelled timer is a no-op (and leaves nothing behind).
    #[inline]
    pub fn cancel(&mut self, handle: TimerHandle) {
        self.core.queue.cancel_timer(handle.slot, handle.id);
        self.probe(|node| ProbeRecord::TimerCancel {
            node,
            id: handle.id,
        });
    }

    /// Append a trace entry attributed to this node. Pass
    /// `format_args!(…)`: the line is formatted only if the world's trace
    /// is enabled.
    pub fn trace(&mut self, msg: std::fmt::Arguments<'_>) {
        let at = self.core.time;
        let node = self.node;
        self.core.trace.push(at, Some(node), msg);
    }

    /// Bump an experiment counter.
    pub fn bump(&mut self, key: &str, n: u64) {
        self.core.counters.bump(key, n);
    }

    /// Take a cleared byte buffer of at least `cap` capacity from the
    /// world's frame pool — the allocation-free way to start building a
    /// frame (freezing the finished buffer reuses its refcount header
    /// too). Pair with [`Ctx::recycle_frame`].
    #[inline]
    pub fn take_buf(&mut self, cap: usize) -> FrameBufMut {
        self.core.take_buf(cap)
    }

    /// Hand a finished-with frame back to the world's frame pool. Only
    /// reclaims storage the caller exclusively owns (one cheap refcount
    /// check otherwise), so it is always safe to call on the last handle
    /// a node holds.
    #[inline]
    pub fn recycle_frame(&mut self, frame: FrameBuf) {
        self.core.recycle_frame(frame);
    }

    /// Read an experiment counter.
    pub fn counter(&self, key: &str) -> u64 {
        self.core.counters.get(key)
    }

    /// Record an event in the flight recorder at the current time.
    /// `record` is handed this node's id and runs only while the recorder
    /// is armed, so a disarmed call is one branch and builds nothing;
    /// recording never perturbs the simulation.
    #[inline]
    pub fn probe(&mut self, record: impl FnOnce(NodeId) -> ProbeRecord) {
        if self.core.probe.is_armed() {
            self.core.probe.record(self.core.time, record(self.node));
        }
    }
}

/// One segment's identity and wire counters inside a [`WorldStats`]
/// snapshot, in segment-id order.
#[derive(Clone, Debug)]
pub struct SegmentStats {
    /// The segment's configured name (shared with the segment: a
    /// snapshot copies none).
    pub name: Arc<str>,
    /// Its wire counters at snapshot time.
    pub counters: crate::segment::SegCounters,
}

/// A point-in-time copy of the world's frame accounting, taken with
/// [`World::stats`]. Snapshots are plain data: experiment harnesses diff
/// two of them to measure a window without touching simulator internals.
#[derive(Clone, Debug)]
pub struct WorldStats {
    /// Frames handed to `Ctx::send` across the whole run.
    pub frames_sent: u64,
    /// Frame deliveries to node ports across the whole run.
    pub frames_delivered: u64,
    /// Per-segment counters, indexed by `SegId`.
    pub segments: Vec<SegmentStats>,
}

impl WorldStats {
    /// Frames fully serialized onto any wire.
    pub fn total_tx_frames(&self) -> u64 {
        self.segments.iter().map(|s| s.counters.tx_frames).sum()
    }

    /// Frames dropped by fault injection on any segment.
    pub fn total_fault_drops(&self) -> u64 {
        self.segments.iter().map(|s| s.counters.fault_drops).sum()
    }
}

/// The next id of a table holding `len` entries. Events carry node and
/// segment ids, and pending transmissions their sender's attachment slot,
/// as `u32`s; this is where a world is held to that.
fn narrow_id(len: usize, what: &str) -> usize {
    assert!(
        u32::try_from(len).is_ok(),
        "a world holds at most 2^32 {what}"
    );
    len
}

/// The simulation world.
pub struct World {
    core: WorldCore,
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Nodes `0..started` have had their `on_start` scheduled.
    started: usize,
    /// The nodes' [`Node::service_queues`], summed.
    service_queues: usize,
    /// The nodes' [`Node::timers`], summed.
    timers: usize,
}

impl World {
    /// Create a world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            core: WorldCore {
                time: SimTime::ZERO,
                queue: EventQueue::new(),
                segments: Vec::new(),
                ports: Vec::new(),
                node_ports: Vec::new(),
                rng: Xoshiro::seed_from_u64(seed),
                next_timer_id: 0,
                trace: Trace::new(65_536),
                counters: Counters::default(),
                probe: Probe::new(),
                frames_sent: 0,
                frames_delivered: 0,
                crashed: Vec::new(),
                crashed_count: 0,
                scripted_faults: Vec::new(),
                deliver_scratch: Vec::new(),
                listeners: Listeners::default(),
                frame_pool: Vec::new(),
            },
            nodes: Vec::new(),
            started: 0,
            service_queues: 0,
            timers: 0,
        }
    }

    /// Rewind this world to the state `World::new(seed)` produces while
    /// **keeping its expensive allocations**: the event queue's heap,
    /// payload slab, completion ring and now-lane, the frame pool, the
    /// delivery scratch, the listener index's tables, and the capacity of
    /// the node and segment tables. Sweep harnesses
    /// run many `(topology, workload, seed)` worlds back to back in one
    /// worker; resetting instead of reconstructing means the steady
    /// state stops paying construction allocations per scenario.
    ///
    /// Observable behavior after a reset is identical to a fresh world:
    /// the clock rewinds to zero, the RNG is reseeded, timer ids and
    /// event sequence numbers restart, and no node, segment, attachment,
    /// trace entry or counter survives. (`tests/scenario_exec.rs` proves
    /// this at the report-byte and trace-digest level.)
    pub fn reset(&mut self, seed: u64) {
        self.core.time = SimTime::ZERO;
        self.core.queue.clear();
        self.core.segments.clear();
        self.core.ports.clear();
        self.core.node_ports.clear();
        self.core.rng = Xoshiro::seed_from_u64(seed);
        self.core.next_timer_id = 0;
        self.core.trace.reset();
        self.core.counters.clear();
        // Probe state (records *and* the armed flag) must not leak into
        // the next scenario: a reused world starts disarmed, like a fresh
        // one.
        self.core.probe.reset();
        self.core.frames_sent = 0;
        self.core.frames_delivered = 0;
        // Chaos state must not leak into the next scenario: a pooled
        // world starts with every node alive, exactly like a fresh one.
        // (Per-segment fault configs and down flags clear with
        // `segments` above.)
        self.core.crashed.clear();
        self.core.crashed_count = 0;
        self.core.scripted_faults.clear();
        // The listener index empties with the segments it indexes,
        // keeping its tables. `deliver_scratch` and `frame_pool` survive
        // deliberately: they are pure caches, invisible to simulation
        // behavior.
        self.core.listeners.clear();
        self.nodes.clear();
        self.started = 0;
        self.service_queues = 0;
        self.timers = 0;
    }

    /// Size the node, port and segment tables and the listener index for
    /// a topology about to be built (`nodes` total nodes, `segments` total
    /// segments; the index takes a filter per node), so construction of a
    /// large world never reallocates them incrementally. The port table
    /// gets a port per node and one more per segment: what a world of
    /// single-homed stations whose bridges and segments form a tree needs
    /// (its bridges have a port per tree edge, one fewer than bridges plus
    /// segments). Each loop adds a port beyond that.
    pub fn reserve_topology(&mut self, nodes: usize, segments: usize) {
        fn room_for<T>(table: &mut Vec<T>, total: usize) {
            table.reserve(total.saturating_sub(table.len()));
        }
        room_for(&mut self.nodes, nodes);
        room_for(&mut self.core.node_ports, nodes);
        room_for(&mut self.core.crashed, nodes);
        room_for(&mut self.core.ports, nodes + segments);
        room_for(&mut self.core.segments, segments);
        self.core.listeners.reserve(nodes, segments);
    }

    /// Add a LAN segment.
    pub fn add_segment(&mut self, cfg: SegmentConfig) -> SegId {
        let id = SegId(narrow_id(self.core.segments.len(), "segments"));
        self.core.segments.push(Segment::new(cfg));
        self.core.listeners.add_segment();
        id
    }

    /// Add a node. Its `on_start` runs when [`World::start`] is called.
    pub fn add_node<N: Node>(&mut self, node: N) -> NodeId {
        let id = NodeId(narrow_id(self.nodes.len(), "nodes"));
        self.service_queues += node.service_queues();
        self.timers += node.timers();
        self.nodes.push(Some(Box::new(node)));
        let first = narrow_id(self.core.ports.len(), "ports") as u32;
        self.core.node_ports.push((first, 0));
        self.core.crashed.push(false);
        id
    }

    /// Attach `node` to `seg`; returns the new port's id (ports number from
    /// 0 in attachment order, like `eth0`, `eth1`, ...).
    pub fn attach(&mut self, node: NodeId, seg: SegId) -> PortId {
        let ports = &mut self.core.ports;
        let (first, count) = self.core.node_ports[node.0];
        let run = first as usize..first as usize + count as usize;
        let first = if run.end == ports.len() {
            first
        } else {
            // Another node attached since this one last did: move this
            // one's run to the end of the table (the old run is left
            // unused).
            ports.extend_from_within(run);
            (ports.len() - count as usize) as u32
        };
        narrow_id(ports.len(), "ports");
        let port = PortId(count as usize);
        let attachments = &mut self.core.segments[seg.0].attachments;
        let slot = attachments.len();
        ports.push((seg, narrow_id(slot, "attachments") as u32));
        self.core.node_ports[node.0] = (first, count + 1);
        attachments.push(Attachment::new(node, port));
        self.core.listeners.attach(seg, slot);
        port
    }

    /// Schedule `on_start` for every node that has not started yet (in
    /// node order, at the current time). Called implicitly by the run
    /// methods, so nodes added mid-simulation start when the world next
    /// runs. Also sizes the event queue from what the nodes say they use,
    /// so the steady state never grows it: in the timer heap the nodes'
    /// [`Node::timers`], summed; in the completion ring one entry per
    /// segment and one per service queue (each has at most one
    /// completion in flight) — or per segment again where that is more,
    /// which leaves room for the completions crashed bridges leave behind
    /// and keeps a pooled world from reallocating whenever a scenario has
    /// one more bridge than the last; in the same-instant lane the
    /// `on_start` events pushed here.
    pub fn start(&mut self) {
        let segments = self.core.segments.len();
        let completions = segments + segments.max(self.service_queues);
        let starts = self.nodes.len() - self.started;
        self.core.queue.reserve(self.timers, completions, starts);
        let now = self.core.time;
        for i in self.started..self.nodes.len() {
            self.core.queue.push(now, EventKind::Start(NodeId(i)));
        }
        self.started = self.nodes.len();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// Process one event if it is due at or before `bound` (fused
    /// peek-and-pop: the run loop's hot path compares the queue heads
    /// once per event instead of twice).
    fn step_at_or_before(&mut self, bound: SimTime) -> bool {
        let Some(Event { at, kind, .. }) = self.core.queue.pop_at_or_before(bound) else {
            return false;
        };
        self.dispatch(at, kind);
        true
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.core.time, "event queue went backwards");
        self.core.time = at;
        match kind {
            EventKind::Start(node) => {
                self.with_node(node, |n, ctx| n.on_start(ctx));
            }
            EventKind::Timer { node, token, id } | EventKind::ServiceDone { node, token, id } => {
                let node = NodeId(node as usize);
                // A crashed node's pending timers die silently, like RAM
                // losing power.
                if self.core.crashed_count == 0 || !self.core.crashed[node.0] {
                    if self.core.probe.is_armed() {
                        self.core
                            .probe
                            .record(at, ProbeRecord::TimerFire { node, id });
                    }
                    self.with_node(node, |n, ctx| n.on_timer(ctx, token));
                }
            }
            EventKind::CancelledTimer => {}
            EventKind::SegDeliver { seg, n_att } => {
                self.seg_deliver(SegId(seg as usize), n_att as usize)
            }
            EventKind::Chaos(ev) => match ev {
                ChaosEv::LinkDown(seg) => self.set_link_down(seg, true),
                ChaosEv::LinkUp(seg) => self.set_link_down(seg, false),
                ChaosEv::NodeCrash(node) => self.crash_node(node),
                ChaosEv::NodeRestart(node) => self.restart_node(node),
                ChaosEv::SetFault(seg, i) => {
                    let fault = self.core.scripted_faults[i as usize].clone();
                    self.set_segment_fault(seg, fault)
                }
                ChaosEv::ClearFault(seg) => self.set_segment_fault(seg, FaultConfig::default()),
            },
        }
    }

    /// The one wire event: the frame `seg_id` was serializing completes
    /// and is delivered. Fires at completion + propagation, so the
    /// completion bookkeeping (counters, the `WireTx` and fault probe
    /// records, the capture timestamp, starting the next queued
    /// transmission) is stamped at the completion instant,
    /// `now − propagation`: the next frame's serialization starts at the
    /// later of that instant and its own offer time (a frame offered
    /// while the completed frame's delivery was still propagating found a
    /// free medium). Such a propagation-window offer passes through the
    /// queue for one event, so it counts as `contended` — diagnostic only;
    /// delivery timing and ordering are those of a medium that freed at
    /// completion. The fault configuration and the capture flag are read
    /// here, so a change made while the frame was in flight applies to it.
    ///
    /// The whole path is allocation-free: fault injection works in place
    /// (see `inject_faults`), and listeners are enumerated from the
    /// segment's attachment list by `deliver_all`.
    fn seg_deliver(&mut self, seg_id: SegId, n_att: usize) {
        let core = &mut self.core;
        let seg = &mut core.segments[seg_id.0];
        // The medium freed at the completion instant; this event fires
        // one propagation delay later.
        let completion = SimTime::from_ns(core.time.as_ns() - seg.cfg.propagation.as_ns());
        let (done, started_next) = seg.complete();
        seg.counters.tx_frames += 1;
        seg.counters.tx_bytes += done.frame.len() as u64;
        let sender = done.slot as usize;
        if core.probe.is_armed() {
            let ser_ns = seg.serialization_time(done.frame.len()).as_ns();
            core.probe.record(
                completion,
                ProbeRecord::WireTx {
                    seg: seg_id,
                    src: seg.attachments[sender].id(),
                    len: done.frame.len() as u32,
                    ser_ns,
                },
            );
        }
        if started_next {
            let next = seg
                .current
                .as_ref()
                .expect("started_next implies a current frame");
            let ser = seg.serialization_time(next.frame.len());
            let start = completion.max(next.offered_at);
            core.schedule_completion(seg_id, start + ser);
        }
        let (frame, copies) = if core.segments[seg_id.0].cfg.fault.is_transparent() {
            (done.frame, 1)
        } else {
            match core.inject_faults(seg_id, done.frame, completion) {
                Some(delivered) => delivered,
                None => return,
            }
        };
        let seg = &mut core.segments[seg_id.0];
        if seg.cfg.capture {
            seg.captured.push(CapturedFrame {
                at: completion,
                src: seg.attachments[sender].id(),
                data: frame.clone(),
            });
        }
        seg.counters.deliveries += copies * (n_att as u64 - 1);
        if copies == 2 {
            self.deliver_all(seg_id, sender, n_att, frame.clone());
        }
        self.deliver_all(seg_id, sender, n_att, frame);
    }

    /// Deliver one wire frame to every listener of `seg` (the first
    /// `n_att` attachments except the one at slot `sender`, in attachment
    /// order), all sharing the same refcounted buffer. A listener whose
    /// receive filter rejects the frame is counted and probe-recorded like
    /// any other — at its place in attachment order — but its node is not
    /// called. Listeners are chosen as bit masks in a scratch buffer
    /// reused across events — who hears the frame from the attachment
    /// count, who is called from the listener index
    /// ([`Listeners::called`]) — so fan-out allocates nothing, no
    /// attachment is asked whether the frame is for it, and the calling
    /// loop visits only the attachments it has something to do for.
    fn deliver_all(&mut self, seg: SegId, sender: usize, n_att: usize, frame: FrameBuf) {
        let any_crashed = self.core.crashed_count != 0;
        let armed = self.core.probe.is_armed();
        let len = frame.len() as u32;
        // Point-to-point fast path: two attachments (the dominant shape on
        // line topologies) have one listener, the other one.
        if n_att == 2 {
            let target = self.core.segments[seg.0].attachments[sender ^ 1];
            if any_crashed && self.core.crashed[target.node.0] {
                // The listener is crashed: the frame falls on the
                // floor (never counted as delivered).
                self.core.recycle_frame(frame);
                return;
            }
            self.core.frames_delivered += 1;
            if armed {
                let dst = target.id();
                self.core
                    .probe
                    .record(self.core.time, ProbeRecord::Deliver { seg, dst, len });
            }
            if target.hears(rx_dst(&frame)) {
                self.with_node(target.node, |n, ctx| n.on_frame(ctx, target.port, frame));
            } else {
                self.core.recycle_frame(frame);
            }
            return;
        }
        // Who hears the frame — every one of the first `n_att` attachments
        // but the sender and the crashed (never counted as delivered) —
        // and which of them are called for it, the listener index naming
        // them by address: one bit each, settled before anyone is called.
        let mut masks = std::mem::take(&mut self.core.deliver_scratch);
        masks.clear();
        let chunks = self.core.segments[seg.0].attachments[..n_att].chunks(64);
        for (word, chunk) in chunks.enumerate() {
            let mut heard = u64::MAX >> (64 - chunk.len());
            if word == sender / 64 {
                heard &= !(1 << (sender % 64));
            }
            if any_crashed {
                for (bit, att) in chunk.iter().enumerate() {
                    heard &= !(u64::from(self.core.crashed[att.node.0]) << bit);
                }
            }
            masks.push([heard, 0]);
        }
        self.core.listeners.called(seg, rx_dst(&frame), &mut masks);
        let (mut n_heard, mut n_called) = (0, 0);
        for [heard, called] in &mut masks {
            *called &= *heard;
            n_heard += u64::from(heard.count_ones());
            n_called += called.count_ones();
        }
        self.core.frames_delivered += n_heard;
        // The *last* called listener receives the event's own handle
        // (moved, not cloned): where one node hears the frame — a
        // point-to-point link, or the bridge of an access LAN whose
        // stations filter — it ends up holding the only reference, so it
        // can recycle the buffer.
        let mut frame = Some(frame);
        for (word, &[heard, called]) in masks.iter().enumerate() {
            // An armed recorder notes every listener at its place in
            // attachment order, called or not.
            let mut bits = if armed { heard } else { called };
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let att = self.core.segments[seg.0].attachments[word * 64 + bit];
                if armed {
                    let dst = att.id();
                    self.core
                        .probe
                        .record(self.core.time, ProbeRecord::Deliver { seg, dst, len });
                }
                if called >> bit & 1 != 0 {
                    n_called -= 1;
                    let f = if n_called == 0 {
                        frame.take()
                    } else {
                        frame.clone()
                    }
                    .expect("the handle moves at the last called listener");
                    self.with_node(att.node, |n, ctx| n.on_frame(ctx, att.port, f));
                }
            }
        }
        // Nobody was called: the wire frame dies here — reclaim it.
        if let Some(f) = frame {
            self.core.recycle_frame(f);
        }
        self.core.deliver_scratch = masks;
    }

    #[inline]
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        // `nodes` and `core` are disjoint fields, so the node can stay in
        // its slot while the callback borrows the core through `Ctx` (a
        // node callback can only reach the core — never other nodes), and
        // the dispatch path pays no take/put shuffle. `with_ctx` keeps
        // the checkout dance because it hands out typed access.
        let node = self.nodes[id.0]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("node {id} re-entered"));
        let mut ctx = Ctx {
            core: &mut self.core,
            node: id,
        };
        f(node, &mut ctx);
    }

    /// Run until the clock reaches `t` (events at exactly `t` are
    /// processed). The clock is left at `t` even if the queue drains early.
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        while self.step_at_or_before(t) {}
        if self.core.time < t {
            self.core.time = t;
        }
    }

    /// Run for `d` from the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.core.time + d;
        self.run_until(t);
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Access a node by concrete type if it is one, `None` otherwise
    /// (how offline tooling sorts a mixed node population into bridges
    /// and hosts without panicking on either).
    pub fn try_node<N: Node>(&self, id: NodeId) -> Option<&N> {
        self.nodes[id.0]
            .as_deref()
            .expect("node checked out")
            .as_any()
            .downcast_ref::<N>()
    }

    /// Access a node by concrete type (e.g. to read results after a run).
    pub fn node<N: Node>(&self, id: NodeId) -> &N {
        self.nodes[id.0]
            .as_deref()
            .expect("node checked out")
            .as_any()
            .downcast_ref::<N>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", core::any::type_name::<N>()))
    }

    /// Mutable access to a node by concrete type.
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> &mut N {
        self.nodes[id.0]
            .as_deref_mut()
            .expect("node checked out")
            .as_any_mut()
            .downcast_mut::<N>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", core::any::type_name::<N>()))
    }

    /// Invoke a closure with a [`Ctx`] for `id`, outside normal dispatch.
    /// Used by experiment harnesses to poke nodes (e.g. start a workload).
    pub fn with_ctx<N: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut node = self.nodes[id.0]
            .take()
            .unwrap_or_else(|| panic!("node {id} re-entered"));
        let result = {
            let mut ctx = Ctx {
                core: &mut self.core,
                node: id,
            };
            let concrete = node
                .as_any_mut()
                .downcast_mut::<N>()
                .unwrap_or_else(|| panic!("node {id} is not a {}", core::any::type_name::<N>()));
            f(concrete, &mut ctx)
        };
        self.nodes[id.0] = Some(node);
        result
    }

    /// A node's name.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.nodes[id.0]
            .as_deref()
            .expect("node checked out")
            .name()
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Segment access.
    pub fn segment(&self, id: SegId) -> &Segment {
        &self.core.segments[id.0]
    }

    /// Install `fault` on a segment now, from the good burst state (burst
    /// history does not leak across scripted fault windows).
    fn set_segment_fault(&mut self, id: SegId, fault: FaultConfig) {
        let seg = &mut self.core.segments[id.0];
        seg.cfg.fault = fault;
        seg.burst_bad = false;
    }

    /// Schedule a chaos event at absolute time `at` (normally called via
    /// [`crate::chaos::ChaosScript::schedule`], which pushes a whole
    /// script up-front so the event order is fixed before the run).
    pub fn schedule_chaos(&mut self, at: SimTime, ev: ChaosEv) {
        self.core.queue.push(at, EventKind::Chaos(ev));
    }

    /// Schedule `fault` to be installed on segment `id` at absolute time
    /// `at`, as a [`ChaosEv::SetFault`] event on the queue.
    pub fn schedule_fault(&mut self, at: SimTime, id: SegId, fault: FaultConfig) {
        let i = u32::try_from(self.core.scripted_faults.len()).expect("scripted fault table");
        self.core.scripted_faults.push(fault);
        self.schedule_chaos(at, ChaosEv::SetFault(id, i));
    }

    /// Take a segment down (`true`) or bring it back up (`false`), now.
    /// While down, offered frames are dropped and counted in
    /// [`crate::SegCounters::down_drops`]; the frame in flight and the
    /// queue drain normally. A no-op if the state already matches.
    pub fn set_link_down(&mut self, id: SegId, down: bool) {
        let seg = &mut self.core.segments[id.0];
        if seg.down == down {
            return;
        }
        seg.down = down;
        let now = self.core.time;
        if self.core.probe.is_armed() {
            let record = if down {
                ProbeRecord::LinkDown { seg: id }
            } else {
                ProbeRecord::LinkUp { seg: id }
            };
            self.core.probe.record(now, record);
        }
        let what = if down { "down" } else { "up" };
        let name = &self.core.segments[id.0].cfg.name;
        self.core
            .trace
            .push(now, None, format_args!("chaos: link {what}: {name}"));
    }

    /// Crash a node now: mark it dead (no frames delivered, no pending
    /// timers fire) and invoke [`Node::on_crash`] so it discards its
    /// volatile state. A no-op on an already-crashed node.
    pub fn crash_node(&mut self, id: NodeId) {
        if self.core.crashed[id.0] {
            return;
        }
        self.core.crashed[id.0] = true;
        self.core.crashed_count += 1;
        let now = self.core.time;
        if self.core.probe.is_armed() {
            self.core
                .probe
                .record(now, ProbeRecord::NodeCrash { node: id });
        }
        self.trace_chaos("crash", id);
        self.with_node(id, |n, ctx| n.on_crash(ctx));
    }

    /// Restart a crashed node cold: mark it alive again and invoke
    /// [`Node::on_restart`]. A no-op on a node that is not crashed.
    pub fn restart_node(&mut self, id: NodeId) {
        if !self.core.crashed[id.0] {
            return;
        }
        self.core.crashed[id.0] = false;
        self.core.crashed_count -= 1;
        let now = self.core.time;
        if self.core.probe.is_armed() {
            self.core
                .probe
                .record(now, ProbeRecord::NodeRestart { node: id });
        }
        self.trace_chaos("restart", id);
        self.with_node(id, |n, ctx| n.on_restart(ctx));
    }

    /// Trace a chaos script's `what` on node `id`, by the node's name.
    fn trace_chaos(&mut self, what: &str, id: NodeId) {
        let name = self.nodes[id.0]
            .as_deref()
            .expect("node checked out")
            .name();
        self.core
            .trace
            .push(self.core.time, None, format_args!("chaos: {what}: {name}"));
    }

    /// Is the node currently crashed?
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.core.crashed[id.0]
    }

    /// Point-in-time snapshot of the world's frame accounting: run-wide
    /// send/delivery totals plus every segment's wire counters. Scenario
    /// runners read this instead of parsing traces.
    pub fn stats(&self) -> WorldStats {
        WorldStats {
            frames_sent: self.core.frames_sent,
            frames_delivered: self.core.frames_delivered,
            segments: self
                .core
                .segments
                .iter()
                .map(|s| SegmentStats {
                    name: Arc::clone(&s.cfg.name),
                    counters: s.counters.clone(),
                })
                .collect(),
        }
    }

    /// The flight recorder.
    pub fn probe(&self) -> &Probe {
        &self.core.probe
    }

    /// The flight recorder, mutable (to arm or disarm it).
    pub fn probe_mut(&mut self) -> &mut Probe {
        &mut self.core.probe
    }

    /// Run-wide trace.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Run-wide trace, mutable (to enable/disable).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.core.trace
    }

    /// Experiment counters.
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    /// Frames handed to `send` across the whole run.
    pub fn frames_sent(&self) -> u64 {
        self.core.frames_sent
    }

    /// Frame deliveries across the whole run.
    pub fn frames_delivered(&self) -> u64 {
        self.core.frames_delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every received frame back out the port it came in on, once.
    struct Echo {
        name: String,
        received: Vec<(SimTime, PortId, FrameBuf)>,
        echo: bool,
    }

    impl Node for Echo {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
            self.received.push((ctx.now(), port, frame.clone()));
            if self.echo {
                self.echo = false;
                ctx.send(port, frame);
            }
        }
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
            self
        }
    }

    /// Sends one frame at start, then pings itself with a timer.
    struct Talker {
        sent_timer: bool,
    }

    impl Node for Talker {
        fn name(&self) -> &str {
            "talker"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(PortId(0), FrameBuf::from_static(b"hello"));
            ctx.schedule(SimDuration::from_ms(5), TimerToken(7));
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: FrameBuf) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            assert_eq!(token, TimerToken(7));
            assert_eq!(ctx.now(), SimTime::from_ms(5));
            self.sent_timer = true;
        }
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
            self
        }
    }

    fn echo(name: &str, echo: bool) -> Echo {
        Echo {
            name: name.into(),
            received: Vec::new(),
            echo,
        }
    }

    #[test]
    fn frame_reaches_all_other_attachments() {
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        let b = w.add_node(echo("b", false));
        w.attach(t, lan);
        w.attach(a, lan);
        w.attach(b, lan);
        w.run_until(SimTime::from_ms(10));
        assert_eq!(w.node::<Echo>(a).received.len(), 1);
        assert_eq!(w.node::<Echo>(b).received.len(), 1);
        assert!(w.node::<Talker>(t).sent_timer);
        // Sender must not hear its own frame.
        assert_eq!(w.frames_delivered(), 2);
    }

    /// Ports number per node in attachment order, and each sends on the
    /// segment it was attached to, when two nodes' attachments interleave
    /// (each attach after the other node's moves a node's run of ports).
    #[test]
    fn interleaved_attachments_keep_each_nodes_ports() {
        let mut w = World::new(1);
        let lans: Vec<SegId> = (0..3)
            .map(|_| w.add_segment(SegmentConfig::default()))
            .collect();
        let a = w.add_node(echo("a", false));
        let b = w.add_node(echo("b", false));
        let attached = [
            w.attach(a, lans[0]),
            w.attach(b, lans[1]),
            w.attach(a, lans[1]),
            w.attach(b, lans[2]),
            w.attach(a, lans[2]),
        ];
        assert_eq!(attached.map(|p| p.0), [0, 0, 1, 1, 2]);
        for (node, ports) in [(a, 3), (b, 2)] {
            w.with_ctx::<Echo, _>(node, |_, ctx| {
                assert_eq!(ctx.num_ports(), ports);
                for port in 0..ports {
                    ctx.send(PortId(port), FrameBuf::from_static(b"hello"));
                }
            });
        }
        w.run_until(SimTime::from_ms(1));
        let tx: Vec<u64> = lans
            .iter()
            .map(|&lan| w.segment(lan).counters.tx_frames)
            .collect();
        assert_eq!(tx, [1, 2, 2]);
        let heard = |id| -> Vec<usize> {
            let mut ports: Vec<usize> =
                w.node::<Echo>(id).received.iter().map(|r| r.1 .0).collect();
            ports.sort_unstable();
            ports
        };
        assert_eq!(heard(a), [1, 2]);
        assert_eq!(heard(b), [0, 1]);
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig {
            bandwidth_bps: 100_000_000,
            propagation: SimDuration::from_us(1),
            ..Default::default()
        });
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        w.attach(t, lan);
        w.attach(a, lan);
        w.run_until(SimTime::from_ms(10));
        let rx = &w.node::<Echo>(a).received;
        assert_eq!(rx.len(), 1);
        // 5 bytes + 24 overhead = 29 bytes = 232 bits @100Mb/s = 2320 ns, + 1000 ns prop.
        assert_eq!(rx[0].0, SimTime::from_ns(2320 + 1000));
    }

    /// A frame offered while the previous frame's delivery is still
    /// propagating (medium already free) must start serializing at its
    /// own offer time — not be backdated to the predecessor's completion
    /// — and that holds, with the same counters, whatever the segment
    /// does at completion: nothing, fault draws, or capture.
    #[test]
    fn propagation_window_offer_starts_at_offer_time() {
        struct TwoSender {
            sent_second: bool,
        }
        impl Node for TwoSender {
            fn name(&self) -> &str {
                "two"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Frame A: 5 bytes + 24 overhead = 2320 ns serialization;
                // completes at 2320 ns, delivers at 3320 ns (1 us prop).
                ctx.send(PortId(0), FrameBuf::from_static(b"AAAAA"));
                // Fire inside A's propagation window (2320..3320 ns).
                ctx.schedule(SimDuration::from_ns(2800), TimerToken(1));
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
                self.sent_second = true;
                ctx.send(PortId(0), FrameBuf::from_static(b"BBBBB"));
            }
            fn as_any(&self) -> &dyn core::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
                self
            }
        }
        let never_fires = crate::fault::FaultConfig {
            drop_one_in: u64::MAX,
            ..Default::default()
        };
        let configs = [
            ("transparent", SegmentConfig::default()),
            (
                "faulty",
                SegmentConfig {
                    fault: never_fires,
                    ..Default::default()
                },
            ),
            (
                "captured",
                SegmentConfig {
                    capture: true,
                    ..Default::default()
                },
            ),
        ];
        for (what, cfg) in configs {
            let (prop, capture) = (cfg.propagation, cfg.capture);
            let mut w = World::new(1);
            let lan = w.add_segment(cfg);
            let t = w.add_node(TwoSender { sent_second: false });
            let a = w.add_node(echo("a", false));
            w.attach(t, lan);
            w.attach(a, lan);
            w.run_until(SimTime::from_ms(1));
            let delivered: Vec<SimTime> = w.node::<Echo>(a).received.iter().map(|r| r.0).collect();
            // Frame B was offered at 2800 ns to a free medium: it
            // serializes 2800..5120 ns and delivers at 6120 ns. (A
            // backdating bug would start it at A's completion, 2320 ns,
            // delivering 480 ns early.)
            let want = [2320 + 1000, 2800 + 2320 + 1000].map(SimTime::from_ns);
            assert_eq!(delivered, want, "{what}");
            // B passed through the queue for one event: an offer that
            // queues is contended, on every segment.
            let c = w.segment(lan).counters();
            assert_eq!(
                (c.tx_frames, c.deliveries, c.contended, c.peak_queue),
                (2, 2, 1, 1),
                "{what}"
            );
            let captured: Vec<SimTime> = w.segment(lan).captured().iter().map(|f| f.at).collect();
            if capture {
                let completions = want.map(|at| SimTime::from_ns(at.as_ns() - prop.as_ns()));
                assert_eq!(captured, completions, "stamped at completion");
            } else {
                assert!(captured.is_empty());
            }
        }
    }

    #[test]
    fn echo_bounces_once() {
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", true));
        w.attach(t, lan);
        w.attach(a, lan);
        w.run_until(SimTime::from_ms(10));
        // talker's frame delivered to a; a echoed; echo delivered to talker.
        assert_eq!(w.frames_delivered(), 2);
        assert_eq!(w.segment(lan).counters().tx_frames, 2);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct Canceller;
        impl Node for Canceller {
            fn name(&self) -> &str {
                "c"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let h = ctx.schedule(SimDuration::from_ms(1), TimerToken(1));
                ctx.cancel(h);
                ctx.schedule(SimDuration::from_ms(2), TimerToken(2));
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
                assert_eq!(token, TimerToken(2));
                ctx.bump("fired", 1);
            }
            fn as_any(&self) -> &dyn core::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
                self
            }
        }
        let mut w = World::new(1);
        w.add_node(Canceller);
        w.run_until(SimTime::from_ms(10));
        assert_eq!(w.counters().get("fired"), 1);
    }

    /// Cancelling a timer that already fired must leave nothing behind
    /// and touch no other timer, however often it happens (it used to
    /// park the id in a set only a later fire of that id could empty).
    #[test]
    fn cancelling_fired_timers_leaves_no_state() {
        struct LateCanceller {
            fired: Option<TimerHandle>,
        }
        impl Node for LateCanceller {
            fn name(&self) -> &str {
                "late"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.fired = Some(ctx.schedule(SimDuration::from_us(1), TimerToken(0)));
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
                ctx.bump("fired", 1);
                if token.0 < 10_000 {
                    // Half the timers are zero-delay (now lane, no slot);
                    // the others reuse the slab slot this one just left.
                    let after = SimDuration::from_us(token.0 % 2);
                    let next = ctx.schedule(after, TimerToken(token.0 + 1));
                    // The handle held is of the timer firing right now:
                    // cancelling it must not hit its slot's new tenant.
                    let fired = self.fired.replace(next).expect("armed in on_start");
                    ctx.cancel(fired);
                }
            }
            fn as_any(&self) -> &dyn core::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
                self
            }
        }
        let mut w = World::new(1);
        let n = w.add_node(LateCanceller { fired: None });
        w.run_until(SimTime::from_ms(20));
        // Every late cancel was a no-op: each timer fired, none is queued.
        assert_eq!(w.counters().get("fired"), 10_001);
        assert_eq!(w.pending_events(), 0);
        // A later timer still fires, and a timely cancel still works.
        w.with_ctx::<LateCanceller, _>(n, |_, ctx| {
            ctx.schedule(SimDuration::from_ms(1), TimerToken(10_000));
            let h = ctx.schedule(SimDuration::from_ms(2), TimerToken(10_000));
            ctx.cancel(h);
        });
        w.run_until(SimTime::from_ms(30));
        assert_eq!(w.counters().get("fired"), 10_002);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w = World::new(1);
        w.run_until(SimTime::from_secs(3));
        assert_eq!(w.now(), SimTime::from_secs(3));
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        fn build_and_run(seed: u64) -> u64 {
            let mut w = World::new(seed);
            let lan = w.add_segment(SegmentConfig {
                fault: crate::fault::FaultConfig {
                    drop_one_in: 3,
                    ..Default::default()
                },
                ..Default::default()
            });
            let t = w.add_node(Talker { sent_timer: false });
            let a = w.add_node(echo("a", true));
            w.attach(t, lan);
            w.attach(a, lan);
            w.run_until(SimTime::from_ms(50));
            w.frames_delivered() + w.segment(lan).counters().fault_drops * 1000
        }
        assert_eq!(build_and_run(99), build_and_run(99));
    }

    /// A burst-configured segment routes through the stateful fault
    /// path: bad-state drops land in both `fault_drops` and
    /// `burst_drops`, state flips emit `FaultBurst` probe records in
    /// matched pairs, and the whole run replays from its seed.
    #[test]
    fn burst_faults_count_flip_and_replay() {
        use crate::probe::{ProbeConfig, ProbeRecord};
        /// Sends one small frame every 100 µs, unconditionally.
        struct Chatter {
            left: u32,
        }
        impl Node for Chatter {
            fn name(&self) -> &str {
                "chatter"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(SimDuration::from_us(100), TimerToken(1));
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(PortId(0), FrameBuf::from_static(b"burst-probe"));
                    ctx.schedule(SimDuration::from_us(100), TimerToken(1));
                }
            }
            fn as_any(&self) -> &dyn core::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
                self
            }
        }
        fn build_and_run(seed: u64) -> (u64, u64, u64, Vec<(u64, bool)>) {
            let mut w = World::new(seed);
            w.probe_mut().arm(ProbeConfig::default());
            let lan = w.add_segment(SegmentConfig {
                fault: crate::fault::FaultConfig {
                    burst: Some(crate::fault::BurstConfig {
                        enter_one_in: 8,
                        exit_one_in: 4,
                        bad_drop_one_in: 2,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                ..Default::default()
            });
            let t = w.add_node(Chatter { left: 400 });
            let a = w.add_node(echo("a", false));
            w.attach(t, lan);
            w.attach(a, lan);
            w.run_until(SimTime::from_ms(50));
            let c = w.segment(lan).counters();
            let flips: Vec<(u64, bool)> = w
                .probe()
                .records()
                .filter_map(|e| match e.record {
                    ProbeRecord::FaultBurst { bad, .. } => Some((e.at.as_ns(), bad)),
                    _ => None,
                })
                .collect();
            (w.frames_delivered(), c.fault_drops, c.burst_drops, flips)
        }
        let (delivered, fault_drops, burst_drops, flips) = build_and_run(7);
        assert!(delivered > 0, "good state must let traffic through");
        assert!(burst_drops > 0, "the bad state must have eaten frames");
        assert_eq!(
            fault_drops, burst_drops,
            "good state injects nothing in this config"
        );
        assert!(!flips.is_empty(), "bursts must have started");
        // Flips strictly alternate, starting with a burst entry.
        for (i, (_, bad)) in flips.iter().enumerate() {
            assert_eq!(*bad, i % 2 == 0, "flip {i} out of order");
        }
        assert_eq!(
            build_and_run(7),
            (delivered, fault_drops, burst_drops, flips)
        );
    }

    /// `World::reset` must be observationally identical to a fresh
    /// world: an RNG-dependent run replays the same counters after a
    /// reset of a dirty world as on a brand-new one.
    #[test]
    fn reset_world_replays_like_fresh() {
        fn drive(w: &mut World) -> (u64, u64, u64, u64) {
            let lan = w.add_segment(SegmentConfig {
                fault: crate::fault::FaultConfig {
                    drop_one_in: 3,
                    duplicate_one_in: 5,
                    ..Default::default()
                },
                ..Default::default()
            });
            let t = w.add_node(Talker { sent_timer: false });
            let a = w.add_node(echo("a", true));
            w.attach(t, lan);
            w.attach(a, lan);
            w.run_until(SimTime::from_ms(50));
            let c = w.segment(lan).counters();
            (
                w.frames_delivered(),
                c.fault_drops,
                c.fault_duplicates,
                w.trace().appended(),
            )
        }
        let mut fresh = World::new(7);
        let want = drive(&mut fresh);

        // Dirty a differently-seeded world, then reset it to seed 7.
        let mut reused = World::new(123);
        let _ = drive(&mut reused);
        reused.reset(7);
        assert_eq!(reused.now(), SimTime::ZERO);
        assert_eq!(reused.pending_events(), 0);
        assert_eq!(reused.num_nodes(), 0);
        assert_eq!(drive(&mut reused), want);
    }

    /// Arming the recorder must not change behavior, and `reset` must
    /// clear both the ring and the armed flag — a reused world starts
    /// with a cold recorder, exactly like a fresh one, and replays the
    /// same run.
    #[test]
    fn reset_clears_armed_probe_state_and_replays() {
        use crate::probe::ProbeConfig;
        fn drive(w: &mut World) -> (u64, u64) {
            let lan = w.add_segment(SegmentConfig {
                fault: crate::fault::FaultConfig {
                    drop_one_in: 3,
                    duplicate_one_in: 5,
                    ..Default::default()
                },
                ..Default::default()
            });
            let t = w.add_node(Talker { sent_timer: false });
            let a = w.add_node(echo("a", true));
            w.attach(t, lan);
            w.attach(a, lan);
            w.run_until(SimTime::from_ms(50));
            (w.frames_delivered(), w.segment(lan).counters().fault_drops)
        }
        let mut fresh = World::new(7);
        let want = drive(&mut fresh);

        let mut reused = World::new(7);
        reused.probe_mut().arm(ProbeConfig { capacity: 1024 });
        let got = drive(&mut reused);
        assert_eq!(got, want, "an armed recorder must not perturb the run");
        assert!(reused.probe().appended() > 0, "the armed run recorded");

        reused.reset(7);
        assert!(!reused.probe().is_armed(), "reset must disarm the probe");
        assert!(reused.probe().is_empty(), "reset must clear the ring");
        assert_eq!(reused.probe().appended(), 0);
        assert_eq!(drive(&mut reused), want, "reset world replays fresh");
        assert_eq!(
            reused.probe().appended(),
            0,
            "a reset (disarmed) recorder must stay silent"
        );
    }

    #[test]
    fn down_segment_drops_offers_and_counts_them() {
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        w.attach(t, lan);
        w.attach(a, lan);
        w.set_link_down(lan, true);
        w.run_until(SimTime::from_ms(10));
        assert_eq!(w.frames_delivered(), 0, "nothing crosses a down link");
        assert_eq!(w.segment(lan).counters().down_drops, 1);
        assert_eq!(w.segment(lan).counters().tx_frames, 0);
        assert!(w.segment(lan).is_down());
        assert!(
            w.trace().contains("chaos: link down"),
            "chaos transitions are traced"
        );
    }

    #[test]
    fn link_down_drains_the_frame_in_flight() {
        // Down the link *while* a frame is serializing: that frame (and
        // anything already queued) still delivers; only new offers drop.
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        w.attach(t, lan);
        w.attach(a, lan);
        // Talker's frame starts serializing at t=0 and needs ~2.3 us.
        w.run_until(SimTime::from_us(1));
        w.set_link_down(lan, true);
        w.run_until(SimTime::from_ms(10));
        assert_eq!(w.node::<Echo>(a).received.len(), 1, "in-flight frame lands");
        assert_eq!(w.segment(lan).counters().down_drops, 0);
    }

    #[test]
    fn link_up_restores_delivery_and_repeat_transitions_are_noops() {
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        w.attach(t, lan);
        w.attach(a, lan);
        w.set_link_down(lan, true);
        w.set_link_down(lan, true); // no-op
        w.run_until(SimTime::from_ms(10));
        assert_eq!(w.frames_delivered(), 0);
        w.set_link_down(lan, false);
        w.set_link_down(lan, false); // no-op
        w.with_ctx::<Echo, _>(a, |_, ctx| {
            ctx.send(PortId(0), FrameBuf::from_static(b"after-heal"))
        });
        w.run_until(SimTime::from_ms(20));
        assert_eq!(w.frames_delivered(), 1, "healed link carries traffic");
    }

    #[test]
    fn crashed_node_hears_nothing_and_its_timers_die() {
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        w.attach(t, lan);
        w.attach(a, lan);
        // Crash both before anything flows: the talker's start-time frame
        // still transmits (it was sent before the crash at t=0? no —
        // crash first, then start), so crash after start but before
        // delivery.
        w.start();
        w.run_until(SimTime::from_us(1)); // frame is serializing, timer pending
        w.crash_node(a);
        w.crash_node(t);
        w.crash_node(t); // no-op on an already-crashed node
        assert!(w.is_crashed(t));
        w.run_until(SimTime::from_ms(10));
        assert_eq!(w.node::<Echo>(a).received.len(), 0, "crashed listener");
        assert!(
            !w.node::<Talker>(t).sent_timer,
            "a crashed node's pending timers never fire"
        );
        assert_eq!(w.frames_delivered(), 0);
        assert!(w.trace().contains("chaos: crash"));
    }

    #[test]
    fn restart_brings_a_node_back() {
        struct Phoenix {
            crashes: u32,
            restarts: u32,
            frames: u32,
        }
        impl Node for Phoenix {
            fn name(&self) -> &str {
                "phoenix"
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {
                self.frames += 1;
            }
            fn on_crash(&mut self, _: &mut Ctx<'_>) {
                self.crashes += 1;
            }
            fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
                self.restarts += 1;
                ctx.trace(format_args!("back from the dead"));
            }
            fn as_any(&self) -> &dyn core::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
                self
            }
        }
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let p = w.add_node(Phoenix {
            crashes: 0,
            restarts: 0,
            frames: 0,
        });
        let a = w.add_node(echo("a", false));
        w.attach(p, lan);
        w.attach(a, lan);
        w.restart_node(p); // no-op: not crashed
        w.crash_node(p);
        w.restart_node(p);
        assert!(!w.is_crashed(p));
        w.with_ctx::<Echo, _>(a, |_, ctx| {
            ctx.send(PortId(0), FrameBuf::from_static(b"hello again"))
        });
        w.run_until(SimTime::from_ms(10));
        let ph = w.node::<Phoenix>(p);
        assert_eq!((ph.crashes, ph.restarts), (1, 1));
        assert_eq!(ph.frames, 1, "restarted node hears traffic again");
    }

    #[test]
    fn chaos_script_schedules_against_world_ids() {
        use crate::chaos::ChaosScript;
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig::default());
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        w.attach(t, lan);
        w.attach(a, lan);
        let mut script = ChaosScript::transparent();
        script
            .partition(0, SimDuration::from_ms(0), SimDuration::from_ms(5))
            .crash_cycle(0, SimDuration::from_ms(1), SimDuration::from_ms(6));
        script.schedule(&mut w, SimTime::ZERO, &[lan], &[a]);
        w.run_until(SimTime::from_ms(4));
        assert!(w.segment(lan).is_down());
        assert!(w.is_crashed(a));
        w.run_until(SimTime::from_ms(10));
        assert!(!w.segment(lan).is_down());
        assert!(!w.is_crashed(a));
        // The talker's t=0 frame was offered while the link was down.
        assert_eq!(w.segment(lan).counters().down_drops, 1);
    }

    #[test]
    fn chaos_replays_byte_identically() {
        use crate::chaos::ChaosScript;
        fn run(seed: u64) -> (u64, u64, u64) {
            let mut w = World::new(seed);
            let lan = w.add_segment(SegmentConfig {
                fault: crate::fault::FaultConfig {
                    drop_one_in: 3,
                    ..Default::default()
                },
                ..Default::default()
            });
            let t = w.add_node(Talker { sent_timer: false });
            let a = w.add_node(echo("a", true));
            w.attach(t, lan);
            w.attach(a, lan);
            let mut script = ChaosScript::transparent();
            script
                .flap_storm(
                    0,
                    SimDuration::from_us(1),
                    4,
                    SimDuration::from_us(2),
                    SimDuration::from_us(2),
                )
                .crash_cycle(0, SimDuration::from_us(3), SimDuration::from_us(9));
            script.schedule(&mut w, SimTime::ZERO, &[lan], &[a]);
            w.run_until(SimTime::from_ms(50));
            let c = w.segment(lan).counters();
            (w.frames_delivered(), c.down_drops, w.trace().appended())
        }
        assert_eq!(run(77), run(77));
    }

    #[test]
    fn reset_clears_chaos_state() {
        let mut w = World::new(5);
        let lan = w.add_segment(SegmentConfig::default());
        let a = w.add_node(echo("a", false));
        w.attach(a, lan);
        w.set_link_down(lan, true);
        w.crash_node(a);
        w.reset(5);
        let lan2 = w.add_segment(SegmentConfig::default());
        let b = w.add_node(echo("b", false));
        w.attach(b, lan2);
        assert!(!w.segment(lan2).is_down(), "down state must not leak");
        assert!(!w.is_crashed(b), "crash marks must not leak");
        assert_eq!(w.segment(lan2).counters().down_drops, 0);
    }

    /// A world dirtied by an (unhealed!) chaos script replays like a
    /// fresh one after `reset` — the exec pool reuses worlds across
    /// sweep scenarios, so leaked down-links or crash marks would make
    /// the chaos sweep's report depend on worker scheduling.
    #[test]
    fn reset_after_chaos_replays_like_fresh() {
        use crate::chaos::ChaosScript;
        fn drive(w: &mut World) -> (u64, u64, u64) {
            let lan = w.add_segment(SegmentConfig::default());
            let t = w.add_node(Talker { sent_timer: false });
            let a = w.add_node(echo("a", true));
            w.attach(t, lan);
            w.attach(a, lan);
            w.run_until(SimTime::from_ms(50));
            let c = w.segment(lan).counters();
            (w.frames_delivered(), c.down_drops, w.trace().appended())
        }
        let mut fresh = World::new(7);
        let want = drive(&mut fresh);

        // Dirty a world with chaos that is never healed, then reset.
        let mut reused = World::new(123);
        let lan = reused.add_segment(SegmentConfig::default());
        let a = reused.add_node(echo("a", false));
        reused.attach(a, lan);
        let mut script = ChaosScript::transparent();
        script
            .link_down(SimDuration::from_us(1), 0)
            .crash(SimDuration::from_us(2), 0);
        script.schedule(&mut reused, SimTime::ZERO, &[lan], &[a]);
        reused.run_until(SimTime::from_ms(10));
        assert!(reused.segment(lan).is_down());
        assert!(reused.is_crashed(a));

        reused.reset(7);
        assert_eq!(drive(&mut reused), want, "reset world replays fresh");
    }

    #[test]
    fn recycling_a_shared_handle_reclaims_nothing() {
        let mut w = World::new(1);
        let a = w.add_node(echo("a", false));
        let held = FrameBuf::from(vec![0xABu8; 64]);
        let other = held.clone();
        w.with_ctx::<Echo, _>(a, |_, ctx| ctx.recycle_frame(other));
        assert_eq!(w.core.frame_pool.len(), 0, "someone still holds it");
        assert!(held.iter().all(|&b| b == 0xAB), "and still sees its bytes");
        // A view of part of the storage is not the whole of it either.
        let tail = held.slice(1..);
        drop(held);
        w.with_ctx::<Echo, _>(a, |_, ctx| ctx.recycle_frame(tail));
        assert_eq!(w.core.frame_pool.len(), 0);
        // The last handle of the whole storage is what goes back.
        let last = FrameBuf::from(vec![0xCDu8; 64]);
        let storage = last.as_ptr();
        w.with_ctx::<Echo, _>(a, |_, ctx| {
            ctx.recycle_frame(last);
            let reused = ctx.take_buf(64);
            assert!(reused.is_empty());
            assert_eq!(reused.as_ptr(), storage);
        });
    }

    /// A station with a NIC: declares `mac` as its receive filter at start
    /// and notes, for each frame it is called with (and drops), whether
    /// that handle was the frame's only one.
    struct Station {
        mac: Option<[u8; 6]>,
        heard: Vec<bool>,
    }

    impl Node for Station {
        fn name(&self) -> &str {
            "station"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_rx_filter(PortId(0), self.mac);
        }
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, frame: FrameBuf) {
            self.heard.push(frame.is_unique());
        }
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
            self
        }
    }

    const MAC_A: [u8; 6] = [2, 0, 0, 0, 0, 0xA];
    const MAC_B: [u8; 6] = [2, 0, 0, 0, 0, 0xB];

    /// Nobody's address.
    const MAC_C: [u8; 6] = [2, 0, 0, 0, 0, 0xC];

    /// A new segment with one station per entry of `macs`, attached in
    /// that order and started.
    fn stations<const N: usize>(w: &mut World, macs: [Option<[u8; 6]>; N]) -> (SegId, [NodeId; N]) {
        let lan = w.add_segment(SegmentConfig::default());
        let nodes = macs.map(|mac| {
            let n = w.add_node(Station {
                mac,
                heard: Vec::new(),
            });
            w.attach(n, lan);
            n
        });
        w.run_for(SimDuration::from_us(1));
        (lan, nodes)
    }

    /// A LAN with a promiscuous station, station A, a sender, station B —
    /// in that attachment order.
    fn filtered_lan(w: &mut World) -> (SegId, [NodeId; 4]) {
        stations(w, [None, Some(MAC_A), None, Some(MAC_B)])
    }

    fn frame_to(dst: [u8; 6]) -> FrameBuf {
        FrameBuf::from([&dst[..], b"payload"].concat())
    }

    fn send_from(w: &mut World, node: NodeId, frame: FrameBuf) {
        w.with_ctx::<Station, _>(node, |_, ctx| ctx.send(PortId(0), frame));
        w.run_for(SimDuration::from_ms(1));
    }

    fn heard(w: &World, node: NodeId) -> usize {
        w.node::<Station>(node).heard.len()
    }

    #[test]
    fn filtered_listener_is_counted_but_not_called() {
        use crate::probe::ProbeConfig;
        let mut w = World::new(1);
        let (lan, [promisc, a, sender, b]) = filtered_lan(&mut w);
        w.probe_mut().arm(ProbeConfig::default());
        send_from(&mut w, sender, frame_to(MAC_A));
        assert_eq!(
            [heard(&w, promisc), heard(&w, a), heard(&w, b)],
            [1, 1, 0],
            "B's filter keeps A's unicast from its node"
        );
        assert_eq!(w.frames_delivered(), 3, "B still counts as a delivery");
        assert_eq!(w.segment(lan).counters().deliveries, 3);
        let delivered: Vec<NodeId> = w
            .probe()
            .records()
            .filter_map(|e| match e.record {
                ProbeRecord::Deliver { dst, .. } => Some(dst.0),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [promisc, a, b], "recorded in attachment order");

        // Broadcast passes every filter; a frame too short to carry an
        // address, a group address and a stranger's unicast pass none.
        send_from(&mut w, sender, frame_to([0xFF; 6]));
        assert_eq!([heard(&w, promisc), heard(&w, a), heard(&w, b)], [2, 2, 1]);
        for frame in [
            FrameBuf::from(MAC_A[..3].to_vec()),
            frame_to([1, 0, 0x5E, 0, 0, 1]),
            frame_to(MAC_C),
        ] {
            send_from(&mut w, sender, frame);
        }
        assert_eq!([heard(&w, promisc), heard(&w, a), heard(&w, b)], [5, 2, 1]);
        assert_eq!(w.frames_delivered(), 15);
    }

    /// A station whose declared address is the broadcast address hears
    /// broadcast and nothing else; and a frame of 0–5 bytes, too short to
    /// carry a destination, passes no filter of any kind — it reaches
    /// promiscuous ports only, on a shared LAN and on a two-port link.
    #[test]
    fn a_broadcast_filter_and_frames_too_short_to_address() {
        let mut w = World::new(1);
        let (lan, [promisc, a, sender, bcast]) =
            stations(&mut w, [None, Some(MAC_A), None, Some([0xFF; 6])]);
        assert_eq!(w.segment(lan).attachments()[3].rx_filter, Some([0xFF; 6]));
        send_from(&mut w, sender, frame_to([0xFF; 6]));
        assert_eq!(
            [heard(&w, promisc), heard(&w, a), heard(&w, bcast)],
            [1, 1, 1]
        );
        send_from(&mut w, sender, frame_to(MAC_A));
        assert_eq!(
            [heard(&w, promisc), heard(&w, a), heard(&w, bcast)],
            [2, 2, 1]
        );
        send_from(&mut w, sender, frame_to(MAC_C));
        assert_eq!(
            [heard(&w, promisc), heard(&w, a), heard(&w, bcast)],
            [3, 2, 1]
        );

        let links = [Some(MAC_A), Some([0xFF; 6]), None].map(|mac| stations(&mut w, [None, mac]));
        for len in 0..=5 {
            // All ones: as much of the broadcast address as fits.
            send_from(&mut w, sender, FrameBuf::from(vec![0xFF; len]));
            for (_, [from, _]) in links {
                send_from(&mut w, from, FrameBuf::from(vec![0xFF; len]));
            }
        }
        assert_eq!(
            [heard(&w, promisc), heard(&w, a), heard(&w, bcast)],
            [9, 2, 1]
        );
        let on_links = links.map(|(_, [_, to])| heard(&w, to));
        assert_eq!(on_links, [0, 0, 6], "only the promiscuous end is called");
        // Called or not, every one of them was a delivery.
        assert_eq!(w.frames_delivered(), 3 * 3 + 6 * (3 + 3));
    }

    /// Seventy stations, past one word of listener bits: a sender, a
    /// station addressed and a promiscuous one all in the second word.
    #[test]
    fn a_lan_wider_than_a_machine_word() {
        use crate::probe::ProbeConfig;
        let mac = |i: usize| [2, 0, 0, 0, 1, i as u8];
        let mut w = World::new(1);
        let (lan, nodes) = stations(
            &mut w,
            std::array::from_fn::<_, 70, _>(|i| (i != 3 && i != 69).then(|| mac(i))),
        );
        w.probe_mut().arm(ProbeConfig::default());
        send_from(&mut w, nodes[68], frame_to(mac(66)));
        let called: Vec<usize> = (0..70).filter(|&i| heard(&w, nodes[i]) == 1).collect();
        assert_eq!(called, [3, 66, 69]);
        assert_eq!(w.node::<Station>(nodes[66]).heard, [false]);
        assert_eq!(
            w.node::<Station>(nodes[69]).heard,
            [true],
            "the last called"
        );
        assert_eq!(w.frames_delivered(), 69);
        assert_eq!(w.segment(lan).counters().deliveries, 69);
        let delivered: Vec<NodeId> = w
            .probe()
            .records()
            .filter_map(|e| match e.record {
                ProbeRecord::Deliver { dst, .. } => Some(dst.0),
                _ => None,
            })
            .collect();
        let all_but_the_sender: Vec<NodeId> =
            (0..70).filter(|&i| i != 68).map(|i| nodes[i]).collect();
        assert_eq!(delivered, all_but_the_sender, "in attachment order");
        // A crashed station in either word is not a delivery.
        w.crash_node(nodes[5]);
        w.crash_node(nodes[66]);
        send_from(&mut w, nodes[68], frame_to(mac(66)));
        assert_eq!(w.frames_delivered(), 69 + 67);
        assert_eq!(heard(&w, nodes[66]), 1);
        assert_eq!(heard(&w, nodes[69]), 2);
    }

    /// The two delivery counts disagree about a crashed listener:
    /// `frames_delivered` leaves it out, while the segment's `deliveries`,
    /// committed as `n_att − 1` per wire frame before anyone is chosen,
    /// counts it. Reports carry `deliveries`, so this pins the behaviour
    /// as it is rather than choosing one.
    #[test]
    fn a_crashed_listener_counts_on_the_segment_but_not_in_the_world() {
        let mut w = World::new(1);
        let (lan, [promisc, a, sender, b]) = filtered_lan(&mut w);
        w.crash_node(b);
        send_from(&mut w, sender, frame_to(MAC_B));
        assert_eq!([heard(&w, promisc), heard(&w, a), heard(&w, b)], [1, 0, 0]);
        assert_eq!(w.frames_delivered(), 2, "A and the promiscuous station");
        assert_eq!(
            w.segment(lan).counters().deliveries,
            3,
            "every attachment but the sender, B included"
        );
    }

    #[test]
    fn the_moved_handle_goes_to_the_last_listener_called() {
        let mut w = World::new(1);
        let (_, [promisc, a, sender, _]) = filtered_lan(&mut w);
        // To A: the promiscuous station is called with a clone, A — the
        // last called, though B follows it on the segment — with the
        // event's own handle.
        send_from(&mut w, sender, frame_to(MAC_A));
        assert_eq!(w.node::<Station>(promisc).heard, [false]);
        assert_eq!(w.node::<Station>(a).heard, [true]);
        // To nobody: only the promiscuous station is called, first on the
        // segment, and it holds the frame's only reference.
        send_from(&mut w, sender, frame_to(MAC_C));
        assert_eq!(w.node::<Station>(promisc).heard, [false, true]);
    }

    #[test]
    fn a_frame_nobody_accepts_is_recycled() {
        let mut w = World::new(1);
        let (_, [a, sender, b]) = stations(&mut w, [Some(MAC_A), None, Some(MAC_B)]);
        let frame = frame_to(MAC_C);
        let storage = frame.as_ptr();
        send_from(&mut w, sender, frame);
        assert_eq!((heard(&w, a), heard(&w, b)), (0, 0));
        assert_eq!(w.frames_delivered(), 2);
        assert_eq!(w.core.frame_pool.len(), 1, "the unheard frame went back");
        assert_eq!(w.core.frame_pool[0].as_ptr(), storage);
        // The same on a point-to-point link (the two-attachment path).
        let (_, [c, d]) = stations(&mut w, [None, Some(MAC_B)]);
        send_from(&mut w, c, frame_to(MAC_C));
        assert_eq!(heard(&w, d), 0);
        assert_eq!(w.frames_delivered(), 3);
        assert_eq!(w.core.frame_pool.len(), 2);
    }

    #[test]
    fn a_listener_attached_mid_frame_hears_nothing_of_it() {
        let mut w = World::new(1);
        let (lan, [promisc, _, sender, _]) = filtered_lan(&mut w);
        // 1000 bytes serialize for ~82 us; attach while they do.
        w.with_ctx::<Station, _>(sender, |_, ctx| {
            ctx.send(PortId(0), FrameBuf::from(vec![0xFF; 1000]))
        });
        w.run_for(SimDuration::from_us(10));
        let late = w.add_node(Station {
            mac: None,
            heard: Vec::new(),
        });
        w.attach(late, lan);
        w.run_for(SimDuration::from_ms(1));
        assert_eq!(heard(&w, promisc), 1);
        assert_eq!(heard(&w, late), 0, "the frame was on the wire before it");
        assert_eq!(w.frames_delivered(), 3);
        send_from(&mut w, sender, FrameBuf::from(vec![0xFF; 1000]));
        assert_eq!(heard(&w, late), 1, "it hears the next one");
        assert_eq!(w.frames_delivered(), 7);
    }

    #[test]
    fn reset_leaves_no_filter_behind() {
        let mut w = World::new(1);
        let (lan, _) = filtered_lan(&mut w);
        let filters = |w: &World, lan| -> Vec<_> {
            let atts = w.segment(lan).attachments();
            atts.iter().map(|a| a.rx_filter).collect()
        };
        assert_eq!(filters(&w, lan), [None, Some(MAC_A), None, Some(MAC_B)]);
        w.reset(1);
        let lan = w.add_segment(SegmentConfig::default());
        for name in ["a", "b", "c", "d"] {
            let n = w.add_node(echo(name, false));
            w.attach(n, lan);
        }
        w.run_until(SimTime::from_us(1));
        assert_eq!(filters(&w, lan), [None; 4]);
    }

    #[test]
    fn capture_records_wire_frames() {
        let mut w = World::new(1);
        let lan = w.add_segment(SegmentConfig {
            capture: true,
            ..Default::default()
        });
        let t = w.add_node(Talker { sent_timer: false });
        let a = w.add_node(echo("a", false));
        w.attach(t, lan);
        w.attach(a, lan);
        w.run_until(SimTime::from_ms(10));
        let cap = w.segment(lan).captured();
        assert_eq!(cap.len(), 1);
        assert_eq!(&cap[0].data[..], b"hello");
        assert_eq!(cap[0].src, (t, PortId(0)));
    }
}
