//! The event queue.
//!
//! Events are totally ordered by `(time, sequence)`: two events scheduled
//! for the same instant fire in the order they were scheduled. This is what
//! makes runs reproducible — the queue never breaks ties arbitrarily.
//!
//! # Structure
//!
//! Three stores back the queue, with one observable ordering:
//!
//! * a FIFO *now lane* for events scheduled at exactly the current
//!   instant — the dominant pattern on the frame plane (zero-service-time
//!   queues, same-tick timer chains). Those events would otherwise churn
//!   through a future store only to come straight back out; the lane makes
//!   them O(1) pushes and pops.
//! * a *completion ring* for the completions of single-server resources
//!   — a segment finishing the frame it serializes (`SegDeliver`), a
//!   [`crate::ServiceQueue`] finishing the item it serves (`ServiceDone`):
//!   whole events kept sorted in one slice, `ring[head..]`, behind a
//!   prefix of entries already popped. Such a resource has one
//!   completion in flight, so the ring holds at most one entry per busy
//!   segment and one per busy service queue (and, after a bridge crash,
//!   the dead epoch's completion until it pops). On equal links a
//!   transmission that starts now completes after every one already
//!   under way, so a push is one comparison with the back and otherwise a
//!   walk from the back to the event's place, the later entries moving
//!   up one (one `copy_within`); the event is written once, into its slot
//!   (`EventQueue::push_completion`). A pop reads `ring[head]` and
//!   advances `head`; the pop that empties the ring rewinds it to 0.
//! * a binary min-heap of 24-byte keys over a payload slab for everything
//!   else (`Timer`, `Chaos`, `Start`) — events that sit for milliseconds,
//!   and that [`EventQueue::cancel_timer`] may have to find again.
//!
//! The split exists because the two future populations differ by three
//! orders of magnitude in how long they wait. Measured on the repo
//! benchmark (seed 1) with all of them in one heap: `chain_hot` held
//! 521.5 entries on average when a push arrived, 512 of them blaster
//! timers parked 4–16 ms out, while 94.4 % of the pushes (174 624 of
//! 184 912 a round) were segment completions due 4–8 µs out — each one
//! sifted up past ~9 levels of idle timers and dragged a timer ~9 levels
//! back down when it popped. `defended_mix` read 291.7 entries / 92.8 %
//! wire events, `metro_flood` 105.9, `vm_forward` 17.5. `ttcp_paper`
//! held 3–6, and `BinaryHeap::pop` was still 8 % of its run: every costed
//! hop is a service completion, and what it paid the heap for was the
//! mechanism (a slab slot claimed and freed, a key sifted both ways), not
//! depth — so service completions wait in the ring too.
//!
//! The ring, counted the same way: on `ttcp_paper` it peaks at 6 entries
//! and holds 1.5 on average when a push arrives, 61 % of its pushes are
//! service completions and 36 % of all append (a service time is not a
//! serialization time, so where both kinds wait fewer pushes find the
//! back — of a ring of one or two); `sweep_render` 16 / 2.2 / 50 % / 58 %;
//! the `CostModel::FREE` workloads arm no service completion that waits,
//! and read as before — `chain_hot` 14 / 6.4, 82 % appended,
//! `defended_mix` 18 / 1.0, 99.8 %, `metro_flood` 45 / 23.3, 25 % (its
//! access and trunk links differ). How far from the back a push lands —
//! the entries it walks past and moves — is 0.29 on the chains, 0.78 on
//! `ttcp_paper`, 0.90 on `sweep_render`, 0.11 on `vm_forward`, 0.00 on
//! `defended_mix` and 9.1 on `metro_flood`, nearer the back than the
//! front there too, which is why there is no second way in (a binary
//! search, a shift towards the front) and no length at which to choose
//! it. `crates/netsim/DESIGN.md` has the table.
//!
//! The walk and the shift are plain slice operations because the ring is
//! not a `VecDeque`: indexing one pays a wrap test per element. In a
//! SIGPROF sample of `metro_flood` (seed 1, 8 s) a `VecDeque` ring put
//! `Ctx::send` at 472 of 1 995 samples (23.7 %), 330 of them the inlined
//! `push_completion` — 85 walking, 245 shifting element by element and
//! writing; over a slice it reads 238 of 1 996 (11.9 %), 39 walking and
//! 25 shifting and writing, plus the one `memmove` the shift calls
//! (libc's `mem*`, 3.2 % of the run).
//!
//! **When the popped prefix is reclaimed:** only when a push finds the
//! store full — the waiting entries move down to 0 instead of the store
//! growing. [`EventQueue::reserve`] sizes it at twice the completion
//! bound, so a full store is at least half popped and the move is
//! amortized O(1) per pop; the store grows only where a `VecDeque` would
//! have.
//!
//! # Why the order is the same
//!
//! Every push draws `seq` from the one counter, whichever store it lands
//! in, and [`EventQueue::pop_at_or_before`] takes the `(time, seq)`
//! minimum of the three heads. Each store yields its own entries in
//! `(time, seq)` order (the lane holds one instant in push order, the
//! ring is kept sorted, the heap is a heap), so the minimum of the heads
//! is the global minimum: where an event is kept never shows. Routing is
//! by event kind alone — there is no time threshold to tune.
//!
//! The lane is correct because only events at the *current* time enter
//! it, so its entries are mutually ordered by sequence alone (FIFO), and
//! it drains before the clock can advance (its entries are never later
//! than any other store's while it is non-empty).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::chaos::ChaosEv;
use crate::node::{NodeId, TimerToken};
use crate::time::SimTime;

/// What happens when an event fires. The per-frame kinds carry their node
/// and segment ids as `u32`s (the world holds its tables to that), which
/// keeps the whole [`Event`] at 40 bytes.
#[derive(Copy, Clone, Debug)]
pub(crate) enum EventKind {
    /// Deliver the node's start callback.
    Start(NodeId),
    /// Fire a node timer.
    Timer {
        node: u32,
        token: TimerToken,
        id: u64,
    },
    /// A [`crate::ServiceQueue`] finishes the item it serves
    /// ([`crate::Ctx::schedule_service`]): fires exactly as a `Timer`
    /// does, but nothing can cancel it.
    ServiceDone {
        node: u32,
        token: TimerToken,
        id: u64,
    },
    /// What [`EventQueue::cancel_timer`] leaves in a cancelled timer's
    /// place: it still pops at the timer's `(time, seq)`, so the clock
    /// moves exactly as if the timer were there, and nothing fires.
    CancelledTimer,
    /// The one wire event: the frame a segment is serializing completes
    /// and is delivered. Fires at completion + propagation, does the
    /// completion bookkeeping (stamped at the completion instant) and
    /// delivers to the first `n_att` attachments except the sender, in
    /// attachment order, all sharing one `FrameBuf`. `n_att` snapshots
    /// the listener count when serialization begins, so nodes attached
    /// while the frame is on the wire never hear it.
    SegDeliver { seg: u32, n_att: u32 },
    /// A scripted topology fault fires (see [`crate::chaos`]). Scheduled
    /// up-front by [`crate::chaos::ChaosScript::schedule`], so chaotic
    /// runs keep the same `(time, seq)` order on every replay.
    Chaos(ChaosEv),
}

impl EventKind {
    /// Is this the completion of a single-server resource (a segment, a
    /// service queue)? Those wait in the completion ring, the rest in the
    /// timer heap.
    #[inline]
    fn is_completion(&self) -> bool {
        matches!(
            self,
            EventKind::SegDeliver { .. } | EventKind::ServiceDone { .. }
        )
    }

    fn is_timer(&self, timer_id: u64) -> bool {
        matches!(self, EventKind::Timer { id, .. } if *id == timer_id)
    }
}

#[derive(Copy, Clone, Debug)]
pub(crate) struct Event {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl Event {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A heap entry: the ordering key plus the slab slot holding the event's
/// payload. 24 bytes, so heap sift-up/down moves half of what moving
/// whole [`Event`]s (with their embedded [`EventKind`]) would.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A payload slab slot. Free slots chain through themselves, so the slab
/// needs no free vector beside it (and no allocation for one).
enum Slot {
    Full(EventKind),
    Free { next: Option<u32> },
}

/// Min-queue of events ordered by `(time, seq)` (see the module doc for
/// the three stores behind it).
#[derive(Default)]
pub(crate) struct EventQueue {
    /// Keys of the queued timer, chaos and start events.
    heap: BinaryHeap<Reverse<HeapKey>>,
    /// Their payloads, indexed by [`HeapKey::slot`].
    slots: Vec<Slot>,
    /// The most recently freed slab slot (head of the free chain).
    free: Option<u32>,
    /// Queued completions, sorted by `(at, seq)`: `ring[head..]` wait,
    /// `ring[..head]` have popped.
    ring: Vec<Event>,
    head: usize,
    /// FIFO of events scheduled at exactly [`EventQueue::now`].
    now_lane: VecDeque<Event>,
    /// The time of the last popped event (the simulation's current time
    /// from the queue's perspective). Starts at zero, matching the world
    /// clock, so start-of-world pushes take the lane too.
    now: SimTime,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Pre-reserve capacity for at least `timers` pending timer-heap
    /// events, `completions` pending ring events and `instant` more
    /// events at the current instant (topology-derived hints; keeps the
    /// steady state reallocation-free). The ring takes room for twice
    /// `completions` (the module doc says why).
    pub fn reserve(&mut self, timers: usize, completions: usize, instant: usize) {
        // Both against their own length: the slab keeps the free slots of
        // timers that fired, which the heap does not.
        self.heap.reserve(timers.saturating_sub(self.heap.len()));
        self.slots.reserve(timers.saturating_sub(self.slots.len()));
        self.ring
            .reserve((2 * completions).saturating_sub(self.ring.len()));
        self.now_lane.reserve(instant);
    }

    /// Drop every pending event and rewind the clock/sequence state to
    /// what a fresh queue has, **keeping** the heap, slab, ring and
    /// now-lane storage — the point of [`crate::World::reset`] is that a
    /// sweep's steady state reuses these allocations across runs.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free = None;
        self.ring.clear();
        self.head = 0;
        self.now_lane.clear();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
    }

    /// Schedule `kind` — anything but a completion — at absolute time
    /// `at`. Returns the slab slot the event went to, if it went to the
    /// slab — what [`EventQueue::cancel_timer`] needs to find a timer again.
    #[inline]
    pub fn push(&mut self, at: SimTime, kind: EventKind) -> Option<u32> {
        debug_assert!(!kind.is_completion(), "see `push_completion`");
        let seq = self.next_seq;
        self.next_seq += 1;
        if at == self.now {
            self.now_lane.push_back(Event { at, seq, kind });
            return None;
        }
        let slot = match self.free {
            Some(slot) => {
                let Slot::Free { next } = self.slots[slot as usize] else {
                    unreachable!("free chain runs through a full slab slot");
                };
                self.free = next;
                self.slots[slot as usize] = Slot::Full(kind);
                slot
            }
            None => {
                self.slots.push(Slot::Full(kind));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(HeapKey { at, seq, slot }));
        Some(slot)
    }

    /// Schedule the delivery of the frame segment `seg` begins serializing
    /// now, to its first `n_att` attachments, at absolute time `at`.
    #[inline]
    pub fn push_seg_deliver(&mut self, at: SimTime, seg: u32, n_att: u32) {
        self.push_completion(at, EventKind::SegDeliver { seg, n_att });
    }

    /// Schedule the completion of the item a service queue of `node`
    /// begins serving now, at absolute time `at`. Not `#[inline]`: its
    /// callers are the many `Ctx::schedule_service` sites of other crates,
    /// and this is the boundary at which the payload is still four scalars
    /// in registers (one level further in it is a 24-byte `EventKind`,
    /// passed in memory: stored narrow by the caller, reloaded wide here).
    pub fn push_service_done(&mut self, at: SimTime, node: u32, token: TimerToken, id: u64) {
        self.push_completion(at, EventKind::ServiceDone { node, token, id });
    }

    /// Queue the completion `kind` at absolute time `at`: the one way a
    /// completion is queued. Private, and its two callers above take the
    /// payload as fields, so that wherever the compiler stops inlining
    /// the payload travels in registers and is stored into the ring —
    /// never assembled in memory and copied in. The event's place is
    /// found from the back (`seq` is the largest yet, so it belongs
    /// behind every entry that is not later; on equal links, behind them
    /// all), the later entries move up one, and the event is written
    /// once, into the slot it waits in.
    #[inline]
    fn push_completion(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if at == self.now {
            self.now_lane.push_back(Event { at, seq, kind });
            return;
        }
        // The one place popped entries are reclaimed (module doc): a full
        // store moves its waiting entries down to 0 rather than growing.
        if self.ring.len() == self.ring.capacity() {
            self.ring.drain(..self.head);
            self.head = 0;
        }
        // A non-empty store ends in a waiting entry (the pop that takes the
        // last one empties it), so `last` is the back of the live slice.
        let len = self.ring.len();
        if self.ring.last().is_none_or(|back| back.at <= at) {
            self.ring.push(Event { at, seq, kind });
            return;
        }
        let ahead = &self.ring[self.head..len - 1];
        let i = self.head + ahead.iter().rposition(|e| e.at <= at).map_or(0, |k| k + 1);
        self.ring.push(self.ring[len - 1]);
        self.ring.copy_within(i..len - 1, i + 1);
        self.ring[i] = Event { at, seq, kind };
    }

    /// Cancel timer `id`, which [`EventQueue::push`] placed at `slot`, if
    /// it is still queued; a timer that already fired (its slot free or
    /// taken by another event) is left alone, so a late cancel costs and
    /// keeps nothing.
    pub fn cancel_timer(&mut self, slot: Option<u32>, id: u64) {
        let queued = match slot {
            Some(slot) => match self.slots.get_mut(slot as usize) {
                Some(Slot::Full(kind)) if kind.is_timer(id) => Some(kind),
                _ => None,
            },
            // A zero-delay timer: in the now lane until it fires.
            None => self
                .now_lane
                .iter_mut()
                .map(|e| &mut e.kind)
                .find(|kind| kind.is_timer(id)),
        };
        if let Some(kind) = queued {
            *kind = EventKind::CancelledTimer;
        }
    }

    /// Remove and return the next event — the `(time, seq)` minimum of
    /// the three stores' heads — if its time is `<= bound`: the fused
    /// peek-and-pop the run loop uses.
    #[inline]
    pub fn pop_at_or_before(&mut self, bound: SimTime) -> Option<Event> {
        // An empty store's head reads as a key no event has.
        const EMPTY: (SimTime, u64) = (SimTime::MAX, u64::MAX);
        let ring = self.ring.get(self.head).map_or(EMPTY, Event::key);
        let lane = self.now_lane.front().map_or(EMPTY, Event::key);
        let timer = self
            .heap
            .peek()
            .map_or(EMPTY, |Reverse(key)| (key.at, key.seq));
        let head = ring.min(lane).min(timer);
        if head == EMPTY || head.0 > bound {
            return None;
        }
        let event = if head == ring {
            let event = self.ring[self.head];
            self.head += 1;
            if self.head == self.ring.len() {
                // The last waiting entry left: the next push starts at 0.
                self.ring.clear();
                self.head = 0;
            }
            Some(event)
        } else if head == lane {
            self.now_lane.pop_front()
        } else {
            self.heap.pop().map(|Reverse(key)| {
                let freed = Slot::Free { next: self.free };
                let slot = std::mem::replace(&mut self.slots[key.slot as usize], freed);
                self.free = Some(key.slot);
                let Slot::Full(kind) = slot else {
                    unreachable!("heap key points at a free slab slot");
                };
                Event {
                    at: key.at,
                    seq: key.seq,
                    kind,
                }
            })
        }?;
        debug_assert!(
            self.now_lane.is_empty() || event.at == self.now,
            "now lane must drain before the clock advances"
        );
        self.now = event.at;
        Some(event)
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.ring.len() - self.head + self.now_lane.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pop(q: &mut EventQueue) -> Option<Event> {
        q.pop_at_or_before(SimTime::MAX)
    }

    /// Queue `kind` the way the world does: a completion through its
    /// entry, the rest through `push`.
    fn push(q: &mut EventQueue, at: SimTime, kind: EventKind) {
        match kind {
            EventKind::SegDeliver { seg, n_att } => q.push_seg_deliver(at, seg, n_att),
            EventKind::ServiceDone { node, token, id } => q.push_service_done(at, node, token, id),
            kind => drop(q.push(at, kind)),
        }
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1);
        q.push(t, EventKind::Start(NodeId(0)));
        q.push(t, EventKind::Start(NodeId(1)));
        q.push(t, EventKind::Start(NodeId(2)));
        let order: Vec<usize> = (0..3)
            .map(|_| match pop(&mut q).unwrap().kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn time_order_dominates_insert_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(5), EventKind::Start(NodeId(5)));
        q.push(SimTime::from_ms(1), EventKind::Start(NodeId(1)));
        q.push(SimTime::from_ms(3), EventKind::Start(NodeId(3)));
        let order: Vec<usize> = (0..3)
            .map(|_| match pop(&mut q).unwrap().kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    /// The now-lane fast path must interleave correctly with same-time
    /// events that were scheduled earlier (lower seq) and live in the
    /// heap: heap-resident t=2 events fire before lane entries pushed
    /// after the clock reached t=2.
    #[test]
    fn now_lane_interleaves_with_heap_by_sequence() {
        let mut q = EventQueue::new();
        let t2 = SimTime::from_ms(2);
        q.push(SimTime::from_ms(1), EventKind::Start(NodeId(10))); // seq 0
        q.push(t2, EventKind::Start(NodeId(20))); // seq 1 (heap)
        q.push(t2, EventKind::Start(NodeId(21))); // seq 2 (heap)
                                                  // Pop t=1; the queue's notion of "now" becomes 1 ms.
        assert!(matches!(
            pop(&mut q).unwrap().kind,
            EventKind::Start(NodeId(10))
        ));
        // Pop the first t=2 event; "now" becomes 2 ms.
        assert!(matches!(
            pop(&mut q).unwrap().kind,
            EventKind::Start(NodeId(20))
        ));
        // Schedule two more events at the current instant (they take the
        // lane) — they must fire *after* the remaining heap entry at t=2.
        q.push(t2, EventKind::Start(NodeId(22))); // seq 3 (lane)
        q.push(t2, EventKind::Start(NodeId(23))); // seq 4 (lane)
        assert_eq!(q.len(), 3);
        let order: Vec<usize> = (0..3)
            .map(|_| match pop(&mut q).unwrap().kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![21, 22, 23]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn start_of_world_pushes_take_the_lane_in_order() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(SimTime::ZERO, EventKind::Start(NodeId(i)));
        }
        let order: Vec<usize> = (0..4)
            .map(|_| match pop(&mut q).unwrap().kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reserve_is_idempotent_and_harmless() {
        let mut q = EventQueue::new();
        q.reserve(1000, 100, 10);
        q.reserve(10, 1, 0);
        q.push(SimTime::from_ms(1), EventKind::Start(NodeId(0)));
        assert_eq!(q.len(), 1);
        assert!(pop(&mut q).is_some());
    }

    /// A timer, a segment event and a service completion due at the same
    /// instant sit in two stores (the last two share the ring); they must
    /// still fire in scheduling order, whichever of the six that is.
    #[test]
    fn timer_and_wire_event_at_one_instant_fire_in_scheduling_order() {
        let t = SimTime::from_us(7);
        let kinds: [fn() -> EventKind; 3] = [
            || EventKind::Timer {
                node: 0,
                token: TimerToken(0),
                id: 0,
            },
            || EventKind::SegDeliver { seg: 0, n_att: 2 },
            || EventKind::ServiceDone {
                node: 0,
                token: TimerToken(0),
                id: 0,
            },
        ];
        let which = |kind: &EventKind| match kind {
            EventKind::Timer { .. } => 0,
            EventKind::SegDeliver { .. } => 1,
            EventKind::ServiceDone { .. } => 2,
            other => panic!("never pushed: {other:?}"),
        };
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut q = EventQueue::new();
            for k in order {
                push(&mut q, t, kinds[k]());
            }
            let fired = [(); 3].map(|()| which(&pop(&mut q).unwrap().kind));
            assert_eq!(fired, order);
        }
    }

    #[test]
    fn clear_empties_all_three_stores() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, EventKind::Start(NodeId(0))); // lane
        q.push_seg_deliver(SimTime::from_us(1), 0, 2); // ring
        q.push(SimTime::from_ms(1), EventKind::Start(NodeId(1))); // heap
        q.push(SimTime::from_ms(2), EventKind::Start(NodeId(2))); // heap
        pop(&mut q); // the lane entry
        pop(&mut q); // the ring entry
        pop(&mut q); // leaves a slot on the free chain
        q.push(SimTime::from_ms(1), EventKind::Start(NodeId(3))); // lane again
        q.push_seg_deliver(SimTime::from_ms(3), 0, 2);
        assert_eq!(q.len(), 3);
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(pop(&mut q).is_none());
        // Like fresh: the clock is back at zero (so this takes the lane),
        // sequence numbers restart and the free chain is forgotten.
        q.push(SimTime::ZERO, EventKind::Start(NodeId(4)));
        q.push(SimTime::from_ms(1), EventKind::Start(NodeId(5)));
        assert_eq!(pop(&mut q).unwrap().seq, 0);
        assert_eq!(pop(&mut q).unwrap().seq, 1);
    }

    #[test]
    fn cancel_timer_only_touches_the_queued_timer_it_names() {
        let timer = |id| EventKind::Timer {
            node: 0,
            token: TimerToken(id),
            id,
        };
        let mut q = EventQueue::new();
        let slot = q.push(SimTime::from_ms(1), timer(0));
        assert!(slot.is_some());
        assert!(pop(&mut q).unwrap().kind.is_timer(0));
        // Timer 0 fired; its slot is free, then reused by timer 1.
        q.cancel_timer(slot, 0);
        assert_eq!(q.push(SimTime::from_ms(2), timer(1)), slot);
        q.cancel_timer(slot, 0);
        assert!(pop(&mut q).unwrap().kind.is_timer(1));
        // A queued timer is cancelled in place — in the slab...
        let slot = q.push(SimTime::from_ms(3), timer(2));
        q.cancel_timer(slot, 2);
        assert_eq!(q.len(), 1);
        assert!(matches!(
            pop(&mut q).unwrap().kind,
            EventKind::CancelledTimer
        ));
        // ...and in the now lane, which hands out no slot.
        assert_eq!(q.push(SimTime::from_ms(3), timer(3)), None);
        assert_eq!(q.push(SimTime::from_ms(3), timer(4)), None);
        q.cancel_timer(None, 4);
        assert!(pop(&mut q).unwrap().kind.is_timer(3));
        assert!(matches!(
            pop(&mut q).unwrap().kind,
            EventKind::CancelledTimer
        ));
    }

    /// The intrusive free chain must cost the slab nothing per slot.
    #[test]
    fn slab_slot_is_no_bigger_than_its_payload() {
        assert_eq!(
            core::mem::size_of::<Slot>(),
            core::mem::size_of::<EventKind>()
        );
    }

    /// The records a frame-hop writes stay this narrow — the handle two
    /// words (with or without an `Option` around it), the pending
    /// transmission four, the event five: a field added later shows here.
    #[test]
    fn what_a_hop_writes_stays_narrow() {
        use core::mem::size_of;
        assert_eq!(size_of::<crate::FrameBuf>(), 16);
        assert_eq!(size_of::<Option<crate::FrameBuf>>(), 16);
        assert_eq!(size_of::<crate::segment::PendingTx>(), 32);
        assert_eq!(size_of::<EventKind>(), 24);
        assert_eq!(size_of::<Event>(), 40);
    }

    /// Segment and service completions due at one instant, pushed into a
    /// ring that already holds 0, 1, 2, 9 or 40 entries — earlier ones,
    /// later ones and some at that very instant — come out in `seq` order
    /// among themselves and in `(at, seq)` order overall.
    #[test]
    fn equal_time_completions_interleave_in_seq_order_whatever_the_ring_holds() {
        let t = SimTime::from_us(50);
        for held in [0u32, 1, 2, 9, 40] {
            let mut q = EventQueue::new();
            let mut want = Vec::new();
            // Every third resident waits at `t` itself, the rest either
            // side of it, pushed latest first so each one shifts.
            for k in (0..held).rev() {
                let at = match k % 3 {
                    0 => t,
                    1 => SimTime::from_us(10 + u64::from(k)),
                    _ => SimTime::from_us(90 + u64::from(k)),
                };
                want.push((at, q.next_seq));
                q.push_seg_deliver(at, 1000 + k, 2);
            }
            for k in 0..6 {
                want.push((t, q.next_seq));
                if k % 2 == 0 {
                    q.push_seg_deliver(t, k, 2);
                } else {
                    q.push_service_done(t, 0, TimerToken(0), u64::from(k));
                }
            }
            assert_eq!(
                q.ring[q.head..].len(),
                want.len(),
                "all of them wait in the ring"
            );
            want.sort();
            let got: Vec<_> = std::iter::from_fn(|| pop(&mut q))
                .map(|e| (e.at, e.seq))
                .collect();
            assert_eq!(got, want, "ring of {held}");
        }
    }

    proptest! {
        /// The queue against an obviously-right model: a `Vec` kept
        /// stably sorted by `(at, seq)`. Every word of `ops` is one step —
        /// a push (segment, service or timer-heap kind; due now, soon, much
        /// later or at an instant something queued already has) or a bounded pop
        /// (bound just below, at or beyond the head's time).
        #[test]
        fn queue_matches_a_sorted_vec(ops in prop::collection::vec(any::<u32>(), 1..400)) {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut pushed = 0u64;
            for word in ops {
                let (op, a, b) = (word % 8, (word >> 3) % 5, (word >> 6) as u64);
                if op < 5 {
                    let at = match b % 4 {
                        0 => now,
                        1 => SimTime::from_ns(now.as_ns() + 1 + (b >> 2) % 8),
                        2 => SimTime::from_ns(now.as_ns() + 1_000_000 * (1 + (b >> 2) % 16)),
                        _ if model.is_empty() => now,
                        _ => model[(b >> 2) as usize % model.len()].0,
                    };
                    // The payload carries the sequence number the push
                    // will draw, so a pop can tell it came back attached
                    // to its own key.
                    let id = pushed as usize;
                    let (node, token) = (0, TimerToken(0));
                    let kind = match a {
                        0 | 1 => EventKind::SegDeliver { seg: id as u32, n_att: 2 },
                        2 => EventKind::ServiceDone { node, token, id: pushed },
                        3 => EventKind::Timer { node, token, id: pushed },
                        _ => EventKind::Start(NodeId(id)),
                    };
                    push(&mut q, at, kind);
                    model.push((at, pushed));
                    model.sort_by_key(|&(at, seq)| (at, seq));
                    pushed += 1;
                } else {
                    let head = model.first().map_or(now, |&(at, _)| at);
                    let bound = match a % 3 {
                        0 => SimTime::from_ns(head.as_ns().saturating_sub(1)),
                        1 => head,
                        _ => SimTime::MAX,
                    };
                    let want = match model.first() {
                        Some(&(at, _)) if at <= bound => Some(model.remove(0)),
                        _ => None,
                    };
                    let got = q.pop_at_or_before(bound).map(|e| {
                        let id = match e.kind {
                            EventKind::SegDeliver { seg, .. } => u64::from(seg),
                            EventKind::Timer { id, .. } | EventKind::ServiceDone { id, .. } => id,
                            EventKind::Start(node) => node.0 as u64,
                            ref other => panic!("never pushed: {other:?}"),
                        };
                        assert_eq!(id, e.seq, "payload came back under another key");
                        (e.at, e.seq)
                    });
                    prop_assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            // Drain: the rest comes out in model order, then `None`.
            for want in model {
                let got = pop(&mut q).map(|e| (e.at, e.seq));
                prop_assert_eq!(got, Some(want));
            }
            prop_assert!(pop(&mut q).is_none());
        }

        /// The same model with a deep ring. Completions fall due ≈ 4, 40
        /// or 400 µs out (a 512-byte frame at 1 Gb/s, 100 Mb/s and
        /// 10 Mb/s, `metro_flood`'s three link speeds), on a 500 ns grid
        /// so that instants collide. While fewer than `hold` (20–60)
        /// wait a step pushes, otherwise it pops: most pushes land deep,
        /// the popped prefix is reclaimed at capacity over and over, and
        /// for the last 80 of every 500 steps the queue only pops, so it
        /// runs empty and starts again at the front. The store never
        /// grows past what `reserve` gave it.
        #[test]
        fn a_deep_ring_matches_a_sorted_vec(
            hold in 20usize..=60,
            ops in prop::collection::vec(any::<u32>(), 2_000..2_400),
        ) {
            let mut q = EventQueue::new();
            q.reserve(0, hold, 0);
            let capacity = q.ring.capacity();
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut now = SimTime::ZERO;
            let (mut reclaimed, mut emptied) = (0, 0);
            for (step, word) in ops.into_iter().enumerate() {
                let draining = step % 500 >= 420;
                if model.len() < hold && !draining {
                    let jitter = 500 * u64::from((word >> 2) % 8);
                    let due = [4_000, 40_000, 400_000][word as usize % 3] + jitter;
                    let at = SimTime::from_ns(now.as_ns() + due);
                    let (seq, head) = (q.next_seq, q.head);
                    if word & 0x8000_0000 == 0 {
                        q.push_seg_deliver(at, seq as u32, 2);
                    } else {
                        q.push_service_done(at, 0, TimerToken(0), seq);
                    }
                    if q.head < head {
                        reclaimed += 1;
                    }
                    model.push((at, seq));
                    model.sort_unstable();
                } else if !model.is_empty() {
                    let want = model.remove(0);
                    let got = pop(&mut q).map(|e| {
                        let id = match e.kind {
                            EventKind::SegDeliver { seg, .. } => u64::from(seg),
                            EventKind::ServiceDone { id, .. } => id,
                            ref other => panic!("never pushed: {other:?}"),
                        };
                        assert_eq!(id, e.seq, "payload came back under another key");
                        (e.at, e.seq)
                    });
                    prop_assert_eq!(got, Some(want));
                    now = want.0;
                    if model.is_empty() {
                        emptied += 1;
                        prop_assert_eq!((q.head, q.ring.len()), (0, 0), "an empty ring restarts at 0");
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.ring.capacity(), capacity, "the store grew");
            }
            prop_assert!(reclaimed >= 4 && emptied >= 3, "{reclaimed} reclaims, {emptied} restarts");
        }
    }
}
