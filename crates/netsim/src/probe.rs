//! The flight recorder: a fixed-capacity ring of compact typed records.
//!
//! The probe is the simulator's black box. When armed it records the
//! frame lifecycle (offered / wire-tx / delivered / dropped / corrupted),
//! bridge forwarding decisions (with the plane generation they were made
//! under), timer arms/fires/cancels,
//! switchlet invocations with fuel and host-call cost, and free-form app
//! phase marks. Offline tooling (`ab_scenario trace`) turns the ring into
//! a Perfetto-compatible timeline.
//!
//! # The non-perturbation invariant
//!
//! Recording is **observation only**. The probe never schedules an event,
//! never draws from the world RNG, and never touches the `(time, seq)`
//! order of the event queue — arming it cannot change what the simulation
//! does, only what is remembered about it. `tests/determinism.rs` proves
//! this against the golden FNV digests: a probe-armed lossy run produces
//! byte-for-byte the trace the disarmed run produces. Disarmed, every
//! hook is a single predictable branch on [`Probe::is_armed`].
//!
//! # Ring semantics
//!
//! The ring holds the **newest** `capacity` records: once full, each
//! append evicts the oldest record. [`Probe::appended`] counts every
//! record ever offered and [`Probe::dropped`] the evictions, so tooling
//! can tell exactly how much history was lost (`appended - dropped ==
//! len`). Records are handed back oldest-first.

use std::collections::VecDeque;

use crate::node::{NodeId, PortId};
use crate::segment::SegId;
use crate::time::SimTime;

/// Runtime configuration for arming the flight recorder.
#[derive(Copy, Clone, Debug)]
pub struct ProbeConfig {
    /// Ring capacity in records; once exceeded the oldest records are
    /// evicted (the count of evictions stays exact).
    pub capacity: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig { capacity: 65_536 }
    }
}

/// One compact typed record. All payloads are plain `Copy` data — no
/// frame bytes are retained, only identities and lengths.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProbeRecord {
    /// A frame was handed to a segment: it started serializing
    /// immediately, queued behind the transmission in flight (`queued`,
    /// with the queue depth it landed at), or — see [`ProbeRecord::QueueDrop`].
    FrameOffered {
        /// The segment the frame was offered to.
        seg: SegId,
        /// Sending node and port.
        src: (NodeId, PortId),
        /// Payload length in octets.
        len: u32,
        /// `true` when the medium was busy and the frame queued.
        queued: bool,
        /// Transmit-queue depth after the offer (0 when it started now).
        depth: u32,
    },
    /// A frame offered to a full transmit queue was dropped.
    QueueDrop {
        /// The segment that dropped it.
        seg: SegId,
        /// Sending node and port.
        src: (NodeId, PortId),
        /// Payload length in octets.
        len: u32,
    },
    /// A frame finished serializing onto the wire. Stamped at the
    /// completion instant; `ser_ns` is the serialization time, so the
    /// wire-occupancy window is `[at - ser_ns, at]`.
    WireTx {
        /// The transmitting segment.
        seg: SegId,
        /// Sending node and port.
        src: (NodeId, PortId),
        /// Payload length in octets.
        len: u32,
        /// Serialization time in nanoseconds.
        ser_ns: u64,
    },
    /// Fault injection dropped the completed frame.
    FaultDrop {
        /// The segment whose fault config fired.
        seg: SegId,
        /// Payload length in octets.
        len: u32,
    },
    /// Fault injection corrupted the completed frame (still delivered).
    FaultCorrupt {
        /// The segment whose fault config fired.
        seg: SegId,
        /// Payload length in octets.
        len: u32,
    },
    /// Fault injection duplicated the completed frame.
    FaultDuplicate {
        /// The segment whose fault config fired.
        seg: SegId,
        /// Payload length in octets.
        len: u32,
    },
    /// The segment's Gilbert–Elliott burst model changed state (see
    /// [`crate::fault::BurstConfig`]): `bad == true` marks the start of
    /// a loss burst, `false` its end. The timeline export pairs them
    /// into burst windows.
    FaultBurst {
        /// The segment whose burst model flipped.
        seg: SegId,
        /// The *new* state: `true` = entered the bad state.
        bad: bool,
    },
    /// One delivery of a wire frame to one listening port.
    Deliver {
        /// The segment it arrived on.
        seg: SegId,
        /// Receiving node and port.
        dst: (NodeId, PortId),
        /// Payload length in octets.
        len: u32,
    },
    /// A node armed a timer.
    TimerArm {
        /// The scheduling node.
        node: NodeId,
        /// The timer's id (matches the fire/cancel records).
        id: u64,
        /// When it is due.
        deadline: SimTime,
    },
    /// A timer fired (delivered to its node).
    TimerFire {
        /// The node whose timer fired.
        node: NodeId,
        /// The timer's id.
        id: u64,
    },
    /// A timer was cancelled (recorded at cancel time, not at the
    /// suppressed deadline).
    TimerCancel {
        /// The cancelling node.
        node: NodeId,
        /// The timer's id.
        id: u64,
    },
    /// A bridge forwarding decision, with the plane generation it was made
    /// under.
    Decision {
        /// The deciding bridge.
        node: NodeId,
        /// The arrival port.
        port: PortId,
        /// Verdict label (`"direct"`, `"flood"`, `"filter"`, `"blocked"`).
        verdict: &'static str,
        /// The plane generation the verdict was reached under.
        generation: u64,
    },
    /// A switchlet invocation began on `node`.
    ExecBegin {
        /// The invoking node.
        node: NodeId,
    },
    /// A switchlet invocation finished, with its metered cost.
    ExecEnd {
        /// The invoking node.
        node: NodeId,
        /// Fuel (instructions) spent, 0 on a trap.
        fuel: u64,
        /// Host calls made, 0 on a trap.
        host_calls: u64,
    },
    /// A free-form application phase mark (e.g. `"ttcp.start"`).
    Mark {
        /// The marking node.
        node: NodeId,
        /// The phase label.
        label: &'static str,
    },
    /// A chaos script took a segment down.
    LinkDown {
        /// The downed segment.
        seg: SegId,
    },
    /// A chaos script brought a segment back up.
    LinkUp {
        /// The healed segment.
        seg: SegId,
    },
    /// A chaos script crashed a node (volatile state discarded).
    NodeCrash {
        /// The crashed node.
        node: NodeId,
    },
    /// A chaos script restarted a crashed node cold.
    NodeRestart {
        /// The restarted node.
        node: NodeId,
    },
    /// A bridge's watchdog quarantined a misbehaving switchlet and rolled
    /// the data plane back to its last-known-good tier.
    Quarantine {
        /// The bridge that quarantined.
        node: NodeId,
    },
    /// A bounded learning table evicted an entry to admit a new source.
    LearnEvict {
        /// The evicting bridge.
        node: NodeId,
        /// The ingress port whose quota or cap pressure chose the victim.
        port: PortId,
    },
    /// A bounded learning table rejected a new source (at capacity with
    /// nothing to evict on the offending port).
    LearnReject {
        /// The rejecting bridge.
        node: NodeId,
        /// The over-budget ingress port.
        port: PortId,
    },
    /// Storm control suppressed a port-class after sustained violation.
    PortSuppressed {
        /// The policing bridge.
        node: NodeId,
        /// The suppressed ingress port.
        port: PortId,
    },
    /// A storm-control hold-down expired and the port-class re-enabled.
    PortReleased {
        /// The policing bridge.
        node: NodeId,
        /// The re-enabled ingress port.
        port: PortId,
    },
    /// BPDU guard err-disabled a port that received a BPDU.
    BpduGuardTrip {
        /// The guarding bridge.
        node: NodeId,
        /// The err-disabled port.
        port: PortId,
    },
}

/// One recorded event: a [`ProbeRecord`] stamped with the simulated time
/// and a global sequence number (total order over all records of a run,
/// preserved across ring eviction).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Simulated time of the record.
    pub at: SimTime,
    /// 0-based global record number (the `appended` count at record time).
    pub seq: u64,
    /// The payload.
    pub record: ProbeRecord,
}

/// The flight recorder. Owned by the world; disarmed (and empty) by
/// default. See the module docs for the ring and non-perturbation
/// contracts.
pub struct Probe {
    armed: bool,
    cap: usize,
    ring: VecDeque<ProbeEvent>,
    appended: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    /// A disarmed, empty recorder.
    pub fn new() -> Probe {
        Probe {
            armed: false,
            cap: 0,
            ring: VecDeque::new(),
            appended: 0,
        }
    }

    /// Arm the recorder: clears any previous recording and starts
    /// recording into a ring of `cfg.capacity` records.
    pub fn arm(&mut self, cfg: ProbeConfig) {
        self.armed = true;
        self.cap = cfg.capacity.max(1);
        self.ring.clear();
        // One up-front reservation; recording itself never allocates.
        self.ring.reserve(self.cap.min(1 << 20));
        self.appended = 0;
    }

    /// Stop recording. The recorded ring stays readable until the next
    /// [`Probe::arm`] or [`Probe::reset`].
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Is the recorder armed? Every hook in the hot paths is guarded by
    /// this single branch, so a disarmed recorder costs one predictable
    /// compare per potential record.
    #[inline(always)]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Back to the fresh-world state: disarmed, empty, counters zeroed.
    /// `World::reset` calls this so a reused world cannot leak records
    /// (or an armed recorder) into the next scenario.
    pub(crate) fn reset(&mut self) {
        self.armed = false;
        self.cap = 0;
        self.ring.clear();
        self.appended = 0;
    }

    /// Append a record (no-op when disarmed). Never observable by the
    /// simulation: no event is scheduled, no RNG is drawn.
    #[inline]
    pub(crate) fn record(&mut self, at: SimTime, record: ProbeRecord) {
        if !self.armed {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(ProbeEvent {
            at,
            seq: self.appended,
            record,
        });
        self.appended += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &ProbeEvent> {
        self.ring.iter()
    }

    /// Records currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever appended (retained + evicted).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The armed ring capacity (0 while never armed).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records evicted because the ring was full — exact, so tooling can
    /// say precisely how much history the timeline is missing.
    pub fn dropped(&self) -> u64 {
        self.appended - self.ring.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(n: usize) -> ProbeRecord {
        ProbeRecord::Mark {
            node: NodeId(n),
            label: "t",
        }
    }

    #[test]
    fn disarmed_records_nothing() {
        let mut p = Probe::new();
        assert!(!p.is_armed());
        p.record(SimTime::ZERO, mark(0));
        assert_eq!(p.appended(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops_exactly() {
        let mut p = Probe::new();
        p.arm(ProbeConfig { capacity: 4 });
        for i in 0..10 {
            p.record(SimTime::from_ns(i as u64), mark(i));
        }
        assert_eq!(p.appended(), 10);
        assert_eq!(p.len(), 4);
        assert_eq!(p.dropped(), 6, "evicted exactly appended - capacity");
        // The survivors are the newest four, oldest first, with their
        // original sequence numbers intact.
        let seqs: Vec<u64> = p.records().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let nodes: Vec<usize> = p
            .records()
            .map(|e| match e.record {
                ProbeRecord::Mark { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![6, 7, 8, 9]);
    }

    #[test]
    fn rearm_clears_previous_recording() {
        let mut p = Probe::new();
        p.arm(ProbeConfig { capacity: 8 });
        p.record(SimTime::ZERO, mark(1));
        p.arm(ProbeConfig { capacity: 8 });
        assert_eq!(p.appended(), 0);
        assert!(p.is_empty());
        assert!(p.is_armed());
    }

    #[test]
    fn reset_disarms_and_clears() {
        let mut p = Probe::new();
        p.arm(ProbeConfig::default());
        p.record(SimTime::ZERO, mark(1));
        p.reset();
        assert!(!p.is_armed());
        assert!(p.is_empty());
        assert_eq!(p.appended(), 0);
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn disarm_keeps_the_recording_readable() {
        let mut p = Probe::new();
        p.arm(ProbeConfig { capacity: 8 });
        p.record(SimTime::from_us(3), mark(2));
        p.disarm();
        p.record(SimTime::from_us(4), mark(3));
        assert_eq!(p.len(), 1, "records after disarm are ignored");
        assert_eq!(p.records().next().unwrap().at, SimTime::from_us(3));
    }
}
