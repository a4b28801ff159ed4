//! Switchlet 2: the self-learning bridge.
//!
//! Paper Section 5.3: "This switchlet replaces the switching function from
//! the dumb bridge with one that learns the locations of the hosts on the
//! network. For each packet received, the triple (source address, current
//! time, input port) is placed into a hash table keyed by the source
//! address, replacing any previous entry. Next, the hash table is searched
//! for the destination address of the packet. If a match is found and is
//! current, the packet is sent out on the port indicated unless that was
//! the port on which the packet was received. If no match is found ... the
//! packet is sent out on all ports except the one on which it arrived."
//! Footnote 3 gives the group-address rules, implemented here and in
//! [`crate::plane::LearningTable::learn`].

use netsim::{NodeId, PortId, ProbeRecord, SimDuration, SimTime};

use crate::bridge::{BridgeCtx, DataFrame, NativeSwitchlet};
use crate::plane::{DataPlaneSel, LearnOutcome, Verdict};

/// The switchlet's unit name.
pub const NAME: &str = "bridge_learning";

const SWEEP_TOKEN: u32 = 1;
const SWEEP_EVERY: SimDuration = SimDuration::from_secs(60);

/// The flight-recorder entry for one forwarding decision (static label
/// strings: recording a decision allocates nothing).
fn decided(
    port: PortId,
    verdict: Verdict,
    cache_hit: bool,
    generation: u64,
) -> impl FnOnce(NodeId) -> ProbeRecord {
    move |node| ProbeRecord::Decision {
        node,
        port,
        verdict: match verdict {
            Verdict::Blocked => "blocked",
            Verdict::Filter => "filter",
            Verdict::Direct(_) => "direct",
            Verdict::Flood => "flood",
        },
        cache_hit,
        generation,
    }
}

/// The learning switching function.
///
/// Since PR 4 the per-flow verdict is memoized in the plane's
/// [`crate::plane::DecisionCache`]: a repeat unicast `(in-port, src,
/// dst)` under an unchanged decision generation replays the recorded
/// verdict — identical sends, identical counters, identical learn-table
/// refresh — without re-running the lookup pipeline. Any learn-table
/// mapping change, port-flag write, lifecycle transition or timer fire
/// bumps the generation and kills every cached verdict (see `plane.rs`).
#[derive(Default)]
pub struct LearningBridge {
    /// Frames sent to a single learned port.
    pub directed: u64,
    /// Frames flooded for want of a (current) table entry.
    pub flooded: u64,
}

impl LearningBridge {
    fn flood(&mut self, bc: &mut BridgeCtx<'_, '_>, port: PortId, frame: &DataFrame<'_>) {
        // One refcounted buffer shared across every output port — the
        // flood path copies nothing.
        let mut sent = false;
        for p in 0..bc.num_ports() {
            if p != port.0 && bc.plane.port_flags(p).forward {
                bc.send_frame(PortId(p), frame.share());
                sent = true;
            }
        }
        if sent {
            self.flooded += 1;
            bc.plane.stats.flooded += 1;
            bc.plane.stats.bytes_forwarded += frame.len() as u64;
        } else {
            bc.plane.stats.blocked += 1;
        }
    }

    /// Act on a verdict for a frame that was not blocked on arrival: the
    /// sends and counters a decision stands for, whether it was just
    /// computed or comes from the cache.
    fn apply(
        &mut self,
        bc: &mut BridgeCtx<'_, '_>,
        port: PortId,
        frame: &DataFrame<'_>,
        verdict: Verdict,
    ) {
        match verdict {
            Verdict::Blocked => unreachable!("blocked frames are dropped before learning"),
            Verdict::Filter => bc.plane.stats.filtered += 1,
            Verdict::Direct(out) => {
                bc.send_frame(out, frame.share());
                self.directed += 1;
                bc.plane.stats.directed += 1;
                bc.plane.stats.bytes_forwarded += frame.len() as u64;
            }
            Verdict::Flood => self.flood(bc, port, frame),
        }
    }

    /// Replay a cached verdict. Reproduces the slow path bit for bit:
    /// same learn-table refresh, same sends, same counters — the golden
    /// trace digests cannot tell a hit from a re-execution.
    fn replay(
        &mut self,
        bc: &mut BridgeCtx<'_, '_>,
        port: PortId,
        frame: &DataFrame<'_>,
        verdict: Verdict,
        now: SimTime,
    ) {
        if verdict == Verdict::Blocked {
            // The slow path counts and drops before learning.
            bc.plane.stats.blocked += 1;
            return;
        }
        if bc.plane.port_flags(port.0).learn {
            // Timestamp refresh (the mapping is unchanged while the
            // generation holds, so this cannot bump it).
            bc.plane.learn.learn(frame.src(), port, now);
        }
        self.apply(bc, port, frame, verdict);
    }
}

impl NativeSwitchlet for LearningBridge {
    fn name(&self) -> &'static str {
        NAME
    }

    fn on_install(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // Replace the switching function (the dumb bridge's part two).
        bc.plane.set_data_plane(DataPlaneSel::Native(NAME.into()));
        bc.schedule(SWEEP_EVERY, SWEEP_TOKEN);
        bc.log("learning bridge installed: replaced switching function");
    }

    fn switch_frame(&mut self, bc: &mut BridgeCtx<'_, '_>, port: PortId, frame: &DataFrame<'_>) {
        let now = bc.now();
        let src = frame.src();
        let dst = frame.dst();

        // Fast path: repeat unicast flow under an unchanged generation.
        // (Group destinations always flood and skip the cache — the flood
        // loop *is* the work, there is nothing to memoize.)
        let unicast = !dst.is_multicast();
        if unicast {
            let gen = bc.plane.generation();
            if let Some(verdict) = bc.plane.fwd_cache.probe(port, src, dst, gen, now) {
                bc.plane.stats.cache_hits += 1;
                bc.sim.probe(decided(port, verdict, true, gen));
                self.replay(bc, port, frame, verdict, now);
                return;
            }
        }

        if !bc.plane.port_flags(port.0).forward {
            bc.plane.stats.blocked += 1;
            if unicast {
                let gen = bc.plane.generation();
                bc.plane.stats.cache_misses += 1;
                bc.sim.probe(decided(port, Verdict::Blocked, false, gen));
                bc.plane
                    .fwd_cache
                    .store(port, src, dst, gen, SimTime::MAX, Verdict::Blocked);
            }
            return;
        }
        // Learn (footnote 3: skipped for group sources — enforced by the
        // table — and only on learning-enabled ports). Under a bounded
        // table the outcome can be an eviction or rejection; both count
        // and probe so the defense is observable on the timeline.
        if bc.plane.port_flags(port.0).learn {
            match bc.plane.learn.learn(src, port, now) {
                LearnOutcome::Evicted(_) => {
                    bc.plane.stats.learn_evictions += 1;
                    bc.sim.probe(|node| ProbeRecord::LearnEvict { node, port });
                }
                LearnOutcome::Rejected => {
                    bc.plane.stats.learn_rejects += 1;
                    bc.sim.probe(|node| ProbeRecord::LearnReject { node, port });
                }
                LearnOutcome::Ignored
                | LearnOutcome::Fresh
                | LearnOutcome::Refreshed
                | LearnOutcome::Moved => {}
            }
            bc.plane.stats.learn_occupancy = bc.plane.learn.len() as u64;
        }
        // Group destinations always flood (footnote 3).
        if dst.is_multicast() {
            let gen = bc.plane.generation();
            bc.sim.probe(decided(port, Verdict::Flood, false, gen));
            self.flood(bc, port, frame);
            return;
        }
        // `Direct`/`Filter` verdicts rest on a live table entry: they are
        // replayable until the entry's freshness window closes (mapping
        // changes are caught by the generation instead). `Flood` holds
        // until some learn-table insertion bumps the generation.
        let (verdict, valid_until) = match bc.plane.learn.lookup_entry(dst, now) {
            Some((out, seen)) => {
                let deadline = seen
                    .checked_add(bc.plane.learn.age())
                    .unwrap_or(SimTime::MAX);
                if out == port {
                    // Destination is on the arrival segment: filter.
                    (Verdict::Filter, deadline)
                } else if bc.plane.port_flags(out.0).forward {
                    (Verdict::Direct(out), deadline)
                } else {
                    // Entry points at a non-forwarding port (stale across
                    // a topology change): fall back to flooding.
                    (Verdict::Flood, deadline)
                }
            }
            None => (Verdict::Flood, SimTime::MAX),
        };
        // Record under the post-mutation generation (the learn above may
        // have inserted a mapping), then apply.
        let gen = bc.plane.generation();
        bc.plane.stats.cache_misses += 1;
        bc.sim.probe(decided(port, verdict, false, gen));
        bc.plane
            .fwd_cache
            .store(port, src, dst, gen, valid_until, verdict);
        self.apply(bc, port, frame, verdict);
    }

    fn on_timer(&mut self, bc: &mut BridgeCtx<'_, '_>, user: u32) {
        if user == SWEEP_TOKEN {
            let now = bc.now();
            bc.plane.learn.sweep(now);
            bc.plane.stats.learn_occupancy = bc.plane.learn.len() as u64;
            bc.schedule(SWEEP_EVERY, SWEEP_TOKEN);
        }
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}
