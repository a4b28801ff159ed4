//! Deterministic chaos plane: scheduled topology and segment faults.
//!
//! `netsim::fault` injects *probabilistic* per-frame faults; this module
//! schedules *when* they apply — a segment's [`FaultConfig`] installed
//! and later cleared — beside *structured* topology failures — a link
//! going down and coming back, a bridge crashing and restarting cold —
//! as first-class world events, totally ordered with everything else by
//! `(time, seq)`.
//!
//! # Script model
//!
//! A [`ChaosScript`] is plain data: a list of [`ChaosStep`]s, each an
//! offset from the script's origin plus a [`ChaosAction`] naming its
//! target by *topology index* (the i-th segment / i-th bridge of the
//! scenario), not by world id. Scenario generators build scripts as pure
//! functions of the scenario seed; [`ChaosScript::schedule`] maps the
//! indices through the built topology's id tables and pushes one
//! [`crate::world::World`] event per step, all up-front — so the event
//! order never depends on execution interleaving and a chaotic run
//! replays byte-for-byte.
//!
//! # Determinism obligations
//!
//! * A **transparent** script (no steps) schedules nothing, draws
//!   nothing from the world RNG and perturbs nothing: golden digests of
//!   chaos-free runs are unaffected by this module existing.
//! * Chaos events themselves never draw from the RNG; any randomness in
//!   a script (which link, when) is decided at *generation* time from
//!   the scenario seed, so the schedule is fixed before the world runs.
//! * Down-link drops and crash-node suppressions are pure functions of
//!   the event order, so they replay exactly. A scripted fault config
//!   draws from the world RNG per frame like any other, from the instant
//!   its event installs it.

use crate::fault::FaultConfig;
use crate::node::NodeId;
use crate::segment::SegId;
use crate::time::{SimDuration, SimTime};
use crate::world::World;

/// A resolved chaos event, carried on the world event queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChaosEv {
    /// Take a segment down: frames offered while down are dropped (and
    /// counted in [`crate::SegCounters::down_drops`]); frames already
    /// serializing or queued drain normally.
    LinkDown(SegId),
    /// Bring a segment back up.
    LinkUp(SegId),
    /// Crash a node: its volatile state is discarded
    /// ([`crate::Node::on_crash`]), and while crashed it receives no
    /// frames and none of its pending timers fire.
    NodeCrash(NodeId),
    /// Restart a crashed node cold ([`crate::Node::on_restart`]).
    NodeRestart(NodeId),
    /// Install a scripted fault config on a segment. The config lives in
    /// the world's table of scripted configs at this index (filled by
    /// [`World::schedule_fault`]), which keeps the event small.
    SetFault(SegId, u32),
    /// Restore a segment to fault-free operation.
    ClearFault(SegId),
}

/// One scripted action, in topology-index form: `seg` / `node` are
/// indices into the scenario's segment and bridge tables, resolved to
/// world ids by [`ChaosScript::schedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Take the `seg`-th segment down.
    LinkDown { seg: usize },
    /// Bring the `seg`-th segment back up.
    LinkUp { seg: usize },
    /// Crash the `node`-th bridge.
    NodeCrash { node: usize },
    /// Restart the `node`-th bridge.
    NodeRestart { node: usize },
    /// Install `fault` on the `seg`-th segment (neither downtime nor a
    /// heal: the segment stays up).
    SetFault { seg: usize, fault: FaultConfig },
    /// Restore the `seg`-th segment to fault-free operation.
    ClearFault { seg: usize },
}

/// One step of a [`ChaosScript`]: perform `action` at `at` past the
/// script origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosStep {
    /// Offset from the script origin.
    pub at: SimDuration,
    /// What to do.
    pub action: ChaosAction,
}

/// A deterministic schedule of topology and segment faults. Plain data,
/// built by scenario generators as a pure function of the scenario seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosScript {
    /// The steps, in the order they were pushed. Steps sharing an
    /// instant fire in push order (the event queue breaks time ties by
    /// sequence number).
    pub steps: Vec<ChaosStep>,
}

impl ChaosScript {
    /// The empty script: schedules nothing, perturbs nothing.
    pub fn transparent() -> Self {
        ChaosScript::default()
    }

    /// True if this script can never alter a run.
    pub fn is_transparent(&self) -> bool {
        self.steps.is_empty()
    }

    /// The latest step offset (zero for a transparent script).
    pub fn span(&self) -> SimDuration {
        self.steps
            .iter()
            .map(|s| s.at)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Schedule `LinkDown` on the `seg`-th segment at `at`.
    pub fn link_down(&mut self, at: SimDuration, seg: usize) -> &mut Self {
        self.steps.push(ChaosStep {
            at,
            action: ChaosAction::LinkDown { seg },
        });
        self
    }

    /// Schedule `LinkUp` on the `seg`-th segment at `at`.
    pub fn link_up(&mut self, at: SimDuration, seg: usize) -> &mut Self {
        self.steps.push(ChaosStep {
            at,
            action: ChaosAction::LinkUp { seg },
        });
        self
    }

    /// Schedule a crash of the `node`-th bridge at `at`.
    pub fn crash(&mut self, at: SimDuration, node: usize) -> &mut Self {
        self.steps.push(ChaosStep {
            at,
            action: ChaosAction::NodeCrash { node },
        });
        self
    }

    /// Schedule a restart of the `node`-th bridge at `at`.
    pub fn restart(&mut self, at: SimDuration, node: usize) -> &mut Self {
        self.steps.push(ChaosStep {
            at,
            action: ChaosAction::NodeRestart { node },
        });
        self
    }

    /// Install `fault` on the `seg`-th segment at `at`.
    pub fn set_fault(&mut self, at: SimDuration, seg: usize, fault: FaultConfig) -> &mut Self {
        self.steps.push(ChaosStep {
            at,
            action: ChaosAction::SetFault { seg, fault },
        });
        self
    }

    /// Clear the `seg`-th segment's fault config at `at`.
    pub fn clear_fault(&mut self, at: SimDuration, seg: usize) -> &mut Self {
        self.steps.push(ChaosStep {
            at,
            action: ChaosAction::ClearFault { seg },
        });
        self
    }

    /// Partition-then-heal: down at `down_at`, back up at `up_at`.
    pub fn partition(&mut self, seg: usize, down_at: SimDuration, up_at: SimDuration) -> &mut Self {
        self.link_down(down_at, seg).link_up(up_at, seg)
    }

    /// A flap storm: `flaps` down/up cycles starting at `start`, each
    /// down for `down_for` then up for `up_for`.
    pub fn flap_storm(
        &mut self,
        seg: usize,
        start: SimDuration,
        flaps: u32,
        down_for: SimDuration,
        up_for: SimDuration,
    ) -> &mut Self {
        let mut t = start;
        for _ in 0..flaps {
            self.link_down(t, seg);
            t += down_for;
            self.link_up(t, seg);
            t += up_for;
        }
        self
    }

    /// Crash-then-restart: down at `crash_at`, cold restart at
    /// `restart_at`.
    pub fn crash_cycle(
        &mut self,
        node: usize,
        crash_at: SimDuration,
        restart_at: SimDuration,
    ) -> &mut Self {
        self.crash(crash_at, node).restart(restart_at, node)
    }

    /// The offset of the last *healing* step (`LinkUp` / `NodeRestart`),
    /// if any — the instant after which recovery invariants start their
    /// clock.
    pub fn last_heal_at(&self) -> Option<SimDuration> {
        self.steps
            .iter()
            .filter(|s| {
                matches!(
                    s.action,
                    ChaosAction::LinkUp { .. } | ChaosAction::NodeRestart { .. }
                )
            })
            .map(|s| s.at)
            .max()
    }

    /// Does the script take a link down or crash a node? Segment fault
    /// steps are not downtime.
    pub fn has_downtime(&self) -> bool {
        self.steps.iter().any(|s| {
            matches!(
                s.action,
                ChaosAction::LinkDown { .. } | ChaosAction::NodeCrash { .. }
            )
        })
    }

    /// Every fault config the script installs, in step order.
    pub fn fault_configs(&self) -> impl Iterator<Item = &FaultConfig> {
        self.steps.iter().filter_map(|s| match &s.action {
            ChaosAction::SetFault { fault, .. } => Some(fault),
            _ => None,
        })
    }

    /// Number of `NodeCrash` steps.
    pub fn crash_count(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| matches!(s.action, ChaosAction::NodeCrash { .. }))
            .count() as u64
    }

    /// Resolve every step's topology index through `segs` / `nodes` and
    /// push one world event per step, all up-front at `origin + step.at`.
    /// Panics if a step's index is out of range — a script is only
    /// meaningful against the topology it was generated for.
    pub fn schedule(&self, world: &mut World, origin: SimTime, segs: &[SegId], nodes: &[NodeId]) {
        for step in &self.steps {
            let at = origin + step.at;
            let ev = match &step.action {
                ChaosAction::LinkDown { seg } => ChaosEv::LinkDown(segs[*seg]),
                ChaosAction::LinkUp { seg } => ChaosEv::LinkUp(segs[*seg]),
                ChaosAction::NodeCrash { node } => ChaosEv::NodeCrash(nodes[*node]),
                ChaosAction::NodeRestart { node } => ChaosEv::NodeRestart(nodes[*node]),
                ChaosAction::SetFault { seg, fault } => {
                    world.schedule_fault(at, segs[*seg], fault.clone());
                    continue;
                }
                ChaosAction::ClearFault { seg } => ChaosEv::ClearFault(segs[*seg]),
            };
            world.schedule_chaos(at, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_script_is_empty_and_spans_zero() {
        let s = ChaosScript::transparent();
        assert!(s.is_transparent());
        assert_eq!(s.span(), SimDuration::ZERO);
        assert_eq!(s.last_heal_at(), None);
        assert_eq!(s.crash_count(), 0);
        assert!(!s.has_downtime());
    }

    #[test]
    fn fault_steps_are_neither_downtime_nor_heals() {
        let drop = FaultConfig {
            drop_one_in: 12,
            ..FaultConfig::default()
        };
        let mut s = ChaosScript::transparent();
        s.set_fault(SimDuration::from_ms(500), 3, drop.clone())
            .clear_fault(SimDuration::from_secs(4), 3);
        assert!(!s.is_transparent());
        assert!(!s.has_downtime());
        assert_eq!(s.last_heal_at(), None);
        assert_eq!(s.span(), SimDuration::from_secs(4));
        assert_eq!(s.fault_configs().collect::<Vec<_>>(), [&drop]);
        s.crash_cycle(0, SimDuration::from_secs(1), SimDuration::from_secs(2));
        assert!(s.has_downtime());
        assert_eq!(s.last_heal_at(), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn builders_compose_in_order() {
        let mut s = ChaosScript::transparent();
        s.partition(0, SimDuration::from_ms(10), SimDuration::from_ms(30))
            .crash_cycle(2, SimDuration::from_ms(20), SimDuration::from_ms(40));
        assert!(!s.is_transparent());
        assert_eq!(s.steps.len(), 4);
        assert_eq!(s.span(), SimDuration::from_ms(40));
        assert_eq!(s.last_heal_at(), Some(SimDuration::from_ms(40)));
        assert_eq!(s.crash_count(), 1);
        assert!(s.has_downtime());
        assert_eq!(
            s.steps[0].action,
            ChaosAction::LinkDown { seg: 0 },
            "steps keep push order"
        );
    }

    #[test]
    fn flap_storm_alternates_down_up() {
        let mut s = ChaosScript::transparent();
        s.flap_storm(
            1,
            SimDuration::from_ms(5),
            3,
            SimDuration::from_ms(2),
            SimDuration::from_ms(3),
        );
        assert_eq!(s.steps.len(), 6);
        // Last up fires at 5 + 2*(2+3) + 2 = 17 ms.
        assert_eq!(s.last_heal_at(), Some(SimDuration::from_ms(17)));
        for (i, step) in s.steps.iter().enumerate() {
            if i % 2 == 0 {
                assert!(matches!(step.action, ChaosAction::LinkDown { seg: 1 }));
            } else {
                assert!(matches!(step.action, ChaosAction::LinkUp { seg: 1 }));
            }
        }
    }
}
