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

use netsim::{PortId, ProbeRecord, SimDuration};

use crate::bridge::{BridgeCtx, DataFrame, NativeSwitchlet};
use crate::plane::{DataPlaneSel, LearnOutcome, Verdict};

/// The switchlet's unit name.
pub const NAME: &str = "bridge_learning";

const SWEEP_TOKEN: u32 = 1;
const SWEEP_EVERY: SimDuration = SimDuration::from_secs(60);

/// The learning switching function. Every frame takes the paper's one
/// path — learn the source, blocked-port test, look the destination up,
/// send; nothing is remembered between frames but the table.
pub struct LearningBridge;

impl NativeSwitchlet for LearningBridge {
    fn name(&self) -> &'static str {
        NAME
    }

    fn on_install(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // Replace the switching function (the dumb bridge's part two).
        bc.plane.set_data_plane(DataPlaneSel::Native(NAME));
        bc.schedule(SWEEP_EVERY, SWEEP_TOKEN);
        bc.log(format_args!(
            "learning bridge installed: replaced switching function"
        ));
    }

    fn switch_frame(&mut self, bc: &mut BridgeCtx<'_, '_>, port: PortId, frame: &DataFrame<'_>) {
        let now = bc.now();
        let src = frame.src();
        let dst = frame.dst();

        // Learn (footnote 3: skipped for group sources — enforced by the
        // table — and only on learning-enabled ports), before the
        // blocked-port test: a port in 802.1D's Learning state learns but
        // does not forward. Under a bounded table the outcome can be an
        // eviction or rejection; both count and probe so the defense is
        // observable on the timeline.
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
        if !bc.plane.port_flags(port.0).forward {
            bc.plane.stats.blocked += 1;
            bc.sim.probe(|node| ProbeRecord::Decision {
                node,
                port,
                verdict: "blocked",
            });
            return;
        }
        let (label, verdict) = if dst.is_multicast() {
            // Group destinations always flood (footnote 3).
            ("flood", Verdict::Flood)
        } else {
            match bc.plane.learn.lookup(dst, now) {
                // Destination is on the arrival segment: filter.
                Some(out) if out == port => ("filter", Verdict::Filter),
                Some(out) if bc.plane.port_flags(out.0).forward => ("direct", Verdict::Direct(out)),
                // No current entry, or one pointing at a non-forwarding
                // port (stale across a topology change): flood.
                _ => ("flood", Verdict::Flood),
            }
        };
        bc.sim.probe(|node| ProbeRecord::Decision {
            node,
            port,
            verdict: label,
        });
        match verdict {
            Verdict::Filter => bc.plane.stats.filtered += 1,
            Verdict::Direct(out) => {
                bc.send_frame(out, frame.share());
                bc.plane.stats.directed += 1;
                bc.plane.stats.bytes_forwarded += frame.len() as u64;
            }
            Verdict::Flood => bc.flood(port, frame),
        }
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

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use ether::{EtherType, FrameBuilder, MacAddr};
    use netsim::{CostModel, Node, PortId, SimTime, World};

    use crate::plane::PortFlags;
    use crate::{BridgeConfig, BridgeNode};

    /// 802.1D's Learning state: a frame into a port that learns but does
    /// not forward goes nowhere, yet its source is learned on that port.
    #[test]
    fn a_learning_port_learns_but_does_not_forward() {
        let cfg = BridgeConfig {
            cost: CostModel::FREE,
            ..BridgeConfig::default()
        };
        let mut node = BridgeNode::new("bridge", MacAddr::local(1), Ipv4Addr::LOCALHOST, 2, cfg);
        node.boot_load_native(super::NAME);
        let mut world = World::new(1);
        let b = world.add_node(node);
        for _ in 0..2 {
            let lan = world.add_segment(Default::default());
            world.attach(b, lan);
        }
        world.run_until(SimTime::from_ms(1));
        let now = world.now();
        let learning = PortFlags {
            forward: false,
            learn: true,
        };
        world
            .node_mut::<BridgeNode>(b)
            .plane_mut()
            .set_port_flags(0, learning, now);
        let src = MacAddr::local(0x10);
        let hand = |world: &mut World| {
            let frame = FrameBuilder::new(MacAddr::local(0x20), src, EtherType::EXPERIMENTAL)
                .payload(&[0; 46])
                .build();
            world.with_ctx::<BridgeNode, _>(b, |node, ctx| node.on_frame(ctx, PortId(0), frame));
        };
        hand(&mut world);
        let plane = world.node_mut::<BridgeNode>(b).plane_mut();
        assert_eq!(plane.stats.blocked, 1);
        assert_eq!((plane.stats.flooded, plane.stats.directed), (0, 0));
        assert_eq!(plane.learn.lookup(src, now), Some(PortId(0)));
        assert_eq!(world.frames_sent(), 0, "nothing was forwarded");

        // The same frame once the port forwards floods to port 1.
        let forwarding = PortFlags {
            forward: true,
            ..learning
        };
        world
            .node_mut::<BridgeNode>(b)
            .plane_mut()
            .set_port_flags(0, forwarding, now);
        hand(&mut world);
        assert_eq!(world.frames_sent(), 1);
    }
}
