//! World building for the forwarding workloads.
//!
//! Worlds are put together here from `topo::generate` data and hand-made
//! segment lists rather than by `topo::instantiate`, because every node
//! has to go in through [`Net::add`], which wraps it in
//! [`Spanned`](crate::span::Spanned) when the pass is traced and adds it
//! bare when it is not. [`Counts`] is the one place simulated statistics
//! are read out of a world, for the per-layer counters and for the
//! `sim_digest` that shows a round reproduced.

use std::rc::Rc;

use ab_scenario::topo::Topology;
use ab_scenario::{bridge_ip, bridge_mac};
use active_bridge::{BridgeConfig, BridgeNode};
use hostsim::{App, HostNode};
use netsim::{Node, NodeId, SegId, SegmentConfig, SimTime, World};

use crate::span::{KeyId, Spanned, Tracer};
use crate::stats::Fnv;

/// Layer names (the crate each span or counter is attributed to).
pub mod layer {
    /// The simulator: event queue, segments, fan-out.
    pub const NETSIM: &str = "netsim";
    /// The bridge: dispatch, policing, learning, decision cache, VM calls.
    pub const ACTIVE_BRIDGE: &str = "active_bridge";
    /// End systems and the repeater.
    pub const HOSTSIM: &str = "hostsim";
    /// The scenario runner, judge, scorer and JSON emitter.
    pub const AB_SCENARIO: &str = "ab_scenario";
}

/// A world under construction or under measurement.
pub struct Net {
    /// The simulation.
    pub world: World,
    /// Every bridge added, in order.
    pub bridges: Vec<NodeId>,
    /// Every host added, in order.
    pub hosts: Vec<NodeId>,
    tracer: Option<(Rc<Tracer>, KeyId)>,
}

impl Net {
    /// An empty world seeded with `world_seed`; traced when `tracer` is set.
    pub fn new(world_seed: u64, tracer: Option<&Rc<Tracer>>) -> Net {
        let mut world = World::new(world_seed);
        world.trace_mut().set_enabled(false);
        Net {
            world,
            bridges: Vec::new(),
            hosts: Vec::new(),
            tracer: tracer.map(|t| (Rc::clone(t), t.key(layer::NETSIM, "run_until"))),
        }
    }

    /// Add `node` on `segs` (port order), wrapped when traced.
    pub fn add<N: Node>(&mut self, node: N, layer: &'static str, segs: &[SegId]) -> NodeId {
        let id = match &self.tracer {
            Some((tracer, _)) => self.world.add_node(Spanned::new(node, layer, tracer)),
            None => self.world.add_node(node),
        };
        for &seg in segs {
            self.world.attach(id, seg);
        }
        id
    }

    /// Add bridge number `index` on `segs`, booting the loader, then the
    /// native switchlets in `boot`, then the VM images in `images`.
    pub fn add_bridge(
        &mut self,
        index: u32,
        segs: &[SegId],
        cfg: BridgeConfig,
        boot: &[&str],
        images: &[Vec<u8>],
    ) -> NodeId {
        let mut node = BridgeNode::new(
            format!("bridge{index}"),
            bridge_mac(index),
            bridge_ip(index),
            segs.len(),
            cfg,
        );
        node.boot_load_native(active_bridge::loader::NAME);
        for name in boot {
            node.boot_load_native(name);
        }
        for image in images {
            node.boot_load(image.clone());
        }
        let id = self.add(node, layer::ACTIVE_BRIDGE, segs);
        self.bridges.push(id);
        id
    }

    /// Add a host on `segs`.
    pub fn add_host(&mut self, node: HostNode, segs: &[SegId]) -> NodeId {
        let id = self.add(node, layer::HOSTSIM, segs);
        self.hosts.push(id);
        id
    }

    /// Create the segments and bridges `topo` describes, every bridge with
    /// `cfg` and the native switchlets in `boot`. Returns the segment ids
    /// in spec order.
    pub fn add_topology(
        &mut self,
        topo: &Topology,
        cfg: &BridgeConfig,
        boot: &[&str],
    ) -> Vec<SegId> {
        let segs: Vec<SegId> = topo
            .segments
            .iter()
            .map(|spec| {
                self.world.add_segment(SegmentConfig {
                    name: spec.name.clone(),
                    bandwidth_bps: spec.bandwidth_bps,
                    propagation: spec.propagation,
                    ..SegmentConfig::default()
                })
            })
            .collect();
        for spec in &topo.bridges {
            let ports: Vec<SegId> = spec.segments.iter().map(|&i| segs[i]).collect();
            self.add_bridge(spec.index, &ports, cfg.clone(), boot, &[]);
        }
        segs
    }

    /// `World::run_until`, under a `netsim` span when traced.
    pub fn run_until(&mut self, t: SimTime) {
        let _span = self.tracer.as_ref().map(|(tracer, key)| tracer.span(*key));
        self.world.run_until(t);
    }

    /// Frames the `BlastApp`s (delayed or not) were configured to send but
    /// have not.
    pub fn blast_unsent(&self) -> u64 {
        let mut unsent = 0;
        for &h in &self.hosts {
            let host = self.world.node::<HostNode>(h);
            for i in 0..host.num_apps() {
                if let App::Blast(b) = host.app(i).unwrapped() {
                    unsent += b.count - b.sent;
                }
            }
        }
        unsent
    }
}

/// Number of counters `BridgeStats::as_pairs` returns.
pub const BRIDGE_PAIRS: usize = 21;

/// Simulated statistics of one or more worlds at one instant. Sums, except
/// `peak_queue` and `learn_occupancy`, which are the largest value seen.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// `World::frames_sent`.
    pub frames_sent: u64,
    /// `World::frames_delivered`.
    pub frames_delivered: u64,
    /// Frames serialized on any segment.
    pub wire_frames: u64,
    /// Per-port deliveries over all segments.
    pub deliveries: u64,
    /// Frames dropped at full segment transmit queues.
    pub seg_queue_drops: u64,
    /// Deepest segment transmit queue.
    pub peak_queue: u64,
    /// `host.tx_drops` + `host.rx_drops` + `repeater.drops`.
    pub host_drops: u64,
    /// Experimental-EtherType frames hosts accepted.
    pub exp_rx: u64,
    /// Every bridge's `BridgeStats::as_pairs`, summed by position.
    pub bridge: [u64; BRIDGE_PAIRS],
    /// Largest `learn_occupancy` gauge over the bridges.
    pub learn_occupancy: u64,
    /// FNV-1a over all of the above per world, segment and bridge, plus
    /// every world counter by name.
    pub digest: Fnv,
}

impl Counts {
    /// Fold `net`'s statistics in.
    pub fn add(&mut self, net: &Net) {
        let world = &net.world;
        let stats = world.stats();
        self.frames_sent += stats.frames_sent;
        self.frames_delivered += stats.frames_delivered;
        self.digest.u64(stats.frames_sent);
        self.digest.u64(stats.frames_delivered);
        for seg in &stats.segments {
            let c = &seg.counters;
            self.wire_frames += c.tx_frames;
            self.deliveries += c.deliveries;
            self.seg_queue_drops += c.queue_drops;
            self.peak_queue = self.peak_queue.max(c.peak_queue);
            for v in [
                c.tx_frames,
                c.tx_bytes,
                c.deliveries,
                c.contended,
                c.peak_queue,
                c.queue_drops,
            ] {
                self.digest.u64(v);
            }
        }
        for &b in &net.bridges {
            let pairs = world.node::<BridgeNode>(b).plane().stats.as_pairs();
            for (slot, (name, value)) in self.bridge.iter_mut().zip(pairs) {
                *slot += value;
                self.digest.u64(value);
                if name == "learn_occupancy" {
                    self.learn_occupancy = self.learn_occupancy.max(value);
                }
            }
        }
        for &h in &net.hosts {
            let exp = world.node::<HostNode>(h).core.exp_frames_rx;
            self.exp_rx += exp;
            self.digest.u64(exp);
        }
        for (key, value) in world.counters().iter() {
            self.digest.bytes(key.as_bytes());
            self.digest.u64(value);
            if matches!(key, "host.tx_drops" | "host.rx_drops" | "repeater.drops") {
                self.host_drops += value;
            }
        }
    }

    /// The statistics of one world.
    pub fn of(net: &Net) -> Counts {
        let mut c = Counts::default();
        c.add(net);
        c
    }

    /// A bridge counter by its `as_pairs` name.
    pub fn bridge(&self, name: &str) -> u64 {
        let probe = active_bridge::BridgeStats::default().as_pairs();
        let i = probe
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("BridgeStats::as_pairs has no {name}"));
        self.bridge[i]
    }

    /// What happened between `earlier` and `self` (gauges keep `self`'s
    /// value, the digest stays `self`'s).
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut d = self.clone();
        d.frames_sent -= earlier.frames_sent;
        d.frames_delivered -= earlier.frames_delivered;
        d.wire_frames -= earlier.wire_frames;
        d.deliveries -= earlier.deliveries;
        d.seg_queue_drops -= earlier.seg_queue_drops;
        d.host_drops -= earlier.host_drops;
        d.exp_rx -= earlier.exp_rx;
        for (slot, e) in d.bridge.iter_mut().zip(earlier.bridge) {
            // `learn_occupancy` is a gauge and may fall; the sum of gauges
            // is not reported (see `learn_occupancy` above).
            *slot = slot.saturating_sub(e);
        }
        d
    }

    /// Frames the bridges took in and gave no verdict on: with storm
    /// control armed (the only case a workload reads this) those are the
    /// policed drops, because `BridgeStats` has no counter of its own for
    /// them.
    pub fn unaccounted_bridge_frames(&self) -> u64 {
        let verdicts: u64 = [
            "flooded",
            "directed",
            "filtered",
            "blocked",
            "registered",
            "no_plane",
        ]
        .iter()
        .map(|n| self.bridge(n))
        .sum();
        self.bridge("frames_in") - self.bridge("queue_drops") - verdicts
    }
}
