//! Parametric topology generation.
//!
//! A topology is **data first**: [`generate`] turns `(shape, seed)` into a
//! pure [`Topology`] description (segment specs plus bridge wiring) with no
//! simulator objects in sight, so shapes can be property-tested — and two
//! calls with the same inputs are structurally identical. [`instantiate`]
//! then materializes a description into a [`World`].
//!
//! All shapes are connected by construction. Shapes whose wiring contains
//! physical loops ([`Topology::cyclic`]) must run a spanning tree to be
//! usable; [`Topology::default_boot`] picks the right switchlet set.

use std::fmt::Write;
use std::sync::Arc;

use crate::prims;
use active_bridge::{BridgeConfig, StpTimers};
use netsim::{NodeId, SegId, SegmentConfig, SimDuration, World, Xoshiro};

/// The supported parametric shapes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TopologyShape {
    /// `bridges` bridges in a row over `bridges + 1` segments.
    Line {
        /// Bridge count (≥ 1).
        bridges: usize,
    },
    /// `bridges` bridges around `bridges` segments (contains a loop).
    Ring {
        /// Bridge count (≥ 2).
        bridges: usize,
    },
    /// A hub segment with `arms` leaf segments, one bridge per arm.
    Star {
        /// Leaf count (≥ 1).
        arms: usize,
    },
    /// A balanced tree of segments: every non-leaf segment has `fanout`
    /// children, each reached through its own bridge.
    Tree {
        /// Levels below the root (≥ 1).
        depth: usize,
        /// Children per segment (≥ 1).
        fanout: usize,
    },
    /// Every pair of `segments` segments joined by a bridge (loops for
    /// `segments ≥ 3`).
    FullMesh {
        /// Segment count (≥ 2).
        segments: usize,
    },
    /// A random spanning tree over `segments` segments plus `extra_links`
    /// additional random bridges (loops whenever `extra_links > 0`).
    Random {
        /// Segment count (≥ 2).
        segments: usize,
        /// Redundant links beyond the spanning tree.
        extra_links: usize,
    },
    /// The metro tier: a backbone of `spines` gigabit spine segments
    /// joined in a line by spine bridges, with `districts` districts
    /// hanging off it round-robin. Each district is a seeded-random tree
    /// of `leaves` access segments rooted at its uplink bridge — the
    /// spine/leaf shape that carries the ≥1000-host workloads of the
    /// `metro` battery. Acyclic by construction (redundant metro cores
    /// are what [`TopologyShape::Random`] with `extra_links` models).
    Metro {
        /// Backbone segment count (≥ 1).
        spines: usize,
        /// District count (≥ 1).
        districts: usize,
        /// Access segments per district (≥ 1).
        leaves: usize,
    },
}

impl TopologyShape {
    /// Short label for names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyShape::Line { .. } => "line",
            TopologyShape::Ring { .. } => "ring",
            TopologyShape::Star { .. } => "star",
            TopologyShape::Tree { .. } => "tree",
            TopologyShape::FullMesh { .. } => "full_mesh",
            TopologyShape::Random { .. } => "random",
            TopologyShape::Metro { .. } => "metro",
        }
    }

    /// The small metro preset (2 spines × 4 districts × 2 leaves —
    /// 10 segments, 9 bridges): big enough to have a real backbone,
    /// small enough for test sweeps.
    pub fn metro_small() -> TopologyShape {
        TopologyShape::Metro {
            spines: 2,
            districts: 4,
            leaves: 2,
        }
    }

    /// The large metro preset (4 spines × 16 districts × 4 leaves — 68
    /// segments, 67 bridges, 64 access segments): with the `metro`
    /// battery's 16 hosts per access segment this is the ≥1024-host
    /// scale tier the bench gates on.
    pub fn metro_large() -> TopologyShape {
        TopologyShape::Metro {
            spines: 4,
            districts: 16,
            leaves: 4,
        }
    }
}

/// What role a segment plays in its topology (drives media parameters
/// and workload placement).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SegTier {
    /// An edge LAN: hosts live here. The default everywhere except the
    /// metro backbone.
    #[default]
    Access,
    /// A metro backbone segment: gigabit, host-free — only bridges
    /// attach.
    Backbone,
}

/// One segment to be created, with its per-edge medium parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentSpec {
    /// Segment name (`lan0..`, `spine0..` on the metro backbone), shared
    /// with the segment built from it.
    pub name: Arc<str>,
    /// Link bandwidth in bits/second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// The segment's role.
    pub tier: SegTier,
}

/// One bridge to be created and the segments (by index) it attaches to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BridgeSpec {
    /// Bridge index (drives its MAC/IP via the address helpers).
    pub index: u32,
    /// Indices into [`Topology::segments`], in port order.
    pub segments: Vec<usize>,
}

/// A generated topology: pure data, ready to instantiate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// The shape it was generated from.
    pub shape: TopologyShape,
    /// The generation seed.
    pub seed: u64,
    /// Segments to create, in id order.
    pub segments: Vec<SegmentSpec>,
    /// Bridges to create, in id order.
    pub bridges: Vec<BridgeSpec>,
    /// What the wiring alone decides, worked out once by [`generate`]:
    /// workload generation asks for these once per battery item.
    derived: Derived,
}

/// Functions of a topology's wiring and tiers.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Derived {
    connected: bool,
    access: Vec<usize>,
    far_pair: (usize, usize),
}

impl Derived {
    fn of(segments: &[SegmentSpec], bridges: &[BridgeSpec]) -> Derived {
        // Segment-to-segment adjacency (each bridge joins all its segment
        // pairs).
        let mut adj = vec![Vec::new(); segments.len()];
        for b in bridges {
            for (i, &a) in b.segments.iter().enumerate() {
                for &c in &b.segments[i + 1..] {
                    adj[a].push(c);
                    adj[c].push(a);
                }
            }
        }
        // BFS hop distances from `from` (usize::MAX = unreachable).
        let distances = |from: usize| {
            let mut dist = vec![usize::MAX; segments.len()];
            let mut queue = std::collections::VecDeque::from([from]);
            dist[from] = 0;
            while let Some(s) = queue.pop_front() {
                for &n in &adj[s] {
                    if dist[n] == usize::MAX {
                        dist[n] = dist[s] + 1;
                        queue.push_back(n);
                    }
                }
            }
            dist
        };
        let argmax = |d: &[usize]| {
            d.iter()
                .enumerate()
                .filter(|(_, &x)| x != usize::MAX)
                .max_by_key(|(_, &x)| x)
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        // The far pair by two BFS passes; the first also says whether
        // every segment is reachable.
        let from_first = distances(0);
        let u = argmax(&from_first);
        let v = argmax(&distances(u));
        Derived {
            connected: from_first.iter().all(|&d| d != usize::MAX),
            access: segments
                .iter()
                .enumerate()
                .filter(|(_, s)| s.tier == SegTier::Access)
                .map(|(i, _)| i)
                .collect(),
            far_pair: if u == v {
                (0, segments.len() - 1)
            } else {
                (u, v)
            },
        }
    }
}

/// Hard cap on generated sizes — scenario sweeps want many small worlds,
/// not one enormous one.
pub const MAX_SEGMENTS: usize = 96;

/// Generate the topology for `(shape, seed)`.
///
/// Pure and deterministic: the same inputs produce a structurally
/// identical [`Topology`]. The seed only shapes parametric choices the
/// shape leaves open (per-segment bandwidth mix, random wiring).
pub fn generate(shape: TopologyShape, seed: u64) -> Topology {
    // A private stream per concern: wiring draws must not shift when the
    // bandwidth mix changes and vice versa.
    let mut wiring_rng = Xoshiro::seed_from_u64(seed ^ 0x7090_5CE7_A810_0001);
    let mut media_rng = Xoshiro::seed_from_u64(seed ^ 0x7090_5CE7_A810_0002);

    let mut bridges: Vec<BridgeSpec> = Vec::new();
    let mut n_segments;
    // The first `n_backbone` segments get the Backbone tier (only the
    // metro shape has any).
    let mut n_backbone = 0usize;
    let link = |bridges: &mut Vec<BridgeSpec>, a: usize, b: usize| {
        let index = bridges.len() as u32;
        bridges.push(BridgeSpec {
            index,
            segments: vec![a, b],
        });
    };
    match shape {
        TopologyShape::Line { bridges: n } => {
            assert!(n >= 1, "a line needs at least one bridge");
            n_segments = n + 1;
            for i in 0..n {
                link(&mut bridges, i, i + 1);
            }
        }
        TopologyShape::Ring { bridges: n } => {
            assert!(n >= 2, "a ring needs at least two bridges");
            n_segments = n;
            for i in 0..n {
                link(&mut bridges, i, (i + 1) % n);
            }
        }
        TopologyShape::Star { arms } => {
            assert!(arms >= 1, "a star needs at least one arm");
            n_segments = arms + 1;
            for i in 0..arms {
                link(&mut bridges, 0, i + 1);
            }
        }
        TopologyShape::Tree { depth, fanout } => {
            assert!(depth >= 1 && fanout >= 1, "tree needs depth and fanout ≥ 1");
            n_segments = 1;
            let mut frontier = vec![0usize];
            for _ in 0..depth {
                let mut next = Vec::new();
                for &parent in &frontier {
                    for _ in 0..fanout {
                        let child = n_segments;
                        n_segments += 1;
                        link(&mut bridges, parent, child);
                        next.push(child);
                    }
                }
                frontier = next;
            }
        }
        TopologyShape::FullMesh { segments } => {
            assert!(segments >= 2, "a mesh needs at least two segments");
            n_segments = segments;
            for i in 0..segments {
                for j in (i + 1)..segments {
                    link(&mut bridges, i, j);
                }
            }
        }
        TopologyShape::Random {
            segments,
            extra_links,
        } => {
            assert!(segments >= 2, "a random graph needs at least two segments");
            n_segments = segments;
            // Random spanning tree: each new segment hangs off an earlier
            // one, so connectivity holds by construction.
            for i in 1..segments {
                let parent = wiring_rng.range(i as u64) as usize;
                link(&mut bridges, parent, i);
            }
            for _ in 0..extra_links {
                let a = wiring_rng.range(segments as u64) as usize;
                let mut b = wiring_rng.range(segments as u64) as usize;
                if a == b {
                    b = (b + 1) % segments;
                }
                link(&mut bridges, a.min(b), a.max(b));
            }
        }
        TopologyShape::Metro {
            spines,
            districts,
            leaves,
        } => {
            assert!(
                spines >= 1 && districts >= 1 && leaves >= 1,
                "a metro needs spines, districts and leaves ≥ 1"
            );
            // Backbone segments come first (they get the Backbone tier
            // below), joined in a line by spine bridges.
            n_segments = spines + districts * leaves;
            n_backbone = spines;
            for i in 0..spines.saturating_sub(1) {
                link(&mut bridges, i, i + 1);
            }
            for d in 0..districts {
                // District root hangs off its spine via the uplink
                // bridge; the rest of the district is a seeded-random
                // tree, like the Random shape but confined to the
                // district's own segments.
                let root = spines + d * leaves;
                link(&mut bridges, d % spines, root);
                for l in 1..leaves {
                    let parent = root + wiring_rng.range(l as u64) as usize;
                    link(&mut bridges, parent, root + l);
                }
            }
        }
    }
    assert!(
        n_segments <= MAX_SEGMENTS,
        "shape {shape:?} generates {n_segments} segments (cap {MAX_SEGMENTS})"
    );

    // Per-edge media mix. Access segments: mostly 100 Mb/s with an
    // occasional legacy 10 Mb/s segment, and propagation jitter in the
    // hundreds of metres. Backbone segments: uniform gigabit (a metro
    // core has no legacy media), same jitter draw.
    let mut name_buf = String::new();
    let mut name = |prefix: &str, i: usize| -> Arc<str> {
        name_buf.clear();
        let _ = write!(name_buf, "{prefix}{i}");
        Arc::from(name_buf.as_str())
    };
    let segments: Vec<SegmentSpec> = (0..n_segments)
        .map(|i| {
            if i < n_backbone {
                return SegmentSpec {
                    name: name("spine", i),
                    bandwidth_bps: 1_000_000_000,
                    propagation: SimDuration::from_ns(500 + media_rng.range(1_500)),
                    tier: SegTier::Backbone,
                };
            }
            let bandwidth_bps = if media_rng.one_in(5) {
                10_000_000
            } else {
                100_000_000
            };
            let propagation = SimDuration::from_ns(500 + media_rng.range(1_500));
            SegmentSpec {
                name: name("lan", i),
                bandwidth_bps,
                propagation,
                tier: SegTier::Access,
            }
        })
        .collect();

    let derived = Derived::of(&segments, &bridges);
    Topology {
        shape,
        seed,
        segments,
        bridges,
        derived,
    }
}

impl Topology {
    /// Does the wiring contain a physical loop? Every bridge here is an
    /// edge between two segments, so a connected graph has a cycle
    /// exactly when it has at least as many edges as vertices.
    pub fn cyclic(&self) -> bool {
        self.bridges.len() >= self.segments.len()
    }

    /// How long the control plane gets after the last heal of a chaos
    /// script: `max_age + 2 × forward_delay + 5 s` under `stp` on cyclic
    /// shapes — a restarted bridge's neighbours age out what it published,
    /// and its ports pass Listening and Learning, before they forward —
    /// and 5 s on learning-only shapes, which just re-flood. Under
    /// [`StpTimers::default`] the cyclic margin is 55 s.
    pub fn recovery_margin(&self, stp: &StpTimers) -> SimDuration {
        let settle = SimDuration::from_secs(5);
        if self.cyclic() {
            stp.max_age + stp.forward_delay * 2 + settle
        } else {
            settle
        }
    }

    /// When traffic may start on bridges that run the spanning tree:
    /// `2 × forward_delay + 10 s` under `stp` — every port has passed
    /// Listening and Learning, with 10 s for the root election before
    /// that. Under [`StpTimers::default`] it is 40 s.
    pub fn stp_epoch(stp: &StpTimers) -> SimDuration {
        stp.forward_delay * 2 + SimDuration::from_secs(10)
    }

    /// The quiet tail the storm invariant measures after the workload:
    /// `2 × hello` under `stp`, so every designated port sends hellos in
    /// it. It stays under `max_age` (802.1D requires `max_age ≥ 2 ×
    /// (hello + 1 s)`): a root that keeps sending hellos refreshes every
    /// stored BPDU before it ages out, so nothing ages out inside the
    /// window, no topology change starts there, and only hellos are
    /// expected. Under [`StpTimers::default`] it is 4 s.
    pub fn quiet_window(stp: &StpTimers) -> SimDuration {
        stp.hello * 2
    }

    /// The hellos one designated port may send in `window`: `window /
    /// hello + 1` under `stp`, one per hello interval plus one for a
    /// window that opens just before a hello. Under
    /// [`StpTimers::default`] a 4 s window allows 3.
    pub fn hellos_per_port(stp: &StpTimers, window: SimDuration) -> u64 {
        window.as_ns() / stp.hello.as_ns() + 1
    }

    /// The switchlets a bridge of this topology should boot: learning
    /// everywhere, plus the 802.1D spanning tree when loops exist.
    pub fn default_boot(&self) -> &'static [&'static str] {
        if self.cyclic() {
            &["bridge_learning", "stp_ieee"]
        } else {
            &["bridge_learning"]
        }
    }

    /// Is every segment reachable from every other?
    pub fn is_connected(&self) -> bool {
        self.derived.connected
    }

    /// How many bridges attach to segment `seg`.
    pub(crate) fn bridges_on(&self, seg: usize) -> usize {
        self.bridges
            .iter()
            .filter(|b| b.segments.contains(&seg))
            .count()
    }

    /// Indices of the segments hosts may be placed on (everything except
    /// the metro backbone; on non-metro shapes, every segment).
    pub fn access_segments(&self) -> Vec<usize> {
        self.derived.access.clone()
    }

    /// [`Topology::access_segments`], borrowed.
    pub(crate) fn access(&self) -> &[usize] {
        &self.derived.access
    }

    /// A pair of far-apart segments (two BFS passes): where end-to-end
    /// workloads place their endpoints to cross as many bridges as
    /// possible.
    pub fn far_pair(&self) -> (usize, usize) {
        self.derived.far_pair
    }
}

/// A topology materialized into a world.
#[derive(Clone, Debug)]
pub struct BuiltTopology {
    /// Segment ids, in spec order.
    pub segs: Vec<SegId>,
    /// Bridge node ids, in spec order.
    pub bridges: Vec<NodeId>,
}

/// Materialize `topo` into `world`, booting every bridge with `boot`
/// (on top of the network loader).
pub fn instantiate(
    world: &mut World,
    topo: &Topology,
    cfg: &BridgeConfig,
    boot: &[&str],
) -> BuiltTopology {
    let segs: Vec<SegId> = topo
        .segments
        .iter()
        .map(|spec| {
            world.add_segment(SegmentConfig {
                bandwidth_bps: spec.bandwidth_bps,
                propagation: spec.propagation,
                ..SegmentConfig::named(Arc::clone(&spec.name))
            })
        })
        .collect();
    let bridges = topo
        .bridges
        .iter()
        .map(|spec| {
            let ports: Vec<SegId> = spec.segments.iter().map(|&i| segs[i]).collect();
            prims::bridge(world, spec.index, &ports, cfg.clone(), boot)
        })
        .collect();
    BuiltTopology { segs, bridges }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_margin_follows_the_timers_on_cyclic_shapes() {
        let line = generate(TopologyShape::Line { bridges: 3 }, 1);
        let ring = generate(TopologyShape::Ring { bridges: 4 }, 1);
        let ieee = StpTimers::default();
        assert_eq!(
            ring.recovery_margin(&ieee),
            SimDuration::from_secs(20 + 2 * 15 + 5)
        );
        assert_eq!(line.recovery_margin(&ieee), SimDuration::from_secs(5));
        let halved = StpTimers {
            hello: SimDuration::from_secs(1),
            max_age: SimDuration::from_secs(10),
            forward_delay: SimDuration::from_ms(7_500),
        };
        assert_eq!(ring.recovery_margin(&halved), SimDuration::from_secs(30));
        assert_eq!(line.recovery_margin(&halved), SimDuration::from_secs(5));
    }

    #[test]
    fn the_quiet_window_follows_the_timers() {
        let ieee = StpTimers::default();
        let halved = StpTimers {
            hello: SimDuration::from_secs(1),
            max_age: SimDuration::from_secs(10),
            forward_delay: SimDuration::from_ms(7_500),
        };
        let doubled = StpTimers {
            hello: SimDuration::from_secs(4),
            max_age: SimDuration::from_secs(40),
            forward_delay: SimDuration::from_secs(30),
        };
        for (stp, window) in [(ieee, 4), (halved, 2), (doubled, 8)] {
            let quiet = Topology::quiet_window(&stp);
            assert_eq!(quiet, SimDuration::from_secs(window));
            assert!(quiet < stp.max_age, "no stored BPDU ages out in the window");
            assert_eq!(Topology::hellos_per_port(&stp, quiet), 3);
        }
    }

    #[test]
    fn stp_epoch_and_hello_budget_follow_the_timers() {
        let window = SimDuration::from_secs(4);
        let ieee = StpTimers::default();
        assert_eq!(Topology::stp_epoch(&ieee), SimDuration::from_secs(40));
        assert_eq!(Topology::hellos_per_port(&ieee, window), 3);
        let halved = StpTimers {
            hello: SimDuration::from_secs(1),
            max_age: SimDuration::from_secs(10),
            forward_delay: SimDuration::from_ms(7_500),
        };
        assert_eq!(Topology::stp_epoch(&halved), SimDuration::from_secs(25));
        assert_eq!(Topology::hellos_per_port(&halved, window), 5);
    }

    #[test]
    fn shape_counts() {
        let t = generate(TopologyShape::Line { bridges: 3 }, 1);
        assert_eq!((t.segments.len(), t.bridges.len()), (4, 3));
        assert!(!t.cyclic());

        let t = generate(TopologyShape::Ring { bridges: 4 }, 1);
        assert_eq!((t.segments.len(), t.bridges.len()), (4, 4));
        assert!(t.cyclic());

        let t = generate(TopologyShape::Star { arms: 5 }, 1);
        assert_eq!((t.segments.len(), t.bridges.len()), (6, 5));
        assert!(!t.cyclic());

        let t = generate(
            TopologyShape::Tree {
                depth: 2,
                fanout: 2,
            },
            1,
        );
        assert_eq!((t.segments.len(), t.bridges.len()), (7, 6));
        assert!(!t.cyclic());

        let t = generate(TopologyShape::FullMesh { segments: 4 }, 1);
        assert_eq!((t.segments.len(), t.bridges.len()), (4, 6));
        assert!(t.cyclic());
    }

    #[test]
    fn random_is_connected_and_loops_iff_extra_links() {
        for seed in 0..20 {
            let tree = generate(
                TopologyShape::Random {
                    segments: 6,
                    extra_links: 0,
                },
                seed,
            );
            assert!(tree.is_connected());
            assert!(!tree.cyclic());
            let loopy = generate(
                TopologyShape::Random {
                    segments: 6,
                    extra_links: 2,
                },
                seed,
            );
            assert!(loopy.is_connected());
            assert!(loopy.cyclic());
        }
    }

    #[test]
    fn metro_counts_tiers_and_connectivity() {
        for seed in 0..8 {
            let t = generate(TopologyShape::metro_large(), seed);
            // 4 spines + 16 districts × 4 leaves; one bridge per
            // non-root segment keeps it a tree.
            assert_eq!((t.segments.len(), t.bridges.len()), (68, 67));
            assert!(t.is_connected());
            assert!(!t.cyclic(), "the metro tier is acyclic by construction");
            assert_eq!(t.access_segments().len(), 64);
            assert!(t
                .segments
                .iter()
                .take(4)
                .all(|s| s.tier == SegTier::Backbone && s.bandwidth_bps == 1_000_000_000));
            assert!(t.segments[4..].iter().all(|s| s.tier == SegTier::Access));
        }
        let t = generate(TopologyShape::metro_small(), 3);
        assert_eq!((t.segments.len(), t.bridges.len()), (10, 9));
        assert_eq!(t.access_segments().len(), 8);
        assert!(t.is_connected() && !t.cyclic());
    }

    #[test]
    fn metro_district_wiring_consumes_the_seed() {
        let shape = TopologyShape::metro_large();
        assert_eq!(generate(shape, 5), generate(shape, 5));
        assert_ne!(
            generate(shape, 5).bridges,
            generate(shape, 6).bridges,
            "district trees must be seeded-random"
        );
    }

    #[test]
    fn non_metro_shapes_are_all_access_tier() {
        let t = generate(TopologyShape::Star { arms: 3 }, 1);
        assert!(t.segments.iter().all(|s| s.tier == SegTier::Access));
        assert_eq!(t.access_segments().len(), t.segments.len());
    }

    #[test]
    fn far_pair_spans_the_line() {
        let t = generate(TopologyShape::Line { bridges: 4 }, 9);
        let (a, b) = t.far_pair();
        assert_eq!((a.min(b), a.max(b)), (0, 4));
    }

    #[test]
    fn same_seed_same_structure() {
        let shape = TopologyShape::Random {
            segments: 8,
            extra_links: 3,
        };
        assert_eq!(generate(shape, 42), generate(shape, 42));
        assert_ne!(
            generate(shape, 42).bridges,
            generate(shape, 43).bridges,
            "wiring must actually consume the seed"
        );
    }
}
