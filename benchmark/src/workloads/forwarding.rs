//! The five raw-frame forwarding workloads: one world each, `BlastApp`s on
//! `HostCostModel::FREE` hosts, bridges with `CostModel::FREE`, so host time
//! goes to the simulator and the forwarding path and none to modelled
//! software cost.
//!
//! Every blaster is wrapped in `App::delayed`, so construction and warm-up
//! (boot, spanning-tree convergence where it runs, one broadcast hello per
//! station so every bridge has learned every station) finish before the
//! first measured frame, and the measured window is exactly the configured
//! frame count.

use std::rc::Rc;

use ab_scenario::runner::{DEFENSE_LEARN_CAP, DEFENSE_PORT_QUOTA, DEFENSE_STORM};
use ab_scenario::topo::{self, TopologyShape};
use ab_scenario::{host_ip, host_mac};
use active_bridge::BridgeConfig;
use ether::MacAddr;
use hostsim::{
    App, ArpStormApp, BlastApp, HostConfig, HostCostModel, HostNode, MacFloodApp, RogueBpduApp,
};
use netsim::{CostModel, PortId, SegId, SegmentConfig, SimDuration, SimTime, Xoshiro};

use super::{Outcome, Round, Size, Workload};
use crate::net::{Counts, Net};
use crate::span::Tracer;

/// Smallest Ethernet payload: a 64-byte frame with header and FCS.
const MIN_PAYLOAD: usize = 46;

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut Xoshiro, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.range(i as u64 + 1) as usize);
    }
    p
}

fn free_host(index: u32, name: String, apps: Vec<App>) -> HostNode {
    HostNode::new(
        name,
        HostConfig::simple(host_mac(index), host_ip(index), HostCostModel::FREE),
        apps,
    )
}

fn free_bridge_cfg(expected_stations: usize) -> BridgeConfig {
    BridgeConfig {
        cost: CostModel::FREE,
        expected_stations,
        ..BridgeConfig::default()
    }
}

/// A constructed single-world round: run to `horizon`, then compare the
/// world's statistics with what they were after warm-up.
struct BlastRound {
    net: Net,
    warm: Counts,
    horizon: SimTime,
    /// Blast frames scheduled in the window.
    ops: u64,
    /// Experimental frames the stations should accept in the window.
    expect_rx: u64,
    /// Is storm control armed (so unaccounted bridge frames are policed
    /// drops)?
    policed: bool,
}

/// Parts a blast round's simulated window is cut into.
const BLAST_PARTS: u64 = 8;

impl Round for BlastRound {
    fn run(&mut self, lap: &mut dyn FnMut()) {
        let start = self.net.world.now();
        let part = (self.horizon - start) / BLAST_PARTS;
        for i in 1..BLAST_PARTS {
            self.net.run_until(start + part * i);
            lap();
        }
        self.net.run_until(self.horizon);
    }

    fn outcome(&self) -> Outcome {
        let now = Counts::of(&self.net);
        let counts = now.since(&self.warm);
        let unsent = self.net.blast_unsent();
        let failed =
            unsent + counts.seg_queue_drops + counts.host_drops + counts.bridge("queue_drops");
        let complete = if unsent > 0 {
            Err(format!("{unsent} blast frames unsent at the horizon"))
        } else if counts.exp_rx != self.expect_rx {
            Err(format!(
                "stations accepted {} blast frames, expected {}",
                counts.exp_rx, self.expect_rx
            ))
        } else {
            Ok(())
        };
        Outcome {
            frames: counts.frames_delivered,
            ops: self.ops,
            ops_failed: failed,
            judged: self.ops,
            judged_ok: self.ops - failed.min(self.ops),
            complete,
            sim_digest: now.digest.finish(),
            policed_drops: if self.policed {
                counts.unaccounted_bridge_frames()
            } else {
                0
            },
            counts,
            extra: Vec::new(),
            run_in_ms: Vec::new(),
            notes: Vec::new(),
        }
    }
}

// ------------------------------------------------------------ metro_flood

/// `TopologyShape::metro_large()` with 16 hosts on each of its 64 access
/// segments plus one blaster per district — 1040 hosts — each blaster
/// sending 512 B frames to a unicast address nobody owns, so every frame
/// floods the whole metro.
pub struct MetroFlood {
    seed: u64,
    frames_per_blaster: u64,
}

/// The metro's wiring and media mix are part of the workload, not of the
/// seed: a different tree would be a different amount of work.
const METRO_TOPO_SEED: u64 = 21;
const METRO_CROWD: usize = ab_scenario::workload::CROWD_PER_ACCESS as usize;
/// Long enough for sixteen 512 B floods to cross a legacy 10 Mb/s access
/// segment inside one interval, so queues stay shallow and nothing drops.
const METRO_INTERVAL: SimDuration = SimDuration::from_ms(10);

impl MetroFlood {
    pub fn new(seed: u64, size: Size) -> Self {
        MetroFlood {
            seed,
            frames_per_blaster: size.scale(60),
        }
    }
}

impl Workload for MetroFlood {
    fn prepare(&self, tracer: Option<&Rc<Tracer>>) -> Box<dyn Round> {
        let shape = TopologyShape::metro_large();
        let TopologyShape::Metro {
            spines,
            districts,
            leaves,
        } = shape
        else {
            unreachable!("metro_large is metro-shaped")
        };
        let topo = topo::generate(shape, METRO_TOPO_SEED);
        let access = topo.access_segments();
        let n_hosts = access.len() * METRO_CROWD + districts;
        let mut rng = Xoshiro::seed_from_u64(self.seed ^ 0x6d65_7472_6f00);
        let numbering = permutation(&mut rng, n_hosts);

        let mut net = Net::new(self.seed, tracer);
        net.world
            .reserve_topology(topo.bridges.len() + n_hosts, topo.segments.len());
        let cfg = free_bridge_cfg(n_hosts + topo.bridges.len());
        let segs = net.add_topology(&topo, &cfg, &["bridge_learning"]);

        let mut placed = numbering.iter().map(|&n| n as u32 + 1);
        for &seg in &access {
            for _ in 0..METRO_CROWD {
                let n = placed.next().expect("numbering covers every host");
                net.add_host(free_host(n, format!("m{n}"), vec![]), &[segs[seg]]);
            }
        }
        let start = SimDuration::from_ms(2);
        for d in 0..districts {
            let n = placed.next().expect("numbering covers every host");
            let stagger = SimDuration::from_ns(rng.range(METRO_INTERVAL.as_ns()));
            let blast = BlastApp::new(
                PortId(0),
                host_mac(60_000 + d as u32),
                512,
                self.frames_per_blaster,
                METRO_INTERVAL,
            );
            let root = spines + d * leaves;
            net.add_host(
                free_host(
                    n,
                    format!("blaster{d}"),
                    vec![App::delayed(start + stagger, blast)],
                ),
                &[segs[root]],
            );
        }

        net.run_until(SimTime::from_ms(1));
        let horizon = SimTime::from_ms(2)
            + METRO_INTERVAL * (self.frames_per_blaster + 1)
            + SimDuration::from_ms(100);
        Box::new(BlastRound {
            warm: Counts::of(&net),
            net,
            horizon,
            ops: districts as u64 * self.frames_per_blaster,
            expect_rx: 0,
            policed: false,
        })
    }
}

// ------------------------------------------- chain_hot, chain_wide, defended

/// A line of 16 `bridge_learning` bridges with stations on the two end
/// LANs, each station running 16 staggered blasters of 64 B frames toward
/// stations on the far end.
pub struct Chain {
    seed: u64,
    stations_per_end: usize,
    /// How many distinct far-end stations one station's 16 blasters aim at:
    /// 1 keeps the working set at 32 flows (`chain_hot`), all of them makes
    /// it `2 × stations²` (`chain_wide`).
    peers_per_station: usize,
    frames_per_app: u64,
    interval: SimDuration,
    defended: bool,
}

const CHAIN_BRIDGES: usize = 16;
const CHAIN_APPS: usize = 16;
/// Per-app send interval: 256 apps per end LAN then load every segment to
/// about 43 % of 100 Mb/s with both directions counted.
const CHAIN_INTERVAL: SimDuration = SimDuration::from_ms(8);

/// Host numbers of the first station on the left and on the right end LAN.
/// `DecisionCache::index` keeps the low bits of an Fx hash, which for
/// `MacAddr::local` addresses depend on the source alone and take 32 values;
/// from these two numbers, 16 consecutive sources per end fall in 32
/// distinct slots, so on `chain_hot` no two flows evict each other and the
/// hit path is what is timed, whatever the seed. (From 1 and 17, three pairs
/// collide and the hit ratio wanders between 0.89 and 0.93 with the seed.)
/// `chain_wide` and the `cache_live_slots` kernel show the collisions.
const CHAIN_FIRST_STATION: [u32; 2] = [2, 55];
const CHAIN_ATTACKER: u32 = 200;

/// The defended victims send slowly, so that a round's simulated window
/// (1.6 s) outlasts storm control's 1.2 s hold-down and sees a port
/// suppressed, released and suppressed again.
const DEFENDED_INTERVAL: SimDuration = SimDuration::from_ms(25);

impl Chain {
    /// 32 flows: every station's blasters aim at its one partner.
    pub fn hot(seed: u64, size: Size) -> Self {
        Chain {
            seed,
            stations_per_end: 16,
            peers_per_station: 1,
            frames_per_app: size.scale(20),
            interval: CHAIN_INTERVAL,
            defended: false,
        }
    }

    /// 512 flows: every station's blasters aim at 16 distinct peers.
    pub fn wide(seed: u64, size: Size) -> Self {
        Chain {
            peers_per_station: 16,
            ..Chain::hot(seed, size)
        }
    }

    /// `chain_wide` with 8 stations per end, every PR 10 defense armed,
    /// and three attackers on a stub LAN off the middle bridge.
    pub fn defended(seed: u64, size: Size) -> Self {
        Chain {
            seed,
            stations_per_end: 8,
            peers_per_station: 8,
            frames_per_app: size.scale(64),
            interval: DEFENDED_INTERVAL,
            defended: true,
        }
    }
}

impl Workload for Chain {
    fn prepare(&self, tracer: Option<&Rc<Tracer>>) -> Box<dyn Round> {
        let s = self.stations_per_end;
        let mut rng = Xoshiro::seed_from_u64(self.seed ^ 0x6368_6169_6e00);
        let mut net = Net::new(self.seed, tracer);
        let segs: Vec<SegId> = (0..=CHAIN_BRIDGES)
            .map(|i| {
                net.world
                    .add_segment(SegmentConfig::named(format!("lan{i}")))
            })
            .collect();
        let stub = self
            .defended
            .then(|| net.world.add_segment(SegmentConfig::named("stub")));

        let mut cfg = free_bridge_cfg(2 * s + CHAIN_BRIDGES);
        let mut boot = vec!["bridge_learning"];
        if self.defended {
            cfg.learn_cap = DEFENSE_LEARN_CAP;
            cfg.learn_port_quota = DEFENSE_PORT_QUOTA;
            cfg.storm_broadcast = Some(DEFENSE_STORM);
            cfg.storm_unknown = Some(DEFENSE_STORM);
            boot.push("stp_ieee");
        }
        let middle = CHAIN_BRIDGES / 2;
        for i in 0..CHAIN_BRIDGES {
            let mut ports = vec![segs[i], segs[i + 1]];
            let mut cfg = cfg.clone();
            if self.defended {
                // BPDU guard goes on host-facing ports, as in the runner:
                // the two end LANs and the stub touch exactly one bridge.
                if i == 0 {
                    cfg.bpdu_guard.push(0);
                }
                if i == CHAIN_BRIDGES - 1 {
                    cfg.bpdu_guard.push(1);
                }
                if i == middle {
                    ports.push(stub.expect("defended chains have a stub"));
                    cfg.bpdu_guard.push(2);
                }
            }
            net.add_bridge(i as u32, &ports, cfg, &boot, &[]);
        }

        // Spanning tree needs two forward delays before the chain carries
        // anything; without it the bridges are up at once.
        let warm_start = if self.defended {
            SimDuration::from_secs(40)
        } else {
            SimDuration::from_ms(1)
        };
        let traffic_start = warm_start + SimDuration::from_ms(5);
        let window = self.interval * self.frames_per_app;

        // Stations: consecutive host numbers from `CHAIN_FIRST_STATION[end]`
        // on each end LAN. The seed picks who partners whom, which slot of
        // the interval each blaster fires in, and where in the interval
        // slot 0 falls.
        let partner = permutation(&mut rng, s);
        let mut partner_of_right = vec![0; s];
        for (left, &right) in partner.iter().enumerate() {
            partner_of_right[right] = left;
        }
        let slots = s * CHAIN_APPS;
        let slot_len = self.interval.as_ns() / slots as u64;
        let phase = rng.range(slot_len);
        for (end, seg) in [(0usize, segs[0]), (1, segs[CHAIN_BRIDGES])] {
            let slot_of = permutation(&mut rng, slots);
            for k in 0..s {
                let index = CHAIN_FIRST_STATION[end] + k as u32;
                let first_peer = if end == 0 {
                    partner[k]
                } else {
                    partner_of_right[k]
                };
                let hello =
                    BlastApp::new(PortId(0), MacAddr::BROADCAST, MIN_PAYLOAD, 1, self.interval);
                let hello_at = warm_start + SimDuration::from_us(10 * (end * s + k) as u64);
                let mut apps = vec![App::delayed(hello_at, hello)];
                for j in 0..CHAIN_APPS {
                    let peer = (first_peer + j % self.peers_per_station) % s;
                    let peer_index = CHAIN_FIRST_STATION[1 - end] + peer as u32;
                    let at = traffic_start
                        + SimDuration::from_ns(
                            phase + slot_of[k * CHAIN_APPS + j] as u64 * slot_len,
                        );
                    let blast = BlastApp::new(
                        PortId(0),
                        host_mac(peer_index),
                        MIN_PAYLOAD,
                        self.frames_per_app,
                        self.interval,
                    );
                    apps.push(App::delayed(at, blast));
                }
                net.add_host(free_host(index, format!("s{index}"), apps), &[seg]);
            }
        }

        if let Some(stub) = stub {
            // The adversarial battery's rates: a 2 000 pps MAC flood and a
            // 1 250 pps ARP storm for the whole window, then forged root
            // BPDUs at 10 pps over its last third (the first one trips
            // BPDU guard, which shuts the port: started earlier it would
            // hide the other two attacks from the learning table).
            let flood_every = SimDuration::from_us(500);
            let storm_every = SimDuration::from_us(800);
            let bpdu_every = SimDuration::from_ms(100);
            let index = CHAIN_ATTACKER;
            let apps = vec![
                App::delayed(
                    traffic_start,
                    MacFloodApp::new(
                        PortId(0),
                        window.as_ns() / flood_every.as_ns(),
                        flood_every,
                        rng.next_u64(),
                    ),
                ),
                App::delayed(
                    traffic_start,
                    ArpStormApp::new(
                        PortId(0),
                        window.as_ns() / storm_every.as_ns(),
                        storm_every,
                        rng.next_u64(),
                    ),
                ),
                App::delayed(
                    traffic_start + SimDuration::from_ns(window.as_ns() / 3 * 2),
                    RogueBpduApp::new(
                        PortId(0),
                        (window.as_ns() / 3 / bpdu_every.as_ns()).max(1),
                        bpdu_every,
                    ),
                ),
            ];
            net.add_host(free_host(index, "attacker".into(), apps), &[stub]);
        }

        let warm_until = SimTime::ZERO + warm_start + SimDuration::from_ms(4);
        net.run_until(warm_until);
        let ops = (2 * s * CHAIN_APPS) as u64 * self.frames_per_app;
        Box::new(BlastRound {
            warm: Counts::of(&net),
            net,
            horizon: SimTime::ZERO
                + traffic_start
                + window
                + self.interval
                + SimDuration::from_ms(20),
            ops,
            expect_rx: ops,
            policed: self.defended,
        })
    }
}

// -------------------------------------------------------------- vm_forward

/// One bridge, four LANs of two stations, the data plane the `dumb_vm`
/// bytecode image loaded at boot; every station alternates 64 B and
/// 1500 B-payload frames toward a partner on another LAN.
pub struct VmForward {
    seed: u64,
    frames_per_app: u64,
}

const VM_LANS: usize = 4;
const VM_STATIONS: usize = 2 * VM_LANS;
/// Every LAN carries all eight stations' frames (the dumb bridge floods):
/// one small and one full-size frame per station per interval is about
/// half of 100 Mb/s.
const VM_INTERVAL: SimDuration = SimDuration::from_ms(2);

impl VmForward {
    pub fn new(seed: u64, size: Size) -> Self {
        VmForward {
            seed,
            frames_per_app: size.scale(1_600),
        }
    }
}

impl Workload for VmForward {
    fn prepare(&self, tracer: Option<&Rc<Tracer>>) -> Box<dyn Round> {
        let mut rng = Xoshiro::seed_from_u64(self.seed ^ 0x766d_6677_6400);
        let mut net = Net::new(self.seed, tracer);
        let segs: Vec<SegId> = (0..VM_LANS)
            .map(|i| {
                net.world
                    .add_segment(SegmentConfig::named(format!("lan{i}")))
            })
            .collect();
        net.add_bridge(
            0,
            &segs,
            free_bridge_cfg(VM_STATIONS),
            &[],
            &[active_bridge::switchlets::dumb_vm::build_image()],
        );

        // Station i sits on LAN i / 2 under host number `numbering[i] + 1`;
        // it sends to the station `shift` places on, which is never itself
        // (the dumb bridge floods, so any other station hears the frame).
        let numbering = permutation(&mut rng, VM_STATIONS);
        let shift = 1 + rng.range(VM_STATIONS as u64 - 1) as usize;
        let slot_of = permutation(&mut rng, VM_STATIONS);
        let slot_len = VM_INTERVAL.as_ns() / 2 / VM_STATIONS as u64;
        let traffic_start = SimDuration::from_ms(2);
        for i in 0..VM_STATIONS {
            let index = numbering[i] as u32 + 1;
            let peer = host_mac(numbering[(i + shift) % VM_STATIONS] as u32 + 1);
            let at = traffic_start + SimDuration::from_ns(slot_of[i] as u64 * slot_len);
            let small = BlastApp::new(
                PortId(0),
                peer,
                MIN_PAYLOAD,
                self.frames_per_app,
                VM_INTERVAL,
            );
            let large = BlastApp::new(
                PortId(0),
                peer,
                ether::MAX_PAYLOAD,
                self.frames_per_app,
                VM_INTERVAL,
            );
            let apps = vec![
                App::delayed(at, small),
                App::delayed(at + SimDuration::from_ns(VM_INTERVAL.as_ns() / 2), large),
            ];
            net.add_host(free_host(index, format!("s{index}"), apps), &[segs[i / 2]]);
        }

        net.run_until(SimTime::from_ms(1));
        let ops = (2 * VM_STATIONS) as u64 * self.frames_per_app;
        Box::new(BlastRound {
            warm: Counts::of(&net),
            net,
            horizon: SimTime::ZERO
                + traffic_start
                + VM_INTERVAL * (self.frames_per_app + 1)
                + SimDuration::from_ms(20),
            ops,
            expect_rx: ops,
            policed: false,
        })
    }
}
