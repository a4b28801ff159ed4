//! The scenario runner: execute one `(topology, workload, seed)` triple
//! and emit a structured, machine-readable report with invariant
//! verdicts.
//!
//! The runner owns the whole lifecycle: generate the topology and the
//! battery, materialize both into a [`World`] with the fault script on
//! its event queue, run it to the end in one `run_until`, read what the
//! bridges and hosts recorded on the way, then measure a quiet tail
//! window and judge the invariants:
//!
//! * **no storm** — once the workload is done, the wires fall silent
//!   apart from a bounded spanning-tree hello budget;
//! * **no loss after convergence** — every expected delivery arrived
//!   (waived for raw blasts while a drop fault is scripted);
//! * **no duplicate delivery** — no receiver saw more than was sent
//!   (waived while a duplicate fault is scripted);
//! * **single root** — on loopy topologies every bridge agrees who the
//!   spanning-tree root is.
//!
//! Reports are written as JSON ([`Report::to_json`]) and are
//! byte-identical across runs with the same seed.

use active_bridge::{
    BridgeConfig, BridgeId, BridgeNode, BridgeStats, StormConfig, StpTimers, StpVariant,
};
use hostsim::{
    App, ArpStormApp, BlastApp, HostConfig, HostCostModel, HostNode, MacFloodApp, PingApp,
    RogueBpduApp, TtcpRecvApp, TtcpSendApp, UploadApp,
};
use netsim::{NodeId, PortId, SimDuration, SimTime, World, WorldStats};
use netstack::tcplite::{ReceiverConfig, SenderConfig};

use crate::json::{JsonText, Writer};
use crate::prims::bridge_mac;
use crate::quality::{self, QualityScore};
use crate::sketch::{Sketch, SketchJson};
use crate::topo::{self, Topology, TopologyShape};
use crate::workload::{
    self, AppAction, AttackKind, BatteryKind, Phase, UploadImage, WorkItem, Workload,
};

/// The IEEE spanning-tree switchlet name (what [`Topology::default_boot`]
/// boots on loopy topologies).
const STP_NAME: &str = "stp_ieee";

/// Learning-table hard capacity in the defended arm of adversarial
/// scenarios — comfortably above any honest workload population there,
/// far below what a MAC flood tries to install.
pub const DEFENSE_LEARN_CAP: usize = 64;
/// Per-port occupancy quota in the defended arm: one hostile port can
/// claim at most this many entries before evicting its own.
pub const DEFENSE_PORT_QUOTA: usize = 16;
/// Storm-control budget applied to both the broadcast and the
/// unknown-unicast class in the defended arm. The trip threshold counts
/// *consecutive* over-budget drops, so a port suppresses only when the
/// offered rate stays a multiple of the refill rate — the 1 250–2 000
/// pps attacks trip within ~100 ms while honest ARP/discovery traffic
/// never strikes twice in a row.
pub const DEFENSE_STORM: StormConfig = StormConfig {
    rate_pps: 50,
    burst: 80,
    trip: 20,
    hold_down: SimDuration::from_ms(1_200),
};

/// Everything that defines one run. A scenario is a value: running it
/// twice produces byte-identical reports.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Report name (defaults to `<shape>-<battery>-s<seed>`).
    pub name: String,
    /// Topology shape to generate.
    pub shape: TopologyShape,
    /// Workload battery to generate.
    pub battery: BatteryKind,
    /// The seed for topology, workload and world RNG alike.
    pub seed: u64,
    /// Arm the defense plane (bounded learning, storm control, BPDU
    /// guard) on every bridge. Only meaningful for workloads that field
    /// attacks; `false` everywhere else so every pre-existing scenario
    /// replays byte-for-byte.
    pub defended: bool,
}

impl Scenario {
    /// The undefended scenario of `shape` × `battery` at `seed`.
    pub fn new(shape: TopologyShape, battery: BatteryKind, seed: u64) -> Scenario {
        Scenario {
            name: format!("{}-{}-s{}", shape.label(), battery.label(), seed),
            shape,
            battery,
            seed,
            defended: false,
        }
    }
}

/// The verdict on one invariant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Held.
    Pass,
    /// Violated.
    Fail,
    /// Not evaluated because the scenario scripts faults that legitimately
    /// break it.
    Waived,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Waived => "waived",
        }
    }
}

/// One judged invariant.
#[derive(Clone, Debug)]
pub struct InvariantResult {
    /// Invariant name.
    pub name: &'static str,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable evidence.
    pub detail: String,
}

/// Experience metrics for one application flow: a deterministic sample
/// sketch plus a delivery ratio, with an explicit validity flag. A flow
/// that measured nothing (a ping with zero replies) is **invalid** and
/// renders `null` statistics — never a perfect-looking zero.
#[derive(Clone, Debug)]
pub struct AppMetrics {
    /// What the sketch samples are: `rtt` (ping round trips), `jitter`
    /// (ttcp inter-arrival gaps), `timeline` (upload progress gaps) or
    /// `delivery` (no sketch — counts only).
    pub kind: &'static str,
    /// Did the flow produce a usable measurement?
    pub valid: bool,
    /// Delivered fraction in per-mille (1000 = everything arrived).
    /// `None` when nothing was expected.
    pub delivery_pm: Option<u64>,
    /// The sample sketch (nanosecond samples), when the flow records one.
    pub sketch: Option<Sketch>,
}

impl AppMetrics {
    /// A counts-only metric (blasts, crowds): validity and delivery,
    /// no sketch.
    pub fn delivery(valid: bool, delivery_pm: Option<u64>) -> AppMetrics {
        AppMetrics {
            kind: "delivery",
            valid,
            delivery_pm,
            sketch: None,
        }
    }

    /// The flow's p90 sample in nanoseconds, when valid and sketched.
    pub fn p90_ns(&self) -> Option<u64> {
        if !self.valid {
            return None;
        }
        self.sketch.as_ref().and_then(|s| s.percentile(90))
    }

    /// Write as JSON: summary statistics derived from the buckets, the
    /// validity flag, and the sketch itself.
    pub fn write_json(&self, w: &mut Writer) {
        let s = self.sketch.as_ref().filter(|_| self.valid);
        w.obj(|w| {
            w.key("kind").str(self.kind);
            w.key("valid").bool(self.valid);
            w.key("avg_ns").opt_u64(s.and_then(|s| s.avg()));
            w.key("p50_ns").opt_u64(s.and_then(|s| s.percentile(50)));
            w.key("p90_ns").opt_u64(s.and_then(|s| s.percentile(90)));
            w.key("p99_ns").opt_u64(s.and_then(|s| s.percentile(99)));
            w.key("delivery_pm").opt_u64(self.delivery_pm);
            if let Some(sk) = &self.sketch {
                sk.write_json(w.key("sketch"));
            }
        });
    }
}

/// Per-application outcome, in workload order.
#[derive(Clone, Debug)]
pub struct AppReport {
    /// Action label (`ping`, `ttcp`, `blast`, `upload`).
    pub label: &'static str,
    /// Which measurement phase scheduled this flow.
    pub phase: Phase,
    /// Sender's segment index.
    pub from_seg: usize,
    /// Receiver's segment index (the bridge's first segment for uploads).
    pub to_seg: usize,
    /// Did it do what the battery expected?
    pub ok: bool,
    /// `(key, value)` detail counters, stable order.
    pub detail: Vec<(&'static str, u64)>,
    /// Experience metrics (sketch, percentiles, delivery, validity).
    pub metrics: AppMetrics,
}

/// Per-bridge outcome.
#[derive(Clone, Debug)]
pub struct BridgeReport {
    /// Node name.
    pub name: String,
    /// The spanning-tree root this bridge believes in, if it runs STP.
    pub root: Option<String>,
    /// Ports currently not forwarding.
    pub blocked_ports: u64,
    /// Forwarding-plane counters.
    pub counters: Vec<(&'static str, u64)>,
}

/// Recovery telemetry for runs whose workload scripts downtime
/// (chaos-free runs carry none, keeping their reports byte-identical).
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// When the script's last healing step fired.
    pub last_heal: SimTime,
    /// Frames dropped by downed segments across the run.
    pub down_drops: u64,
    /// Bridge crashes the script performed.
    pub crashes: u64,
    /// Delay from the last heal to the first frame a post-heal probe's
    /// host received at its own unicast MAC (`None` if none arrived
    /// before the run ended).
    pub time_to_first_delivery: Option<SimDuration>,
}

/// Hostile-media telemetry for runs whose workload scripts bursty loss
/// (burst-free runs carry none, keeping their reports byte-identical).
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Retransmissions performed across all uploads.
    pub retries: u64,
    /// Fresh-WRQ session restarts after classified server failures.
    pub restarts: u64,
    /// Backoff doublings clamped at the configured RTO ceiling.
    pub rto_ceiling_hits: u64,
    /// Sealed images the integrity gate refused across all bridges.
    pub integrity_rejects: u64,
    /// Frames the burst model dropped while a segment was in its bad
    /// state.
    pub burst_drops: u64,
    /// The longest gap between consecutive upload forward-progress
    /// events — the worst stall the adaptive transport bridged (`None`
    /// if no upload ever progressed twice).
    pub max_stall: Option<SimDuration>,
}

/// Defense-plane telemetry for runs whose workload fields hostile hosts
/// (attack-free runs carry none, keeping their reports byte-identical).
#[derive(Clone, Debug)]
pub struct SecurityReport {
    /// Was the defense plane armed for this run?
    pub defended: bool,
    /// The largest learning-table occupancy any bridge reached (its
    /// table's high-water mark) — the CAM-exhaustion evidence (bounded in
    /// the defended arm, four figures in the control arm).
    pub max_learn_occupancy: u64,
    /// Bounded-learning victims evicted across all bridges.
    pub learn_evictions: u64,
    /// Learn attempts refused at the table/port bound across all bridges.
    pub learn_rejects: u64,
    /// Storm-control port suppressions across all bridges.
    pub storm_suppressions: u64,
    /// Hold-down expiries that re-enabled a suppressed port.
    pub storm_releases: u64,
    /// Ports err-disabled by BPDU guard.
    pub bpdu_guard_trips: u64,
    /// Did any bridge ever publish a spanning-tree root that is not a
    /// real bridge of this topology (the rogue-root claim landing)?
    pub rogue_root_seen: bool,
}

/// The full structured result of one scenario run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario that produced this.
    pub scenario: Scenario,
    /// Was the topology loopy (and therefore STP-booted)?
    pub cyclic: bool,
    /// Segment count.
    pub n_segments: usize,
    /// Bridge count.
    pub n_bridges: usize,
    /// When the workload epoch was placed.
    pub epoch: SimTime,
    /// When the run ended (before the quiet window).
    pub end: SimTime,
    /// Last change to any bridge's `forward` flags or published root.
    pub converged_at: Option<SimTime>,
    /// World frame accounting at the end of the run.
    pub world: WorldStats,
    /// Frames serialized during the quiet tail window.
    pub quiet_tx: u64,
    /// The hello budget the quiet window was allowed.
    pub quiet_allowed: u64,
    /// Per-bridge outcomes.
    pub bridges: Vec<BridgeReport>,
    /// Per-application outcomes.
    pub apps: Vec<AppReport>,
    /// VM instructions retired across all bridges.
    pub vm_fuel: u64,
    /// Recovery telemetry (`Some` only when the workload scripts
    /// downtime).
    pub recovery: Option<RecoveryReport>,
    /// Hostile-media telemetry (`Some` only when the workload scripts
    /// bursty loss).
    pub resilience: Option<ResilienceReport>,
    /// Defense-plane telemetry (`Some` only when the workload fields
    /// hostile hosts).
    pub security: Option<SecurityReport>,
    /// The judged invariants.
    pub invariants: Vec<InvariantResult>,
}

impl Report {
    /// Did every invariant hold (waived ones excluded)?
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|i| i.verdict != Verdict::Fail)
    }

    /// Counts of `(passed, failed, waived)` invariants.
    pub fn verdict_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for i in &self.invariants {
            match i.verdict {
                Verdict::Pass => counts.0 += 1,
                Verdict::Fail => counts.1 += 1,
                Verdict::Waived => counts.2 += 1,
            }
        }
        counts
    }

    /// The report as a JSON document. Deterministic: members are written
    /// in a fixed order and every number is an integer.
    pub fn to_json(&self) -> JsonText {
        JsonText::write(|w| self.write_json(w))
    }

    /// Write the report as a JSON object (see [`Report::to_json`]).
    pub fn write_json(&self, w: &mut Writer) {
        self.write_scored(w, &quality::score_report(self));
    }

    /// [`Report::write_json`] with the report's quality score already
    /// computed (a sweep scores each run once, for its summary too).
    pub(crate) fn write_scored(&self, w: &mut Writer, quality: &QualityScore) {
        w.obj(|w| {
            w.key("scenario").obj(|w| {
                w.key("name").str(&self.scenario.name);
                w.key("shape").str(self.scenario.shape.label());
                w.key("battery").str(self.scenario.battery.label());
                w.key("seed").u64(self.scenario.seed);
                // Present only on defended runs: every pre-existing report
                // renders the exact same bytes as before the defense plane.
                if self.scenario.defended {
                    w.key("defended").bool(true);
                }
                w.key("cyclic").bool(self.cyclic);
                w.key("segments").u64(self.n_segments as u64);
                w.key("bridges").u64(self.n_bridges as u64);
                w.key("epoch_ns").u64(self.epoch.as_ns());
                w.key("end_ns").u64(self.end.as_ns());
            });
            w.key("convergence").obj(|w| {
                w.key("converged_at_ns")
                    .opt_u64(self.converged_at.map(|t| t.as_ns()));
                w.key("stp").bool(self.cyclic);
            });
            w.key("world").obj(|w| {
                w.key("frames_sent").u64(self.world.frames_sent);
                w.key("frames_delivered").u64(self.world.frames_delivered);
                w.key("segments").arr(|w| {
                    for s in &self.world.segments {
                        let c = &s.counters;
                        w.obj(|w| {
                            w.key("name").str(&s.name);
                            w.key("tx_frames").u64(c.tx_frames);
                            w.key("tx_bytes").u64(c.tx_bytes);
                            w.key("deliveries").u64(c.deliveries);
                            w.key("contended").u64(c.contended);
                            w.key("peak_queue").u64(c.peak_queue);
                            w.key("queue_drops").u64(c.queue_drops);
                            w.key("fault_drops").u64(c.fault_drops);
                            w.key("corrupted").u64(c.corrupted);
                            w.key("fault_duplicates").u64(c.fault_duplicates);
                            w.key("down_drops").u64(c.down_drops);
                            // Present only where the burst model actually
                            // fired: burst-free reports render the exact
                            // same bytes as before the Gilbert–Elliott
                            // model existed.
                            if c.burst_drops > 0 {
                                w.key("burst_drops").u64(c.burst_drops);
                            }
                        });
                    }
                });
            });
            w.key("bridges").arr(|w| {
                for b in &self.bridges {
                    w.obj(|w| {
                        w.key("name").str(&b.name);
                        match &b.root {
                            Some(root) => w.key("root").str(root),
                            None => w.key("root").null(),
                        };
                        w.key("blocked_ports").u64(b.blocked_ports);
                        w.key("counters").obj(|w| {
                            for &(k, v) in &b.counters {
                                w.key(k).u64(v);
                            }
                        });
                    });
                }
            });
            w.key("apps").arr(|w| {
                for a in &self.apps {
                    w.obj(|w| {
                        w.key("label").str(a.label);
                        w.key("phase").str(a.phase.label());
                        w.key("from_seg").u64(a.from_seg as u64);
                        w.key("to_seg").u64(a.to_seg as u64);
                        w.key("ok").bool(a.ok);
                        for &(k, v) in &a.detail {
                            w.key(k).u64(v);
                        }
                        a.metrics.write_json(w.key("metrics"));
                    });
                }
            });
            w.key("quiet_window").obj(|w| {
                w.key("tx_frames").u64(self.quiet_tx);
                w.key("allowed").u64(self.quiet_allowed);
            });
            w.key("vm_fuel").u64(self.vm_fuel);
            // Present only on chaos runs: chaos-free reports render the
            // exact same bytes as before the recovery section existed.
            if let Some(r) = &self.recovery {
                w.key("recovery").obj(|w| {
                    w.key("last_heal_ns").u64(r.last_heal.as_ns());
                    w.key("down_drops").u64(r.down_drops);
                    w.key("crashes").u64(r.crashes);
                    w.key("time_to_first_delivery_ns")
                        .opt_u64(r.time_to_first_delivery.map(|d| d.as_ns()));
                });
            }
            // Present only on bursty-loss runs, mirroring `recovery`.
            if let Some(r) = &self.resilience {
                w.key("resilience").obj(|w| {
                    w.key("retries").u64(r.retries);
                    w.key("restarts").u64(r.restarts);
                    w.key("rto_ceiling_hits").u64(r.rto_ceiling_hits);
                    w.key("integrity_rejects").u64(r.integrity_rejects);
                    w.key("burst_drops").u64(r.burst_drops);
                    w.key("max_stall_ns")
                        .opt_u64(r.max_stall.map(|d| d.as_ns()));
                });
            }
            // Present only on adversarial runs, mirroring `resilience`.
            if let Some(s) = &self.security {
                w.key("security").obj(|w| {
                    w.key("defended").bool(s.defended);
                    w.key("max_learn_occupancy").u64(s.max_learn_occupancy);
                    w.key("learn_evictions").u64(s.learn_evictions);
                    w.key("learn_rejects").u64(s.learn_rejects);
                    w.key("storm_suppressions").u64(s.storm_suppressions);
                    w.key("storm_releases").u64(s.storm_releases);
                    w.key("bpdu_guard_trips").u64(s.bpdu_guard_trips);
                    w.key("rogue_root_seen").bool(s.rogue_root_seen);
                });
            }
            w.key("invariants").arr(|w| {
                for i in &self.invariants {
                    w.obj(|w| {
                        w.key("name").str(i.name);
                        w.key("verdict").str(i.verdict.label());
                        w.key("detail").str(&i.detail);
                    });
                }
            });
            quality.write_json(w.key("quality"));
            let (passed, failed, waived) = self.verdict_counts();
            w.key("summary").obj(|w| {
                // `pass` is computed from judged invariants only; waived
                // ones neither pass nor fail it.
                w.key("pass").bool(self.passed());
                w.key("passed").u64(passed);
                w.key("failed").u64(failed);
                w.key("waived").u64(waived);
                // A run whose invariants were *all* waived has no score:
                // null, because 100 would make it look perfect.
                w.key("score_percent")
                    .opt_u64((passed * 100).checked_div(passed + failed));
            });
        });
    }
}

/// One materialized workload item: where its hosts went.
struct Placed {
    action: AppAction,
    phase: Phase,
    sender: NodeId,
    receiver: Option<NodeId>,
    /// The crowd's hosts (empty for every other action).
    crowd: Vec<NodeId>,
}

/// Execute `scenario` and produce its [`Report`].
pub fn run(scenario: &Scenario) -> Report {
    let mut world = World::new(scenario.seed);
    run_in(&mut world, scenario)
}

/// Execute `scenario` inside a caller-supplied [`World`], resetting it
/// first. Behaviorally identical to [`run`] — `World::reset` rewinds
/// every observable — but a worker that runs many scenarios through one
/// world amortizes the event-queue, frame-pool and table allocations
/// across the whole batch (this is what the parallel sweep's workers
/// do).
pub fn run_in(world: &mut World, scenario: &Scenario) -> Report {
    world.reset(scenario.seed);
    world.trace_mut().set_enabled(false);
    run_prepared(world, scenario)
}

/// Execute `scenario` with the world trace left **on** and return the
/// report plus an FNV-1a digest of the full observable record (trace
/// entries, experiment counters, frame totals). Two runs of the same
/// scenario — on any thread, in any pool — must agree on both values;
/// the determinism suite compares digests across worker counts.
pub fn run_traced(scenario: &Scenario) -> (Report, u64) {
    let mut world = World::new(scenario.seed);
    let report = run_prepared(&mut world, scenario);
    let digest = trace_digest(&world);
    (report, digest)
}

/// Execute `scenario` with the flight recorder armed and return the
/// report, the trace digest, and the finished [`World`] (for timeline
/// export — the probe ring, hot-function profiles and segment state are
/// still in it).
///
/// The recorder is records-only: it never schedules, never draws from
/// the RNG, and the returned digest is bit-identical to an unarmed
/// [`run_traced`] of the same scenario (`tests/flight_recorder.rs`
/// pins this).
pub fn run_recorded(scenario: &Scenario, probe: netsim::ProbeConfig) -> (Report, u64, World) {
    let mut world = World::new(scenario.seed);
    world.probe_mut().arm(probe);
    let report = run_prepared(&mut world, scenario);
    let digest = trace_digest(&world);
    (report, digest, world)
}

/// FNV-1a over a world's observable record: every retained trace entry,
/// every experiment counter, and the run-wide frame totals.
pub fn trace_digest(world: &World) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for e in world.trace().entries() {
        eat(format!("{:?}\t{:?}\t{}\n", e.at, e.node, e.msg).as_bytes());
    }
    for (key, value) in world.counters().iter() {
        eat(format!("{key}\t{value}\n").as_bytes());
    }
    eat(format!("{}\t{}\n", world.frames_sent(), world.frames_delivered()).as_bytes());
    h
}

/// The last control-plane change on any of `bridges`: the latest sim time
/// at which one of them changed a port's `forward` flag or its published
/// spanning-tree root (`None` if none ever did).
pub fn converged_at(world: &World, bridges: &[NodeId]) -> Option<SimTime> {
    bridges
        .iter()
        .filter_map(|&b| world.node::<BridgeNode>(b).plane().control_changed_at())
        .max()
}

/// The shared body of [`run`]/[`run_in`]/[`run_traced`]: build the
/// topology and workload into the (fresh or freshly-reset) world, drive
/// the run, judge the invariants.
fn run_prepared(world: &mut World, scenario: &Scenario) -> Report {
    let topo = topo::generate(scenario.shape, scenario.seed);
    assert!(topo.is_connected(), "generated topologies are connected");
    let wl = workload::generate(scenario.battery, &topo, scenario.seed);

    // Topology-derived pre-sizing: the world's node, port and segment
    // tables are sized for the full population up front, so building a
    // metro-scale world never grows one. A bridge's learning table is
    // not: it grows with the stations the bridge hears, which in a crowd
    // that never sends is a few dozen, not the population.
    let n_hosts = wl.host_count() as usize;
    world.reserve_topology(topo.bridges.len() + n_hosts, topo.segments.len());
    let hostile = wl.injects_attacks();
    let mut cfg = BridgeConfig::default();
    if scenario.defended {
        cfg.learn_cap = DEFENSE_LEARN_CAP;
        cfg.learn_port_quota = DEFENSE_PORT_QUOTA;
        cfg.storm_broadcast = Some(DEFENSE_STORM);
        cfg.storm_unknown = Some(DEFENSE_STORM);
    }
    // Adversarial batteries always boot the spanning tree (BPDU guard and
    // rogue-root detection need it), even on acyclic shapes.
    let boot: &[&str] = if hostile {
        &["bridge_learning", STP_NAME]
    } else {
        topo.default_boot()
    };
    let built = topo::instantiate(world, &topo, &cfg, boot);

    // A defended bridge err-disables host-facing edge ports (segments
    // that touch exactly one bridge) on any received BPDU: no end system
    // has a legitimate reason to speak spanning tree.
    if scenario.defended {
        for (bi, spec) in topo.bridges.iter().enumerate() {
            let guard: Vec<usize> = spec
                .segments
                .iter()
                .enumerate()
                .filter(|(_, seg)| {
                    topo.bridges
                        .iter()
                        .filter(|b| b.segments.contains(seg))
                        .count()
                        == 1
                })
                .map(|(port, _)| port)
                .collect();
            if !guard.is_empty() {
                world
                    .node_mut::<BridgeNode>(built.bridges[bi])
                    .set_bpdu_guard(guard);
            }
        }
    }

    // Armed flight recorder ⇒ also collect per-function VM hot counters
    // on every bridge (the trace subcommand's hot-function table).
    // Profiling is passive: results, fuel accounting and `ExecStats`
    // are untouched.
    if world.probe().is_armed() {
        for &b in &built.bridges {
            world.node_mut::<BridgeNode>(b).enable_vm_profile();
        }
    }

    // Loopy topologies need the spanning tree fully forwarding before
    // traffic starts; hostile batteries boot STP everywhere, so they wait
    // for it everywhere.
    let epoch = if topo.cyclic() || hostile {
        SimTime::ZERO + Topology::stp_epoch(&cfg.stp)
    } else {
        SimTime::from_ms(200)
    };
    let epoch_d = SimDuration::from_ns(epoch.as_ns());

    let placed = materialize(world, &built, &topo, &wl, epoch_d);

    // The fault script goes onto the world event queue up-front: segment
    // fault windows, link downs and crashes each land at their own
    // instant, ordered against traffic by `(time, seq)` alone, so a run
    // replays byte-for-byte at any worker count. A transparent script
    // schedules nothing.
    wl.chaos.schedule(world, epoch, &built.segs, &built.bridges);
    let heal_offset = wl.chaos.last_heal_at();
    let heal_at = heal_offset.map(|d| epoch + d);

    let end = epoch + wl.span() + SimDuration::from_secs(2);
    world.run_until(end);

    // What the components recorded as it happened, read before the quiet
    // window: each bridge's last control-plane change, learn-table
    // high-water mark and lowest published root; each host's first
    // unicast reception.
    let planes = || {
        built
            .bridges
            .iter()
            .map(|&b| world.node::<BridgeNode>(b).plane())
    };
    let converged_at = converged_at(world, &built.bridges);
    let max_learn_occupancy = planes().map(|p| p.learn.high_water() as u64).max();
    let real = |root: BridgeId| topo.bridges.iter().any(|b| bridge_mac(b.index) == root.mac);
    let rogue_root_seen = planes()
        .filter_map(|p| p.lowest_root(StpVariant::Ieee))
        .any(|root| !real(root));
    let first_probe_delivery = heal_offset.and_then(|heal| {
        wl.items
            .iter()
            .zip(&placed)
            .filter(|(item, _)| is_post_heal_probe(item, heal))
            .flat_map(|(_, p)| std::iter::once(p.sender).chain(p.receiver))
            .filter_map(|h| world.node::<HostNode>(h).core.first_unicast_rx)
            .min()
    });

    // Quiet tail: nothing should be talking except spanning-tree hellos.
    let quiet_window = Topology::quiet_window(&cfg.stp);
    let before = world.stats();
    world.run_until(end + quiet_window);
    let after = world.stats();
    let quiet_tx = after.total_tx_frames() - before.total_tx_frames();
    let total_ports: u64 = topo.bridges.iter().map(|b| b.segments.len() as u64).sum();
    let quiet_allowed = if topo.cyclic() || hostile {
        // The hellos every port may send in the window, plus slack for
        // ages/boundary effects.
        Topology::hellos_per_port(&cfg.stp, quiet_window) * total_ports + 8
    } else {
        8
    };

    let (apps, upload_count) = judge_apps(world, &placed, &topo);
    let bridges = bridge_reports(world, &built, hostile);
    let vm_fuel = built
        .bridges
        .iter()
        .map(|&b| world.node::<BridgeNode>(b).plane().stats.vm_instructions)
        .sum();
    let recovery = heal_at.map(|heal| RecoveryReport {
        last_heal: heal,
        down_drops: after.segments.iter().map(|s| s.counters.down_drops).sum(),
        crashes: wl.chaos.crash_count(),
        time_to_first_delivery: first_probe_delivery.map(|t| t.saturating_since(heal)),
    });
    let resilience = wl
        .injects_bursts()
        .then(|| resilience_report(world, &placed, &after, &bridges));
    let security = hostile.then(|| {
        let mut s = SecurityReport {
            defended: scenario.defended,
            max_learn_occupancy: max_learn_occupancy.unwrap_or(0),
            learn_evictions: 0,
            learn_rejects: 0,
            storm_suppressions: 0,
            storm_releases: world.counters().get("bridge.storm_releases"),
            bpdu_guard_trips: 0,
            rogue_root_seen,
        };
        for &b in &built.bridges {
            let stats = &world.node::<BridgeNode>(b).plane().stats;
            s.learn_evictions += stats.learn_evictions;
            s.learn_rejects += stats.learn_rejects;
            s.storm_suppressions += stats.storm_suppressions;
            s.bpdu_guard_trips += stats.bpdu_guard_trips;
        }
        s
    });
    let invariants = judge_invariants(&Evidence {
        world,
        topo: &topo,
        wl: &wl,
        apps: &apps,
        uploads: upload_count,
        converged_at,
        epoch,
        quiet_tx,
        quiet_allowed,
        bridges: &bridges,
        defended: scenario.defended,
        resilience: resilience.as_ref(),
        security: security.as_ref(),
    });

    Report {
        scenario: scenario.clone(),
        cyclic: topo.cyclic(),
        n_segments: topo.segments.len(),
        n_bridges: topo.bridges.len(),
        epoch,
        end,
        converged_at,
        world: after,
        quiet_tx,
        quiet_allowed,
        bridges,
        apps,
        vm_fuel,
        recovery,
        resilience,
        security,
        invariants,
    }
}

/// Aggregate the hostile-media telemetry: every upload's transport
/// counters, the bridges' integrity-gate rejects, and the burst model's
/// drop total.
fn resilience_report(
    world: &World,
    placed: &[Placed],
    after: &WorldStats,
    bridges: &[BridgeReport],
) -> ResilienceReport {
    let mut retries = 0u64;
    let mut restarts = 0u64;
    let mut rto_ceiling_hits = 0u64;
    let mut max_stall_ns = 0u64;
    for p in placed {
        if !matches!(p.action, AppAction::Upload { .. }) {
            continue;
        }
        if let App::Upload(a) = world.node::<HostNode>(p.sender).app(0).unwrapped() {
            retries += a.retries as u64;
            restarts += a.restarts as u64;
            rto_ceiling_hits += a.rto_ceiling_hits as u64;
            max_stall_ns = max_stall_ns.max(a.progress_gap_ns().and_then(Sketch::max).unwrap_or(0));
        }
    }
    ResilienceReport {
        retries,
        restarts,
        rto_ceiling_hits,
        integrity_rejects: bridges
            .iter()
            .flat_map(|b| &b.counters)
            .filter(|&&(k, _)| k == "images_rejected")
            .map(|&(_, v)| v)
            .sum(),
        burst_drops: after.segments.iter().map(|s| s.counters.burst_drops).sum(),
        max_stall: (max_stall_ns > 0).then(|| SimDuration::from_ns(max_stall_ns)),
    }
}

/// Add the workload's hosts to the world, apps wrapped in start delays so
/// the whole schedule is declared before the world runs.
fn materialize(
    world: &mut World,
    built: &topo::BuiltTopology,
    topo: &Topology,
    wl: &Workload,
    epoch: SimDuration,
) -> Vec<Placed> {
    use crate::prims::{bridge_ip, host_ip, host_mac};
    let mut next_host: u32 = 1;
    let mut host = |world: &mut World, seg: usize, apps: Vec<App>| -> (NodeId, u32) {
        let n = next_host;
        next_host += 1;
        let id = world.add_node(HostNode::new(
            format!("host{n}"),
            // Workload endpoints resolve at most a handful of peers.
            HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE).with_arp_hint(4),
            apps,
        ));
        world.attach(id, built.segs[seg]);
        (id, n)
    };
    wl.items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            // Every action but a crowd is one sender host running one
            // delayed app; receivers are placed first (the sender's app
            // is addressed by the receiver's host number).
            let (from_seg, receiver, app) = match &item.action {
                AppAction::Ping {
                    from_seg,
                    to_seg,
                    count,
                    payload,
                    interval,
                } => {
                    let (rx, rx_n) = host(world, *to_seg, vec![]);
                    let app = PingApp::new(
                        PortId(0),
                        host_ip(rx_n),
                        *count,
                        *payload,
                        *interval,
                        0x5000 + i as u16,
                    );
                    (*from_seg, Some(rx), app)
                }
                AppAction::Ttcp {
                    from_seg,
                    to_seg,
                    total_bytes,
                    write_size,
                } => {
                    let port = 5001 + i as u16;
                    let (rx, rx_n) = host(
                        world,
                        *to_seg,
                        vec![TtcpRecvApp::new(port, ReceiverConfig::default())],
                    );
                    let app = TtcpSendApp::new(
                        PortId(0),
                        host_ip(rx_n),
                        port,
                        port,
                        *total_bytes,
                        *write_size,
                        SenderConfig::default(),
                    );
                    (*from_seg, Some(rx), app)
                }
                AppAction::Blast {
                    from_seg,
                    to_seg,
                    size,
                    count,
                    interval,
                } => {
                    let (rx, rx_n) = host(world, *to_seg, vec![]);
                    let app = BlastApp::new(PortId(0), host_mac(rx_n), *size, *count, *interval);
                    (*from_seg, Some(rx), app)
                }
                AppAction::Upload {
                    from_seg,
                    bridge,
                    image,
                } => {
                    let app = UploadApp::with_budget(
                        PortId(0),
                        bridge_ip(topo.bridges[*bridge].index),
                        3000 + i as u16,
                        image.file_name(i),
                        image.build(i),
                        image.budget(),
                    );
                    (*from_seg, None, app)
                }
                AppAction::Attack {
                    from_seg,
                    kind,
                    count,
                    interval,
                    seed,
                } => (*from_seg, None, kind.app(*count, *interval, *seed)),
                AppAction::Crowd { seg, hosts } => {
                    assert!(*hosts > 0, "a crowd needs at least one host");
                    let crowd: Vec<NodeId> =
                        (0..*hosts).map(|_| host(world, *seg, vec![]).0).collect();
                    return Placed {
                        action: item.action.clone(),
                        phase: item.phase,
                        sender: crowd[0],
                        receiver: None,
                        crowd,
                    };
                }
            };
            let start = epoch + item.offset;
            let (sender, _) = host(world, from_seg, vec![App::delayed(start, app)]);
            Placed {
                action: item.action.clone(),
                phase: item.phase,
                sender,
                receiver,
                crowd: Vec::new(),
            }
        })
        .collect()
}

/// Is `item` one of the probes a heal at `heal` (offset from the epoch)
/// is judged by: a reliable main-phase flow scheduled at or after it? Raw
/// blasts are excluded — the watchdog probe intentionally sacrifices a
/// few frames to the trap threshold.
fn is_post_heal_probe(item: &WorkItem, heal: SimDuration) -> bool {
    item.phase == Phase::Main
        && item.offset >= heal
        && !matches!(item.action, AppAction::Blast { .. })
}

/// Inspect every placed app and compute its outcome. Returns the reports
/// plus how many uploads the battery scheduled.
fn judge_apps(world: &World, placed: &[Placed], topo: &Topology) -> (Vec<AppReport>, u64) {
    let mut uploads = 0;
    let reports = placed
        .iter()
        .map(|p| {
            // Crowds run no application; judge them on reception alone.
            if let AppAction::Crowd { seg, hosts } = &p.action {
                let mut heard = 0u64;
                let mut frames_rx = 0u64;
                for &h in &p.crowd {
                    let rx = world.node::<HostNode>(h).core.frames_rx;
                    heard += u64::from(rx > 0);
                    frames_rx += rx;
                }
                return AppReport {
                    label: "crowd",
                    phase: p.phase,
                    from_seg: *seg,
                    to_seg: *seg,
                    ok: heard == *hosts as u64,
                    detail: vec![
                        ("hosts", *hosts as u64),
                        ("heard", heard),
                        ("frames_rx", frames_rx),
                    ],
                    metrics: AppMetrics::delivery(
                        *hosts > 0,
                        (*hosts > 0).then(|| heard * 1000 / *hosts as u64),
                    ),
                };
            }
            let app = world.node::<HostNode>(p.sender).app(0).unwrapped();
            match (&p.action, app) {
                (
                    AppAction::Ping {
                        from_seg,
                        to_seg,
                        count,
                        ..
                    },
                    App::Ping(a),
                ) => AppReport {
                    label: "ping",
                    phase: p.phase,
                    from_seg: *from_seg,
                    to_seg: *to_seg,
                    ok: a.received == *count,
                    detail: vec![("sent", a.sent as u64), ("received", a.received as u64)],
                    // A ping that got no replies has no RTT measurement:
                    // the sketch is empty and `valid` is false, so every
                    // derived statistic renders null: an `avg_rtt_ns` of 0
                    // would read as a perfect round trip.
                    metrics: AppMetrics {
                        kind: "rtt",
                        valid: a.received > 0,
                        delivery_pm: (a.sent > 0).then(|| a.received as u64 * 1000 / a.sent as u64),
                        sketch: Some(a.rtt_ns().cloned().unwrap_or_default()),
                    },
                },
                (
                    AppAction::Ttcp {
                        from_seg,
                        to_seg,
                        total_bytes,
                        ..
                    },
                    App::TtcpSend(a),
                ) => {
                    let (received, jitter) = p
                        .receiver
                        .map(|r| match world.node::<HostNode>(r).app(0).unwrapped() {
                            App::TtcpRecv(rx) => (
                                rx.bytes_received(),
                                rx.inter_arrival_ns().cloned().unwrap_or_default(),
                            ),
                            _ => (0, Sketch::new()),
                        })
                        .unwrap_or_else(|| (0, Sketch::new()));
                    let elapsed = match (a.started_at, a.done_at) {
                        (Some(s), Some(e)) => e.saturating_since(s),
                        _ => SimDuration::ZERO,
                    };
                    let throughput_bps = if elapsed.is_zero() {
                        0
                    } else {
                        total_bytes * 8 * 1_000_000_000 / elapsed.as_ns()
                    };
                    AppReport {
                        label: "ttcp",
                        phase: p.phase,
                        from_seg: *from_seg,
                        to_seg: *to_seg,
                        ok: a.is_done() && received == *total_bytes,
                        detail: vec![
                            ("bytes", received),
                            ("frames", a.frames_sent),
                            ("elapsed_ns", elapsed.as_ns()),
                            ("throughput_bps", throughput_bps),
                        ],
                        metrics: AppMetrics {
                            kind: "jitter",
                            valid: jitter.count() > 0,
                            delivery_pm: (*total_bytes > 0)
                                .then(|| received.min(*total_bytes) * 1000 / total_bytes),
                            sketch: Some(jitter),
                        },
                    }
                }
                (
                    AppAction::Blast {
                        from_seg,
                        to_seg,
                        count,
                        ..
                    },
                    App::Blast(a),
                ) => {
                    let received = p
                        .receiver
                        .map(|r| world.node::<HostNode>(r).core.exp_frames_rx)
                        .unwrap_or(0);
                    AppReport {
                        label: "blast",
                        phase: p.phase,
                        from_seg: *from_seg,
                        to_seg: *to_seg,
                        ok: a.sent == *count && received == *count,
                        detail: vec![("sent", a.sent), ("received", received)],
                        metrics: AppMetrics::delivery(
                            *count > 0,
                            (*count > 0).then(|| received.min(*count) * 1000 / count),
                        ),
                    }
                }
                (
                    AppAction::Upload {
                        from_seg,
                        bridge,
                        image,
                    },
                    App::Upload(a),
                ) => {
                    uploads += u64::from(image.counts_alive());
                    let ok = image.ok(a);
                    let delivery_pm = Some(if ok { 1000 } else { 0 });
                    AppReport {
                        label: image.label(),
                        phase: p.phase,
                        from_seg: *from_seg,
                        // Like every other label, to_seg is a segment
                        // index; the target bridge goes in the detail.
                        to_seg: topo.bridges[*bridge].segments[0],
                        ok,
                        detail: image.detail(*bridge, a),
                        metrics: if image.must_complete() {
                            AppMetrics {
                                kind: "timeline",
                                valid: ok,
                                delivery_pm,
                                sketch: Some(a.progress_gap_ns().cloned().unwrap_or_default()),
                            }
                        } else {
                            AppMetrics::delivery(true, delivery_pm)
                        },
                    }
                }
                // Attack apps carry no receiver: they are judged only on
                // having fired their full schedule (whether the network
                // absorbed or suppressed them is the invariants' job).
                // Only a `sent` detail key, deliberately no `received`,
                // so `no_duplicate_delivery` skips them.
                (
                    AppAction::Attack {
                        from_seg,
                        kind,
                        count,
                        ..
                    },
                    App::MacFlood(MacFloodApp { sent, .. })
                    | App::ArpStorm(ArpStormApp { sent, .. })
                    | App::RogueBpdu(RogueBpduApp { sent, .. }),
                ) => AppReport {
                    label: kind.label(),
                    phase: p.phase,
                    from_seg: *from_seg,
                    to_seg: *from_seg,
                    ok: sent == count,
                    detail: vec![("sent", *sent)],
                    metrics: AppMetrics::delivery(
                        *count > 0,
                        (*count > 0).then(|| sent.min(count) * 1000 / count),
                    ),
                },
                (action, _) => unreachable!(
                    "placed app for {} does not match its action",
                    action.label()
                ),
            }
        })
        .collect();
    (reports, uploads)
}

/// Per-bridge counters. The security keys only render on hostile runs so
/// every pre-existing report stays byte-identical; the retired keys never
/// render.
fn bridge_reports(
    world: &World,
    built: &topo::BuiltTopology,
    include_security: bool,
) -> Vec<BridgeReport> {
    built
        .bridges
        .iter()
        .map(|&b| {
            let node = world.node::<BridgeNode>(b);
            let plane = node.plane();
            let mut counters = plane.stats.as_pairs().to_vec();
            counters.retain(|(k, _)| !BridgeStats::RETIRED_KEYS.contains(k));
            if !include_security {
                counters.retain(|(k, _)| !BridgeStats::SECURITY_KEYS.contains(k));
            }
            BridgeReport {
                name: world.node_name(b).to_owned(),
                root: plane
                    .published
                    .get(STP_NAME)
                    .map(|s| s.root_mac.to_string()),
                blocked_ports: plane.flags().iter().filter(|f| !f.forward).count() as u64,
                counters,
            }
        })
        .collect()
}

/// What [`judge_invariants`] judges: the facts `run_prepared` holds once
/// the run and its quiet window are over.
struct Evidence<'a> {
    world: &'a World,
    topo: &'a Topology,
    wl: &'a Workload,
    /// One report per `wl.items` entry, in the same order.
    apps: &'a [AppReport],
    /// How many scheduled uploads should have run their `init`.
    uploads: u64,
    converged_at: Option<SimTime>,
    epoch: SimTime,
    quiet_tx: u64,
    quiet_allowed: u64,
    bridges: &'a [BridgeReport],
    defended: bool,
    resilience: Option<&'a ResilienceReport>,
    security: Option<&'a SecurityReport>,
}

fn judge_invariants(evidence: &Evidence<'_>) -> Vec<InvariantResult> {
    let &Evidence {
        world,
        topo,
        wl,
        apps,
        uploads,
        converged_at,
        epoch,
        quiet_tx,
        quiet_allowed,
        bridges,
        defended,
        resilience,
        security,
    } = evidence;
    let judged = || wl.items.iter().zip(apps);
    let hostile = security.is_some();
    // The control arm runs the attacks with every defense off: it exists
    // to prove the attacks bite, so the usual health invariants are
    // waived there and `attack_degrades_undefended` judges it instead.
    let control_arm = hostile && !defended;
    let mut out = Vec::new();

    out.push(InvariantResult {
        name: "connected",
        verdict: if topo.is_connected() {
            Verdict::Pass
        } else {
            Verdict::Fail
        },
        detail: format!(
            "{} segments reachable through {} bridges",
            topo.segments.len(),
            topo.bridges.len()
        ),
    });

    // Convergence: the control plane must settle before the workload
    // epoch and stay settled to the end. Scripted downtime legitimately
    // moves port states mid-run, so it waives this — the
    // `reconverges_after_heal` invariant below takes over. So do hostile
    // batteries: a rogue BPDU (or the guard err-disabling its port)
    // changes the control-plane signature by design after the epoch.
    let downtime = wl.injects_downtime();
    let settled = converged_at.is_none_or(|t| t <= epoch);
    out.push(InvariantResult {
        name: "converged_before_workload",
        verdict: if settled {
            Verdict::Pass
        } else if downtime || hostile {
            Verdict::Waived
        } else {
            Verdict::Fail
        },
        detail: match converged_at {
            Some(t) => format!(
                "last control-plane change at {} ns (epoch {} ns)",
                t.as_ns(),
                epoch.as_ns()
            ),
            None => "control plane never changed".to_owned(),
        },
    });

    out.push(InvariantResult {
        name: "no_storm",
        verdict: if quiet_tx <= quiet_allowed {
            Verdict::Pass
        } else if control_arm {
            // An undefended rogue root ages out (max-age) inside the
            // quiet window and the real tree re-elects itself there.
            Verdict::Waived
        } else {
            Verdict::Fail
        },
        detail: format!("{quiet_tx} frames in the quiet window (allowed {quiet_allowed})"),
    });

    // Loss: blasts are raw and unacknowledged, so a scripted drop fault
    // or scripted downtime waives them — as are loaded-phase probes,
    // which run *inside* the scripted fault window precisely to measure
    // how much is lost (their losses feed the degradation score, not
    // the invariant). Everything else carries its own recovery and
    // stays strict.
    let drops_scripted = wl.injects_drops() || downtime;
    let mut lost = Vec::new();
    let mut waived_loss = 0u64;
    for (item, a) in judged() {
        if !a.ok {
            let blast = matches!(item.action, AppAction::Blast { .. });
            if drops_scripted && (blast || a.phase == Phase::Loaded) {
                waived_loss += 1;
            } else if control_arm {
                // Attacks running without defenses are *expected* to hurt
                // the victims; `attack_degrades_undefended` judges that.
                waived_loss += 1;
            } else {
                lost.push(format!("{} {}→{}", a.label, a.from_seg, a.to_seg));
            }
        }
    }
    out.push(InvariantResult {
        name: "no_loss_after_convergence",
        verdict: if !lost.is_empty() {
            Verdict::Fail
        } else if waived_loss > 0 {
            Verdict::Waived
        } else {
            Verdict::Pass
        },
        detail: if lost.is_empty() {
            format!(
                "{} workload items delivered ({} waived under scripted faults)",
                apps.len() as u64 - waived_loss,
                waived_loss
            )
        } else {
            format!("undelivered: {}", lost.join(", "))
        },
    });

    // Duplicates: a receiver seeing more than was sent means a forwarding
    // loop (or a scripted duplicate fault, which waives it).
    let mut duplicated = Vec::new();
    for a in apps {
        let sent = a.detail.iter().find(|(k, _)| *k == "sent").map(|&(_, v)| v);
        let received = a
            .detail
            .iter()
            .find(|(k, _)| *k == "received")
            .map(|&(_, v)| v);
        if let (Some(sent), Some(received)) = (sent, received) {
            if received > sent {
                duplicated.push(format!(
                    "{} {}→{} ({received} > {sent})",
                    a.label, a.from_seg, a.to_seg
                ));
            }
        }
    }
    out.push(InvariantResult {
        name: "no_duplicate_delivery",
        verdict: if !duplicated.is_empty() {
            // Scripted duplication waives this, as does scripted
            // downtime: a healing ring can loop transiently while the
            // spanning tree re-blocks a port. The undefended attack arm
            // is waived too — a rogue root can transiently re-open a
            // blocked port.
            if wl.injects_duplicates() || downtime || control_arm {
                Verdict::Waived
            } else {
                Verdict::Fail
            }
        } else {
            Verdict::Pass
        },
        detail: if duplicated.is_empty() {
            "no receiver saw more frames than were sent".to_owned()
        } else {
            format!("duplicated: {}", duplicated.join(", "))
        },
    });

    if topo.cyclic() {
        let roots: std::collections::BTreeSet<&str> =
            bridges.iter().filter_map(|b| b.root.as_deref()).collect();
        out.push(InvariantResult {
            name: "single_root",
            verdict: if roots.len() == 1 {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!("elected roots: {roots:?}"),
        });
    }

    if uploads > 0 {
        let alive = world.counters().get(workload::UPLOAD_ALIVE_COUNTER);
        out.push(InvariantResult {
            name: "uploads_alive",
            verdict: if alive == uploads {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!("{alive} of {uploads} uploaded switchlets ran init"),
        });
    }

    // Recovery invariants: judged only on runs that script downtime.
    if downtime {
        let heal_offset = wl.chaos.last_heal_at().unwrap_or(SimDuration::ZERO);
        let heal = epoch + heal_offset;

        // After the last heal the control plane must settle within the
        // topology's recovery margin under the timers the bridges ran.
        let bound = topo.recovery_margin(&StpTimers::default());
        let reconverged = converged_at.is_none_or(|t| t <= heal + bound);
        out.push(InvariantResult {
            name: "reconverges_after_heal",
            verdict: if reconverged {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: match converged_at {
                Some(t) => format!(
                    "last control-plane change at {} ns (heal {} ns, bound {} ns)",
                    t.as_ns(),
                    heal.as_ns(),
                    bound.as_ns()
                ),
                None => "control plane never changed".to_owned(),
            },
        });

        // No permanent blackhole: every post-heal probe must succeed.
        let mut dead = Vec::new();
        let mut probes = 0u64;
        for (item, a) in judged() {
            if is_post_heal_probe(item, heal_offset) {
                probes += 1;
                if !a.ok {
                    dead.push(format!("{} {}→{}", a.label, a.from_seg, a.to_seg));
                }
            }
        }
        out.push(InvariantResult {
            name: "no_permanent_blackhole",
            verdict: if !dead.is_empty() {
                Verdict::Fail
            } else if probes > 0 {
                Verdict::Pass
            } else {
                Verdict::Waived
            },
            detail: if dead.is_empty() {
                format!("{probes} post-heal probes delivered")
            } else {
                format!("dead after heal: {}", dead.join(", "))
            },
        });
    }

    // Resilience invariants: judged only on runs that script bursty
    // loss (the lossy battery). They hold the adaptive transport and
    // the integrity gate to account *under* the hostile medium — never
    // waived there.
    if let Some(resilience) = resilience {
        let detail = |a: &AppReport, key: &str| {
            a.detail
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0, |&(_, v)| v)
        };
        let uploads_of = |want: fn(UploadImage) -> bool| -> Vec<&AppReport> {
            judged()
                .filter(|(item, _)| {
                    matches!(item.action, AppAction::Upload { image, .. } if want(image))
                })
                .map(|(_, a)| a)
                .collect()
        };
        let sealed = uploads_of(|image| matches!(image, UploadImage::Sealed { .. }));
        let corrupt = uploads_of(|image| matches!(image, UploadImage::Corrupt));

        // Every sealed upload must complete despite the burst model
        // chewing on its segment (and, in the lossy battery, a bridge
        // crash mid-transfer).
        let incomplete = sealed.iter().filter(|a| !a.ok).count() as u64;
        out.push(InvariantResult {
            name: "uploads_complete_under_loss",
            verdict: if sealed.is_empty() {
                Verdict::Waived
            } else if incomplete == 0 {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "{} of {} sealed uploads completed under bursty loss",
                sealed.len() as u64 - incomplete,
                sealed.len()
            ),
        });

        // ... and must get there inside its recovery budget: no sealed
        // upload parked, none spent more than `max_retries` actions.
        let mut worst_used = 0u64;
        let mut budget = 0u64;
        let mut blown = 0u64;
        for a in &sealed {
            let used = detail(a, "budget_used");
            worst_used = worst_used.max(used);
            budget = detail(a, "budget");
            if detail(a, "parked") > 0 || used > budget {
                blown += 1;
            }
        }
        out.push(InvariantResult {
            name: "retries_within_budget",
            verdict: if sealed.is_empty() {
                Verdict::Waived
            } else if blown == 0 {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "worst sealed upload spent {worst_used} of {budget} recovery actions ({blown} exhausted)"
            ),
        });

        // The deliberately poisoned image must be refused at the gate —
        // every re-send rejected, the sender parked with a classified
        // integrity failure, and the payload never evaluated (its init
        // would inflate the `uploads_alive` counter, which that
        // invariant cross-checks).
        let rejects = resilience.integrity_rejects;
        let unparked = corrupt.iter().filter(|a| !a.ok).count() as u64;
        let gate_held = unparked == 0 && rejects >= corrupt.len() as u64;
        out.push(InvariantResult {
            name: "corrupted_image_never_activates",
            verdict: if corrupt.is_empty() {
                Verdict::Waived
            } else if gate_held {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "{} corrupt uploads, {rejects} gate rejects, {unparked} escaped classification",
                corrupt.len()
            ),
        });

        // Every upload under the hostile medium must reach a terminal
        // state — completed or parked — before the run ends; a transport
        // that retries forever would leave one in limbo.
        let in_limbo = sealed
            .iter()
            .chain(&corrupt)
            .filter(|a| detail(a, "done") == 0 && detail(a, "parked") == 0)
            .count() as u64;
        let judged = (sealed.len() + corrupt.len()) as u64;
        out.push(InvariantResult {
            name: "no_livelock",
            verdict: if judged == 0 {
                Verdict::Waived
            } else if in_limbo == 0 {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "{} of {judged} uploads reached a terminal state",
                judged - in_limbo
            ),
        });
    }

    // The watchdog must engage exactly as scripted — no more, no fewer.
    if wl.expected_quarantines > 0 {
        let quarantines = world.counters().get("bridge.quarantines");
        out.push(InvariantResult {
            name: "quarantine_engages",
            verdict: if quarantines == wl.expected_quarantines {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "{quarantines} watchdog quarantines (scripted {})",
                wl.expected_quarantines
            ),
        });
    }

    // Adversarial invariants: the defended arm must shrug the attacks
    // off; the control arm must visibly suffer them (otherwise the
    // defended arm proves nothing).
    if let Some(sec) = security {
        let rogue_scheduled = wl.items.iter().any(|i| {
            matches!(
                i.action,
                AppAction::Attack {
                    kind: AttackKind::RogueBpdu,
                    ..
                }
            )
        });

        out.push(InvariantResult {
            name: "learn_table_bounded",
            verdict: if control_arm {
                Verdict::Waived
            } else if sec.max_learn_occupancy <= DEFENSE_LEARN_CAP as u64 {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "max learning-table occupancy {} (cap {})",
                sec.max_learn_occupancy, DEFENSE_LEARN_CAP
            ),
        });

        let starved: Vec<String> = judged()
            .filter(|(item, a)| !matches!(item.action, AppAction::Attack { .. }) && !a.ok)
            .map(|(_, a)| format!("{} {}→{}", a.label, a.from_seg, a.to_seg))
            .collect();
        out.push(InvariantResult {
            name: "victim_flows_survive",
            verdict: if control_arm {
                Verdict::Waived
            } else if starved.is_empty() {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: if starved.is_empty() {
                "every victim flow completed under attack".to_owned()
            } else {
                format!("starved under attack: {}", starved.join(", "))
            },
        });

        out.push(InvariantResult {
            name: "storm_suppressed_and_released",
            verdict: if control_arm {
                Verdict::Waived
            } else if sec.storm_suppressions > 0 && sec.storm_suppressions == sec.storm_releases {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "{} suppressions, {} releases",
                sec.storm_suppressions, sec.storm_releases
            ),
        });

        out.push(InvariantResult {
            name: "root_stays_stable",
            verdict: if control_arm {
                Verdict::Waived
            } else if !sec.rogue_root_seen && (!rogue_scheduled || sec.bpdu_guard_trips > 0) {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "rogue root seen: {}, guard trips: {} (rogue scheduled: {})",
                sec.rogue_root_seen, sec.bpdu_guard_trips, rogue_scheduled
            ),
        });

        // The control arm earns its keep by demonstrating degradation:
        // the flood blows past the (defended-arm) cap, and a scheduled
        // rogue BPDU actually steals the root.
        let degraded = sec.max_learn_occupancy > DEFENSE_LEARN_CAP as u64
            && (!rogue_scheduled || sec.rogue_root_seen);
        out.push(InvariantResult {
            name: "attack_degrades_undefended",
            verdict: if !control_arm {
                Verdict::Waived
            } else if degraded {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            detail: format!(
                "max occupancy {} vs cap {}, rogue root seen: {}",
                sec.max_learn_occupancy, DEFENSE_LEARN_CAP, sec.rogue_root_seen
            ),
        });
    }

    out
}
