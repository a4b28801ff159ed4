//! The scenario runner: execute one `(topology, workload, seed)` triple
//! and emit a structured, machine-readable report with invariant
//! verdicts.
//!
//! The runner owns the whole lifecycle: generate the topology and the
//! battery, materialize both into a [`World`] with the fault script on
//! its event queue, run it to the end in one `run_until`, read what the
//! bridges and hosts recorded on the way, then measure a quiet tail
//! window and judge one invariant table, waived by the run's scripted
//! disturbances (`crates/scenario/DESIGN.md` lists the rows).
//!
//! Reports are written as JSON ([`Report::to_json`]) and are
//! byte-identical across runs with the same seed.

use std::fmt::Write;

use active_bridge::{
    BridgeConfig, BridgeId, BridgeNode, BridgeStats, StormConfig, StpTimers, StpVariant,
};
use hostsim::{
    App, ArpStormApp, BlastApp, HostConfig, HostCostModel, HostNode, MacFloodApp, PingApp,
    RogueBpduApp, TtcpRecvApp, TtcpSendApp, UploadApp, UploadState,
};
use netsim::{NodeId, PortId, SegCounters, SimDuration, SimTime, World, WorldStats};
use netstack::tcplite::{ReceiverConfig, SenderConfig};
use netstack::FailureClass;

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

/// How the poisoned image is meant to end: parked, refused by the
/// bridge's integrity gate.
const PARKED_BY_GATE: UploadState = UploadState::Parked {
    class: FailureClass::IntegrityReject,
};

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

    /// Write as JSON: what the samples are (`kind`, which follows from
    /// the app's `outcome`), summary statistics derived from the buckets,
    /// the validity flag, and the sketch itself.
    pub fn write_json(&self, outcome: &AppOutcome, w: &mut Writer) {
        let kind = match outcome {
            AppOutcome::Ping { .. } => "rtt",
            AppOutcome::Ttcp { .. } => "jitter",
            AppOutcome::Upload(u) if u.image.must_complete() => "timeline",
            _ => "delivery",
        };
        let s = self.sketch.as_ref().filter(|_| self.valid);
        w.obj(|w| {
            w.key("kind").str(kind);
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

/// How one workload item ended: the counters its report renders, one
/// variant per [`AppAction`]. The invariants match on it, and
/// [`AppOutcome::write_json`] renders it as the app's detail keys.
#[derive(Clone, Debug)]
pub enum AppOutcome {
    /// Echo requests sent and replies received.
    Ping { sent: u64, received: u64 },
    /// Bytes the receiver took, segments sent, and the transfer's time
    /// and rate (0 when it never finished).
    Ttcp {
        bytes: u64,
        frames: u64,
        elapsed_ns: u64,
        throughput_bps: u64,
    },
    /// Frames sent and frames the sink received.
    Blast { sent: u64, received: u64 },
    /// Hosts placed, hosts that heard a frame, and frames they heard.
    Crowd {
        hosts: u64,
        heard: u64,
        frames_rx: u64,
    },
    /// A switchlet upload.
    Upload(UploadOutcome),
    /// Frames fired (an attacker has no receiver to count).
    Attack { sent: u64 },
}

/// How an upload ended: its transport's state and recovery counters.
#[derive(Clone, Debug)]
pub struct UploadOutcome {
    /// Target bridge index.
    pub bridge: usize,
    /// What was sent; its [`UploadImage::budget`] was the budget.
    pub image: UploadImage,
    /// Done, parked, or still running when the run ended.
    pub state: UploadState,
    /// Retransmissions performed.
    pub retries: u32,
    /// Fresh-WRQ session restarts.
    pub restarts: u32,
    /// Backoff doublings clamped at the RTO ceiling.
    pub rto_ceiling_hits: u32,
    /// Recovery actions spent against the budget.
    pub budget_used: u32,
}

impl AppOutcome {
    /// Write the detail keys into the app's open JSON object, in a fixed
    /// order per variant (and, for an upload, per image).
    pub fn write_json(&self, w: &mut Writer) {
        match *self {
            AppOutcome::Ping { sent, received } | AppOutcome::Blast { sent, received } => {
                w.key("sent").u64(sent).key("received").u64(received);
            }
            AppOutcome::Ttcp {
                bytes,
                frames,
                elapsed_ns,
                throughput_bps,
            } => {
                w.key("bytes").u64(bytes).key("frames").u64(frames);
                w.key("elapsed_ns").u64(elapsed_ns);
                w.key("throughput_bps").u64(throughput_bps);
            }
            AppOutcome::Crowd {
                hosts,
                heard,
                frames_rx,
            } => {
                w.key("hosts").u64(hosts).key("heard").u64(heard);
                w.key("frames_rx").u64(frames_rx);
            }
            AppOutcome::Upload(ref u) => {
                let done = matches!(u.state, UploadState::Done { .. });
                let parked = matches!(u.state, UploadState::Parked { .. });
                w.key("bridge").u64(u.bridge as u64);
                w.key("done").u64(done.into());
                match u.image {
                    UploadImage::Inert | UploadImage::Trap => {
                        w.key("retries").u64(u.retries.into());
                    }
                    UploadImage::Sealed { .. } => {
                        w.key("parked").u64(parked.into());
                        w.key("retries").u64(u.retries.into());
                        w.key("restarts").u64(u.restarts.into());
                        w.key("rto_ceiling_hits").u64(u.rto_ceiling_hits.into());
                        w.key("budget_used").u64(u.budget_used.into());
                        w.key("budget").u64(u.image.budget().into());
                    }
                    UploadImage::Corrupt => {
                        w.key("parked").u64(parked.into());
                        w.key("classified_integrity")
                            .u64((u.state == PARKED_BY_GATE).into());
                        w.key("retries").u64(u.retries.into());
                        w.key("restarts").u64(u.restarts.into());
                    }
                }
            }
            AppOutcome::Attack { sent } => {
                w.key("sent").u64(sent);
            }
        }
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
    /// How it ended.
    pub outcome: AppOutcome,
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
                        a.outcome.write_json(w);
                        a.metrics.write_json(&a.outcome, w.key("metrics"));
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

/// One materialized workload item (in `wl.items` order): where its
/// hosts went.
struct Placed {
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
/// world amortizes the event-queue and table allocations across the
/// whole batch (this is what the parallel sweep's workers do).
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
    let d = Disturbances::new(&wl, &topo, scenario.defended);

    // Topology-derived pre-sizing: the world's node, port and segment
    // tables are sized for the full population up front, so building a
    // metro-scale world never grows one. A bridge's learning table is
    // not: it grows with the stations the bridge hears, which in a crowd
    // that never sends is a few dozen, not the population.
    let n_hosts = wl.host_count() as usize;
    world.reserve_topology(topo.bridges.len() + n_hosts, topo.segments.len());
    let mut cfg = BridgeConfig::default();
    if scenario.defended {
        cfg.learn_cap = DEFENSE_LEARN_CAP;
        cfg.learn_port_quota = DEFENSE_PORT_QUOTA;
        cfg.storm_broadcast = Some(DEFENSE_STORM);
        cfg.storm_unknown = Some(DEFENSE_STORM);
    }
    let boot: &[&str] = if d.runs_stp() {
        &["bridge_learning", STP_NAME]
    } else {
        &["bridge_learning"]
    };
    let built = topo::instantiate(world, &topo, &cfg, boot);

    // A defended bridge err-disables host-facing edge ports (segments
    // that touch exactly one bridge) on any received BPDU: no end system
    // has a legitimate reason to speak spanning tree.
    if scenario.defended {
        for (&b, spec) in built.bridges.iter().zip(&topo.bridges) {
            let guard: Vec<usize> = (0..spec.segments.len())
                .filter(|&port| topo.bridges_on(spec.segments[port]) == 1)
                .collect();
            if !guard.is_empty() {
                world.node_mut::<BridgeNode>(b).set_bpdu_guard(guard);
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

    // Wherever the spanning tree runs, it must be fully forwarding
    // before traffic starts.
    let epoch = if d.runs_stp() {
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
    let first_probe_delivery = d.heal.and_then(|heal| {
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
    let quiet_allowed = if d.runs_stp() {
        // The hellos every port may send in the window, plus slack for
        // ages/boundary effects.
        Topology::hellos_per_port(&cfg.stp, quiet_window) * total_ports + 8
    } else {
        8
    };

    // The sections fold what the report already holds: the bridges'
    // counters, the segments' and the uploads' outcomes. Only the facts
    // above and the uploads' progress gaps are read from the world.
    let apps = judge_apps(world, &wl, &placed, &topo);
    let bridges = bridge_reports(world, &built, d.any(ATTACKS));
    let bridge_total = |key: &str| -> u64 {
        let counter = |b: &BridgeReport| b.counters.iter().find(|&&(k, _)| k == key).map(|c| c.1);
        bridges.iter().filter_map(counter).sum()
    };
    let segment_total = |count: fn(&SegCounters) -> u64| -> u64 {
        after.segments.iter().map(|s| count(&s.counters)).sum()
    };
    let recovery = d.heal.map(|heal| {
        let last_heal = epoch + heal;
        RecoveryReport {
            last_heal,
            down_drops: segment_total(|c| c.down_drops),
            crashes: wl.chaos.crash_count(),
            time_to_first_delivery: first_probe_delivery.map(|t| t.saturating_since(last_heal)),
        }
    });
    let resilience = d.any(BURSTS).then(|| {
        let each = || uploads(&apps);
        let stalls = (wl.items.iter().zip(&placed)).filter_map(|(item, p)| match item.action {
            AppAction::Upload { .. } => match world.node::<HostNode>(p.sender).app(0) {
                App::Upload(a) => a.progress_gap_ns()?.max(),
                _ => None,
            },
            _ => None,
        });
        let max_stall_ns = stalls.max().unwrap_or(0);
        ResilienceReport {
            retries: each().map(|u| u64::from(u.retries)).sum(),
            restarts: each().map(|u| u64::from(u.restarts)).sum(),
            rto_ceiling_hits: each().map(|u| u64::from(u.rto_ceiling_hits)).sum(),
            integrity_rejects: bridge_total("images_rejected"),
            burst_drops: segment_total(|c| c.burst_drops),
            max_stall: (max_stall_ns > 0).then(|| SimDuration::from_ns(max_stall_ns)),
        }
    });
    let security = d.any(ATTACKS).then(|| SecurityReport {
        defended: scenario.defended,
        max_learn_occupancy: max_learn_occupancy.unwrap_or(0),
        learn_evictions: bridge_total("learn_evictions"),
        learn_rejects: bridge_total("learn_rejects"),
        storm_suppressions: bridge_total("storm_suppressions"),
        storm_releases: world.counters().get("bridge.storm_releases"),
        bpdu_guard_trips: bridge_total("bpdu_guard_trips"),
        rogue_root_seen,
    });
    let mut report = Report {
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
        vm_fuel: bridge_total("vm_instructions"),
        bridges,
        apps,
        recovery,
        resilience,
        security,
        invariants: Vec::new(),
    };
    let run = Run {
        report: &report,
        world,
        topo: &topo,
        wl: &wl,
        d: &d,
    };
    let invariants = INVARIANTS.iter().filter_map(|inv| d.judge(inv, &run));
    report.invariants = invariants.collect();
    report
}

/// Every upload's outcome in `apps`, in workload order.
fn uploads(apps: &[AppReport]) -> impl Iterator<Item = &UploadOutcome> {
    apps.iter().filter_map(|a| match &a.outcome {
        AppOutcome::Upload(u) => Some(u),
        _ => None,
    })
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
                        sender: crowd[0],
                        receiver: None,
                        crowd,
                    };
                }
            };
            let start = epoch + item.offset;
            let (sender, _) = host(world, from_seg, vec![App::delayed(start, app)]);
            Placed {
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

/// `got` as a share of `want` in per-mille, capped at 1000 (`None` when
/// nothing was expected).
fn per_mille(got: u64, want: u64) -> Option<u64> {
    (want > 0).then(|| got.min(want) * 1000 / want)
}

/// Inspect every placed app and compute its report.
fn judge_apps(world: &World, wl: &Workload, placed: &[Placed], topo: &Topology) -> Vec<AppReport> {
    wl.items
        .iter()
        .zip(placed)
        .map(|(item, p)| {
            let (from_seg, to_seg) = item.action.ends(topo);
            let (ok, outcome, metrics) = judge_app(world, &item.action, p);
            AppReport {
                label: item.action.label(),
                phase: item.phase,
                from_seg,
                to_seg,
                ok,
                outcome,
                metrics,
            }
        })
        .collect()
}

/// How the placed `action` ended: did it do what the battery expected,
/// its outcome, and what it measured.
fn judge_app(world: &World, action: &AppAction, p: &Placed) -> (bool, AppOutcome, AppMetrics) {
    // Crowds run no application; judge them on reception alone.
    if let AppAction::Crowd { hosts, .. } = *action {
        let hosts = u64::from(hosts);
        let mut heard = 0u64;
        let mut frames_rx = 0u64;
        for &h in &p.crowd {
            let rx = world.node::<HostNode>(h).core.frames_rx;
            heard += u64::from(rx > 0);
            frames_rx += rx;
        }
        return (
            heard == hosts,
            AppOutcome::Crowd {
                hosts,
                heard,
                frames_rx,
            },
            AppMetrics::delivery(hosts > 0, per_mille(heard, hosts)),
        );
    }
    match (action, world.node::<HostNode>(p.sender).app(0)) {
        (AppAction::Ping { .. }, App::Ping(a)) => (
            a.is_done(),
            AppOutcome::Ping {
                sent: a.sent as u64,
                received: a.received as u64,
            },
            // A ping that got no replies has no RTT measurement: the
            // sketch is empty and `valid` is false, so every derived
            // statistic renders null: an `avg_rtt_ns` of 0 would read as
            // a perfect round trip.
            AppMetrics {
                valid: a.received > 0,
                delivery_pm: (a.sent > 0).then(|| a.received as u64 * 1000 / a.sent as u64),
                sketch: Some(a.rtt_ns().cloned().unwrap_or_default()),
            },
        ),
        (AppAction::Ttcp { total_bytes, .. }, App::TtcpSend(a)) => {
            let receiver = p.receiver.map(|r| world.node::<HostNode>(r).app(0));
            let Some(App::TtcpRecv(rx)) = receiver else {
                unreachable!("a ttcp is placed with its receiver")
            };
            let received = rx.bytes_received();
            let jitter = rx.inter_arrival_ns().cloned().unwrap_or_default();
            let elapsed = a.elapsed().unwrap_or(SimDuration::ZERO);
            let throughput_bps = (total_bytes * 8 * 1_000_000_000)
                .checked_div(elapsed.as_ns())
                .unwrap_or(0);
            (
                a.is_done() && received == *total_bytes,
                AppOutcome::Ttcp {
                    bytes: received,
                    frames: a.frames_sent,
                    elapsed_ns: elapsed.as_ns(),
                    throughput_bps,
                },
                AppMetrics {
                    valid: jitter.count() > 0,
                    delivery_pm: per_mille(received, *total_bytes),
                    sketch: Some(jitter),
                },
            )
        }
        (AppAction::Blast { count, .. }, App::Blast(a)) => {
            let received = p
                .receiver
                .map(|r| world.node::<HostNode>(r).core.exp_frames_rx)
                .unwrap_or(0);
            (
                a.sent == *count && received == *count,
                AppOutcome::Blast {
                    sent: a.sent,
                    received,
                },
                AppMetrics::delivery(*count > 0, per_mille(received, *count)),
            )
        }
        (AppAction::Upload { bridge, image, .. }, App::Upload(a)) => {
            // The poisoned image is meant to end parked, refused by the
            // integrity gate; every other one to finish.
            let ok = if image.must_complete() {
                a.is_done()
            } else {
                a.state == PARKED_BY_GATE
            };
            let delivery_pm = Some(if ok { 1000 } else { 0 });
            let outcome = AppOutcome::Upload(UploadOutcome {
                bridge: *bridge,
                image: *image,
                state: a.state,
                retries: a.retries,
                restarts: a.restarts,
                rto_ceiling_hits: a.rto_ceiling_hits,
                budget_used: a.budget_used(),
            });
            let metrics = if image.must_complete() {
                AppMetrics {
                    valid: ok,
                    delivery_pm,
                    sketch: Some(a.progress_gap_ns().cloned().unwrap_or_default()),
                }
            } else {
                AppMetrics::delivery(true, delivery_pm)
            };
            (ok, outcome, metrics)
        }
        // Attack apps carry no receiver: they are judged only on having
        // fired their full schedule (whether the network absorbed or
        // suppressed them is the invariants' job).
        (
            AppAction::Attack { count, .. },
            App::MacFlood(MacFloodApp { sent, .. })
            | App::ArpStorm(ArpStormApp { sent, .. })
            | App::RogueBpdu(RogueBpduApp { sent, .. }),
        ) => (
            sent == count,
            AppOutcome::Attack { sent: *sent },
            AppMetrics::delivery(*count > 0, per_mille(*sent, *count)),
        ),
        (action, _) => unreachable!(
            "placed app for {} does not match its action",
            action.label()
        ),
    }
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

/// A set of run facts the invariant table is judged and waived by.
type Flags = u16;
/// The topology has a loop.
const LOOPY: Flags = 1;
/// The script takes links down or crashes bridges, and heals them.
const DOWNTIME: Flags = 1 << 1;
/// The script drops frames: a fault config that can drop, or downtime.
const DROPS: Flags = 1 << 2;
/// The script installs a Gilbert–Elliott burst model.
const BURSTS: Flags = 1 << 3;
/// The workload fields hostile hosts.
const ATTACKS: Flags = 1 << 4;
/// Hostile hosts with every defense off: the arm that proves the
/// attacks bite, judged by `attack_degrades_undefended` alone.
const CONTROL_ARM: Flags = 1 << 5;
/// The defense plane is armed.
const DEFENDED: Flags = 1 << 6;
/// An upload's module must run its `init`.
const INITS: Flags = 1 << 7;
/// A trap upload is scheduled, so the watchdog must quarantine.
const TRAPS: Flags = 1 << 8;
/// A host forges BPDUs claiming the spanning-tree root.
const ROGUE: Flags = 1 << 9;

/// The scripted disturbances of one run, computed once from its
/// workload, topology and arm. The runner boots and times the run by
/// them, and the invariant table is judged and waived by them.
struct Disturbances {
    flags: Flags,
    /// The script's last heal, from the epoch: `Some` exactly on
    /// [`DOWNTIME`] runs, since every battery's script heals what it
    /// takes down (a `workload` unit test holds each battery to that).
    /// The recovery section and the recovery rows key on it alike.
    heal: Option<SimDuration>,
    /// The watchdog quarantines the workload is built to trigger.
    quarantines: u64,
}

impl Disturbances {
    fn new(wl: &Workload, topo: &Topology, defended: bool) -> Disturbances {
        let heal = wl.chaos.last_heal_at();
        let attacks = wl.injects_attacks();
        let quarantines = wl.expected_quarantines();
        let inits = wl.upload_images().any(|image| image.counts_alive());
        let rogue = (wl.items.iter()).any(
            |i| matches!(i.action, AppAction::Attack { kind, .. } if kind == AttackKind::RogueBpdu),
        );
        let flags = [
            (topo.cyclic(), LOOPY),
            (heal.is_some(), DOWNTIME),
            (heal.is_some() || wl.injects_drops(), DROPS),
            (wl.injects_bursts(), BURSTS),
            (attacks, ATTACKS),
            (attacks && !defended, CONTROL_ARM),
            (defended, DEFENDED),
            (inits, INITS),
            (quarantines > 0, TRAPS),
            (rogue, ROGUE),
        ];
        Disturbances {
            flags: flags.iter().filter(|f| f.0).fold(0, |all, f| all | f.1),
            heal,
            quarantines,
        }
    }

    /// Does the run carry any of `flags`?
    fn any(&self, flags: Flags) -> bool {
        self.flags & flags != 0
    }

    /// Does the spanning tree run? On loopy shapes, and on every hostile
    /// battery: BPDU guard and rogue-root detection need it.
    fn runs_stp(&self) -> bool {
        self.any(LOOPY | ATTACKS)
    }

    /// The waiver rule, the one place a verdict is decided. A row whose
    /// `when` flags the run lacks yields nothing. A judged row fails when
    /// a subject broke it and passes otherwise, except that its
    /// [`Waiver`] waives it, and that a flow that failed under one of its
    /// own excusing flags waives the row instead of failing it. A flow
    /// row lists each failed flow its excuse did not cover.
    fn judge(&self, inv: &Invariant, run: &Run) -> Option<InvariantResult> {
        let Invariant(name, when, waiver, check) = *inv;
        if self.flags & when != when {
            return None;
        }
        let found = match check {
            Check::Run(check) => check(run),
            Check::Flows(judges, detail) => {
                let mut found = Found::default();
                for (item, a) in run.wl.items.iter().zip(&run.report.apps) {
                    let Some(excused_by) = judges(run, item) else {
                        continue;
                    };
                    found.judged += 1;
                    if a.ok {
                    } else if self.any(excused_by) {
                        found.excused += 1;
                    } else {
                        found.failed += 1;
                        list_flow(&mut found.detail, a);
                    }
                }
                Found {
                    detail: detail(&found),
                    ..found
                }
            }
        };
        let verdict = match (waiver, &found) {
            (Waiver::Moot(flags), _) if self.any(flags) => Verdict::Waived,
            (Waiver::Empty, Found { judged: 0, .. }) => Verdict::Waived,
            (Waiver::Failure(flags), Found { failed: 1.., .. }) if self.any(flags) => {
                Verdict::Waived
            }
            (_, Found { failed: 1.., .. }) => Verdict::Fail,
            (_, Found { excused: 1.., .. }) => Verdict::Waived,
            _ => Verdict::Pass,
        };
        let detail = found.detail;
        Some(InvariantResult {
            name,
            verdict,
            detail,
        })
    }
}

/// What the invariant checks read: the finished report, and what only
/// the world, the topology and the workload hold.
struct Run<'a> {
    report: &'a Report,
    world: &'a World,
    topo: &'a Topology,
    wl: &'a Workload,
    d: &'a Disturbances,
}

impl Run<'_> {
    /// The `security` section (the [`ATTACKS`] rows' runs have one).
    fn security(&self) -> &SecurityReport {
        self.report.security.as_ref().expect("a hostile run")
    }

    /// Every upload whose image is of `kind`, in workload order.
    fn uploads(&self, kind: fn(&UploadImage) -> bool) -> impl Iterator<Item = &UploadOutcome> {
        uploads(&self.report.apps).filter(move |u| kind(&u.image))
    }

    /// How many uploads of `kind` there are, and how many of them are
    /// `which`.
    fn count(
        &self,
        kind: fn(&UploadImage) -> bool,
        which: fn(&UploadOutcome) -> bool,
    ) -> (u64, u64) {
        let n = self.uploads(kind).count() as u64;
        (n, self.uploads(kind).filter(|u| which(u)).count() as u64)
    }
}

fn sealed(image: &UploadImage) -> bool {
    matches!(image, UploadImage::Sealed { .. })
}

fn corrupt(image: &UploadImage) -> bool {
    *image == UploadImage::Corrupt
}

/// Append `"{label} {from}→{to}"` of `a` to a comma-separated list.
fn list_flow(list: &mut String, a: &AppReport) {
    if !list.is_empty() {
        list.push_str(", ");
    }
    let _ = write!(list, "{} {}→{}", a.label, a.from_seg, a.to_seg);
}

/// What a row found, before the waiver rule.
#[derive(Default)]
struct Found {
    /// Subjects judged: flows, uploads, or the run itself.
    judged: u64,
    /// Subjects that broke the invariant.
    failed: u64,
    /// Flows that broke it under a disturbance that excuses them.
    excused: u64,
    /// The evidence. While a flow row counts, the list of the flows
    /// that failed it.
    detail: String,
}

impl Found {
    /// A judgement on `judged` subjects as a whole.
    fn over(judged: u64, held: bool, detail: String) -> Found {
        let failed = u64::from(!held);
        Found {
            judged,
            failed,
            excused: 0,
            detail,
        }
    }

    /// A judgement on the run itself.
    fn run(held: bool, detail: String) -> Found {
        Found::over(1, held, detail)
    }
}

/// `"{what}: {list}"`, or `held()` when the list of flows is empty.
fn listed_or(list: &str, what: &str, held: impl FnOnce() -> String) -> String {
    if list.is_empty() {
        held()
    } else {
        format!("{what}: {list}")
    }
}

/// How a row judges.
#[derive(Clone, Copy)]
enum Check {
    /// The run as a whole.
    Run(fn(&Run) -> Found),
    /// Flow by flow, on each flow's `ok`: which flows it judges, with the
    /// flags that excuse each one's failure, and the evidence from the
    /// count.
    Flows(fn(&Run, &WorkItem) -> Option<Flags>, fn(&Found) -> String),
}

/// Which disturbances waive a row.
#[derive(Clone, Copy)]
enum Waiver {
    /// None.
    Never,
    /// A failure, on runs with any of these.
    Failure(Flags),
    /// Any verdict, on runs with any of these.
    Moot(Flags),
    /// Any verdict, when there was nothing to judge.
    Empty,
}

/// One row of the invariant table: its name, the flags a run needs for
/// it to be judged at all (none: every run), its waiver and its check.
#[derive(Clone, Copy)]
struct Invariant(&'static str, Flags, Waiver, Check);

impl Invariant {
    /// A row that judges the run as a whole.
    const fn run(name: &'static str, when: Flags, check: fn(&Run) -> Found) -> Invariant {
        Invariant(name, when, Waiver::Never, Check::Run(check))
    }

    /// A row that judges flow by flow.
    const fn flows(
        name: &'static str,
        when: Flags,
        judges: fn(&Run, &WorkItem) -> Option<Flags>,
        detail: fn(&Found) -> String,
    ) -> Invariant {
        Invariant(name, when, Waiver::Never, Check::Flows(judges, detail))
    }

    const fn waived(self, waiver: Waiver) -> Invariant {
        Invariant(self.0, self.1, waiver, self.3)
    }
}

/// Judged on every run.
const ALWAYS: Flags = 0;

/// The invariants, in report order. `crates/scenario/DESIGN.md` lists
/// the same rows, and `tests/docs.rs` holds the two lists equal.
const INVARIANTS: [Invariant; 19] = [
    Invariant::run("connected", ALWAYS, |r| {
        let (segments, bridges) = (r.topo.segments.len(), r.topo.bridges.len());
        let detail = format!("{segments} segments reachable through {bridges} bridges");
        Found::run(r.topo.is_connected(), detail)
    }),
    // Scripted downtime moves port states mid-run by design
    // (`reconverges_after_heal` takes over), and so does a rogue BPDU or
    // the guard err-disabling its port.
    Invariant::run("converged_before_workload", ALWAYS, |r| {
        let (at, epoch) = (r.report.converged_at, r.report.epoch);
        let detail = match at {
            Some(t) => format!(
                "last control-plane change at {} ns (epoch {} ns)",
                t.as_ns(),
                epoch.as_ns()
            ),
            None => "control plane never changed".to_owned(),
        };
        Found::run(at.is_none_or(|t| t <= epoch), detail)
    })
    .waived(Waiver::Failure(DOWNTIME | ATTACKS)),
    // An undefended rogue root ages out (max-age) inside the quiet window
    // and the real tree re-elects itself there.
    Invariant::run("no_storm", ALWAYS, |r| {
        let (tx, allowed) = (r.report.quiet_tx, r.report.quiet_allowed);
        let detail = format!("{tx} frames in the quiet window (allowed {allowed})");
        Found::run(tx <= allowed, detail)
    })
    .waived(Waiver::Failure(CONTROL_ARM)),
    // Raw blasts are unacknowledged, and loaded-phase probes run inside
    // the fault window to measure what it costs, so scripted drops excuse
    // them. Every other flow carries its own recovery and stays strict,
    // except on the control arm, whose attacks are meant to hurt.
    Invariant::flows(
        "no_loss_after_convergence",
        ALWAYS,
        |_, item| match (&item.action, item.phase) {
            (AppAction::Blast { .. }, _) | (_, Phase::Loaded) => Some(DROPS | CONTROL_ARM),
            _ => Some(CONTROL_ARM),
        },
        |f| {
            let (delivered, waived) = (f.judged - f.excused, f.excused);
            listed_or(&f.detail, "undelivered", || {
                format!(
                    "{delivered} workload items delivered ({waived} waived under scripted faults)"
                )
            })
        },
    ),
    // A receiver seeing more than was sent means a forwarding loop. A
    // healing ring can loop while the tree re-blocks a port, and a rogue
    // root can re-open a blocked one.
    Invariant::run("no_duplicate_delivery", ALWAYS, |r| {
        let mut list = String::new();
        for a in &r.report.apps {
            if let AppOutcome::Ping { sent, received } | AppOutcome::Blast { sent, received } =
                a.outcome
            {
                if received > sent {
                    list_flow(&mut list, a);
                    let _ = write!(list, " ({received} > {sent})");
                }
            }
        }
        let detail = listed_or(&list, "duplicated", || {
            "no receiver saw more frames than were sent".to_owned()
        });
        Found::run(list.is_empty(), detail)
    })
    .waived(Waiver::Failure(DOWNTIME | CONTROL_ARM)),
    Invariant::run("single_root", LOOPY, |r| {
        let roots: std::collections::BTreeSet<&str> = (r.report.bridges.iter())
            .filter_map(|b| b.root.as_deref())
            .collect();
        Found::run(roots.len() == 1, format!("elected roots: {roots:?}"))
    }),
    Invariant::run("uploads_alive", INITS, |r| {
        let uploads = r.uploads(UploadImage::counts_alive).count() as u64;
        let alive = r.world.counters().get(workload::UPLOAD_ALIVE_COUNTER);
        let detail = format!("{alive} of {uploads} uploaded switchlets ran init");
        Found::run(alive == uploads, detail)
    }),
    // After the last heal the control plane settles within the topology's
    // recovery margin under the timers the bridges ran.
    Invariant::run("reconverges_after_heal", DOWNTIME, |r| {
        let heal = r.report.epoch + r.d.heal.unwrap_or_default();
        let bound = r.topo.recovery_margin(&StpTimers::default());
        let at = r.report.converged_at;
        let detail = match at {
            Some(t) => format!(
                "last control-plane change at {} ns (heal {} ns, bound {} ns)",
                t.as_ns(),
                heal.as_ns(),
                bound.as_ns()
            ),
            None => "control plane never changed".to_owned(),
        };
        Found::run(at.is_none_or(|t| t <= heal + bound), detail)
    }),
    Invariant::flows(
        "no_permanent_blackhole",
        DOWNTIME,
        |r, item| {
            r.d.heal
                .filter(|&heal| is_post_heal_probe(item, heal))
                .map(|_| 0)
        },
        |f| {
            listed_or(&f.detail, "dead after heal", || {
                format!("{} post-heal probes delivered", f.judged)
            })
        },
    )
    .waived(Waiver::Empty),
    // The bursty-loss rows hold the adaptive transport and the integrity
    // gate to account under the hostile medium. Every sealed upload
    // completes despite the burst model and a bridge crash mid-transfer...
    Invariant::run("uploads_complete_under_loss", BURSTS, |r| {
        let (n, done) = r.count(sealed, |u| matches!(u.state, UploadState::Done { .. }));
        let detail = format!("{done} of {n} sealed uploads completed under bursty loss");
        Found::over(n, done == n, detail)
    })
    .waived(Waiver::Empty),
    // ... inside its recovery budget: none parked, none spent more than
    // its budget of actions.
    Invariant::run("retries_within_budget", BURSTS, |r| {
        let (mut worst_used, mut budget, mut blown) = (0, 0, 0u64);
        for u in r.uploads(sealed) {
            worst_used = worst_used.max(u.budget_used);
            budget = u.image.budget();
            let parked = matches!(u.state, UploadState::Parked { .. });
            blown += u64::from(parked || u.budget_used > budget);
        }
        let detail = format!(
            "worst sealed upload spent {worst_used} of {budget} recovery actions ({blown} exhausted)"
        );
        Found::over(r.uploads(sealed).count() as u64, blown == 0, detail)
    })
    .waived(Waiver::Empty),
    // The poisoned image is refused at the gate: every re-send rejected,
    // the sender parked with a classified integrity failure, and the
    // payload never evaluated (its init would inflate `uploads_alive`).
    Invariant::run("corrupted_image_never_activates", BURSTS, |r| {
        let (n, unparked) = r.count(corrupt, |u| u.state != PARKED_BY_GATE);
        let rejects = (r.report.resilience.as_ref()).map_or(0, |s| s.integrity_rejects);
        let detail = format!(
            "{n} corrupt uploads, {rejects} gate rejects, {unparked} escaped classification"
        );
        Found::over(n, unparked == 0 && rejects >= n, detail)
    })
    .waived(Waiver::Empty),
    // Every upload under the hostile medium ends completed or parked
    // before the run does: a transport that retries forever would leave
    // one in limbo.
    Invariant::run("no_livelock", BURSTS, |r| {
        let both = |i: &UploadImage| sealed(i) || corrupt(i);
        let (n, in_limbo) = r.count(both, |u| matches!(u.state, UploadState::Running { .. }));
        let detail = format!("{} of {n} uploads reached a terminal state", n - in_limbo);
        Found::over(n, in_limbo == 0, detail)
    })
    .waived(Waiver::Empty),
    // The watchdog engages exactly as scripted: no more, no fewer.
    Invariant::run("quarantine_engages", TRAPS, |r| {
        let quarantines = r.world.counters().get("bridge.quarantines");
        let scripted = r.d.quarantines;
        let detail = format!("{quarantines} watchdog quarantines (scripted {scripted})");
        Found::run(quarantines == scripted, detail)
    }),
    // The defended arm shrugs the attacks off.
    Invariant::run("learn_table_bounded", ATTACKS, |r| {
        let occupancy = r.security().max_learn_occupancy;
        let detail = format!("max learning-table occupancy {occupancy} (cap {DEFENSE_LEARN_CAP})");
        Found::run(occupancy <= DEFENSE_LEARN_CAP as u64, detail)
    })
    .waived(Waiver::Moot(CONTROL_ARM)),
    Invariant::flows(
        "victim_flows_survive",
        ATTACKS,
        |_, item| (!matches!(item.action, AppAction::Attack { .. })).then_some(0),
        |f| {
            listed_or(&f.detail, "starved under attack", || {
                "every victim flow completed under attack".into()
            })
        },
    )
    .waived(Waiver::Moot(CONTROL_ARM)),
    Invariant::run("storm_suppressed_and_released", ATTACKS, |r| {
        let sec = r.security();
        let (suppressions, releases) = (sec.storm_suppressions, sec.storm_releases);
        let detail = format!("{suppressions} suppressions, {releases} releases");
        Found::run(suppressions > 0 && suppressions == releases, detail)
    })
    .waived(Waiver::Moot(CONTROL_ARM)),
    Invariant::run("root_stays_stable", ATTACKS, |r| {
        let (sec, rogue) = (r.security(), r.d.any(ROGUE));
        let (seen, trips) = (sec.rogue_root_seen, sec.bpdu_guard_trips);
        let detail =
            format!("rogue root seen: {seen}, guard trips: {trips} (rogue scheduled: {rogue})");
        Found::run(!seen && (!rogue || trips > 0), detail)
    })
    .waived(Waiver::Moot(CONTROL_ARM)),
    // The control arm earns its keep by showing the damage: the flood
    // blows past the defended arm's cap, and a scheduled rogue BPDU
    // steals the root.
    Invariant::run("attack_degrades_undefended", ATTACKS, |r| {
        let (sec, rogue) = (r.security(), r.d.any(ROGUE));
        let (occupancy, seen) = (sec.max_learn_occupancy, sec.rogue_root_seen);
        let cap = DEFENSE_LEARN_CAP as u64;
        let detail = format!("max occupancy {occupancy} vs cap {cap}, rogue root seen: {seen}");
        Found::run(occupancy > cap && (!rogue || seen), detail)
    })
    .waived(Waiver::Moot(DEFENDED)),
];
