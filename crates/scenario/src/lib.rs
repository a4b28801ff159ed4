//! # ab-scenario — turn "run the bridge in a situation" into data
//!
//! The experiment substrate above the Active Bridging reproduction:
//!
//! * [`topo`] — parametric topology generation: line, ring, star,
//!   balanced tree, full mesh and seeded random graphs, all pure
//!   functions of `(shape, seed)`, with per-edge segment parameters;
//! * [`workload`] — workload batteries: composable, seeded schedules of
//!   the `hostsim` measurement apps (ping, ttcp, blast, TFTP switchlet
//!   upload) plus fault scripts driving `netsim::fault` mid-run;
//! * [`runner`] — the scenario runner: execute one
//!   `(topology, workload, seed)` triple, collect per-segment and
//!   per-bridge counters, and emit a structured JSON [`runner::Report`]
//!   with pass/fail verdicts per invariant (no storm, no loss after
//!   convergence, no duplicate delivery, single spanning-tree root);
//! * [`sweep`] — batteries of scenarios across many shapes and seeds
//!   with one aggregated score, in the spirit of `netmeasure2`;
//! * [`json`] — the deterministic JSON writer reports are written
//!   through, and the document model `analyze` parses them back into;
//! * [`paper`] — the paper's Section 7 experiments (Figure 5 path,
//!   Figure 9 ping, Figure 10 ttcp, Table 1 transition, §7.5 agility) as
//!   runners returning plain result structs.
//!
//! Everything is a pure function of its seeds: the same `Scenario` value
//! produces a byte-identical JSON report on every run.
//!
//! The low-level world-building primitives (deterministic addresses,
//! `lans`, `bridge`, `run_until_done`, `uploader`, `upload_and_load`) are
//! re-exported at the crate root; this is their only public path.
//!
//! ## Example
//!
//! ```
//! use ab_scenario::runner::{self, Scenario};
//! use ab_scenario::topo::TopologyShape;
//! use ab_scenario::workload::BatteryKind;
//!
//! let scenario = Scenario::new(TopologyShape::Star { arms: 2 }, BatteryKind::Pings, 7);
//! let report = runner::run(&scenario);
//! assert!(report.passed(), "{}", report.to_json().render_pretty());
//! ```

pub mod diff;
pub mod exec;
pub mod json;
pub mod paper;
mod prims;
pub mod quality;
pub mod runner;
pub mod sketch;
pub mod sweep;
pub mod timeline;
pub mod topo;
pub mod workload;

pub use prims::{
    bridge, bridge_ip, bridge_mac, host_ip, host_mac, lans, run_until_done, upload_and_load,
    uploader,
};

pub use exec::{
    default_jobs, parse_jobs, run_jobs, run_jobs_local, run_jobs_local_profiled, JobProfile,
    PoolProfile, WorkerProfile,
};
pub use json::{Json, JsonText};
pub use quality::{score_report, QualityScore};
pub use runner::{
    run, run_in, run_recorded, run_traced, InvariantResult, RecoveryReport, Report, Scenario,
    Verdict,
};
pub use sketch::{Sketch, SketchJson};
pub use sweep::{run_sweep_jobs, run_sweep_jobs_profiled, SweepReport, SweepSpec};
pub use timeline::{summary_tables, timeline_json, validate_timeline};
pub use topo::{instantiate, BuiltTopology, SegTier, Topology, TopologyShape};
pub use workload::{BatteryKind, Phase, Workload};
