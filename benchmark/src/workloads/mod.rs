//! The seven workloads.
//!
//! A workload turns `(seed, size)` into rounds of fixed work. Its
//! [`Workload::prepare`] is one cold construction — generate, instantiate,
//! boot, warm up to steady state — and is what `setup_s` times; the
//! [`Round`] it returns runs the fixed work once, which is what `wall_s`
//! and `frames_per_s` time. The seed drives station numbering, flow order,
//! start stagger, the world RNG and the sweep seed base; the libraries see
//! only the generated inputs. `README.md` says why each workload exists.

use std::rc::Rc;

use crate::net::Counts;
use crate::span::Tracer;

mod forwarding;
mod sweep;
mod ttcp;

/// Workload names, in run order, with the one-line reason each exists
/// (repeated in `BENCHMARK.json`; a test keeps the two in step).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "metro_flood",
        "1040-host metro, every frame floods: ~16 deliveries per wire frame, so netsim's event queue and fan-out do the work and bridges little",
    ),
    (
        "chain_hot",
        "16-bridge chain, 32 flows of 64 B frames: fan-out ~1, so BridgeNode::on_frame has its largest share and the decision cache hits",
    ),
    (
        "chain_wide",
        "chain_hot with 512 flows visited round-robin: same frames, but every one misses the decision cache and takes learn + lookup + store",
    ),
    (
        "vm_forward",
        "one 4-port bridge whose data plane is the dumb_vm bytecode image: the only workload where the switchlet VM dominates",
    ),
    (
        "ttcp_paper",
        "Figure 10 ttcp through direct/repeater/bridge/VM bridge with 1997 cost models: service queues, timers, hostsim and the TCP/IP stack",
    ),
    (
        "defended_mix",
        "chain victims with every PR 10 defense armed while a MAC flood, an ARP storm and a rogue root attack: policing and eviction beside reads",
    ),
    (
        "sweep_render",
        "the default, chaos, lossy and adversarial sweeps rendered to JSON for consecutive seeds: the pipeline users and CI run, ab_scenario's load",
    ),
];

/// How big a round is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size: a round is some 50 ms of host time on the
    /// reference box (100–150 ms for `defended_mix` and `sweep_render`),
    /// short enough that many rounds fit in a run and some of them escape
    /// the host's slow phases (see `harness`).
    Full,
    /// About a twentieth of that, for `--smoke` and the tests.
    Smoke,
}

impl Size {
    /// `full` at full size, a twentieth (at least 1) at smoke size.
    pub fn scale(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 20).max(1),
        }
    }
}

/// What one round did, read after it ran.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Frames delivered (`World::frames_delivered`) by the fixed work.
    pub frames: u64,
    /// Operations attempted (the workload's own unit, see `README.md`).
    pub ops: u64,
    /// Operations that failed.
    pub ops_failed: u64,
    /// Results judged for `ok_share`, and how many were right. The same as
    /// `ops` and `ops - ops_failed`, except on `sweep_render`, where an op
    /// is a scenario and what is judged is each of its invariants.
    pub judged: u64,
    /// See `judged`.
    pub judged_ok: u64,
    /// Did the workload finish what it set out to do (blasters drained,
    /// transfers done, outputs as expected)? `Err` says what did not.
    pub complete: Result<(), String>,
    /// FNV-1a over the simulated statistics (for `sweep_render`, over the
    /// rendered bytes): equal digests mean identical simulated behaviour.
    pub sim_digest: u64,
    /// Simulated statistics of the fixed work, for the per-layer counters.
    pub counts: Counts,
    /// Frames storm control dropped (0 unless the workload arms it).
    pub policed_drops: u64,
    /// Workload-specific per-layer metrics, by full name.
    pub extra: Vec<(&'static str, f64)>,
    /// Host milliseconds of every `runner::run_in` call (traced
    /// `sweep_render` rounds only); pooled over rounds for percentiles.
    pub run_in_ms: Vec<f64>,
    /// Free-form findings worth printing (failing scenario names).
    pub notes: Vec<String>,
}

/// One round, constructed and warmed up, ready to run.
pub trait Round {
    /// Do the fixed work. Timed. A round made of several parts calls
    /// `lap` between one part and the next, so that each part is timed on
    /// its own; the parts, and where they end, are the same in every round.
    fn run(&mut self, lap: &mut dyn FnMut());
    /// Read the results. Not timed.
    fn outcome(&self) -> Outcome;
}

/// A workload: a recipe for identical rounds.
pub trait Workload {
    /// One cold construction, up to steady state. Timed as set-up. With a
    /// tracer, every node is wrapped and every call the round makes into a
    /// library is spanned.
    fn prepare(&self, tracer: Option<&Rc<Tracer>>) -> Box<dyn Round>;
}

/// The workload called `name`, or `None`.
pub fn by_name(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "metro_flood" => Box::new(forwarding::MetroFlood::new(seed, size)),
        "chain_hot" => Box::new(forwarding::Chain::hot(seed, size)),
        "chain_wide" => Box::new(forwarding::Chain::wide(seed, size)),
        "vm_forward" => Box::new(forwarding::VmForward::new(seed, size)),
        "ttcp_paper" => Box::new(ttcp::TtcpPaper::new(seed, size)),
        "defended_mix" => Box::new(forwarding::Chain::defended(seed, size)),
        "sweep_render" => Box::new(sweep::SweepRender::new(seed, size)),
        _ => return None,
    })
}
