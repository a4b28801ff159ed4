//! Flight-recorder export: render an armed run's probe ring as a Chrome
//! trace-event (`chrome://tracing` / Perfetto "Load legacy trace")
//! JSON timeline, plus fixed-width summary tables.
//!
//! Track layout:
//!
//! * **pid 1 — segments**: one thread per LAN. Wire occupancy renders as
//!   complete (`"X"`) events spanning `[completion − serialization,
//!   completion]`; queue drops, fault injections and contended offers
//!   are instants.
//! * **pid 2 — bridges**: forwarding decisions (verdict, arrival port),
//!   switchlet executions (fuel, host calls) and timers.
//! * **pid 3 — hosts**: application phase marks (`ping.start`,
//!   `ttcp.done`, …) and timers.
//!
//! The document is written, not built: one pass over the ring streams
//! every event through [`Writer`]. `describe` is the one table from a
//! probe record to what it renders — an event, a span opening or closing,
//! or nothing — so a new record kind or track is one row there.
//!
//! Timestamps are the probe records' simulated nanoseconds divided by
//! 1000 (the format wants microseconds); everything is derived from the
//! deterministic probe ring, so the rendered document is byte-identical
//! across runs and `--jobs` values.

use std::collections::BTreeMap;

use active_bridge::BridgeNode;
use netsim::{NodeId, PortId, ProbeRecord, SegId, World};

use crate::json::{Json, JsonText, Writer};
use crate::runner::Report;

/// The thread an event renders on: a segment's (pid 1), or a node's on
/// the bridges' (pid 2) or the hosts' (pid 3) process.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Track {
    Seg(SegId),
    Node(NodeId),
}

impl Track {
    /// The track's `(pid, tid)`.
    fn ids(self, world: &World) -> (u64, u64) {
        match self {
            Track::Seg(seg) => (1, seg.0 as u64),
            Track::Node(node) if world.try_node::<BridgeNode>(node).is_some() => (2, node.0 as u64),
            Track::Node(node) => (3, node.0 as u64),
        }
    }
}

/// A window one record opens and a later one closes on the same track,
/// rendered as a complete event: a chaos outage (`LinkDown` to `LinkUp`),
/// a Gilbert–Elliott bad-state window (`FaultBurst` to `bad: false`), a
/// crashed node (`NodeCrash` to `NodeRestart`). Declared in the order the
/// spans still open at the horizon are written (then by track).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Span {
    Down,
    Burst,
    Crashed,
}

impl Span {
    /// The complete event's name, and the instant a close renders as
    /// when its opening record is not in the ring (displaced, say).
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Span::Down => ("down", "link_up"),
            Span::Burst => ("burst", "burst_end"),
            Span::Crashed => ("crashed", "restart"),
        }
    }
}

/// An event argument's value.
enum Arg<'a> {
    U64(u64),
    Str(&'a str),
}

/// An event's arguments, in the order they are written.
type Args<'a> = Vec<(&'static str, Arg<'a>)>;

/// What one probe record renders as.
enum Render<'a> {
    /// Nothing.
    Skip,
    /// An instant at the record's time.
    Event(&'static str, Track, Args<'a>),
    /// A complete event that many nanoseconds long, ending at the
    /// record's time.
    Complete(&'static str, Track, u64, Args<'a>),
    /// A span opens on the track (a second open before the close is
    /// ignored).
    Open(Span, Track),
    /// The track's open span closes.
    Close(Span, Track),
}

/// What `record` renders as: the timeline's one table of record kinds.
/// Uncontended offers are implied by their `tx` span, deliveries by the
/// wire span (the ring keeps them for programmatic consumers), and an
/// execution's begin by its end, stamped at the same simulated instant
/// (it is costed, not simulated) and carrying the numbers.
#[rustfmt::skip]
fn describe(world: &World, record: ProbeRecord) -> Render<'_> {
    use Arg::U64;
    use ProbeRecord as R;
    use Render::{Close, Complete, Event, Open};
    use Track::{Node, Seg};
    let n = |v: u32| U64(v.into());
    let src = |node: NodeId| Arg::Str(world.node_name(node));
    let port = |port: PortId| vec![("port", U64(port.0 as u64))];
    match record {
        R::FrameOffered { seg, queued: true, depth, .. } => Event("queued", Seg(seg), vec![("depth", n(depth))]),
        R::FrameOffered { .. } | R::Deliver { .. } | R::ExecBegin { .. } => Render::Skip,
        R::QueueDrop { seg, src: (node, _), len } =>
            Event("queue_drop", Seg(seg), vec![("src", src(node)), ("len", n(len))]),
        R::WireTx { seg, src: (node, p), len, ser_ns } =>
            Complete("tx", Seg(seg), ser_ns, vec![("src", src(node)), ("port", U64(p.0 as u64)), ("len", n(len))]),
        R::FaultDrop { seg, len } => Event("fault_drop", Seg(seg), vec![("len", n(len))]),
        R::FaultCorrupt { seg, len } => Event("fault_corrupt", Seg(seg), vec![("len", n(len))]),
        R::FaultDuplicate { seg, len } => Event("fault_duplicate", Seg(seg), vec![("len", n(len))]),
        R::FaultBurst { seg, bad: true } => Open(Span::Burst, Seg(seg)),
        R::FaultBurst { seg, bad: false } => Close(Span::Burst, Seg(seg)),
        R::LinkDown { seg } => Open(Span::Down, Seg(seg)),
        R::LinkUp { seg } => Close(Span::Down, Seg(seg)),
        R::NodeCrash { node } => Open(Span::Crashed, Node(node)),
        R::NodeRestart { node } => Close(Span::Crashed, Node(node)),
        R::Decision { node, port: p, verdict } => Event(verdict, Node(node), port(p)),
        R::ExecEnd { node, fuel, host_calls } =>
            Event("exec", Node(node), vec![("fuel", U64(fuel)), ("host_calls", U64(host_calls))]),
        R::TimerArm { node, id, deadline } =>
            Event("timer_arm", Node(node), vec![("id", U64(id)), ("deadline_ns", U64(deadline.as_ns()))]),
        R::TimerFire { node, id } => Event("timer_fire", Node(node), vec![("id", U64(id))]),
        R::TimerCancel { node, id } => Event("timer_cancel", Node(node), vec![("id", U64(id))]),
        R::Mark { node, label } => Event(label, Node(node), vec![]),
        R::Quarantine { node } => Event("quarantine", Node(node), vec![]),
        R::LearnEvict { node, port: p } => Event("learn_evict", Node(node), port(p)),
        R::LearnReject { node, port: p } => Event("learn_reject", Node(node), port(p)),
        R::PortSuppressed { node, port: p } => Event("port_suppressed", Node(node), port(p)),
        R::PortReleased { node, port: p } => Event("port_released", Node(node), port(p)),
        R::BpduGuardTrip { node, port: p } => Event("bpdu_guard_trip", Node(node), port(p)),
    }
}

/// Microseconds for the trace-event format. Integer nanosecond halves
/// print deterministically (shortest round trip).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Write one trace event on the track `(pid, tid)`: an instant at
/// `at_ns`, or with `dur_ns` a complete event starting there.
fn event(
    w: &mut Writer,
    name: &str,
    (pid, tid): (u64, u64),
    at_ns: u64,
    dur_ns: Option<u64>,
    args: &[(&str, Arg)],
) {
    w.obj(|w| {
        w.key("name").str(name);
        match dur_ns {
            None => w.key("ph").str("i").key("s").str("t"),
            Some(_) => w.key("ph").str("X"),
        };
        w.key("pid").u64(pid);
        w.key("tid").u64(tid);
        w.key("ts").f64(us(at_ns));
        if let Some(dur) = dur_ns {
            w.key("dur").f64(us(dur));
        }
        w.key("args").obj(|w| {
            for (key, value) in args {
                match *value {
                    Arg::U64(v) => w.key(key).u64(v),
                    Arg::Str(s) => w.key(key).str(s),
                };
            }
        });
    });
}

/// Write a metadata event naming a process (no `tid`) or a thread.
fn meta(w: &mut Writer, what: &str, pid: u64, tid: Option<u64>, value: &str) {
    w.obj(|w| {
        w.key("name").str(what);
        w.key("ph").str("M");
        w.key("pid").u64(pid);
        if let Some(tid) = tid {
            w.key("tid").u64(tid);
        }
        w.key("args").obj(|w| {
            w.key("name").str(value);
        });
    });
}

/// Write the trace events: process and segment names up front, then each
/// record in ring order (a node's track named the first time one of its
/// records renders), then the spans still open at `end_ns`, reaching it.
fn events(w: &mut Writer, world: &World, end_ns: u64) {
    for (pid, name) in [(1, "segments"), (2, "bridges"), (3, "hosts")] {
        meta(w, "process_name", pid, None, name);
    }
    for (i, seg) in world.stats().segments.iter().enumerate() {
        meta(w, "thread_name", 1, Some(i as u64), &seg.name);
    }
    let mut named = vec![false; world.num_nodes()];
    let mut open: BTreeMap<(Span, Track), u64> = BTreeMap::new();
    let span = |w: &mut Writer, span: Span, ids, start: u64, end: u64| {
        let dur = Some(end.saturating_sub(start));
        event(w, span.names().0, ids, start, dur, &[]);
    };
    for ev in world.probe().records() {
        let ns = ev.at.as_ns();
        let render = describe(world, ev.record);
        let track = match render {
            Render::Skip => continue,
            Render::Event(_, track, _)
            | Render::Complete(_, track, ..)
            | Render::Open(_, track)
            | Render::Close(_, track) => track,
        };
        let ids = track.ids(world);
        if let Track::Node(node) = track {
            if !std::mem::replace(&mut named[node.0], true) {
                meta(w, "thread_name", ids.0, Some(ids.1), world.node_name(node));
            }
        }
        match render {
            Render::Skip => {}
            Render::Event(name, _, args) => event(w, name, ids, ns, None, &args),
            Render::Complete(name, _, dur, args) => {
                event(w, name, ids, ns.saturating_sub(dur), Some(dur), &args)
            }
            Render::Open(kind, _) => {
                open.entry((kind, track)).or_insert(ns);
            }
            Render::Close(kind, _) => match open.remove(&(kind, track)) {
                Some(start) => span(w, kind, ids, start, ns),
                None => event(w, kind.names().1, ids, ns, None, &[]),
            },
        }
    }
    for ((kind, track), start) in open {
        span(w, kind, track.ids(world), start, end_ns);
    }
}

/// Render the world's probe ring (plus run metadata) as a Chrome
/// trace-event document. The world must have finished a recorded run
/// ([`crate::runner::run_recorded`]); the report supplies the horizon and
/// the run's identity, so any world renders against any report.
pub fn timeline_json(world: &World, report: &Report) -> JsonText {
    let probe = world.probe();
    JsonText::write(|w| {
        w.obj(|w| {
            w.key("traceEvents")
                .arr(|w| events(w, world, report.end.as_ns()));
            w.key("displayTimeUnit").str("ms");
            w.key("otherData").obj(|w| {
                w.key("scenario").str(&report.scenario.name);
                w.key("seed").u64(report.scenario.seed);
                w.key("records").u64(probe.len() as u64);
                w.key("records_dropped").u64(probe.dropped());
                w.key("end_ns").u64(report.end.as_ns());
            });
        });
    })
}

/// Fixed-width summary tables for a recorded run: per-bridge hot
/// switchlet functions (the JIT promotion signal) and per-segment queue
/// occupancy.
pub fn summary_tables(world: &World, report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    let _ = writeln!(out, "hot switchlet functions (inclusive fuel)");
    let _ = writeln!(
        out,
        "  {:<12} {:<14} {:<16} {:>10} {:>12}",
        "bridge", "module", "function", "calls", "fuel"
    );
    let mut any = false;
    for id in 0..world.num_nodes() {
        let node = NodeId(id);
        let Some(bridge) = world.try_node::<BridgeNode>(node) else {
            continue;
        };
        let mut lines = bridge.hot_functions();
        // Hottest first; ties break on the deterministic name pair.
        lines.sort_by(|a, b| {
            b.2.fuel
                .cmp(&a.2.fuel)
                .then_with(|| (&a.0, &a.1).cmp(&(&b.0, &b.1)))
        });
        for (module, func, c) in lines {
            any = true;
            let _ = writeln!(
                out,
                "  {:<12} {:<14} {:<16} {:>10} {:>12}",
                world.node_name(node),
                module,
                func,
                c.calls,
                c.fuel
            );
        }
    }
    if !any {
        let _ = writeln!(out, "  (no VM switchlet executions recorded)");
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "segment queue occupancy");
    let _ = writeln!(
        out,
        "  {:<12} {:>10} {:>10} {:>10} {:>12}",
        "segment", "tx_frames", "peak_queue", "cap", "queue_drops"
    );
    for (i, s) in report.world.segments.iter().enumerate() {
        let cap = world.segment(netsim::SegId(i)).queue_cap();
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>10} {:>10} {:>12}",
            s.name, s.counters.tx_frames, s.counters.peak_queue, cap, s.counters.queue_drops
        );
    }

    let probe = world.probe();
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "probe ring: {} records kept, {} displaced (capacity {})",
        probe.len(),
        probe.dropped(),
        probe.capacity()
    );
    out
}

/// Validate a rendered timeline document (the CI gate): parses it with
/// the in-repo JSON parser and checks the trace-event contract —
/// `traceEvents` array whose members carry `name`/`ph`/`pid`/`tid`, a
/// numeric `ts` on every non-metadata event, and a `dur` on every
/// complete (`"X"`) event. Returns the event count.
pub fn validate_timeline(src: &str) -> Result<usize, String> {
    let doc = Json::parse(src)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph") {
            Some(Json::Str(s)) => s.as_str(),
            _ => return Err(format!("event {i}: missing ph")),
        };
        if !matches!(ev.get("name"), Some(Json::Str(_))) {
            return Err(format!("event {i}: missing name"));
        }
        if ev.get("pid").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        match ph {
            "M" => {}
            "i" | "X" => {
                if ev.get("tid").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i}: missing tid"));
                }
                if ev.get("ts").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i}: missing ts"));
                }
                if ph == "X" && ev.get("dur").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i}: X event missing dur"));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    if events.is_empty() {
        return Err("empty traceEvents".into());
    }
    Ok(events.len())
}
