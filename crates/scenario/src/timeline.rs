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
//! * **pid 2 — bridges**: forwarding decisions (verdict, generation),
//!   switchlet executions (fuel, host calls) and timers.
//! * **pid 3 — hosts**: application phase marks (`ping.start`,
//!   `ttcp.done`, …) and timers.
//!
//! Timestamps are the probe records' simulated nanoseconds divided by
//! 1000 (the format wants microseconds); everything is derived from the
//! deterministic probe ring, so the rendered document is byte-identical
//! across runs and `--jobs` values.

use std::collections::HashMap;

use active_bridge::BridgeNode;
use netsim::{NodeId, ProbeRecord, World};

use crate::json::Json;
use crate::runner::Report;

/// Microsecond timestamp for the trace-event format. Integer nanosecond
/// halves render deterministically (`Json::F64` prints via `{n}`).
fn us(ns: u64) -> Json {
    Json::F64(ns as f64 / 1000.0)
}

fn instant(name: &str, pid: u64, tid: u64, ts_ns: u64, args: Vec<(&str, Json)>) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("ts", us(ts_ns)),
        ("args", Json::obj(args)),
    ])
}

fn complete(
    name: &str,
    pid: u64,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(&str, Json)>,
) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("ph", Json::str("X")),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("ts", us(start_ns)),
        ("dur", us(dur_ns)),
        ("args", Json::obj(args)),
    ])
}

fn meta(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Json {
    let mut members = vec![
        ("name", Json::str(name)),
        ("ph", Json::str("M")),
        ("pid", Json::U64(pid)),
    ];
    if let Some(tid) = tid {
        members.push(("tid", Json::U64(tid)));
    }
    members.push(("args", Json::obj(vec![("name", Json::str(value))])));
    Json::obj(members)
}

const PID_SEGMENTS: u64 = 1;
const PID_BRIDGES: u64 = 2;
const PID_HOSTS: u64 = 3;

/// Which track a node's events belong on.
fn node_pid(world: &World, node: NodeId) -> u64 {
    if world.try_node::<BridgeNode>(node).is_some() {
        PID_BRIDGES
    } else {
        PID_HOSTS
    }
}

/// Render the world's probe ring (plus run metadata) as a Chrome
/// trace-event document. The world must have finished a recorded run
/// ([`crate::runner::run_recorded`]).
pub fn timeline_json(world: &World, report: &Report) -> Json {
    let mut events = Vec::new();

    // Process/thread name metadata, emitted up front in index order.
    events.push(meta("process_name", PID_SEGMENTS, None, "segments"));
    events.push(meta("process_name", PID_BRIDGES, None, "bridges"));
    events.push(meta("process_name", PID_HOSTS, None, "hosts"));
    let stats = world.stats();
    for (i, seg) in stats.segments.iter().enumerate() {
        events.push(meta("thread_name", PID_SEGMENTS, Some(i as u64), &seg.name));
    }
    // Name every node track that will carry events.
    let mut node_named = vec![false; world.num_nodes()];
    let mut name_node = |events: &mut Vec<Json>, node: NodeId| {
        if !node_named[node.0] {
            node_named[node.0] = true;
            events.push(meta(
                "thread_name",
                node_pid(world, node),
                Some(node.0 as u64),
                world.node_name(node),
            ));
        }
    };

    // Chaos down-time renders as complete spans: a LinkDown / NodeCrash
    // opens a window, the matching LinkUp / NodeRestart closes it.
    let mut seg_down: HashMap<u64, u64> = HashMap::new();
    let mut node_down: HashMap<usize, u64> = HashMap::new();
    // Gilbert–Elliott bad-state windows render the same way: a
    // `FaultBurst { bad: true }` opens, the matching `bad: false` closes.
    let mut burst_open: HashMap<u64, u64> = HashMap::new();

    for ev in world.probe().records() {
        let ns = ev.at.as_ns();
        match ev.record {
            ProbeRecord::FrameOffered {
                seg, queued, depth, ..
            } => {
                // Uncontended offers are implied by their WireTx span;
                // only queueing (contention evidence) gets an instant.
                if queued {
                    events.push(instant(
                        "queued",
                        PID_SEGMENTS,
                        seg.0 as u64,
                        ns,
                        vec![("depth", Json::U64(depth as u64))],
                    ));
                }
            }
            ProbeRecord::QueueDrop { seg, src, len } => {
                events.push(instant(
                    "queue_drop",
                    PID_SEGMENTS,
                    seg.0 as u64,
                    ns,
                    vec![
                        ("src", Json::str(world.node_name(src.0))),
                        ("len", Json::U64(len as u64)),
                    ],
                ));
            }
            ProbeRecord::WireTx {
                seg,
                src,
                len,
                ser_ns,
            } => {
                events.push(complete(
                    "tx",
                    PID_SEGMENTS,
                    seg.0 as u64,
                    ns.saturating_sub(ser_ns),
                    ser_ns,
                    vec![
                        ("src", Json::str(world.node_name(src.0))),
                        ("port", Json::U64(src.1 .0 as u64)),
                        ("len", Json::U64(len as u64)),
                    ],
                ));
            }
            ProbeRecord::FaultDrop { seg, len } => {
                events.push(instant(
                    "fault_drop",
                    PID_SEGMENTS,
                    seg.0 as u64,
                    ns,
                    vec![("len", Json::U64(len as u64))],
                ));
            }
            ProbeRecord::FaultCorrupt { seg, len } => {
                events.push(instant(
                    "fault_corrupt",
                    PID_SEGMENTS,
                    seg.0 as u64,
                    ns,
                    vec![("len", Json::U64(len as u64))],
                ));
            }
            ProbeRecord::FaultDuplicate { seg, len } => {
                events.push(instant(
                    "fault_duplicate",
                    PID_SEGMENTS,
                    seg.0 as u64,
                    ns,
                    vec![("len", Json::U64(len as u64))],
                ));
            }
            ProbeRecord::FaultBurst { seg, bad } => {
                let tid = seg.0 as u64;
                if bad {
                    burst_open.entry(tid).or_insert(ns);
                } else {
                    match burst_open.remove(&tid) {
                        Some(start) => {
                            events.push(complete(
                                "burst",
                                PID_SEGMENTS,
                                tid,
                                start,
                                ns - start,
                                vec![],
                            ));
                        }
                        // A burst whose entry record fell off the ring
                        // still marks its end.
                        None => events.push(instant("burst_end", PID_SEGMENTS, tid, ns, vec![])),
                    }
                }
            }
            // Deliveries are numerous and implied by the wire span; the
            // ring keeps them for programmatic consumers, the timeline
            // skips them.
            ProbeRecord::Deliver { .. } => {}
            ProbeRecord::Decision {
                node,
                port,
                verdict,
                generation,
            } => {
                name_node(&mut events, node);
                events.push(instant(
                    verdict,
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![
                        ("port", Json::U64(port.0 as u64)),
                        ("generation", Json::U64(generation)),
                    ],
                ));
            }
            // Begin/end land at the same simulated instant (execution
            // is costed, not simulated); the end record carries the
            // numbers.
            ProbeRecord::ExecBegin { .. } => {}
            ProbeRecord::ExecEnd {
                node,
                fuel,
                host_calls,
            } => {
                name_node(&mut events, node);
                events.push(instant(
                    "exec",
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![
                        ("fuel", Json::U64(fuel)),
                        ("host_calls", Json::U64(host_calls)),
                    ],
                ));
            }
            ProbeRecord::TimerArm { node, id, deadline } => {
                name_node(&mut events, node);
                events.push(instant(
                    "timer_arm",
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![
                        ("id", Json::U64(id)),
                        ("deadline_ns", Json::U64(deadline.as_ns())),
                    ],
                ));
            }
            ProbeRecord::TimerFire { node, id } => {
                name_node(&mut events, node);
                events.push(instant(
                    "timer_fire",
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![("id", Json::U64(id))],
                ));
            }
            ProbeRecord::TimerCancel { node, id } => {
                name_node(&mut events, node);
                events.push(instant(
                    "timer_cancel",
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![("id", Json::U64(id))],
                ));
            }
            ProbeRecord::Mark { node, label } => {
                name_node(&mut events, node);
                events.push(instant(
                    label,
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![],
                ));
            }
            ProbeRecord::LinkDown { seg } => {
                seg_down.entry(seg.0 as u64).or_insert(ns);
            }
            ProbeRecord::LinkUp { seg } => {
                let tid = seg.0 as u64;
                match seg_down.remove(&tid) {
                    Some(start) => {
                        events.push(complete(
                            "down",
                            PID_SEGMENTS,
                            tid,
                            start,
                            ns - start,
                            vec![],
                        ));
                    }
                    // A heal with no recorded outage (e.g. the ring
                    // displaced the LinkDown record) still shows up.
                    None => events.push(instant("link_up", PID_SEGMENTS, tid, ns, vec![])),
                }
            }
            ProbeRecord::NodeCrash { node } => {
                name_node(&mut events, node);
                node_down.entry(node.0).or_insert(ns);
            }
            ProbeRecord::NodeRestart { node } => {
                name_node(&mut events, node);
                let pid = node_pid(world, node);
                match node_down.remove(&node.0) {
                    Some(start) => {
                        events.push(complete(
                            "crashed",
                            pid,
                            node.0 as u64,
                            start,
                            ns - start,
                            vec![],
                        ));
                    }
                    None => events.push(instant("restart", pid, node.0 as u64, ns, vec![])),
                }
            }
            ProbeRecord::Quarantine { node } => {
                name_node(&mut events, node);
                events.push(instant(
                    "quarantine",
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![],
                ));
            }
            // Defense-plane records: each is an instant on the bridge's
            // track carrying the port it fired on.
            ProbeRecord::LearnEvict { node, port }
            | ProbeRecord::LearnReject { node, port }
            | ProbeRecord::PortSuppressed { node, port }
            | ProbeRecord::PortReleased { node, port }
            | ProbeRecord::BpduGuardTrip { node, port } => {
                let label = match ev.record {
                    ProbeRecord::LearnEvict { .. } => "learn_evict",
                    ProbeRecord::LearnReject { .. } => "learn_reject",
                    ProbeRecord::PortSuppressed { .. } => "port_suppressed",
                    ProbeRecord::PortReleased { .. } => "port_released",
                    _ => "bpdu_guard_trip",
                };
                name_node(&mut events, node);
                events.push(instant(
                    label,
                    node_pid(world, node),
                    node.0 as u64,
                    ns,
                    vec![("port", Json::U64(port.0 as u64))],
                ));
            }
        }
    }

    // Outages still open at the horizon render as spans reaching it
    // (sorted for byte-deterministic output).
    let end_ns = report.end.as_ns();
    let mut open_segs: Vec<(u64, u64)> = seg_down.into_iter().collect();
    open_segs.sort_unstable();
    for (tid, start) in open_segs {
        events.push(complete(
            "down",
            PID_SEGMENTS,
            tid,
            start,
            end_ns.saturating_sub(start),
            vec![],
        ));
    }
    let mut open_bursts: Vec<(u64, u64)> = burst_open.into_iter().collect();
    open_bursts.sort_unstable();
    for (tid, start) in open_bursts {
        events.push(complete(
            "burst",
            PID_SEGMENTS,
            tid,
            start,
            end_ns.saturating_sub(start),
            vec![],
        ));
    }
    let mut open_nodes: Vec<(usize, u64)> = node_down.into_iter().collect();
    open_nodes.sort_unstable();
    for (id, start) in open_nodes {
        let node = NodeId(id);
        events.push(complete(
            "crashed",
            node_pid(world, node),
            id as u64,
            start,
            end_ns.saturating_sub(start),
            vec![],
        ));
    }

    let probe = world.probe();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj(vec![
                ("scenario", Json::str(&report.scenario.name)),
                ("seed", Json::U64(report.scenario.seed)),
                ("records", Json::U64(probe.len() as u64)),
                ("records_dropped", Json::U64(probe.dropped())),
                ("end_ns", Json::U64(report.end.as_ns())),
            ]),
        ),
    ])
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
