//! Spans recorded from outside the program.
//!
//! The libraries carry no tracing of their own, so the benchmark wraps
//! every node it adds to a world in [`Spanned`], which forwards each
//! [`Node`] method and records one span per call, and brackets the calls
//! it makes itself (`World::run_until`, `runner::run_in`, …) with
//! [`Tracer::span`]. Spans aggregate in memory per `(layer, entry point)`;
//! the first [`RAW_SPAN_CAP`] are also kept raw and written out at exit as
//! Chrome trace-event JSON.
//!
//! A span costs two clock reads plus bookkeeping. Part of that cost falls
//! inside the span's own interval (`inner_ns`) and part outside it, inside
//! the parent's (`outer_ns`); [`calibrate`] measures both on empty spans
//! and [`self_ns`] subtracts them, so a layer's self time is what the layer
//! did, not what watching it cost.

use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use netsim::{Ctx, FrameBuf, Node, PortId, TimerToken};

/// Raw spans kept per process for the trace file.
pub const RAW_SPAN_CAP: usize = 50_000;

/// A registered `(layer, entry point)` pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KeyId(usize);

/// Totals for one `(layer, entry point)`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of the durations of their direct children.
    pub child_ns: u64,
    /// Number of direct children.
    pub child_spans: u64,
}

impl Agg {
    /// Fold `other` in.
    pub fn add(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.child_ns += other.child_ns;
        self.child_spans += other.child_spans;
    }
}

/// One span kept raw for the trace file.
#[derive(Copy, Clone, Debug)]
struct RawSpan {
    key: KeyId,
    id: u64,
    /// Id of the enclosing span, 0 at the root.
    parent: u64,
    round: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    key: KeyId,
    id: u64,
    start_ns: u64,
    child_ns: u64,
    child_spans: u64,
}

struct Inner {
    epoch: Instant,
    keys: Vec<(&'static str, &'static str)>,
    agg: Vec<Agg>,
    open: Vec<Open>,
    raw: Vec<RawSpan>,
    next_id: u64,
    /// The round being recorded; `None` while paused.
    round: Option<u32>,
    /// Rounds started so far.
    rounds: u32,
}

/// The in-memory span recorder. Single-threaded by construction (a
/// `World` is `!Send`); shared with the node wrappers through an `Rc`.
pub struct Tracer(RefCell<Inner>);

/// Closes its span when dropped (`None`: opened while the tracer was
/// paused, so there is nothing to close).
pub struct SpanGuard<'a>(Option<&'a Tracer>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.0 {
            tracer.exit();
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer(RefCell::new(Inner {
            epoch: Instant::now(),
            keys: Vec::new(),
            agg: Vec::new(),
            open: Vec::new(),
            raw: Vec::new(),
            next_id: 1,
            round: Some(0),
            rounds: 0,
        }))
    }
}

impl Tracer {
    /// A fresh shared tracer.
    pub fn shared() -> Rc<Tracer> {
        Rc::new(Tracer::default())
    }

    /// Register (or find) the key for `layer`/`entry`.
    pub fn key(&self, layer: &'static str, entry: &'static str) -> KeyId {
        let mut t = self.0.borrow_mut();
        if let Some(i) = t.keys.iter().position(|&k| k == (layer, entry)) {
            return KeyId(i);
        }
        t.keys.push((layer, entry));
        t.agg.push(Agg::default());
        KeyId(t.keys.len() - 1)
    }

    /// Start the next round: forget the totals so far and record spans
    /// opened from now on, stamped with the round's number (the identifier
    /// every span of one round shares). Raw spans already kept stay.
    pub fn record_round(&self) {
        let mut t = self.0.borrow_mut();
        for agg in &mut t.agg {
            *agg = Agg::default();
        }
        t.rounds += 1;
        t.round = Some(t.rounds);
    }

    /// Ignore spans opened from now on, until [`Tracer::record_round`].
    /// Must not be called with a span open.
    pub fn pause(&self) {
        let mut t = self.0.borrow_mut();
        assert!(t.open.is_empty(), "tracer paused with a span still open");
        t.round = None;
    }

    /// Open a span; it closes when the guard drops.
    #[inline]
    pub fn span(&self, key: KeyId) -> SpanGuard<'_> {
        let mut t = self.0.borrow_mut();
        if t.round.is_none() {
            return SpanGuard(None);
        }
        let id = t.next_id;
        t.next_id += 1;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.open.push(Open {
            key,
            id,
            start_ns,
            child_ns: 0,
            child_spans: 0,
        });
        SpanGuard(Some(self))
    }

    #[inline]
    fn exit(&self) {
        let mut t = self.0.borrow_mut();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        let span = t.open.pop().expect("span closed twice");
        let dur = end_ns - span.start_ns;
        let agg = &mut t.agg[span.key.0];
        agg.count += 1;
        agg.total_ns += dur;
        agg.child_ns += span.child_ns;
        agg.child_spans += span.child_spans;
        let parent = match t.open.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_spans += 1;
                p.id
            }
            None => 0,
        };
        if t.raw.len() < RAW_SPAN_CAP {
            let round = t.round.expect("a span closed, so the tracer is recording");
            t.raw.push(RawSpan {
                key: span.key,
                id: span.id,
                parent,
                round,
                start_ns: span.start_ns,
                end_ns,
            });
        }
    }

    /// Totals per `(layer, entry point)` since the round started, in
    /// registration order.
    pub fn totals(&self) -> Vec<(&'static str, &'static str, Agg)> {
        let t = self.0.borrow();
        assert!(t.open.is_empty(), "totals read with a span still open");
        t.keys
            .iter()
            .zip(&t.agg)
            .map(|(&(layer, entry), &agg)| (layer, entry, agg))
            .collect()
    }

    /// The raw spans as a Chrome trace-event document (opens in Perfetto
    /// or `chrome://tracing`, like `ab_scenario trace`). Timestamps are
    /// microseconds with nanosecond decimals.
    pub fn chrome_trace(&self) -> String {
        let t = self.0.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in t.raw.iter().enumerate() {
            let (layer, entry) = t.keys[s.key.0];
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{entry}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"args\":{{\"id\":{},\"parent\":{},\"round\":{}}}}}",
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                s.id,
                s.parent,
                s.round
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What one span costs, split by where the cost lands.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Calibration {
    /// Nanoseconds of bookkeeping inside a span's own interval.
    pub inner_ns: f64,
    /// Nanoseconds of bookkeeping outside it, charged to the parent.
    pub outer_ns: f64,
}

impl Calibration {
    /// The whole cost of one span, as its parent sees it.
    pub fn span_cost_ns(&self) -> f64 {
        self.inner_ns + self.outer_ns
    }
}

/// Measure the cost of a span on batches of empty ones under one parent,
/// `n` in all; the cheapest batch counts (the host only ever adds time).
pub fn calibrate(n: u64) -> Calibration {
    const BATCH: u64 = 10_000;
    let mut best = Calibration {
        inner_ns: f64::INFINITY,
        outer_ns: f64::INFINITY,
    };
    for _ in 0..n.div_ceil(BATCH) {
        let tracer = Tracer::default();
        let parent = tracer.key("calibrate", "parent");
        let child = tracer.key("calibrate", "child");
        {
            let _p = tracer.span(parent);
            for _ in 0..BATCH {
                let _c = tracer.span(child);
            }
        }
        let totals = tracer.totals();
        let (p, c) = (totals[0].2, totals[1].2);
        let inner_ns = c.total_ns as f64 / BATCH as f64;
        let outer_ns = (p.total_ns as f64 / BATCH as f64 - inner_ns).max(0.0);
        if inner_ns + outer_ns < best.span_cost_ns() {
            best = Calibration { inner_ns, outer_ns };
        }
    }
    best
}

/// Self time of the spans behind `agg`: their durations, minus what their
/// direct children cover, minus the bookkeeping both add.
pub fn self_ns(agg: &Agg, cal: &Calibration) -> f64 {
    (agg.total_ns as f64
        - agg.child_ns as f64
        - agg.child_spans as f64 * cal.outer_ns
        - agg.count as f64 * cal.inner_ns)
        .max(0.0)
}

/// A node wrapper that records one span per [`Node`] callback and is
/// otherwise invisible: the name is the inner node's, and `as_any` hands
/// out the inner node, so `world.node::<BridgeNode>(id)` and
/// `World::with_ctx::<BridgeNode, _>` still downcast.
pub struct Spanned<N: Node> {
    inner: N,
    tracer: Rc<Tracer>,
    on_start: KeyId,
    on_frame: KeyId,
    on_timer: KeyId,
    on_crash: KeyId,
    on_restart: KeyId,
}

impl<N: Node> Spanned<N> {
    /// Wrap `inner`, attributing its callbacks to `layer`.
    pub fn new(inner: N, layer: &'static str, tracer: &Rc<Tracer>) -> Self {
        Spanned {
            inner,
            on_start: tracer.key(layer, "on_start"),
            on_frame: tracer.key(layer, "on_frame"),
            on_timer: tracer.key(layer, "on_timer"),
            on_crash: tracer.key(layer, "on_crash"),
            on_restart: tracer.key(layer, "on_restart"),
            tracer: Rc::clone(tracer),
        }
    }
}

impl<N: Node> Node for Spanned<N> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _span = self.tracer.span(self.on_start);
        self.inner.on_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        let _span = self.tracer.span(self.on_frame);
        self.inner.on_frame(ctx, port, frame);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let _span = self.tracer.span(self.on_timer);
        self.inner.on_timer(ctx, token);
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        let _span = self.tracer.span(self.on_crash);
        self.inner.on_crash(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let _span = self.tracer.span(self.on_restart);
        self.inner.on_restart(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
