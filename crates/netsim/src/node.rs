//! The [`Node`] trait: anything attached to segments — hosts, bridges,
//! repeaters, measurement probes — implements it.
//!
//! Nodes are event-driven: the world calls [`Node::on_start`] once,
//! [`Node::on_frame`] for every frame delivered to one of the node's ports,
//! and [`Node::on_timer`] when a timer the node scheduled fires. All services
//! a node may use during a callback are exposed on [`crate::Ctx`].

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use core::any::Any;
use core::fmt;

use framebuf::FrameBuf;

use crate::Ctx;

/// Identifies a node within a [`crate::World`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Identifies one of a node's ports (attachment points), in attachment
/// order: the first `attach` call creates port 0, the next port 1, and so
/// on. This mirrors the paper's `eth0`, `eth1`, ... device naming.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub usize);

/// An opaque user payload carried by a timer, returned to the node when the
/// timer fires. Nodes typically encode a small enum into it.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken(pub u64);

/// Handle for cancelling a scheduled timer.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle {
    pub(crate) id: u64,
    /// Where the event queue keeps the timer until it fires (`None`: a
    /// zero-delay timer, in the now lane), so cancelling finds it — or
    /// finds it gone — without a table of ids.
    pub(crate) slot: Option<u32>,
}

impl fmt::Display for NodeId {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PortId {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eth{}", self.0)
    }
}

/// A simulated network element.
///
/// Implementations must also provide `as_any`/`as_any_mut` (one-liners) so
/// that experiment code can downcast a node back to its concrete type after
/// a run to read results out of it.
pub trait Node: Any {
    /// Human-readable name used in traces.
    fn name(&self) -> &str;

    /// How many of this node's [`crate::ServiceQueue`]s complete through
    /// [`Ctx::schedule_service`] after a non-zero service time (a
    /// zero-time completion passes through the now lane). The world sizes
    /// its completion ring from the sum, so that a run never grows it.
    #[inline]
    fn service_queues(&self) -> usize {
        0
    }

    /// How many timers ([`Ctx::schedule`]) this node keeps pending at
    /// once in its steady state. The world sizes its timer heap from the
    /// sum, so that a run never grows it; a node that reports too few
    /// costs its world a reallocation of the heap, never a wrong result.
    #[inline]
    fn timers(&self) -> usize {
        0
    }

    /// Called once when the world starts, before any frame flows.
    #[inline]
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A frame arrived on `port`. The buffer is shared with every other
    /// listener of the segment (and the capture log): cloning it is a
    /// refcount bump, and mutation is copy-on-write.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf);

    /// A timer scheduled via [`Ctx::schedule`] fired.
    #[inline]
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}

    /// The node crashed (see [`crate::chaos`]): discard all volatile
    /// state. While crashed the world delivers it no frames and fires
    /// none of its pending timers. Default: no-op (stateless nodes have
    /// nothing to lose).
    #[inline]
    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {}

    /// The node restarted cold after a crash: rebuild whatever a power
    /// cycle would rebuild (reload boot images, restart protocols).
    /// Default: no-op.
    #[inline]
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
