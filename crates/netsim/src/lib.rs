//! # netsim — deterministic discrete-event network simulator
//!
//! The hardware/OS substrate for the Active Bridging reproduction. The
//! paper's prototype ran on physical 100 Mb/s Ethernet LANs joined by an HP
//! Netserver running Linux; this crate provides the synthetic equivalent:
//!
//! * [`World`] — the simulation: an event queue totally ordered by
//!   `(time, sequence)`, a deterministic RNG, segments and nodes;
//! * [`segment::Segment`] — a shared-medium Ethernet LAN: one frame
//!   serializes at a time at the configured bandwidth, every attached port
//!   hears every frame (bridges rely on promiscuous reception) unless it
//!   declared a receive filter ([`Ctx::set_rx_filter`]);
//! * [`node::Node`] — the trait implemented by hosts, bridges and
//!   repeaters; event-driven (`on_start` / `on_frame` / `on_timer`);
//! * [`cost::CostModel`] — the per-frame/per-byte software cost model that
//!   reproduces the paper's Figure 5 seven-step path economics;
//! * [`service::ServiceQueue`] — single-server FIFO for store-compute-
//!   forward elements;
//! * [`fault::FaultConfig`] — deterministic drop/corrupt/duplicate
//!   injection per segment;
//! * [`sketch::Sketch`] — the integer log2 histogram measurement apps
//!   fold their samples into.
//!
//! Everything is integer-arithmetic deterministic: a run is a pure function
//! of `(topology, seed, cost model)`.
//!
//! ## Example
//!
//! ```
//! use netsim::{Ctx, FrameBuf, Node, NodeId, PortId, SegmentConfig, SimTime, World};
//!
//! struct Hello;
//! impl Node for Hello {
//!     fn name(&self) -> &str { "hello" }
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(PortId(0), FrameBuf::from_static(b"hi"));
//!     }
//!     fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
//!     fn as_any(&self) -> &dyn core::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn core::any::Any { self }
//! }
//!
//! struct Sink(u64);
//! impl Node for Sink {
//!     fn name(&self) -> &str { "sink" }
//!     fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) { self.0 += 1; }
//!     fn as_any(&self) -> &dyn core::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn core::any::Any { self }
//! }
//!
//! let mut world = World::new(42);
//! let lan = world.add_segment(SegmentConfig::default());
//! let h = world.add_node(Hello);
//! let s = world.add_node(Sink(0));
//! world.attach(h, lan);
//! world.attach(s, lan);
//! world.run_until(SimTime::from_ms(1));
//! assert_eq!(world.node::<Sink>(s).0, 1);
//! ```

pub mod chaos;
pub mod cost;
mod event;
pub mod fasthash;
pub mod fault;
pub mod node;
pub mod probe;
pub mod rng;
pub mod segment;
pub mod service;
pub mod sketch;
pub mod time;
pub mod trace;
mod world;

pub use chaos::{ChaosAction, ChaosEv, ChaosScript, ChaosStep};
pub use cost::CostModel;
pub use fasthash::{FastMap, FxBuildHasher};
pub use fault::{BurstConfig, FaultConfig};
pub use framebuf::{FrameBuf, FrameBufMut};
pub use node::{Node, NodeId, PortId, TimerHandle, TimerToken};
pub use probe::{Probe, ProbeConfig, ProbeEvent, ProbeRecord};
pub use rng::Xoshiro;
pub use segment::{Attachment, SegCounters, SegId, Segment, SegmentConfig, WIRE_OVERHEAD};
pub use service::{Offer, ServiceQueue};
pub use sketch::Sketch;
pub use time::{SimDuration, SimTime};
pub use trace::{Counters, Trace, TraceEntry};
pub use world::{Ctx, SegmentStats, World, WorldCore, WorldStats};
