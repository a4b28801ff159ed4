//! The "very simple buffered repeater in C" — the paper's user-mode
//! baseline: "This program simply opens two Ethernet devices in
//! promiscuous mode and, for each packet received on one of the
//! interfaces, writes the packet on the other. This gives some idea of the
//! costs caused by bringing the data through the Linux kernel into user
//! space."
//!
//! Same store-compute-forward structure as the bridge, with the
//! [`netsim::CostModel::c_repeater_1997`] cost model (kernel path, near-
//! zero processing) and no bridge logic at all.

use netsim::{CostModel, Ctx, FrameBuf, Node, Offer, PortId, ServiceQueue, TimerToken};

/// The C buffered repeater.
pub struct RepeaterNode {
    name: String,
    cost: CostModel,
    q: ServiceQueue<(PortId, FrameBuf)>,
}

impl RepeaterNode {
    /// Create a repeater (must be attached to exactly two segments).
    pub fn new(name: impl Into<String>, cost: CostModel) -> RepeaterNode {
        RepeaterNode {
            name: name.into(),
            cost,
            q: ServiceQueue::new(256),
        }
    }
}

impl Node for RepeaterNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_queues(&self) -> usize {
        1
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(ctx.num_ports(), 2, "a repeater joins exactly two LANs");
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        let t = self.cost.service_time(frame.len());
        match self.q.offer((port, frame)) {
            Offer::Started => ctx.schedule_service(t, TimerToken(0)),
            Offer::Queued => {}
            Offer::Dropped((_, frame)) => {
                ctx.bump("repeater.drops", 1);
                frame.recycle();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        let ((port, frame), next) = self.q.complete();
        if let Some((_, f)) = next {
            let t = self.cost.service_time(f.len());
            ctx.schedule_service(t, TimerToken(0));
        }
        let out = PortId(1 - port.0);
        ctx.send(out, frame);
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}
