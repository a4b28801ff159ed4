//! Switchlet 1: the minimal "dumb" bridge — a buffered repeater.
//!
//! Paper Section 5.3: "It has three parts. Part one is a function that
//! reads an input packet from a queue and sends it out through a given
//! network interface. Part two is a function that takes an input packet
//! and queues it to all network interfaces except for the one on which it
//! was received. Part three is a function that reads packets from a
//! network interface and demultiplexes them to the functions from part
//! two." Parts one and three are the bridge's output path and
//! demultiplexer; this switchlet is part two. "It cannot tolerate a
//! network topology with any loops."

use std::rc::Rc;

use netsim::PortId;

use crate::bridge::{BridgeCtx, DataFrame, NativeSwitchlet};
use crate::plane::DataPlaneSel;

/// The switchlet's unit name.
pub const NAME: &str = "bridge_dumb";

/// The buffered-repeater switching function.
pub struct DumbBridge;

impl NativeSwitchlet for DumbBridge {
    fn name(&self) -> &'static str {
        NAME
    }

    fn on_install(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // Claim every port (first-bind-wins) and install as the
        // switching function.
        let owner: Rc<str> = Rc::from(NAME);
        for p in 0..bc.num_ports() {
            bc.plane.bind_in(p, &owner);
            bc.plane.bind_out(p, &owner);
        }
        bc.plane.set_data_plane(DataPlaneSel::Native(NAME));
        bc.log(format_args!("dumb bridge installed: flooding all ports"));
    }

    fn switch_frame(&mut self, bc: &mut BridgeCtx<'_, '_>, port: PortId, frame: &DataFrame<'_>) {
        // Even the dumb bridge honors the spanning tree's access points
        // if one happens to be running above it.
        if !bc.plane.port_flags(port.0).forward {
            bc.plane.stats.blocked += 1;
            return;
        }
        bc.flood(port, frame);
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}
