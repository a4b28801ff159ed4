//! Switchlet 3: spanning tree — the protocol engine and the switchlet
//! wrappers for the IEEE 802.1D and DEC-style variants. Both wire codecs
//! are `ether`'s ([`bpdu`]), shared with the hosts that speak BPDUs.

pub use ether::bpdu;
pub mod engine;

use ether::{EtherType, Frame, FrameBuilder, Llc, MacAddr};
use netsim::{FrameBuf, FrameBufMut, PortId, ProbeRecord, SimDuration};

use crate::bridge::{BridgeCommand, BridgeCtx, DataFrame, NativeSwitchlet};
use crate::plane::PortFlags;
use crate::switchlets::stp::bpdu::{Bpdu, BridgeId, ConfigBpdu, StpVariant};
use crate::switchlets::stp::engine::{Defect, StpAction, StpEngine};

/// Unit name of the IEEE 802.1D switchlet (the "new" protocol).
pub const IEEE_NAME: &str = "stp_ieee";
/// Unit name of the DEC-style switchlet (the "old" protocol).
pub const DEC_NAME: &str = "stp_dec";

const TICK_TOKEN: u32 = 1;
const TICK: SimDuration = SimDuration::from_secs(1);

/// The frame that carries `config` from station `src` in `variant`'s
/// framing, composed in `buf` (whose contents are discarded): Ethernet
/// header, the LLC header 802.1D travels under, and the encoded BPDU, each
/// written once, straight behind the other.
pub fn config_frame(
    variant: StpVariant,
    src: MacAddr,
    config: &ConfigBpdu,
    buf: FrameBufMut,
) -> FrameBuf {
    let bpdu = Bpdu::Config(*config);
    match variant {
        StpVariant::Ieee => FrameBuilder::new_llc(MacAddr::ALL_BRIDGES, src)
            .in_buf(buf)
            .payload_with(ether::llc::LLC_LEN + bpdu::ieee::CONFIG_LEN, |out| {
                Llc::BPDU.write_into(out);
                variant.emit_into(&bpdu, out);
            }),
        StpVariant::Dec => FrameBuilder::new(MacAddr::DEC_BRIDGES, src, EtherType::DEC_STP)
            .in_buf(buf)
            .payload_with(bpdu::dec::CONFIG_LEN, |out| variant.emit_into(&bpdu, out)),
    }
    .build()
}

/// The BPDU a received frame carries in `variant`'s framing, if it is one.
pub fn decode_frame(variant: StpVariant, frame: &Frame<'_>) -> Option<Bpdu> {
    match variant {
        StpVariant::Ieee => {
            let (llc, rest) = Llc::parse(frame.payload())?;
            if llc != Llc::BPDU {
                return None;
            }
            variant.parse(rest)
        }
        StpVariant::Dec => {
            if frame.ethertype() != EtherType::DEC_STP {
                return None;
            }
            variant.parse(frame.payload())
        }
    }
}

/// The spanning-tree switchlet: one engine behind one of two codecs.
pub struct StpSwitchlet {
    variant: StpVariant,
    engine: Option<StpEngine>,
    defect: Defect,
    tick: Option<netsim::TimerHandle>,
    /// What the engine asked for on the event being handled: filled by
    /// the engine, drained by [`StpSwitchlet::apply`], storage kept.
    actions: Vec<StpAction>,
    /// BPDU-guard err-disabled ports (sticky for the life of this
    /// switchlet instance; a crash recreates the instance, which re-arms
    /// the guard fresh — matching the rest of the volatile plane).
    tripped: Vec<bool>,
}

impl StpSwitchlet {
    /// IEEE 802.1D flavour.
    pub fn ieee() -> StpSwitchlet {
        StpSwitchlet {
            variant: StpVariant::Ieee,
            engine: None,
            defect: Defect::None,
            tick: None,
            actions: Vec::new(),
            tripped: Vec::new(),
        }
    }

    /// DEC-style flavour.
    pub fn dec() -> StpSwitchlet {
        StpSwitchlet {
            variant: StpVariant::Dec,
            engine: None,
            defect: Defect::None,
            tick: None,
            actions: Vec::new(),
            tripped: Vec::new(),
        }
    }

    /// Inject a defect into the election (the paper's "bug in the new
    /// protocol implementation" for the fallback experiment).
    pub fn with_defect(mut self, defect: Defect) -> StpSwitchlet {
        self.defect = defect;
        self
    }

    /// The running engine, if any (tests/experiments).
    pub fn engine(&self) -> Option<&StpEngine> {
        self.engine.as_ref()
    }

    fn unit_name(&self) -> &'static str {
        match self.variant {
            StpVariant::Ieee => IEEE_NAME,
            StpVariant::Dec => DEC_NAME,
        }
    }

    /// True when BPDU guard has err-disabled `port`.
    pub fn is_tripped(&self, port: usize) -> bool {
        self.tripped.get(port).copied().unwrap_or(false)
    }

    fn start(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        let bridge_id = BridgeId::new(bc.cfg.priority, bc.mac);
        let (mut engine, actions) =
            StpEngine::new(bridge_id, bc.num_ports(), 100, bc.cfg.stp, bc.now());
        engine.set_defect(self.defect);
        self.engine = Some(engine);
        self.actions = actions;
        bc.plane
            .register_addr(self.variant.group_addr(), self.unit_name());
        self.apply(bc);
        self.tick = Some(bc.schedule(TICK, TICK_TOKEN));
        let name = self.unit_name();
        bc.log(format_args!("{name}: protocol started"));
    }

    /// Carry out what the engine left in `self.actions`, then republish
    /// its tree.
    fn apply(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            // An err-disabled port is dead to the protocol: the engine
            // may still compute actions for it, but nothing it decides
            // can transmit on or re-enable a guarded-down port.
            match action {
                StpAction::SendConfig { port, config } => {
                    if self.is_tripped(port) {
                        continue;
                    }
                    let buf = bc.sim.take_buf(ether::MIN_FRAME);
                    let frame = config_frame(self.variant, bc.mac, &config, buf);
                    bc.send_frame(PortId(port), frame);
                }
                StpAction::SetPortState { port, state } => {
                    if self.is_tripped(port) {
                        continue;
                    }
                    bc.plane.set_port_flags(
                        port,
                        PortFlags {
                            forward: state.forwards(),
                            learn: state.learns(),
                        },
                    );
                }
            }
        }
        self.actions = actions;
        if let Some(engine) = &self.engine {
            bc.plane.publish(self.variant, engine);
        }
    }
}

impl NativeSwitchlet for StpSwitchlet {
    fn name(&self) -> &'static str {
        self.unit_name()
    }

    fn on_install(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // The paper's deployment story: the new protocol is loaded while
        // the old one operates, and stays dormant — "It checks that the
        // DEC switchlet is operating and that the 802.1D switchlet is
        // not." If the other variant is already running, install
        // suspended and wait for the control switchlet.
        let other = match self.variant {
            StpVariant::Ieee => DEC_NAME,
            StpVariant::Dec => IEEE_NAME,
        };
        if bc.plane.is_running(other) {
            bc.log(format_args!(
                "{}: loaded dormant ({other} is operating)",
                self.unit_name()
            ));
            let name = self.unit_name().to_owned();
            bc.command(BridgeCommand::Suspend(name));
            return;
        }
        self.start(bc);
    }

    fn on_suspend(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // Halt the protocol; the engine's last snapshot stays published
        // (the control switchlet captures it at suspension time).
        self.engine = None;
        if let Some(handle) = self.tick.take() {
            bc.cancel(handle);
        }
        let name = self.unit_name();
        bc.log(format_args!("{name}: protocol halted"));
    }

    fn on_resume(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // Restart fresh: a resumed protocol re-elects from scratch.
        self.start(bc);
    }

    fn on_registered_frame(
        &mut self,
        bc: &mut BridgeCtx<'_, '_>,
        port: PortId,
        frame: &DataFrame<'_>,
    ) {
        // BPDU guard: an access port must never speak spanning tree. Any
        // BPDU on a guarded port err-disables it before the frame reaches
        // the decoder — a forged superior BPDU cannot touch the election.
        if bc.cfg.bpdu_guard.contains(&port.0) {
            if !self.is_tripped(port.0) {
                if self.tripped.len() <= port.0 {
                    self.tripped.resize(port.0 + 1, false);
                }
                self.tripped[port.0] = true;
                bc.plane.set_port_flags(
                    port.0,
                    PortFlags {
                        forward: false,
                        learn: false,
                    },
                );
                bc.plane.stats.bpdu_guard_trips += 1;
                bc.sim.bump("bridge.bpdu_guard_trips", 1);
                bc.sim
                    .probe(|node| ProbeRecord::BpduGuardTrip { node, port });
                let name = self.unit_name();
                bc.log(format_args!(
                    "{name}: BPDU guard err-disabled port {}",
                    port.0
                ));
            }
            return;
        }
        let Some(bpdu) = decode_frame(self.variant, frame.view()) else {
            return;
        };
        let Some(engine) = &mut self.engine else {
            return;
        };
        match bpdu {
            Bpdu::Config(config) => {
                engine.on_config(port.0, &config, bc.now(), &mut self.actions);
                self.apply(bc);
            }
            Bpdu::Tcn => {
                // Topology-change notifications shorten learning-table
                // aging in full 802.1D; flushing is the conservative
                // equivalent at our scale.
                bc.plane.learn.flush();
            }
        }
    }

    fn on_timer(&mut self, bc: &mut BridgeCtx<'_, '_>, user: u32) {
        if user != TICK_TOKEN {
            return;
        }
        let Some(engine) = &mut self.engine else {
            return;
        };
        engine.on_tick(bc.now(), &mut self.actions);
        self.apply(bc);
        self.tick = Some(bc.schedule(TICK, TICK_TOKEN));
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}
