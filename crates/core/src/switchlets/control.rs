//! The control switchlet: automatic protocol transition with validation
//! and fallback (paper Section 5.4, Table 1).
//!
//! Preconditions (checked at load): the DEC switchlet is operating, the
//! 802.1D switchlet is loaded but not. The control switchlet then owns
//! the All Bridges address and waits.
//!
//! | event           | DEC       | IEEE    | control action |
//! |-----------------|-----------|---------|----------------|
//! | load/start      | running   | loaded  | monitor        |
//! | recv IEEE packet| suspended | running | suspend DEC; capture DEC state; start IEEE |
//! | 30 seconds      | loaded    | running | suppress DEC packets |
//! | 60 seconds      | loaded    | running | perform tests  |
//! | pass tests      | loaded    | running | terminate      |
//! | fail tests / late DEC packet | running | loaded | stop IEEE; start DEC; fall back (stable until human intervention) |
//!
//! Validation uses "information unavailable to the implementors of either
//! protocol": the operator knows the two protocols must compute the same
//! tree on this topology, so the control switchlet captures the DEC
//! engine's snapshot at suspension and compares the IEEE engine's
//! snapshot against it at the 60-second mark.

use ether::MacAddr;
use netsim::{PortId, SimDuration, SimTime};

use crate::bridge::{BridgeCommand, BridgeCtx, DataFrame, NativeSwitchlet};
use crate::switchlets::stp::engine::StpSnapshot;
use crate::switchlets::stp::{DEC_NAME, IEEE_NAME};

/// The switchlet's unit name.
pub const NAME: &str = "control";

/// Table 1's "initial transition period": DEC packets arriving within
/// it are suppressed; after it they trigger fallback.
pub const SUPPRESS_WINDOW: SimDuration = SimDuration::from_secs(30);

/// When, after the transition begins, Table 1 compares the new
/// protocol's spanning tree against the captured old state.
pub const TEST_AT: SimDuration = SimDuration::from_secs(60);

const TOKEN_TEST: u32 = 1;
const TOKEN_SUPPRESS_END: u32 = 2;

/// Where the transition stands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for the first new-protocol packet.
    Monitoring,
    /// New protocol running; old packets suppressed; tests pending.
    Transition {
        /// When the transition began.
        started: SimTime,
    },
    /// Terminal state.
    Stable {
        /// True if the transition was rolled back.
        fallback: bool,
    },
}

/// One Table 1 row as it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionEvent {
    /// When.
    pub at: SimTime,
    /// What ("recv IEEE packet", "pass tests", ...).
    pub what: String,
}

/// The control switchlet.
pub struct ControlSwitchlet {
    phase: Phase,
    captured: Option<StpSnapshot>,
    /// DEC packets suppressed during the transition window.
    pub dec_suppressed: u64,
    /// The event log (drives the Table 1 reproduction).
    pub events: Vec<TransitionEvent>,
}

impl Default for ControlSwitchlet {
    fn default() -> Self {
        ControlSwitchlet {
            phase: Phase::Monitoring,
            captured: None,
            dec_suppressed: 0,
            events: Vec::new(),
        }
    }
}

impl ControlSwitchlet {
    /// Current phase.
    pub fn phase(&self) -> &Phase {
        &self.phase
    }

    /// The DEC snapshot captured at suspension.
    pub fn captured(&self) -> Option<&StpSnapshot> {
        self.captured.as_ref()
    }

    fn record(&mut self, bc: &mut BridgeCtx<'_, '_>, what: impl Into<String>) {
        let what = what.into();
        bc.log(format_args!("control: {what}"));
        self.events.push(TransitionEvent { at: bc.now(), what });
    }

    fn begin_transition(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // Capture the old protocol's accumulated spanning-tree state at
        // the moment of its termination.
        self.captured = bc.plane.published.get(DEC_NAME).cloned();
        self.record(bc, "recv IEEE packet: suspend DEC; capture DEC state");
        bc.command(BridgeCommand::Suspend(DEC_NAME.into()));
        bc.command(BridgeCommand::Resume(IEEE_NAME.into()));
        // Hand the All Bridges address to 802.1D; listen to DEC's address
        // ourselves (to suppress and to detect stragglers).
        bc.plane.register_addr(MacAddr::ALL_BRIDGES, IEEE_NAME);
        bc.plane.register_addr(MacAddr::DEC_BRIDGES, NAME);
        self.record(bc, "start IEEE");
        self.phase = Phase::Transition { started: bc.now() };
        bc.schedule(SUPPRESS_WINDOW, TOKEN_SUPPRESS_END);
        bc.schedule(TEST_AT, TOKEN_TEST);
    }

    fn fall_back(&mut self, bc: &mut BridgeCtx<'_, '_>, why: &str) {
        self.record(bc, format!("fallback ({why}): stop IEEE; start DEC"));
        bc.command(BridgeCommand::Suspend(IEEE_NAME.into()));
        bc.command(BridgeCommand::Resume(DEC_NAME.into()));
        // The old protocol listens to its own address again; we take the
        // new protocol's address and suppress whatever arrives there.
        bc.plane.register_addr(MacAddr::DEC_BRIDGES, DEC_NAME);
        bc.plane.register_addr(MacAddr::ALL_BRIDGES, NAME);
        // "Once this fallback has occurred, the network is considered
        // stable and no further transition will occur without human
        // intervention."
        self.phase = Phase::Stable { fallback: true };
    }

    fn perform_tests(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        self.record(bc, "60 seconds: perform tests");
        let ieee = bc.plane.published.get(IEEE_NAME).cloned();
        let passed = match (&self.captured, &ieee) {
            (Some(old), Some(new)) => {
                // The operator's local knowledge: on this topology the
                // trees must agree exactly.
                old.root_mac == new.root_mac
                    && old.root_cost == new.root_cost
                    && old.root_port == new.root_port
                    && old.roles == new.roles
            }
            _ => false,
        };
        if passed {
            self.record(bc, "pass tests: terminate");
            // 802.1D keeps the All Bridges address; nobody needs the DEC
            // address any more.
            bc.plane.unregister_addr(MacAddr::DEC_BRIDGES);
            self.phase = Phase::Stable { fallback: false };
            bc.command(BridgeCommand::Stop(NAME.into()));
        } else {
            self.fall_back(bc, "spanning tree did not converge to expected values");
        }
    }
}

impl NativeSwitchlet for ControlSwitchlet {
    fn name(&self) -> &'static str {
        NAME
    }

    fn on_install(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // "In order to load the control switchlet, both the 802.1D
        // switchlet and the DEC switchlet must already be loaded. It
        // checks that the DEC switchlet is operating and that the 802.1D
        // switchlet is not."
        if !bc.plane.is_running(DEC_NAME) {
            self.record(bc, "precondition failed: DEC not operating; stopping");
            bc.command(BridgeCommand::Stop(NAME.into()));
            return;
        }
        if !bc.plane.is_loaded(IEEE_NAME) || bc.plane.is_running(IEEE_NAME) {
            self.record(
                bc,
                "precondition failed: IEEE must be loaded, dormant; stopping",
            );
            bc.command(BridgeCommand::Stop(NAME.into()));
            return;
        }
        // "It then arranges to receive any packets addressed to the All
        // Bridges multicast address."
        bc.plane.register_addr(MacAddr::ALL_BRIDGES, NAME);
        self.record(bc, "monitoring (DEC running, IEEE loaded)");
    }

    fn on_registered_frame(
        &mut self,
        bc: &mut BridgeCtx<'_, '_>,
        _port: PortId,
        frame: &DataFrame<'_>,
    ) {
        let dst = frame.dst();
        match (&self.phase, dst) {
            (Phase::Monitoring, d) if d == MacAddr::ALL_BRIDGES => {
                // "When an 802.1D packet arrives, the control switchlet
                // assumes that the network is transitioning to the new
                // protocol."
                self.begin_transition(bc);
            }
            (Phase::Transition { started }, d) if d == MacAddr::DEC_BRIDGES => {
                let started = *started;
                let elapsed = bc.now().saturating_since(started);
                if elapsed <= SUPPRESS_WINDOW {
                    self.dec_suppressed += 1;
                } else {
                    self.fall_back(bc, "DEC packet after initial transition period");
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, bc: &mut BridgeCtx<'_, '_>, user: u32) {
        match (user, &self.phase) {
            (TOKEN_SUPPRESS_END, Phase::Transition { .. }) => {
                self.record(bc, "30 seconds: end of DEC suppression window");
            }
            (TOKEN_TEST, Phase::Transition { .. }) => {
                self.perform_tests(bc);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}
