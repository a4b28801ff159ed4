//! The spanning-tree protocol engine (classic 802.1D semantics).
//!
//! A pure state machine: inputs are received configuration BPDUs and a
//! 1 Hz tick; outputs are [`StpAction`]s (BPDUs to transmit, port-state
//! changes to apply through the bridge's access points). Both the IEEE
//! switchlet and the DEC-style switchlet wrap the same engine with
//! different codecs and group addresses — exactly the paper's construction,
//! which changed only the packet format (footnote 4).
//!
//! The algorithm is Perlman's distributed spanning tree:
//!
//! 1. every bridge initially believes it is the root;
//! 2. configuration BPDUs carry `(root, cost, bridge, port)` vectors,
//!    compared lexicographically (lower is better);
//! 3. each port remembers the best vector it has heard (aged out after
//!    `max_age`); the best of those + the port's path cost elects the
//!    root and the root port;
//! 4. a port on which our own vector beats everything heard is
//!    *designated* and transmits; everything else blocks;
//! 5. newly active ports walk Blocking → Listening → Learning →
//!    Forwarding, each stage taking `forward_delay` — the source of the
//!    paper's ~30 s re-convergence figure (Section 7.5).

use netsim::{SimDuration, SimTime};

use crate::config::StpTimers;
use crate::switchlets::stp::bpdu::{BridgeId, ConfigBpdu};

/// Port states, as in 802.1D.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PortState {
    /// Administratively down (not used by the engine itself).
    Disabled,
    /// Receives BPDUs only; no learning, no forwarding.
    Blocking,
    /// Transitional: participates in STP, still no learning/forwarding.
    Listening,
    /// Learns addresses, does not forward.
    Learning,
    /// Full operation.
    Forwarding,
}

impl PortState {
    /// May data frames be forwarded to/from this port?
    pub fn forwards(self) -> bool {
        matches!(self, PortState::Forwarding)
    }

    /// May source addresses be learned on this port?
    pub fn learns(self) -> bool {
        matches!(self, PortState::Learning | PortState::Forwarding)
    }
}

/// Port roles.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PortRole {
    /// Path toward the root.
    Root,
    /// We transmit configuration BPDUs here.
    Designated,
    /// Redundant path: blocked.
    Blocked,
}

/// The priority vector carried in configuration BPDUs.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PriorityVector {
    /// Claimed root.
    pub root: BridgeId,
    /// Cost to that root.
    pub cost: u32,
    /// Transmitting bridge.
    pub bridge: BridgeId,
    /// Transmitting port.
    pub port: u16,
}

/// What the engine wants done.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StpAction {
    /// Transmit a configuration BPDU on a port.
    SendConfig {
        /// Engine port index (0-based).
        port: usize,
        /// The BPDU.
        config: ConfigBpdu,
    },
    /// Apply a port state through the bridge access points.
    SetPortState {
        /// Engine port index (0-based).
        port: usize,
        /// New state.
        state: PortState,
    },
}

#[derive(Clone, Debug)]
struct StpPort {
    path_cost: u32,
    role: PortRole,
    state: PortState,
    /// When the current transitional state was entered.
    state_since: SimTime,
    /// Best information heard on this port, with its expiry.
    stored: Option<(PriorityVector, SimTime)>,
}

/// Injectable defect for the paper's fallback experiment ("If the spanning
/// tree does not converge to the expected values ... there must be a bug
/// in the new protocol implementation").
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Defect {
    /// Correct behaviour.
    #[default]
    None,
    /// The election comparator is inverted: the *worst* root wins. The
    /// protocol still runs and converges — to the wrong tree.
    InvertedElection,
}

/// The engine.
#[derive(Clone, Debug)]
pub struct StpEngine {
    bridge_id: BridgeId,
    timers: StpTimers,
    ports: Vec<StpPort>,
    root: BridgeId,
    root_cost: u32,
    root_port: Option<usize>,
    last_hello: SimTime,
    defect: Defect,
}

/// A comparable summary of the tree this node computed — what the paper's
/// control switchlet captures from the old protocol and checks against the
/// new one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StpSnapshot {
    /// Elected root (MAC only: the two protocols may use different
    /// priority encodings, the physical root must agree).
    pub root_mac: ether::MacAddr,
    /// Our cost to the root.
    pub root_cost: u32,
    /// Our root port.
    pub root_port: Option<usize>,
    /// Role of every port.
    pub roles: Vec<PortRole>,
}

impl StpEngine {
    /// Create an engine for `n_ports` ports with uniform `path_cost`
    /// (100 is the classic 10 Mb/s-era constant; the port cost only needs
    /// to be consistent across bridges for tree agreement).
    pub fn new(
        bridge_id: BridgeId,
        n_ports: usize,
        path_cost: u32,
        timers: StpTimers,
        now: SimTime,
    ) -> (StpEngine, Vec<StpAction>) {
        let mut engine = StpEngine {
            bridge_id,
            timers,
            ports: (0..n_ports)
                .map(|_| StpPort {
                    path_cost,
                    role: PortRole::Designated,
                    state: PortState::Blocking,
                    state_since: now,
                    stored: None,
                })
                .collect(),
            root: bridge_id,
            root_cost: 0,
            root_port: None,
            last_hello: now,
            defect: Defect::None,
        };
        let mut actions = Vec::new();
        engine.recompute(now, &mut actions);
        // Startup hello burst: announce ourselves as root.
        engine.send_hellos(now, &mut actions);
        (engine, actions)
    }

    /// Inject a defect (for the fallback experiment).
    pub fn set_defect(&mut self, defect: Defect) {
        self.defect = defect;
    }

    /// Our bridge id.
    pub fn bridge_id(&self) -> BridgeId {
        self.bridge_id
    }

    /// The elected root.
    pub fn root(&self) -> BridgeId {
        self.root
    }

    /// True if we believe we are the root.
    pub fn is_root(&self) -> bool {
        self.root == self.bridge_id
    }

    /// Current state of a port.
    pub fn port_state(&self, port: usize) -> PortState {
        self.ports[port].state
    }

    /// Current role of a port.
    pub fn port_role(&self, port: usize) -> PortRole {
        self.ports[port].role
    }

    /// Comparable summary of the computed tree.
    pub fn snapshot(&self) -> StpSnapshot {
        let mut out = StpSnapshot {
            root_mac: self.root.mac,
            root_cost: self.root_cost,
            root_port: self.root_port,
            roles: Vec::with_capacity(self.ports.len()),
        };
        self.snapshot_into(&mut out);
        out
    }

    /// [`StpEngine::snapshot`] written over `out`, whose `roles` storage
    /// is kept: republishing after every event allocates nothing.
    pub fn snapshot_into(&self, out: &mut StpSnapshot) {
        out.root_mac = self.root.mac;
        out.root_cost = self.root_cost;
        out.root_port = self.root_port;
        out.roles.clear();
        out.roles.extend(self.ports.iter().map(|p| p.role));
    }

    fn better(&self, a: &PriorityVector, b: &PriorityVector) -> bool {
        match self.defect {
            Defect::None => a < b,
            Defect::InvertedElection => {
                // Invert only the root comparison — the defect converges
                // to a wrong-rooted tree instead of diverging entirely.
                if a.root != b.root {
                    a.root > b.root
                } else {
                    (a.cost, a.bridge, a.port) < (b.cost, b.bridge, b.port)
                }
            }
        }
    }

    /// Our advertisement on `port`.
    fn our_vector(&self, port: usize) -> PriorityVector {
        PriorityVector {
            root: self.root,
            cost: self.root_cost,
            bridge: self.bridge_id,
            port: (port + 1) as u16,
        }
    }

    /// Handle a received configuration BPDU; what it calls for is
    /// appended to `actions` (the caller's buffer, reused across events).
    pub fn on_config(
        &mut self,
        port: usize,
        config: &ConfigBpdu,
        now: SimTime,
        actions: &mut Vec<StpAction>,
    ) {
        let vector = PriorityVector {
            root: config.root,
            cost: config.root_cost,
            bridge: config.bridge,
            port: config.port,
        };
        let life_s = config.max_age.saturating_sub(config.message_age).max(1) as u64;
        let expires = now + SimDuration::from_secs(life_s);
        let p = &mut self.ports[port];
        let replace = match &p.stored {
            None => true,
            Some((stored, _)) => {
                let stored = *stored;
                // Fresh info from the same transmitter always refreshes;
                // otherwise only superior info displaces the stored vector.
                stored.bridge == vector.bridge && stored.port == vector.port
                    || self.better(&vector, &stored)
            }
        };
        if replace {
            self.ports[port].stored = Some((vector, expires));
        }
        self.recompute(now, actions);
        // Classic relay: information from the root port propagates out of
        // the designated ports immediately.
        if self.root_port == Some(port) {
            self.send_hellos(now, actions);
        } else if self.ports[port].role == PortRole::Designated {
            // Someone inferior is transmitting on our designated segment:
            // answer with our own (superior) configuration.
            let cfg = self.config_for(port);
            actions.push(StpAction::SendConfig { port, config: cfg });
        }
    }

    /// 1 Hz housekeeping tick: expiry, state progression, hellos —
    /// appended to `actions`, like [`StpEngine::on_config`].
    pub fn on_tick(&mut self, now: SimTime, actions: &mut Vec<StpAction>) {
        // Expire stored information.
        let mut expired_any = false;
        for p in &mut self.ports {
            if let Some((_, expires)) = p.stored {
                if expires <= now {
                    p.stored = None;
                    expired_any = true;
                }
            }
        }
        if expired_any {
            self.recompute(now, actions);
        }
        // Progress transitional states.
        for i in 0..self.ports.len() {
            let p = &self.ports[i];
            if matches!(p.role, PortRole::Root | PortRole::Designated) {
                let elapsed = now.saturating_since(p.state_since);
                let next = match p.state {
                    PortState::Listening if elapsed >= self.timers.forward_delay => {
                        Some(PortState::Learning)
                    }
                    PortState::Learning if elapsed >= self.timers.forward_delay => {
                        Some(PortState::Forwarding)
                    }
                    _ => None,
                };
                if let Some(state) = next {
                    self.ports[i].state = state;
                    self.ports[i].state_since = now;
                    actions.push(StpAction::SetPortState { port: i, state });
                }
            }
        }
        // Root sends hellos.
        if self.is_root() && now.saturating_since(self.last_hello) >= self.timers.hello {
            self.send_hellos(now, actions);
        }
    }

    fn config_for(&self, port: usize) -> ConfigBpdu {
        // Message age: zero from the root; one hop added per relay.
        let message_age = if self.is_root() { 0 } else { 1 };
        ConfigBpdu {
            root: self.root,
            root_cost: self.root_cost,
            bridge: self.bridge_id,
            port: (port + 1) as u16,
            message_age,
            max_age: (self.timers.max_age.as_ns() / 1_000_000_000) as u16,
            hello_time: (self.timers.hello.as_ns() / 1_000_000_000) as u16,
            forward_delay: (self.timers.forward_delay.as_ns() / 1_000_000_000) as u16,
            tc: false,
            tca: false,
        }
    }

    fn send_hellos(&mut self, now: SimTime, out: &mut Vec<StpAction>) {
        self.last_hello = now;
        for i in 0..self.ports.len() {
            if self.ports[i].role == PortRole::Designated
                && self.ports[i].state != PortState::Disabled
            {
                out.push(StpAction::SendConfig {
                    port: i,
                    config: self.config_for(i),
                });
            }
        }
    }

    /// Re-run the election and role assignment; emit state changes.
    fn recompute(&mut self, now: SimTime, actions: &mut Vec<StpAction>) {
        // Elect the root.
        let mut best: Option<(PriorityVector, usize)> = None;
        for (i, p) in self.ports.iter().enumerate() {
            if let Some((stored, _)) = &p.stored {
                let mut candidate = *stored;
                candidate.cost = candidate.cost.saturating_add(p.path_cost);
                let is_better = match &best {
                    None => true,
                    Some((b, bi)) => self.better(&candidate, b) || (candidate == *b && i < *bi),
                };
                if is_better {
                    best = Some((candidate, i));
                }
            }
        }
        let we_are_root = match &best {
            None => true,
            // Compare root claims: our id vs the best heard root.
            Some((b, _)) => match self.defect {
                Defect::None => self.bridge_id <= b.root,
                Defect::InvertedElection => self.bridge_id >= b.root,
            },
        };
        if we_are_root {
            self.root = self.bridge_id;
            self.root_cost = 0;
            self.root_port = None;
        } else {
            let (b, i) = best.expect("non-root implies a best candidate");
            self.root = b.root;
            self.root_cost = b.cost;
            self.root_port = Some(i);
        }

        // Assign roles.
        for i in 0..self.ports.len() {
            let role = if Some(i) == self.root_port {
                PortRole::Root
            } else {
                let ours = self.our_vector(i);
                let designated = match &self.ports[i].stored {
                    None => true,
                    Some((stored, _)) => {
                        stored.bridge == self.bridge_id || self.better(&ours, stored)
                    }
                };
                if designated {
                    PortRole::Designated
                } else {
                    PortRole::Blocked
                }
            };
            let p = &mut self.ports[i];
            let old_role = p.role;
            p.role = role;
            match role {
                PortRole::Blocked => {
                    if p.state != PortState::Blocking {
                        p.state = PortState::Blocking;
                        p.state_since = now;
                        actions.push(StpAction::SetPortState {
                            port: i,
                            state: PortState::Blocking,
                        });
                    }
                }
                PortRole::Root | PortRole::Designated => {
                    if p.state == PortState::Blocking
                        || (old_role == PortRole::Blocked && p.state == PortState::Disabled)
                    {
                        p.state = PortState::Listening;
                        p.state_since = now;
                        actions.push(StpAction::SetPortState {
                            port: i,
                            state: PortState::Listening,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ether::MacAddr;

    fn id(n: u32) -> BridgeId {
        BridgeId::new(0x8000, MacAddr::local(n))
    }

    fn timers() -> StpTimers {
        StpTimers::default()
    }

    fn tick(e: &mut StpEngine, now: SimTime) -> Vec<StpAction> {
        let mut actions = Vec::new();
        e.on_tick(now, &mut actions);
        actions
    }

    fn config(e: &mut StpEngine, port: usize, cfg: &ConfigBpdu, now: SimTime) -> Vec<StpAction> {
        let mut actions = Vec::new();
        e.on_config(port, cfg, now, &mut actions);
        actions
    }

    /// Drive a set of engines on shared segments until quiescent.
    /// `wiring[b][p]` = segment index of bridge b's port p.
    fn converge(engines: &mut [StpEngine], wiring: &[Vec<usize>], seconds: u64) {
        let mut now = SimTime::ZERO;
        for _ in 0..seconds {
            now += SimDuration::from_secs(1);
            // Collect tick actions, then deliver SendConfigs.
            let mut deliveries: Vec<(usize, usize, ConfigBpdu)> = Vec::new(); // (to_bridge, to_port, bpdu)
            for (b, engine) in engines.iter_mut().enumerate() {
                for action in tick(engine, now) {
                    if let StpAction::SendConfig { port, config } = action {
                        let seg = wiring[b][port];
                        for (ob, ports) in wiring.iter().enumerate() {
                            if ob == b {
                                continue;
                            }
                            for (op, oseg) in ports.iter().enumerate() {
                                if *oseg == seg {
                                    deliveries.push((ob, op, config));
                                }
                            }
                        }
                    }
                }
            }
            // Deliver, possibly generating relays, for a few rounds.
            let mut rounds = 0;
            while !deliveries.is_empty() && rounds < 8 {
                rounds += 1;
                let mut next = Vec::new();
                for (b, p, cfg) in deliveries.drain(..) {
                    for action in config(&mut engines[b], p, &cfg, now) {
                        if let StpAction::SendConfig { port, config } = action {
                            let seg = wiring[b][port];
                            for (ob, ports) in wiring.iter().enumerate() {
                                if ob == b {
                                    continue;
                                }
                                for (op, oseg) in ports.iter().enumerate() {
                                    if *oseg == seg {
                                        next.push((ob, op, config));
                                    }
                                }
                            }
                        }
                    }
                }
                deliveries = next;
            }
        }
    }

    #[test]
    fn lone_bridge_is_root_and_forwards() {
        let (mut e, actions) = StpEngine::new(id(1), 2, 100, timers(), SimTime::ZERO);
        assert!(e.is_root());
        // Starts listening on both designated ports.
        assert!(actions.iter().any(|a| matches!(
            a,
            StpAction::SetPortState {
                state: PortState::Listening,
                ..
            }
        )));
        // After 2 x forward_delay of ticks, both ports forward.
        let mut now = SimTime::ZERO;
        for _ in 0..31 {
            now += SimDuration::from_secs(1);
            tick(&mut e, now);
        }
        assert_eq!(e.port_state(0), PortState::Forwarding);
        assert_eq!(e.port_state(1), PortState::Forwarding);
    }

    #[test]
    fn two_bridges_elect_lower_id() {
        let mut engines = [
            StpEngine::new(id(1), 2, 100, timers(), SimTime::ZERO).0,
            StpEngine::new(id(2), 2, 100, timers(), SimTime::ZERO).0,
        ];
        // a.port1 and b.port0 share segment 1; a.port0 on seg 0, b.port1 on seg 2.
        let wiring = vec![vec![0, 1], vec![1, 2]];
        converge(&mut engines, &wiring, 5);
        assert!(engines[0].is_root());
        assert!(!engines[1].is_root());
        assert_eq!(engines[1].root(), id(1));
        assert_eq!(engines[1].snapshot().root_port, Some(0));
    }

    #[test]
    fn ring_of_three_blocks_exactly_one_port() {
        // Three bridges in a ring: segments 0,1,2; bridge i has ports on
        // segments i and (i+1)%3.
        let mut engines: Vec<StpEngine> = (0..3)
            .map(|i| StpEngine::new(id(i as u32 + 1), 2, 100, timers(), SimTime::ZERO).0)
            .collect();
        let wiring = vec![vec![0, 1], vec![1, 2], vec![2, 0]];
        converge(&mut engines, &wiring, 40);
        // Bridge 1 (lowest id) is root.
        assert!(engines[0].is_root());
        assert!(!engines[1].is_root());
        assert!(!engines[2].is_root());
        // Exactly one port in the whole ring is blocked.
        let blocked: usize = engines
            .iter()
            .map(|e| {
                e.snapshot()
                    .roles
                    .iter()
                    .filter(|r| **r == PortRole::Blocked)
                    .count()
            })
            .sum();
        assert_eq!(blocked, 1, "a ring must block exactly one port");
        // Everything not blocked eventually forwards.
        for e in &engines {
            for p in 0..2 {
                if e.port_role(p) != PortRole::Blocked {
                    assert_eq!(
                        e.port_state(p),
                        PortState::Forwarding,
                        "port {p} of {} should forward",
                        e.bridge_id()
                    );
                }
            }
        }
    }

    #[test]
    fn snapshots_agree_across_ring() {
        let mut engines: Vec<StpEngine> = (0..3)
            .map(|i| StpEngine::new(id(i as u32 + 1), 2, 100, timers(), SimTime::ZERO).0)
            .collect();
        let wiring = vec![vec![0, 1], vec![1, 2], vec![2, 0]];
        converge(&mut engines, &wiring, 40);
        for e in &engines {
            assert_eq!(e.snapshot().root_mac, MacAddr::local(1));
        }
    }

    #[test]
    fn inverted_election_picks_wrong_root() {
        let mut engines: Vec<StpEngine> = (0..3)
            .map(|i| {
                let (mut e, _) = StpEngine::new(id(i as u32 + 1), 2, 100, timers(), SimTime::ZERO);
                e.set_defect(Defect::InvertedElection);
                e
            })
            .collect();
        let wiring = vec![vec![0, 1], vec![1, 2], vec![2, 0]];
        converge(&mut engines, &wiring, 40);
        // The defective protocol converges — to the *highest* id.
        assert_eq!(engines[0].snapshot().root_mac, MacAddr::local(3));
        assert_eq!(engines[2].snapshot().root_mac, MacAddr::local(3));
    }

    #[test]
    fn stored_info_expires_and_reverts_to_root_claim() {
        let (mut e, _) = StpEngine::new(id(5), 1, 100, timers(), SimTime::ZERO);
        let cfg = ConfigBpdu {
            root: id(1),
            root_cost: 0,
            bridge: id(1),
            port: 1,
            message_age: 0,
            max_age: 20,
            hello_time: 2,
            forward_delay: 15,
            tc: false,
            tca: false,
        };
        config(&mut e, 0, &cfg, SimTime::from_secs(1));
        assert!(!e.is_root());
        // No refresh: after max_age the info dies and we claim root again.
        let mut now = SimTime::from_secs(1);
        for _ in 0..25 {
            now += SimDuration::from_secs(1);
            tick(&mut e, now);
        }
        assert!(e.is_root(), "expired info must revert to own root claim");
    }

    #[test]
    fn designated_port_answers_inferior_transmitter() {
        let (mut e, _) = StpEngine::new(id(1), 1, 100, timers(), SimTime::ZERO);
        // An inferior bridge claims root on our segment.
        let cfg = ConfigBpdu {
            root: id(9),
            root_cost: 0,
            bridge: id(9),
            port: 1,
            message_age: 0,
            max_age: 20,
            hello_time: 2,
            forward_delay: 15,
            tc: false,
            tca: false,
        };
        let actions = config(&mut e, 0, &cfg, SimTime::from_secs(1));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, StpAction::SendConfig { port: 0, .. })),
            "designated port must respond to an inferior claim"
        );
        assert!(e.is_root());
    }
}
