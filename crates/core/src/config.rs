//! Bridge configuration: calibrated cost constants and protocol timers.

use netsim::{CostModel, SimDuration};

/// Spanning-tree timer set (802.1D defaults, which the paper's 30-second
/// agility result depends on: two forward-delay intervals before a new
/// path forwards).
#[derive(Copy, Clone, Debug)]
pub struct StpTimers {
    /// Interval between configuration BPDUs from the root.
    pub hello: SimDuration,
    /// Lifetime of stored protocol information.
    pub max_age: SimDuration,
    /// Listening→Learning and Learning→Forwarding delay.
    pub forward_delay: SimDuration,
}

impl Default for StpTimers {
    fn default() -> Self {
        StpTimers {
            hello: SimDuration::from_secs(2),
            max_age: SimDuration::from_secs(20),
            forward_delay: SimDuration::from_secs(15),
        }
    }
}

/// One storm-control budget: a deterministic token bucket policing one
/// traffic class (broadcast/multicast, or unknown unicast) per ingress
/// port, ahead of the switching function. Refill arithmetic is integer
/// nano-tokens (`elapsed_ns × rate_pps`, one frame = 10⁹ nano-tokens),
/// so policing is replay-stable by construction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StormConfig {
    /// Sustained budget, frames per second, per port.
    pub rate_pps: u64,
    /// Bucket depth, frames (the tolerated burst).
    pub burst: u64,
    /// Over-budget drops before the port-class is suppressed for
    /// `hold_down` (sustained violation, not a stray burst).
    pub trip: u32,
    /// Suppression hold-down; an epoch-tagged timer re-enables the
    /// port-class cleanly when it expires.
    pub hold_down: SimDuration,
}

/// Full bridge configuration.
#[derive(Clone, Debug)]
pub struct BridgeConfig {
    /// Software path cost model (Figure 5). Default: the calibrated
    /// 1997 active-bridge preset.
    pub cost: CostModel,
    /// STP timers.
    pub stp: StpTimers,
    /// Learning-table entry lifetime.
    pub learn_age: SimDuration,
    /// How many distinct stations this bridge should expect to learn
    /// (a topology-derived hint; `0` = unknown). The learning table is
    /// pre-sized from it so metro-scale populations never pay
    /// incremental rehashing on the per-frame learn path.
    pub expected_stations: usize,
    /// Hard cap on learning-table entries (`0` = unbounded, the legacy
    /// behaviour). When full, a new source evicts the oldest-refresh
    /// entry on the offending ingress port, or is rejected if that port
    /// holds nothing.
    pub learn_cap: usize,
    /// Per-port learning-table occupancy quota (`0` = no quota). A port
    /// at quota recycles its own oldest entry instead of crowding out
    /// well-behaved ports.
    pub learn_port_quota: usize,
    /// Storm-control budget for broadcast/multicast ingress (`None` =
    /// policing off, the legacy behaviour).
    pub storm_broadcast: Option<StormConfig>,
    /// Storm-control budget for unknown-unicast (flooded) ingress
    /// (`None` = policing off).
    pub storm_unknown: Option<StormConfig>,
    /// Ports with BPDU guard armed: any received BPDU err-disables the
    /// port instead of reaching the STP engine, so an access host cannot
    /// claim root. Empty = guard off everywhere (legacy behaviour).
    pub bpdu_guard: Vec<usize>,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            cost: CostModel::active_bridge_1997(),
            stp: StpTimers::default(),
            learn_age: SimDuration::from_secs(300),
            expected_stations: 0,
            learn_cap: 0,
            learn_port_quota: 0,
            storm_broadcast: None,
            storm_unknown: None,
            bpdu_guard: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_802_1d() {
        let t = StpTimers::default();
        assert_eq!(t.hello, SimDuration::from_secs(2));
        assert_eq!(t.max_age, SimDuration::from_secs(20));
        assert_eq!(t.forward_delay, SimDuration::from_secs(15));
    }

    #[test]
    fn defenses_default_off() {
        let c = BridgeConfig::default();
        assert_eq!(c.learn_cap, 0);
        assert_eq!(c.learn_port_quota, 0);
        assert!(c.storm_broadcast.is_none());
        assert!(c.storm_unknown.is_none());
        assert!(c.bpdu_guard.is_empty());
    }
}
