//! `ttcp_paper` — the paper's Figure 10: one ttcp transfer per write size
//! through each of four forwarders, hosts on `HostCostModel::pc_1997()` and
//! forwarders on their calibrated 1997 `CostModel`s, so every frame goes
//! through a `ServiceQueue` and a timer (the event path the FREE workloads
//! elide) and the hosts run the whole TCP/IP stack.

use std::rc::Rc;

use ab_scenario::{host_ip, host_mac};
use active_bridge::BridgeConfig;
use hostsim::{App, HostConfig, HostCostModel, HostNode, RepeaterNode, TtcpRecvApp, TtcpSendApp};
use netsim::{CostModel, NodeId, PortId, SegmentConfig, SimDuration, SimTime, Xoshiro};
use netstack::tcplite::{ReceiverConfig, SenderConfig};

use super::{Outcome, Round, Size, Workload};
use crate::net::{layer, Counts, Net};
use crate::span::Tracer;

/// Figure 10's x axis.
const WRITE_SIZES: [usize; 5] = [512, 1024, 2048, 4096, 8192];
/// The write size whose simulated goodput is reported per forwarder.
const GOODPUT_AT: usize = 8192;
const TTCP_PORT: u16 = 5001;

/// What sits between sender and receiver.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Forwarder {
    /// Nothing: both hosts on one LAN.
    Direct,
    /// The user-mode C buffered repeater.
    Repeater,
    /// The active bridge, native learning switchlet.
    Bridge,
    /// The active bridge, `dumb_vm` bytecode on the data path.
    VmBridge,
}

const FORWARDERS: [(Forwarder, &str); 4] = [
    (Forwarder::Direct, "hostsim.sim_goodput_mbps.direct"),
    (Forwarder::Repeater, "hostsim.sim_goodput_mbps.repeater"),
    (Forwarder::Bridge, "hostsim.sim_goodput_mbps.bridge"),
    (Forwarder::VmBridge, "hostsim.sim_goodput_mbps.vm_bridge"),
];

/// The twenty transfers of one round.
pub struct TtcpPaper {
    seed: u64,
    bytes_per_transfer: u64,
}

impl TtcpPaper {
    pub fn new(seed: u64, size: Size) -> Self {
        TtcpPaper {
            seed,
            bytes_per_transfer: size.scale(1_400_000),
        }
    }
}

struct Transfer {
    net: Net,
    sender: NodeId,
    receiver: NodeId,
    goodput_metric: Option<&'static str>,
}

struct TtcpRound {
    /// In the seed's flow order.
    transfers: Vec<Transfer>,
    /// The worlds' statistics after warm-up, summed.
    warm: Counts,
    bytes: u64,
}

impl Workload for TtcpPaper {
    fn prepare(&self, tracer: Option<&Rc<Tracer>>) -> Box<dyn Round> {
        let mut rng = Xoshiro::seed_from_u64(self.seed ^ 0x7474_6370_0000);
        let mut transfers = Vec::new();
        let mut warm = Counts::default();
        for (fwd, metric) in FORWARDERS {
            for write_size in WRITE_SIZES {
                // Station numbering and start stagger come from the seed.
                let a = 1 + rng.range(200) as u32;
                let b = a + 1 + rng.range(50) as u32;
                let stagger = SimDuration::from_us(rng.range(1_000));
                let mut net = Net::new(self.seed, tracer);
                let (seg_a, seg_b) = add_forwarder(&mut net, fwd);
                let cost = HostCostModel::pc_1997();
                let send = TtcpSendApp::new(
                    PortId(0),
                    host_ip(b),
                    TTCP_PORT,
                    TTCP_PORT,
                    self.bytes_per_transfer,
                    write_size,
                    SenderConfig::default(),
                );
                let sender = net.add_host(
                    HostNode::new(
                        "hostA",
                        HostConfig::simple(host_mac(a), host_ip(a), cost),
                        vec![App::delayed(SimDuration::from_ms(2) + stagger, send)],
                    ),
                    &[seg_a],
                );
                let receiver = net.add_host(
                    HostNode::new(
                        "hostB",
                        HostConfig::simple(host_mac(b), host_ip(b), cost),
                        vec![TtcpRecvApp::new(TTCP_PORT, ReceiverConfig::default())],
                    ),
                    &[seg_b],
                );
                net.run_until(SimTime::from_ms(1));
                warm.add(&net);
                transfers.push(Transfer {
                    net,
                    sender,
                    receiver,
                    goodput_metric: (write_size == GOODPUT_AT).then_some(metric),
                });
            }
        }
        // Flow order: a seeded shuffle of the twenty transfers.
        for i in (1..transfers.len()).rev() {
            transfers.swap(i, rng.range(i as u64 + 1) as usize);
        }
        Box::new(TtcpRound {
            transfers,
            warm,
            bytes: self.bytes_per_transfer,
        })
    }
}

fn add_forwarder(net: &mut Net, fwd: Forwarder) -> (netsim::SegId, netsim::SegId) {
    let lan0 = net.world.add_segment(SegmentConfig::named("lan0"));
    if fwd == Forwarder::Direct {
        return (lan0, lan0);
    }
    let lan1 = net.world.add_segment(SegmentConfig::named("lan1"));
    let segs = [lan0, lan1];
    match fwd {
        Forwarder::Direct => unreachable!("handled above"),
        Forwarder::Repeater => {
            let repeater = RepeaterNode::new("repeater", CostModel::c_repeater_1997());
            net.add(repeater, layer::HOSTSIM, &segs);
        }
        Forwarder::Bridge => {
            let boot = ["bridge_dumb", "bridge_learning"];
            net.add_bridge(0, &segs, BridgeConfig::default(), &boot, &[]);
        }
        Forwarder::VmBridge => {
            let image = active_bridge::switchlets::dumb_vm::build_image();
            net.add_bridge(0, &segs, BridgeConfig::default(), &[], &[image]);
        }
    }
    (lan0, lan1)
}

fn sender_of(t: &Transfer) -> &TtcpSendApp {
    match t.net.world.node::<HostNode>(t.sender).app(0).unwrapped() {
        App::TtcpSend(s) => s,
        _ => unreachable!("app 0 of the sender is the ttcp transmitter"),
    }
}

impl Round for TtcpRound {
    fn run(&mut self, lap: &mut dyn FnMut()) {
        let horizon = SimTime::from_secs(600);
        for (i, t) in self.transfers.iter_mut().enumerate() {
            // One part per transfer.
            if i > 0 {
                lap();
            }
            while t.net.world.now() < horizon && !sender_of(t).is_done() {
                let until = t.net.world.now() + SimDuration::from_ms(50);
                t.net.run_until(until);
            }
        }
    }

    fn outcome(&self) -> Outcome {
        let mut now = Counts::default();
        let mut failed = 0;
        let mut extra = Vec::new();
        let mut why = Ok(());
        for t in &self.transfers {
            now.add(&t.net);
            let sender = sender_of(t);
            let App::TtcpRecv(recv) = t.net.world.node::<HostNode>(t.receiver).app(0) else {
                unreachable!("app 0 of the receiver is the ttcp receiver")
            };
            if !sender.is_done() || recv.bytes_received() != self.bytes {
                failed += 1;
                why = Err(format!(
                    "a {}-byte-write transfer moved {} of {} bytes",
                    sender.write_size,
                    recv.bytes_received(),
                    self.bytes
                ));
            }
            if let Some(metric) = t.goodput_metric {
                extra.push((metric, sender.throughput_bps().unwrap_or(0.0) / 1e6));
            }
        }
        // The transfers sit in the seed's flow order; report in name order.
        extra.sort_by(|a, b| a.0.cmp(b.0));
        let counts = now.since(&self.warm);
        let ops = self.transfers.len() as u64;
        Outcome {
            frames: counts.frames_delivered,
            ops,
            ops_failed: failed,
            judged: ops,
            judged_ok: ops - failed,
            complete: why,
            sim_digest: now.digest.finish(),
            policed_drops: 0,
            counts,
            extra,
            run_in_ms: Vec::new(),
            notes: Vec::new(),
        }
    }
}
