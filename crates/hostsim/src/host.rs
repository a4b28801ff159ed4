//! Simulated end systems: a host with (possibly several) NICs, a small
//! protocol stack (ARP, IPv4, ICMP echo responder), software costs on
//! both paths, and pluggable measurement applications.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ether::{EtherType, Frame, FrameBuilder, MacAddr};
use netsim::{Ctx, FrameBuf, Node, Offer, PortId, ServiceQueue, SimTime, TimerToken};
use netstack::ipv4::Protocol;
use netstack::{ArpOp, ArpPacket, Echo, EchoKind};

use crate::apps::App;
use crate::cost::HostCostModel;

const KIND_RX: u64 = 0;
const KIND_TX: u64 = 1;
const KIND_APP: u64 = 2;

fn rx_token() -> TimerToken {
    TimerToken(KIND_RX << 56)
}
fn tx_token() -> TimerToken {
    TimerToken(KIND_TX << 56)
}
pub(crate) fn app_token(app: usize, user: u32) -> TimerToken {
    TimerToken(KIND_APP << 56 | (app as u64) << 32 | user as u64)
}

/// Host configuration.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Port 0's `(MAC, IP)` pair, inline: a single-homed host's
    /// configuration allocates nothing.
    first: (MacAddr, Ipv4Addr),
    /// Ports 1 and up, in port order. The host must be attached to
    /// exactly one segment per port.
    more: Vec<(MacAddr, Ipv4Addr)>,
    /// Software cost model.
    pub cost: HostCostModel,
    /// Accept all frames (the Section 7.5 measurement host reads raw
    /// packets), not just ours/broadcast.
    pub promiscuous: bool,
    /// Expected distinct IP peers (a topology-derived hint; `0` =
    /// unknown): the ARP table is pre-sized from it.
    pub arp_hint: usize,
}

impl HostConfig {
    /// A single-homed host.
    pub fn simple(mac: MacAddr, ip: Ipv4Addr, cost: HostCostModel) -> HostConfig {
        HostConfig {
            first: (mac, ip),
            more: Vec::new(),
            cost,
            promiscuous: false,
            arp_hint: 0,
        }
    }

    /// A host with one port per `(MAC, IP)` pair of `ports`, in port
    /// order. Panics if `ports` is empty.
    pub fn multi_homed(ports: &[(MacAddr, Ipv4Addr)], cost: HostCostModel) -> HostConfig {
        let (&(mac, ip), more) = ports.split_first().expect("a host has a port");
        HostConfig {
            more: more.to_vec(),
            ..HostConfig::simple(mac, ip, cost)
        }
    }

    /// How many ports the host has.
    #[inline]
    pub(crate) fn num_ports(&self) -> usize {
        1 + self.more.len()
    }

    /// Every port's `(MAC, IP)` pair, in port order.
    pub(crate) fn ports(&self) -> impl Iterator<Item = (MacAddr, Ipv4Addr)> + '_ {
        std::iter::once(self.first).chain(self.more.iter().copied())
    }

    /// `port`'s `(MAC, IP)` pair.
    #[inline]
    fn port(&self, port: PortId) -> (MacAddr, Ipv4Addr) {
        match port.0 {
            0 => self.first,
            n => self.more[n - 1],
        }
    }

    /// `port`'s station address.
    #[inline]
    pub fn mac(&self, port: PortId) -> MacAddr {
        self.port(port).0
    }

    /// `port`'s IP address.
    #[inline]
    pub fn ip(&self, port: PortId) -> Ipv4Addr {
        self.port(port).1
    }

    /// Set the expected-peer hint (see [`HostConfig::arp_hint`]).
    pub fn with_arp_hint(mut self, peers: usize) -> HostConfig {
        self.arp_hint = peers;
        self
    }
}

/// The host's stack state, shared with its applications.
pub struct HostCore {
    /// Display name.
    pub name: String,
    /// Configuration.
    pub cfg: HostConfig,
    arp: netsim::FastMap<Ipv4Addr, MacAddr>,
    #[allow(clippy::type_complexity)]
    arp_waiting: HashMap<Ipv4Addr, Vec<(PortId, Protocol, Vec<u8>, bool)>>,
    rx_q: ServiceQueue<(PortId, FrameBuf)>,
    tx_q: ServiceQueue<(PortId, FrameBuf)>,
    reasm: netstack::ipv4::Reassembler,
    ip_ident: u16,
    /// Reusable transport-layer build buffer (echo replies).
    scratch: Vec<u8>,
    /// Frames accepted off the wire.
    pub frames_rx: u64,
    /// When the first frame addressed to this host's own unicast MAC
    /// arrived (written once).
    pub first_unicast_rx: Option<SimTime>,
    /// Experimental-EtherType frames received (workload accounting).
    pub exp_frames_rx: u64,
}

impl HostCore {
    /// The port whose IP is `ip`.
    fn port_of_ip(&self, ip: Ipv4Addr) -> Option<usize> {
        self.cfg.ports().position(|(_, i)| i == ip)
    }

    /// Queue a raw frame for transmission (charged the tx cost). Accepts
    /// anything convertible into a [`FrameBuf`]; re-sending a shared
    /// frame is a refcount bump.
    #[inline]
    pub fn send_raw(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: impl Into<FrameBuf>) {
        let frame = frame.into();
        let t = self.cfg.cost.tx_time(frame.len());
        match self.tx_q.offer((port, frame)) {
            Offer::Started => ctx.schedule_service(t, tx_token()),
            Offer::Queued => {}
            Offer::Dropped => {
                ctx.bump("host.tx_drops", 1);
            }
        }
    }

    /// Install a static ARP entry (tests and fixed-infrastructure
    /// setups; also how a test models a cache poisoned by a corrupted
    /// reply).
    pub fn seed_arp(&mut self, dst_ip: Ipv4Addr, mac: MacAddr) {
        self.arp.insert(dst_ip, mac);
    }

    /// Forget the resolved MAC for `dst_ip`, forcing the next send to
    /// re-ARP. ARP carries no checksum, so on a corrupting medium a
    /// bit-flipped reply (or a corrupted frame fed to opportunistic
    /// learning) can poison the cache with a MAC nobody owns — every
    /// subsequent unicast then vanishes into the flood. A transport that
    /// keeps timing out can call this to re-resolve (returns whether an
    /// entry was actually dropped).
    pub fn invalidate_arp(&mut self, dst_ip: Ipv4Addr) -> bool {
        self.arp.remove(&dst_ip).is_some()
    }

    /// Send an IP payload to `dst_ip` out of `port`, resolving the MAC
    /// via ARP if necessary (pending packets queue behind the request).
    /// Payloads exceeding the MTU are refused (the loader-stack rule).
    pub fn send_ip(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        dst_ip: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
    ) {
        self.send_ip_inner(ctx, port, dst_ip, proto, payload, false);
    }

    /// Like [`HostCore::send_ip`], but fragments oversize payloads (the
    /// hosts run full IP; `ping -s 4096` worked on the paper's testbed).
    pub fn send_ip_fragmenting(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        dst_ip: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
    ) {
        self.send_ip_inner(ctx, port, dst_ip, proto, payload, true);
    }

    /// Send an IP datagram whose transport payload is written by `build`
    /// *directly into the frame buffer* — Ethernet header, IP header and
    /// payload compose in one pass with zero intermediate copies (the
    /// per-frame hot path: ttcp segments, ACKs, echo traffic).
    ///
    /// `build` must append exactly `payload_len` bytes (debug-asserted);
    /// the payload must fit one MTU (oversize is counted and dropped,
    /// like [`HostCore::send_ip`]). When the destination MAC is not yet
    /// resolved, the payload is materialized once and parked behind the
    /// ARP exchange.
    pub fn send_ip_built(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        dst_ip: Ipv4Addr,
        proto: Protocol,
        payload_len: usize,
        build: impl FnOnce(&mut Vec<u8>),
    ) {
        let Some(&dst_mac) = self.arp.get(&dst_ip) else {
            // Unresolved: build into the buffer that is parked (cold path).
            let mut payload = Vec::with_capacity(payload_len);
            build(&mut payload);
            debug_assert_eq!(payload.len(), payload_len, "build wrote a different length");
            self.park_behind_arp(ctx, port, dst_ip, proto, payload, false);
            return;
        };
        if netstack::ipv4::HEADER_LEN + payload_len > 1500 {
            ctx.bump("host.oversize_drops", 1);
            return;
        }
        self.compose_and_send(ctx, port, dst_mac, dst_ip, proto, payload_len, build);
    }

    /// The shared one-pass frame composer behind [`HostCore::send_ip`]
    /// and [`HostCore::send_ip_built`]: Ethernet header + IP header into a
    /// pooled buffer, `build` appends exactly `payload_len` transport
    /// bytes behind them, pad to the Ethernet minimum, transmit. The
    /// caller has resolved the MAC and bounded the payload to one MTU.
    #[allow(clippy::too_many_arguments)]
    fn compose_and_send(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        proto: Protocol,
        payload_len: usize,
        build: impl FnOnce(&mut Vec<u8>),
    ) {
        let src_ip = self.cfg.ip(port);
        let src_mac = self.cfg.mac(port);
        let ident = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);
        let total = ether::HEADER_LEN + netstack::ipv4::HEADER_LEN + payload_len;
        let mut frame = ctx.take_buf(total.max(ether::MIN_FRAME));
        let buf = frame.as_mut_vec();
        let mut eth = [0u8; ether::HEADER_LEN];
        eth[0..6].copy_from_slice(&dst_mac.octets());
        eth[6..12].copy_from_slice(&src_mac.octets());
        eth[12..14].copy_from_slice(&EtherType::IPV4.0.to_be_bytes());
        buf.extend_from_slice(&eth);
        netstack::ipv4::emit_header_append(
            buf,
            src_ip,
            dst_ip,
            proto,
            ident,
            64,
            payload_len,
            false,
            0,
        );
        build(buf);
        debug_assert_eq!(buf.len(), total, "build wrote a different length");
        if buf.len() < ether::MIN_FRAME {
            buf.resize(ether::MIN_FRAME, 0); // Ethernet minimum padding
        }
        self.send_raw(ctx, port, frame.freeze());
    }

    fn send_ip_inner(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        dst_ip: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
        fragment: bool,
    ) {
        let Some(&dst_mac) = self.arp.get(&dst_ip) else {
            self.park_behind_arp(ctx, port, dst_ip, proto, payload.to_vec(), fragment);
            return;
        };
        self.emit_ip(ctx, port, dst_mac, dst_ip, proto, payload, fragment);
    }

    /// Park a packet for an unresolved `dst_ip` and broadcast a who-has
    /// for it. This is the one place a payload lives on the heap: once per
    /// parked packet, moved in by the caller, and each parked packet sends
    /// its own request.
    fn park_behind_arp(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        dst_ip: Ipv4Addr,
        proto: Protocol,
        payload: Vec<u8>,
        fragment: bool,
    ) {
        self.arp_waiting
            .entry(dst_ip)
            .or_default()
            .push((port, proto, payload, fragment));
        let req = ArpPacket::request(self.cfg.mac(port), self.cfg.ip(port), dst_ip);
        let frame = FrameBuilder::new(MacAddr::BROADCAST, self.cfg.mac(port), EtherType::ARP)
            .in_buf(ctx.take_buf(ether::MIN_FRAME))
            .payload(&req.emit())
            .build();
        self.send_raw(ctx, port, frame);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_ip(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
        fragment: bool,
    ) {
        if netstack::ipv4::HEADER_LEN + payload.len() > 1500 {
            if !fragment {
                // The ident is consumed even on a refused datagram (as the
                // pre-refactor path did, where it was drawn before the
                // size check).
                self.ip_ident = self.ip_ident.wrapping_add(1);
                ctx.bump("host.oversize_drops", 1);
                return;
            }
            // Oversize: the (cold) fragmentation path keeps the layered
            // builders.
            let src_ip = self.cfg.ip(port);
            let src_mac = self.cfg.mac(port);
            let ident = self.ip_ident;
            self.ip_ident = self.ip_ident.wrapping_add(1);
            let packets =
                netstack::ipv4::emit_fragments(src_ip, dst_ip, proto, ident, 64, payload, 1500);
            for ip in packets {
                let frame = FrameBuilder::new(dst_mac, src_mac, EtherType::IPV4)
                    .payload(&ip)
                    .build();
                self.send_raw(ctx, port, frame);
            }
            return;
        }
        // Hot path: one-pass composition into a pooled buffer — one
        // payload copy, no intermediate datagram vector, and in steady
        // state no allocation at all.
        self.compose_and_send(ctx, port, dst_mac, dst_ip, proto, payload.len(), |buf| {
            buf.extend_from_slice(payload)
        });
    }

    /// Look up a resolved MAC (tests).
    pub fn arp_entry(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.arp.get(&ip).copied()
    }
}

/// A simulated host node.
pub struct HostNode {
    /// The stack.
    pub core: HostCore,
    apps: Vec<App>,
    /// True when some app observes raw frames (the per-frame raw-tap
    /// fan-out is skipped entirely otherwise).
    has_raw_tap: bool,
    /// True when some app reacts to transmit completions.
    has_tx_done: bool,
}

impl HostNode {
    /// Build a host with the given applications.
    pub fn new(name: impl Into<String>, cfg: HostConfig, apps: Vec<App>) -> HostNode {
        let has_raw_tap = apps.iter().any(|a| a.wants_raw());
        let has_tx_done = apps.iter().any(|a| a.wants_tx_done());
        let arp = netsim::FastMap::with_capacity_and_hasher(cfg.arp_hint, Default::default());
        HostNode {
            core: HostCore {
                name: name.into(),
                cfg,
                arp,
                arp_waiting: HashMap::new(),
                rx_q: ServiceQueue::new(256),
                tx_q: ServiceQueue::new(256),
                reasm: netstack::ipv4::Reassembler::new(),
                ip_ident: 1,
                scratch: Vec::new(),
                frames_rx: 0,
                first_unicast_rx: None,
                exp_frames_rx: 0,
            },
            apps,
            has_raw_tap,
            has_tx_done,
        }
    }

    /// Application access (results inspection after a run).
    pub fn app(&self, idx: usize) -> &App {
        &self.apps[idx]
    }

    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    fn for_each_app(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut f: impl FnMut(&mut App, &mut HostCore, &mut Ctx<'_>, usize),
    ) {
        for (i, app) in self.apps.iter_mut().enumerate() {
            f(app, &mut self.core, ctx, i);
        }
    }

    fn process_rx(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.process_rx_view(ctx, port, &frame);
        // The frame ends its life here on most hosts; hand the buffer
        // back to the world's pool when this was the last reference.
        ctx.recycle_frame(frame);
    }

    fn process_rx_view(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf) {
        let Ok(parsed) = Frame::parse(frame) else {
            return;
        };
        let my_mac = self.core.cfg.mac(port);
        let dst = parsed.dst();
        let mine = dst == my_mac || dst.is_broadcast();
        if !mine && !self.core.cfg.promiscuous {
            return;
        }
        self.core.frames_rx += 1;
        if dst == my_mac && self.core.first_unicast_rx.is_none() {
            self.core.first_unicast_rx = Some(ctx.now());
        }

        // Raw tap for every accepted frame (the probe app); skipped
        // outright on hosts where no app reads raw frames.
        if self.has_raw_tap {
            self.for_each_app(ctx, |app, core, ctx, idx| {
                app.on_raw(core, ctx, idx, port, &parsed)
            });
        }

        if !mine {
            return;
        }
        match parsed.ethertype() {
            EtherType::ARP => {
                let Ok(arp) = ArpPacket::parse(parsed.payload()) else {
                    return;
                };
                match arp.op {
                    ArpOp::Request if arp.tpa == self.core.cfg.ip(port) => {
                        let reply = arp.reply_with(my_mac);
                        let out = FrameBuilder::new(arp.sha, my_mac, EtherType::ARP)
                            .in_buf(ctx.take_buf(ether::MIN_FRAME))
                            .payload(&reply.emit())
                            .build();
                        self.core.send_raw(ctx, port, out);
                    }
                    ArpOp::Reply => {
                        self.core.arp.insert(arp.spa, arp.sha);
                        if let Some(pending) = self.core.arp_waiting.remove(&arp.spa) {
                            for (p, proto, payload, fragment) in pending {
                                self.core
                                    .emit_ip(ctx, p, arp.sha, arp.spa, proto, &payload, fragment);
                            }
                        }
                    }
                    _ => {}
                }
            }
            EtherType::IPV4 => {
                // Fragment-tolerant parse (the hosts run full IP).
                let Ok(ip) = netstack::ipv4::FragPacket::parse(parsed.payload()) else {
                    return;
                };
                if self.core.port_of_ip(ip.dst()).is_none() {
                    return;
                }
                // Opportunistic ARP learning from traffic: a write only
                // when the packet says something new, which in a steady
                // flow it never does.
                if self.core.arp.get(&ip.src()) != Some(&parsed.src()) {
                    self.core.arp.insert(ip.src(), parsed.src());
                }
                let (src, dst, proto) = (ip.src(), ip.dst(), ip.protocol());
                if ip.is_fragment() {
                    // When None: more fragments pending.
                    if let Some(whole) = self.core.reasm.push(&ip) {
                        self.handle_ip(ctx, port, src, dst, proto, &whole);
                    }
                } else {
                    // Zero-copy: hand the payload slice straight down;
                    // it borrows the delivered frame buffer.
                    self.handle_ip(ctx, port, src, dst, proto, ip.payload());
                }
            }
            EtherType::EXPERIMENTAL => {
                self.core.exp_frames_rx += 1;
            }
            _ => {}
        }
    }

    fn handle_ip(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
    ) {
        match proto {
            Protocol::ICMP => {
                if let Ok(echo) = Echo::parse(payload) {
                    match echo.kind {
                        EchoKind::Request => {
                            let reply_len = payload.len();
                            if netstack::ipv4::HEADER_LEN + reply_len <= 1500 {
                                // Common case: the reply is the verified
                                // request memcpy'd into the wire frame
                                // with two fields patched (O(1) checksum
                                // derivation) — no per-reply checksum
                                // pass.
                                self.core.send_ip_built(
                                    ctx,
                                    port,
                                    src,
                                    Protocol::ICMP,
                                    reply_len,
                                    |buf| {
                                        Echo::reply_from_verified(buf, payload);
                                    },
                                );
                            } else {
                                // Oversize echo: build once, fragment.
                                let mut reply = std::mem::take(&mut self.core.scratch);
                                reply.clear();
                                Echo::emit_into(
                                    &mut reply,
                                    EchoKind::Reply,
                                    echo.ident,
                                    echo.seq,
                                    echo.payload,
                                );
                                self.core.send_ip_fragmenting(
                                    ctx,
                                    port,
                                    src,
                                    Protocol::ICMP,
                                    &reply,
                                );
                                self.core.scratch = reply;
                            }
                        }
                        EchoKind::Reply => {
                            let (ident, seq) = (echo.ident, echo.seq);
                            self.for_each_app(ctx, |app, core, ctx, idx| {
                                app.on_echo_reply(core, ctx, idx, ident, seq)
                            });
                        }
                    }
                }
            }
            proto => {
                self.for_each_app(ctx, |app, core, ctx, idx| {
                    app.on_ip(core, ctx, idx, port, src, dst, proto, payload)
                });
            }
        }
    }
}

impl Node for HostNode {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn service_queues(&self) -> usize {
        let cost = &self.core.cfg.cost;
        usize::from(cost.rx_frame_ns != 0 || cost.rx_byte_ns != 0)
            + usize::from(cost.tx_frame_ns != 0 || cost.tx_byte_ns != 0)
    }

    fn timers(&self) -> usize {
        self.apps.iter().map(App::timers).sum()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(
            ctx.num_ports(),
            self.core.cfg.num_ports(),
            "host {} configured for {} ports but attached to {}",
            self.core.name,
            self.core.cfg.num_ports(),
            ctx.num_ports()
        );
        // An ordinary station's NIC drops other stations' unicast in
        // hardware. Where turning such a frame away is also free in
        // simulated time (no receive cost, so it never waits in `rx_q`),
        // say so to the world and it stops calling us for them;
        // `process_rx_view`'s own `mine` test stays the source of truth.
        let cfg = &self.core.cfg;
        if !cfg.promiscuous && cfg.cost.rx_frame_ns == 0 && cfg.cost.rx_byte_ns == 0 {
            for (port, (mac, _)) in cfg.ports().enumerate() {
                ctx.set_rx_filter(PortId(port), Some(mac.octets()));
            }
        }
        self.for_each_app(ctx, |app, core, ctx, idx| app.on_start(core, ctx, idx));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        let t = self.core.cfg.cost.rx_time(frame.len());
        // Null-event elision: a zero-cost receive path with an idle queue
        // models no latency at all, so the frame is processed here and
        // now instead of bouncing through a zero-delay timer event. This
        // halves the event count per delivery on measurement topologies
        // (`HostCostModel::FREE` probes/listeners); hosts with a real
        // cost model still serialize through the service queue.
        if t.is_zero() && self.core.rx_q.head().is_none() {
            self.process_rx(ctx, port, frame);
            return;
        }
        match self.core.rx_q.offer((port, frame)) {
            Offer::Started => ctx.schedule_service(t, rx_token()),
            Offer::Queued => {}
            Offer::Dropped => {
                ctx.bump("host.rx_drops", 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.0 >> 56 {
            KIND_RX => {
                let ((port, frame), next) = self.core.rx_q.complete();
                if let Some((_, f)) = next {
                    let t = self.core.cfg.cost.rx_time(f.len());
                    ctx.schedule_service(t, rx_token());
                }
                self.process_rx(ctx, port, frame);
            }
            KIND_TX => {
                let ((port, frame), next) = self.core.tx_q.complete();
                if let Some((_, f)) = next {
                    let t = self.core.cfg.cost.tx_time(f.len());
                    ctx.schedule_service(t, tx_token());
                }
                ctx.send(port, frame);
                // Transmission completed: apps may have more to send
                // (write pacing). Skipped when no app paces on tx.
                if self.has_tx_done {
                    self.for_each_app(ctx, |app, core, ctx, idx| app.on_tx_done(core, ctx, idx));
                }
            }
            KIND_APP => {
                let app_idx = ((token.0 >> 32) & 0xFF_FFFF) as usize;
                let user = (token.0 & 0xFFFF_FFFF) as u32;
                if let Some(app) = self.apps.get_mut(app_idx) {
                    app.on_timer(&mut self.core, ctx, app_idx, user);
                }
            }
            k => unreachable!("unknown host timer kind {k}"),
        }
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SegmentConfig, SimTime, World};

    /// Opportunistic ARP learning leaves a matching entry alone; an IP
    /// packet from a known address under another MAC still overwrites it.
    #[test]
    fn ip_traffic_from_a_changed_mac_overwrites_the_arp_entry() {
        let mut world = World::new(1);
        let lan = world.add_segment(SegmentConfig::default());
        let (my_mac, my_ip) = (MacAddr::local(1), Ipv4Addr::new(10, 1, 0, 1));
        let cfg = HostConfig::simple(my_mac, my_ip, HostCostModel::FREE);
        let host = world.add_node(HostNode::new("h", cfg, vec![]));
        world.attach(host, lan);
        let peer_ip = Ipv4Addr::new(10, 1, 0, 2);
        let mut hear_from = |mac: MacAddr| {
            let mut ip = Vec::new();
            netstack::ipv4::emit_header_append(
                &mut ip,
                peer_ip,
                my_ip,
                Protocol::UDP,
                1,
                64,
                0,
                false,
                0,
            );
            let frame = FrameBuilder::new(my_mac, mac, EtherType::IPV4)
                .payload(&ip)
                .build();
            world.with_ctx::<HostNode, _>(host, |h, ctx| {
                h.on_frame(ctx, PortId(0), frame);
                h.core.arp_entry(peer_ip)
            })
        };
        let (first, moved) = (MacAddr::local(2), MacAddr::local(3));
        assert_eq!(hear_from(first), Some(first));
        assert_eq!(hear_from(first), Some(first));
        assert_eq!(hear_from(moved), Some(moved));
    }

    /// Only a station whose rejections are free in simulated time hands
    /// them to the world: a costed host's unwanted frame still occupies
    /// its receive queue, and a promiscuous host wants every frame.
    #[test]
    fn only_free_non_promiscuous_hosts_declare_a_receive_filter() {
        let mut world = World::new(1);
        let lan = world.add_segment(SegmentConfig::default());
        let byte_costed = HostCostModel {
            rx_byte_ns: 1,
            ..HostCostModel::FREE
        };
        let cases = [
            (HostCostModel::FREE, false, true),
            (HostCostModel::FREE, true, false),
            (HostCostModel::pc_1997(), false, false),
            (byte_costed, false, false),
        ];
        for (n, &(cost, promiscuous, _)) in cases.iter().enumerate() {
            let cfg = HostConfig {
                promiscuous,
                ..HostConfig::simple(
                    MacAddr::local(n as u32),
                    Ipv4Addr::new(10, 1, 0, n as u8),
                    cost,
                )
            };
            let host = world.add_node(HostNode::new(format!("h{n}"), cfg, vec![]));
            world.attach(host, lan);
        }
        world.run_until(SimTime::from_us(1));
        for (n, (att, &(_, _, declares))) in world
            .segment(lan)
            .attachments()
            .iter()
            .zip(&cases)
            .enumerate()
        {
            let want = declares.then(|| MacAddr::local(n as u32).octets());
            assert_eq!(att.rx_filter, want, "host {n}");
        }
    }

    /// A payload for a peer with no ARP entry waits behind a who-has,
    /// whichever entry point sent it: every one arrives, in send order and
    /// byte for byte, each sends its own request, and none is left parked.
    #[test]
    fn payloads_parked_behind_arp_arrive_in_order_from_both_send_paths() {
        let mut world = World::new(1);
        let lan = world.add_segment(SegmentConfig {
            capture: true,
            ..SegmentConfig::default()
        });
        let (a_mac, a_ip) = (MacAddr::local(1), Ipv4Addr::new(10, 1, 0, 1));
        let (b_mac, b_ip) = (MacAddr::local(2), Ipv4Addr::new(10, 1, 0, 2));
        let mut host = |name: &str, mac: MacAddr, ip: Ipv4Addr| {
            let cfg = HostConfig::simple(mac, ip, HostCostModel::FREE);
            let id = world.add_node(HostNode::new(name, cfg, vec![]));
            world.attach(id, lan);
            id
        };
        let (a, b) = (host("a", a_mac, a_ip), host("b", b_mac, b_ip));
        world.run_until(SimTime::from_us(1));
        // Built, sent, built (odd length), sent, built.
        let payloads: Vec<Vec<u8>> = [64usize, 200, 333, 1, 1000]
            .iter()
            .enumerate()
            .map(|(n, &len)| (0..len).map(|i| (i * 7 + n * 31) as u8).collect())
            .collect();
        world.with_ctx::<HostNode, _>(a, |h, ctx| {
            for (n, p) in payloads.iter().enumerate() {
                if n % 2 == 0 {
                    let fill = |buf: &mut Vec<u8>| buf.extend_from_slice(p);
                    h.core
                        .send_ip_built(ctx, PortId(0), b_ip, Protocol::UDP, p.len(), fill);
                } else {
                    h.core.send_ip(ctx, PortId(0), b_ip, Protocol::UDP, p);
                }
            }
        });
        world.run_until(SimTime::from_ms(10));

        let (mut requests, mut delivered) = (0, Vec::new());
        for c in world
            .segment(lan)
            .captured()
            .iter()
            .filter(|c| c.src.0 == a)
        {
            let frame = Frame::parse(&c.data).expect("a frame A sent parses");
            match frame.ethertype() {
                EtherType::ARP => {
                    let arp = ArpPacket::parse(frame.payload()).expect("A's ARP parses");
                    assert_eq!((arp.op, arp.tpa), (ArpOp::Request, b_ip));
                    requests += 1;
                }
                EtherType::IPV4 => {
                    assert_eq!(frame.dst(), b_mac);
                    let ip = netstack::ipv4::Packet::parse(frame.payload()).expect("IPv4");
                    delivered.push(ip.payload().to_vec());
                }
                _ => panic!("A sent a frame that is neither ARP nor IPv4"),
            }
        }
        assert_eq!(delivered, payloads);
        assert_eq!(requests, 5, "one who-has per parked packet");
        // B took the five requests and the five datagrams off the wire.
        assert_eq!(world.node::<HostNode>(b).core.frames_rx, 10);
        assert!(world.node::<HostNode>(a).core.arp_waiting.is_empty());
    }
}
