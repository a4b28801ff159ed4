//! Measurement applications — the tools the paper's evaluation runs on
//! its hosts: `ping` (Figure 9), a `ttcp`-style blaster (Figure 10 and
//! the frame-rate table), a TFTP uploader (the switchlet delivery path),
//! the Section 7.5 agility probe, and a raw-frame workload generator.

// Every app's `new` deliberately returns the [`App`] dispatch enum, not
// `Self`: hosts take `Vec<App>`, and the wrapper is the only public handle.
#![allow(clippy::new_ret_no_self)]

use std::net::Ipv4Addr;

use ether::bpdu::{ieee, Bpdu, BridgeId, ConfigBpdu};
use ether::{EtherType, Frame, FrameBuilder, Llc, MacAddr};
use netsim::{Ctx, FrameBuf, NodeId, PortId, ProbeRecord, SimDuration, SimTime};
use netstack::ipv4::Protocol;
use netstack::tcplite::{
    ReceiverConfig, RecvAction, Segment, SenderConfig, TcpReceiver, TcpSender, NAGLE_THRESHOLD,
};
use netstack::{Echo, EchoKind, FailureClass, SenderStep, TftpSender, UdpDatagram};

use crate::host::{app_token, HostCore};

/// The flight-recorder entry for an application phase mark (e.g.
/// `"ttcp.start"`).
fn mark(label: &'static str) -> impl FnOnce(NodeId) -> ProbeRecord {
    move |node| ProbeRecord::Mark { node, label }
}

/// A host application.
pub enum App {
    /// ICMP echo latency measurement.
    Ping(PingApp),
    /// ttcp transmitter.
    TtcpSend(TtcpSendApp),
    /// ttcp receiver.
    TtcpRecv(TtcpRecvApp),
    /// TFTP switchlet uploader.
    Upload(UploadApp),
    /// Section 7.5 agility probe.
    Probe(ProbeApp),
    /// Raw frame generator (workload for learning/flooding experiments).
    Blast(BlastApp),
    /// Adversarial: learning-table exhaustion via randomized source MACs.
    MacFlood(MacFloodApp),
    /// Adversarial: broadcast ARP storm for nonexistent addresses.
    ArpStorm(ArpStormApp),
    /// Adversarial: forged superior BPDUs claiming the spanning-tree root.
    RogueBpdu(RogueBpduApp),
    /// Any app, started only after a configured delay (scenario
    /// schedules build workload batteries out of these).
    Delayed(DelayedApp),
}

impl App {
    /// Wrap `app` so its `on_start` runs `after` the host comes up.
    ///
    /// The wrapper is transparent for traffic: receive-side callbacks
    /// (`on_ip`, raw taps, echo replies) are forwarded immediately, so a
    /// delayed receiver still answers from time zero; only the active
    /// start (first send, first timer train) waits. Wrappers nest.
    pub fn delayed(after: SimDuration, app: App) -> App {
        App::Delayed(DelayedApp {
            after,
            inner: Box::new(app),
            started: false,
        })
    }

    /// The app behind any [`App::delayed`] wrappers (for results
    /// inspection after a run).
    pub fn unwrapped(&self) -> &App {
        match self {
            App::Delayed(d) => d.inner.unwrapped(),
            other => other,
        }
    }

    /// Timers the app keeps pending at once: a ttcp sender's write and
    /// retransmission timers, one for every other app (its pacing tick,
    /// its poll or its delayed ACK, or a delayed app's start before its
    /// inner app takes over).
    pub(crate) fn timers(&self) -> usize {
        match self {
            App::TtcpSend(_) => 2,
            App::Delayed(d) => d.inner.timers(),
            _ => 1,
        }
    }

    pub(crate) fn on_start(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        match self {
            App::Ping(a) => a.on_start(core, ctx, idx),
            App::TtcpSend(a) => a.on_start(core, ctx, idx),
            App::Upload(a) => a.on_start(core, ctx, idx),
            App::Probe(a) => a.on_start(core, ctx, idx),
            App::Blast(_) | App::MacFlood(_) | App::ArpStorm(_) | App::RogueBpdu(_) => {
                self.pace(core, ctx, idx, true)
            }
            App::TtcpRecv(_) => {}
            App::Delayed(a) => a.on_start(core, ctx, idx),
        }
    }

    #[inline]
    pub(crate) fn on_timer(
        &mut self,
        core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        idx: usize,
        user: u32,
    ) {
        match self {
            App::Ping(a) => a.on_timer(core, ctx, idx, user),
            App::TtcpSend(a) => a.on_timer(core, ctx, idx, user),
            App::TtcpRecv(a) => a.on_timer(core, ctx, idx, user),
            App::Upload(a) => a.on_timer(core, ctx, idx, user),
            App::Probe(a) => a.on_timer(core, ctx, idx, user),
            App::Blast(_) | App::MacFlood(_) | App::ArpStorm(_) | App::RogueBpdu(_) => {
                if user == PACE_TICK {
                    self.pace(core, ctx, idx, false)
                }
            }
            App::Delayed(a) => a.on_timer(core, ctx, idx, user),
        }
    }

    /// The pacing loop of the four fixed-schedule senders (the blaster
    /// and the three attackers): send one frame and, while frames
    /// remain, arm the tick that sends the next. `starting` marks the
    /// first call, which also drops the app's start mark on the flight
    /// recorder.
    fn pace(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize, starting: bool) {
        let (label, count, sent, interval) = match self {
            App::Blast(a) => ("blast.start", a.count, a.sent, a.interval),
            App::MacFlood(a) => ("attack.macflood.start", a.count, a.sent, a.interval),
            App::ArpStorm(a) => ("attack.arpstorm.start", a.count, a.sent, a.interval),
            App::RogueBpdu(a) => ("attack.roguebpdu.start", a.count, a.sent, a.interval),
            _ => unreachable!("only the fixed-schedule senders are paced"),
        };
        if sent >= count {
            return;
        }
        if starting {
            ctx.probe(mark(label));
        }
        match self {
            App::Blast(a) => a.send_one(core, ctx),
            App::MacFlood(a) => a.send_one(core, ctx),
            App::ArpStorm(a) => a.send_one(core, ctx),
            App::RogueBpdu(a) => a.send_one(core, ctx),
            _ => unreachable!("matched above"),
        }
        if sent + 1 < count {
            ctx.schedule(interval, app_token(idx, PACE_TICK));
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_ip(
        &mut self,
        core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        idx: usize,
        port: PortId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
    ) {
        match self {
            App::TtcpSend(a) => a.on_ip(core, ctx, idx, port, src, dst, proto, payload),
            App::TtcpRecv(a) => a.on_ip(core, ctx, idx, port, src, dst, proto, payload),
            App::Upload(a) => a.on_ip(core, ctx, idx, port, src, dst, proto, payload),
            App::Delayed(a) => a
                .inner
                .on_ip(core, ctx, idx, port, src, dst, proto, payload),
            _ => {}
        }
    }

    pub(crate) fn on_echo_reply(
        &mut self,
        core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        idx: usize,
        ident: u16,
        seq: u16,
    ) {
        match self {
            App::Ping(a) => a.on_echo_reply(core, ctx, idx, ident, seq),
            App::Delayed(a) => a.inner.on_echo_reply(core, ctx, idx, ident, seq),
            _ => {}
        }
    }

    /// Does this app (or its wrapped inner app) observe raw frames?
    /// Hosts skip the per-frame raw-tap fan-out entirely when no app
    /// does.
    pub(crate) fn wants_raw(&self) -> bool {
        match self {
            App::Probe(_) => true,
            App::Delayed(a) => a.inner.wants_raw(),
            _ => false,
        }
    }

    pub(crate) fn on_raw(
        &mut self,
        core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        idx: usize,
        port: PortId,
        frame: &Frame<'_>,
    ) {
        match self {
            App::Probe(a) => a.on_raw(core, ctx, idx, port, frame),
            App::Delayed(a) => a.inner.on_raw(core, ctx, idx, port, frame),
            _ => {}
        }
    }

    /// Does this app (or its wrapped inner app) react to transmit
    /// completions? Hosts skip the per-frame tx-done fan-out when none
    /// does.
    pub(crate) fn wants_tx_done(&self) -> bool {
        match self {
            App::TtcpSend(_) => true,
            App::Delayed(a) => a.inner.wants_tx_done(),
            _ => false,
        }
    }

    pub(crate) fn on_tx_done(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        match self {
            App::TtcpSend(a) => a.pump_and_write(core, ctx, idx),
            App::Delayed(a) => a.on_tx_done(core, ctx, idx),
            _ => {}
        }
    }
}

// ------------------------------------------------------------------ ping

const PING_SEND: u32 = 1;

/// `ping`: an ICMP ECHO train with RTT statistics.
pub struct PingApp {
    /// Port to ping from.
    pub port: PortId,
    /// Target address.
    pub dst: Ipv4Addr,
    /// Echo requests to send.
    pub count: u32,
    /// ICMP data bytes per request (the Figure 9 "packet size").
    pub payload_len: usize,
    /// Inter-request interval.
    pub interval: SimDuration,
    /// Session identifier.
    pub ident: u16,
    next_seq: u16,
    sent_at: netsim::FastMap<u16, SimTime>,
    /// Measured round-trip times.
    pub rtts: Vec<SimDuration>,
    /// Requests sent.
    pub sent: u32,
    /// Replies received.
    pub received: u32,
    /// When the last reply arrived.
    pub done_at: Option<SimTime>,
    /// The filler payload, built once.
    filler: Vec<u8>,
    /// The filler's checksum contribution, computed once alongside it.
    filler_sum: netstack::checksum::Checksum,
    /// Reusable ICMP build buffer.
    icmp_scratch: Vec<u8>,
}

impl PingApp {
    /// Configure a ping train.
    pub fn new(
        port: PortId,
        dst: Ipv4Addr,
        count: u32,
        payload_len: usize,
        interval: SimDuration,
        ident: u16,
    ) -> App {
        App::Ping(PingApp {
            port,
            dst,
            count,
            payload_len,
            interval,
            ident,
            next_seq: 0,
            sent_at: netsim::FastMap::default(),
            rtts: Vec::new(),
            sent: 0,
            received: 0,
            done_at: None,
            filler: Vec::new(),
            filler_sum: netstack::checksum::Checksum::new(),
            icmp_scratch: Vec::new(),
        })
    }

    /// Average RTT over received replies.
    pub fn avg_rtt(&self) -> Option<SimDuration> {
        if self.rtts.is_empty() {
            return None;
        }
        let total: u64 = self.rtts.iter().map(|d| d.as_ns()).sum();
        Some(SimDuration::from_ns(total / self.rtts.len() as u64))
    }

    fn send_one(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent += 1;
        self.sent_at.insert(seq, ctx.now());
        // Filler (and its checksum contribution) built once; the ICMP
        // message is assembled straight into the wire frame buffer when
        // it fits one MTU (the common case) — no per-request scratch
        // copies and no per-request payload checksum pass. Oversize pings
        // take the fragmenting path.
        if self.filler.len() != self.payload_len {
            self.filler = vec![0xA5u8; self.payload_len];
            let mut sum = netstack::checksum::Checksum::new();
            sum.add(&self.filler);
            self.filler_sum = sum;
        }
        let icmp_len = netstack::icmp::HEADER_LEN + self.payload_len;
        if netstack::ipv4::HEADER_LEN + icmp_len <= 1500 {
            let (ident, filler, sum) = (self.ident, &self.filler, self.filler_sum);
            core.send_ip_built(ctx, self.port, self.dst, Protocol::ICMP, icmp_len, |buf| {
                Echo::emit_into_presummed(buf, EchoKind::Request, ident, seq, filler, sum);
            });
        } else {
            self.icmp_scratch.clear();
            Echo::emit_into(
                &mut self.icmp_scratch,
                EchoKind::Request,
                self.ident,
                seq,
                &self.filler,
            );
            core.send_ip_fragmenting(ctx, self.port, self.dst, Protocol::ICMP, &self.icmp_scratch);
        }
    }

    fn on_start(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        ctx.probe(mark("ping.start"));
        self.send_one(core, ctx);
        if self.sent < self.count {
            ctx.schedule(self.interval, app_token(idx, PING_SEND));
        }
    }

    fn on_timer(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize, user: u32) {
        if user == PING_SEND && self.sent < self.count {
            self.send_one(core, ctx);
            if self.sent < self.count {
                ctx.schedule(self.interval, app_token(idx, PING_SEND));
            }
        }
    }

    fn on_echo_reply(
        &mut self,
        _core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        _idx: usize,
        ident: u16,
        seq: u16,
    ) {
        if ident != self.ident {
            return;
        }
        if let Some(sent) = self.sent_at.remove(&seq) {
            self.rtts.push(ctx.now().saturating_since(sent));
            self.received += 1;
            if self.received == self.count {
                self.done_at = Some(ctx.now());
                ctx.probe(mark("ping.done"));
            }
        }
    }
}

// ------------------------------------------------------------------ ttcp

const TTCP_WRITE: u32 = 1;
const TTCP_RTO: u32 = 2;
const TTCP_DELACK: u32 = 3;

/// RTO timer tokens carry an epoch in their upper bits (`TTCP_RTO |
/// epoch << 8`): when a closer deadline supersedes an in-flight timer,
/// the epoch advances and the stale timer is recognized and dropped on
/// arrival instead of spawning a duplicate self-renewing chain.
const TTCP_USER_MASK: u32 = 0xFF;

/// The ttcp transmitter: `total_bytes` in `write_size` chunks over
/// TcpLite.
pub struct TtcpSendApp {
    /// Port to send from.
    pub port: PortId,
    /// Receiver address.
    pub dst: Ipv4Addr,
    /// Our TcpLite port.
    pub src_port: u16,
    /// Receiver's TcpLite port.
    pub dst_port: u16,
    /// Total bytes to move.
    pub total_bytes: u64,
    /// Application write size (the Figure 10 "packet size").
    pub write_size: usize,
    tcp: TcpSender,
    writes_left: u64,
    bytes_left: u64,
    write_pending: bool,
    armed_rto: Option<u64>,
    /// Generation of the live RTO timer (see [`TTCP_USER_MASK`]).
    rto_epoch: u32,
    /// When the first write happened.
    pub started_at: Option<SimTime>,
    /// When the last byte was acknowledged.
    pub done_at: Option<SimTime>,
    /// Data frames emitted.
    pub frames_sent: u64,
}

impl TtcpSendApp {
    /// Configure a transmitter.
    pub fn new(
        port: PortId,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        total_bytes: u64,
        write_size: usize,
        sender_cfg: SenderConfig,
    ) -> App {
        assert!(write_size > 0 && total_bytes > 0);
        App::TtcpSend(TtcpSendApp {
            port,
            dst,
            src_port,
            dst_port,
            total_bytes,
            write_size,
            tcp: TcpSender::new(sender_cfg),
            writes_left: total_bytes.div_ceil(write_size as u64),
            bytes_left: total_bytes,
            write_pending: false,
            armed_rto: None,
            rto_epoch: 0,
            started_at: None,
            done_at: None,
            frames_sent: 0,
        })
    }

    /// Finished?
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    /// Measured goodput in bits/second (None until done).
    pub fn throughput_bps(&self) -> Option<f64> {
        let (start, end) = (self.started_at?, self.done_at?);
        let secs = end.saturating_since(start).as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(self.total_bytes as f64 * 8.0 / secs)
    }

    fn on_start(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        self.started_at = Some(ctx.now());
        ctx.probe(mark("ttcp.start"));
        self.try_write(core, ctx, idx);
    }

    /// Schedule the next application write (after the write-syscall cost).
    ///
    /// Large writes keep the socket buffer topped up (up to one write
    /// ahead) so the stream stays MSS-aligned, as a real socket does;
    /// sub-MSS writes pace stop-and-wait behind Nagle — each `write()`
    /// happens only once the previous small segment drained and was
    /// acknowledged, which is what pins the paper's small-packet ttcp to
    /// hundreds of frames per second.
    fn try_write(&mut self, core: &HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        if self.write_pending || self.writes_left == 0 {
            return;
        }
        if self.write_size >= self.tcp.mss() {
            if self.tcp.unsent() >= self.write_size as u64 {
                return; // socket buffer full enough
            }
        } else if self.write_size >= NAGLE_THRESHOLD {
            // Mid-size writes stream one write at a time: segments stay
            // write-sized (the paper's 1024-byte frames on the wire).
            if self.tcp.unsent() > 0 {
                return;
            }
        } else {
            if self.tcp.unsent() > 0 {
                return;
            }
            if self.tcp.in_flight() > 0 {
                return; // Nagle stop-and-wait for small writes
            }
        }
        self.write_pending = true;
        let cost = core.cfg.cost.write_time().max(SimDuration::from_ns(1));
        ctx.schedule(cost, app_token(idx, TTCP_WRITE));
    }

    fn pump(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        let now_ns = ctx.now().as_ns();
        let src_ip = core.cfg.ip(self.port);
        let (dst, src_port, dst_port) = (self.dst, self.src_port, self.dst_port);
        // Hot loop: the segment decision carries no payload; the header
        // and pattern bytes are generated straight into the wire frame
        // buffer — one pass, no intermediate segment vector.
        while let Some(meta) = self.tcp.poll_meta(now_ns) {
            core.send_ip_built(
                ctx,
                self.port,
                dst,
                Protocol::TCPLITE,
                netstack::tcplite::HEADER_LEN + meta.len,
                |buf| {
                    netstack::tcplite::emit_pattern_segment(
                        buf, src_ip, dst, src_port, dst_port, meta.seq, meta.len,
                    );
                },
            );
            self.frames_sent += 1;
        }
        self.arm_rto(ctx, idx);
    }

    fn pump_and_write(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        self.pump(core, ctx, idx);
        self.try_write(core, ctx, idx);
    }

    /// Lazy retransmission-timer arming: in the common case (every ACK
    /// pushes the deadline *out*) the one in-flight timer is left alone
    /// and simply re-arms itself when it fires early — scheduling a fresh
    /// timer per ACK would park hundreds of stale events in the
    /// simulator's queue and deepen every heap operation on the hot path.
    /// The deadline can also move *earlier* (an ACK after a timeout
    /// resets the backed-off RTO to its initial value), in which case a
    /// closer timer is scheduled so recovery never waits out a stale
    /// backed-off deadline; the superseded timer fires later as a cheap
    /// no-op.
    fn arm_rto(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if let Some(deadline) = self.tcp.next_timeout() {
            let need = match self.armed_rto {
                None => true,
                Some(armed) => deadline < armed,
            };
            if need {
                self.armed_rto = Some(deadline);
                self.rto_epoch = self.rto_epoch.wrapping_add(1) & 0x00FF_FFFF;
                let now = ctx.now().as_ns();
                let delay = SimDuration::from_ns(deadline.saturating_sub(now).max(1));
                ctx.schedule(delay, app_token(idx, TTCP_RTO | (self.rto_epoch << 8)));
            }
        }
    }

    fn on_timer(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize, user: u32) {
        match user & TTCP_USER_MASK {
            TTCP_WRITE => {
                // The write-syscall cost was charged by the schedule delay.
                self.write_pending = false;
                let chunk = (self.write_size as u64).min(self.bytes_left);
                self.bytes_left -= chunk;
                self.writes_left -= 1;
                self.tcp.write(chunk);
                self.pump(core, ctx, idx);
                self.try_write(core, ctx, idx);
            }
            TTCP_RTO => {
                if (user >> 8) != self.rto_epoch {
                    // A superseded timer (a closer deadline was armed
                    // after it): ignore; the live timer carries the
                    // current epoch.
                    return;
                }
                // The live timer just fired; whatever happens next needs
                // a fresh arm (pump ends with arm_rto).
                self.armed_rto = None;
                let now_ns = ctx.now().as_ns();
                if let Some(deadline) = self.tcp.next_timeout() {
                    if deadline <= now_ns {
                        self.tcp.on_timeout(now_ns);
                        self.pump(core, ctx, idx);
                    } else {
                        // Deadline moved while the timer was in flight
                        // (ACKs arrived): re-arm at the current deadline.
                        self.arm_rto(ctx, idx);
                    }
                }
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ip(
        &mut self,
        core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        idx: usize,
        _port: PortId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
    ) {
        if proto != Protocol::TCPLITE || src != self.dst {
            return;
        }
        let Ok(seg) = Segment::parse(payload, src, dst) else {
            return;
        };
        if !seg.is_ack || seg.dst_port != self.src_port {
            return;
        }
        let now_ns = ctx.now().as_ns();
        self.tcp.on_ack(seg.ack, now_ns);
        if self.tcp.all_acked() && self.writes_left == 0 && self.done_at.is_none() {
            self.done_at = Some(ctx.now());
            ctx.bump("ttcp.done", 1);
            ctx.probe(mark("ttcp.done"));
            return;
        }
        self.pump(core, ctx, idx);
        self.try_write(core, ctx, idx);
    }
}

/// The ttcp receiver.
pub struct TtcpRecvApp {
    /// Our TcpLite port.
    pub port_num: u16,
    rx: TcpReceiver,
    delack_armed: bool,
    peer: Option<(Ipv4Addr, u16, PortId)>,
    /// First data arrival.
    pub first_at: Option<SimTime>,
    /// Latest data arrival.
    pub last_at: Option<SimTime>,
    /// Gap (ns) between consecutive data-segment arrivals — the raw
    /// samples scenario reports sketch into an inter-arrival jitter
    /// histogram. One entry per accepted segment after the first.
    pub inter_arrival_ns: Vec<u64>,
}

impl TtcpRecvApp {
    /// Configure a receiver.
    pub fn new(port_num: u16, cfg: ReceiverConfig) -> App {
        App::TtcpRecv(TtcpRecvApp {
            port_num,
            rx: TcpReceiver::new(cfg),
            delack_armed: false,
            peer: None,
            first_at: None,
            last_at: None,
            inter_arrival_ns: Vec::new(),
        })
    }

    /// Bytes received in order.
    pub fn bytes_received(&self) -> u64 {
        self.rx.bytes_received
    }

    /// Data segments accepted.
    pub fn segments_received(&self) -> u64 {
        self.rx.segments_received
    }

    fn send_ack(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, ack: u32) {
        let Some((peer_ip, peer_port, port)) = self.peer else {
            return;
        };
        let src_ip = core.cfg.ip(port);
        let port_num = self.port_num;
        core.send_ip_built(
            ctx,
            port,
            peer_ip,
            Protocol::TCPLITE,
            netstack::tcplite::HEADER_LEN,
            |buf| {
                Segment {
                    src_port: port_num,
                    dst_port: peer_port,
                    seq: 0,
                    ack,
                    is_ack: true,
                    payload: &[],
                }
                .emit_into(buf, src_ip, peer_ip);
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ip(
        &mut self,
        core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        idx: usize,
        port: PortId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
    ) {
        if proto != Protocol::TCPLITE {
            return;
        }
        let Ok(seg) = Segment::parse(payload, src, dst) else {
            return;
        };
        if seg.is_ack || seg.dst_port != self.port_num {
            return;
        }
        self.peer = Some((src, seg.src_port, port));
        if self.first_at.is_none() {
            self.first_at = Some(ctx.now());
        }
        if let Some(prev) = self.last_at {
            self.inter_arrival_ns
                .push(ctx.now().saturating_since(prev).as_ns());
        }
        self.last_at = Some(ctx.now());
        let now_ns = ctx.now().as_ns();
        match self.rx.on_segment(seg.seq, seg.payload.len(), now_ns) {
            RecvAction::AckNow(a) => self.send_ack(core, ctx, a),
            RecvAction::AckAt(deadline) => {
                if !self.delack_armed {
                    self.delack_armed = true;
                    let delay = SimDuration::from_ns(deadline.saturating_sub(now_ns).max(1));
                    ctx.schedule(delay, app_token(idx, TTCP_DELACK));
                }
            }
            RecvAction::None => {}
        }
    }

    fn on_timer(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize, user: u32) {
        if user == TTCP_DELACK {
            self.delack_armed = false;
            let now_ns = ctx.now().as_ns();
            if let Some(ack) = self.rx.on_timer(now_ns) {
                self.send_ack(core, ctx, ack);
            } else if let Some(deadline) = self.rx.ack_deadline() {
                // The deadline moved while the timer was in flight: re-arm
                // or the pending ACK would wait for the sender's RTO.
                self.delack_armed = true;
                let delay = SimDuration::from_ns(deadline.saturating_sub(now_ns).max(1));
                ctx.schedule(delay, app_token(idx, TTCP_DELACK));
            }
        }
    }
}

// ---------------------------------------------------------------- upload

const UPLOAD_RETRY: u32 = 1;

/// Poll-timer period: the grid on which stalls are noticed.
const UPLOAD_POLL: SimDuration = SimDuration::from_ms(100);
/// Retransmission threshold before any RTT sample has been taken.
const UPLOAD_INITIAL_RTO: SimDuration = SimDuration::from_ms(400);
/// Floor for the RTT-seeded RTO.
const UPLOAD_MIN_RTO: SimDuration = SimDuration::from_ms(200);
/// Ceiling the binary exponential backoff saturates at: 8x headroom
/// over the initial threshold.
const UPLOAD_RTO_CEILING: SimDuration = SimDuration::from_ms(3_200);
/// RTO = measured RTT x this gain, clamped to `[UPLOAD_MIN_RTO,
/// UPLOAD_RTO_CEILING]`, re-seeded on every forward-progress event.
const UPLOAD_RTT_GAIN: u64 = 4;
/// Consecutive fruitless retransmissions before the sender drops its
/// ARP entry for the loader and re-resolves. ARP has no checksum: on a
/// corrupting medium a bit-flipped reply can poison the cache, and
/// without a refresh every later retransmission unicasts to a MAC
/// nobody owns.
const UPLOAD_ARP_REFRESH: u32 = 4;

/// The recovery budget [`UploadApp::new`] gives an upload: a finite
/// count of retransmissions plus session restarts, so a dead server
/// fails the upload instead of livelocking it.
pub const UPLOAD_BUDGET: u32 = 40;

/// Uploads a switchlet image to a bridge's TFTP loader.
pub struct UploadApp {
    /// Port to upload from.
    pub port: PortId,
    /// The bridge's loader address.
    pub dst: Ipv4Addr,
    /// Our UDP port.
    pub src_port: u16,
    /// Budget of recovery actions (retransmissions + session restarts);
    /// once spent, the upload is parked as a classified failure.
    pub max_retries: u32,
    sender: TftpSender,
    /// Completion time.
    pub done_at: Option<SimTime>,
    /// Terminal failure reason — set only when the upload is parked for
    /// good (budget spent); transient failures restart instead.
    pub failed: Option<String>,
    /// Class of the most recent failure event (terminal or recovered).
    pub failure: Option<FailureClass>,
    last_tx: SimTime,
    /// Current retransmission threshold, re-seeded from measured RTT.
    rto: SimDuration,
    /// Retransmissions performed.
    pub retries: u32,
    /// Fresh-WRQ session restarts after classified server failures.
    pub restarts: u32,
    /// Backoff doublings clamped at the RTO ceiling (3.2 s).
    pub rto_ceiling_hits: u32,
    /// Retransmissions since the last forward-progress event — the ARP
    /// refresh trigger (every fourth one re-resolves the loader).
    retries_since_progress: u32,
    /// Gap (ns) between consecutive forward-progress events (server
    /// responses that advanced the transfer, including completion) —
    /// the delivery-timeline samples scenario reports sketch. Stalls
    /// bridged by retries show up as large gaps.
    pub progress_gap_ns: Vec<u64>,
    last_progress: Option<SimTime>,
}

impl UploadApp {
    /// Configure an upload with the [`UPLOAD_BUDGET`] recovery budget.
    pub fn new(
        port: PortId,
        dst: Ipv4Addr,
        src_port: u16,
        filename: impl Into<String>,
        image: Vec<u8>,
    ) -> App {
        Self::with_budget(port, dst, src_port, filename, image, UPLOAD_BUDGET)
    }

    /// Configure an upload that parks after `max_retries` recovery
    /// actions.
    pub fn with_budget(
        port: PortId,
        dst: Ipv4Addr,
        src_port: u16,
        filename: impl Into<String>,
        image: Vec<u8>,
        max_retries: u32,
    ) -> App {
        App::Upload(UploadApp {
            port,
            dst,
            src_port,
            max_retries,
            sender: TftpSender::new(filename, image),
            done_at: None,
            failed: None,
            failure: None,
            last_tx: SimTime::ZERO,
            rto: UPLOAD_INITIAL_RTO,
            retries: 0,
            restarts: 0,
            rto_ceiling_hits: 0,
            retries_since_progress: 0,
            progress_gap_ns: Vec::new(),
            last_progress: None,
        })
    }

    /// True once the final block is acknowledged.
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    fn send_udp(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, payload: &[u8]) {
        let wire = netstack::udp::emit(
            core.cfg.ip(self.port),
            self.src_port,
            self.dst,
            crate::TFTP_PORT,
            payload,
        );
        core.send_ip(ctx, self.port, self.dst, Protocol::UDP, &wire);
        self.last_tx = ctx.now();
    }

    fn on_start(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        ctx.probe(mark("upload.start"));
        let wrq = self.sender.start();
        self.send_udp(core, ctx, &wrq);
        self.last_progress = Some(ctx.now());
        ctx.schedule(UPLOAD_POLL, app_token(idx, UPLOAD_RETRY));
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ip(
        &mut self,
        core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        _idx: usize,
        _port: PortId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: Protocol,
        payload: &[u8],
    ) {
        if proto != Protocol::UDP || src != self.dst {
            return;
        }
        let Ok(udp) = UdpDatagram::parse(payload, src, dst) else {
            return;
        };
        if udp.dst_port() != self.src_port {
            return;
        }
        let rtt = ctx.now().saturating_since(self.last_tx);
        match self.sender.on_packet(udp.payload()) {
            SenderStep::Send(next) => {
                self.record_progress(ctx.now());
                self.reseed_rto(rtt);
                self.send_udp(core, ctx, &next);
            }
            SenderStep::Done => {
                self.record_progress(ctx.now());
                self.done_at = Some(ctx.now());
                ctx.probe(mark("upload.done"));
            }
            SenderStep::Failed(class, msg) => {
                ctx.probe(mark("upload.fail"));
                self.failure = Some(class);
                if self.budget_used() >= self.max_retries {
                    self.failed = Some(msg);
                } else {
                    // A refused or lost session (server crash,
                    // out-of-sequence, integrity reject) is recoverable:
                    // RFC 1350 has no mid-transfer resume, so rewind to a
                    // fresh WRQ and re-send the whole image, charging the
                    // restart against the retry budget.
                    self.restarts += 1;
                    self.sender.restart();
                    self.rto = UPLOAD_INITIAL_RTO;
                    let wrq = self.sender.start();
                    self.send_udp(core, ctx, &wrq);
                }
            }
            SenderStep::Ignore => {}
        }
    }

    fn record_progress(&mut self, now: SimTime) {
        if let Some(prev) = self.last_progress {
            self.progress_gap_ns
                .push(now.saturating_since(prev).as_ns());
        }
        self.last_progress = Some(now);
        self.retries_since_progress = 0;
    }

    /// Recovery actions spent against [`UploadApp::max_retries`].
    pub fn budget_used(&self) -> u32 {
        self.retries.saturating_add(self.restarts)
    }

    fn reseed_rto(&mut self, rtt: SimDuration) {
        let ns = rtt
            .as_ns()
            .saturating_mul(UPLOAD_RTT_GAIN)
            .clamp(UPLOAD_MIN_RTO.as_ns(), UPLOAD_RTO_CEILING.as_ns());
        self.rto = SimDuration::from_ns(ns);
    }

    fn on_timer(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize, user: u32) {
        if user != UPLOAD_RETRY || self.done_at.is_some() || self.failed.is_some() {
            return;
        }
        if ctx.now().saturating_since(self.last_tx) >= self.rto {
            if let Some(current) = self.sender.current() {
                if self.budget_used() >= self.max_retries {
                    // Budget spent with the server silent: classified
                    // timeout, upload parked (the poll timer is not
                    // re-armed, so a dead server cannot livelock us).
                    ctx.probe(mark("upload.fail"));
                    self.failure = Some(FailureClass::Timeout);
                    self.failed = Some(format!(
                        "timeout: retry budget ({}) exhausted",
                        self.max_retries
                    ));
                    return;
                }
                self.retries += 1;
                self.retries_since_progress += 1;
                // A run of fruitless retransmissions may mean the ARP
                // cache is poisoned (a corrupted, checksum-less reply):
                // periodically re-resolve so the next send re-ARPs
                // instead of unicasting to a MAC nobody owns.
                if self
                    .retries_since_progress
                    .is_multiple_of(UPLOAD_ARP_REFRESH)
                    && core.invalidate_arp(self.dst)
                {
                    ctx.probe(mark("upload.rearp"));
                }
                // Binary exponential backoff, saturating at the ceiling.
                let doubled = self.rto.as_ns().saturating_mul(2);
                if doubled >= UPLOAD_RTO_CEILING.as_ns() {
                    if doubled > UPLOAD_RTO_CEILING.as_ns() {
                        self.rto_ceiling_hits += 1;
                    }
                    self.rto = UPLOAD_RTO_CEILING;
                } else {
                    self.rto = SimDuration::from_ns(doubled);
                }
                self.send_udp(core, ctx, &current);
            }
        }
        ctx.schedule(UPLOAD_POLL, app_token(idx, UPLOAD_RETRY));
    }
}

// ----------------------------------------------------------------- probe

const PROBE_PING: u32 = 1;
const PROBE_START: u32 = 2;

/// The Section 7.5 agility probe: a two-NIC host that injects an 802.1D
/// BPDU on `eth0`, waits to see one on `eth1` (all bridges in the path
/// have switched), and sends a prebuilt ICMP ECHO once per second on
/// `eth0` until it sees it arrive on `eth1`.
pub struct ProbeApp {
    /// ICMP identifier for the prebuilt pings.
    pub ident: u16,
    /// Wait this long before injecting (lets the old protocol converge).
    pub start_delay: SimDuration,
    seq: u16,
    /// When the triggering BPDU was sent.
    pub sent_bpdu_at: Option<SimTime>,
    /// When an IEEE BPDU first appeared on eth1.
    pub ieee_seen_at: Option<SimTime>,
    /// When the first probe ping arrived on eth1.
    pub ping_seen_at: Option<SimTime>,
    /// Pings sent.
    pub pings_sent: u32,
}

impl ProbeApp {
    /// Configure a probe that fires immediately.
    pub fn new(ident: u16) -> App {
        Self::new_delayed(ident, SimDuration::ZERO)
    }

    /// Configure a probe that waits `start_delay` before injecting the
    /// triggering BPDU (so the old protocol can converge first).
    pub fn new_delayed(ident: u16, start_delay: SimDuration) -> App {
        App::Probe(ProbeApp {
            ident,
            start_delay,
            seq: 0,
            sent_bpdu_at: None,
            ieee_seen_at: None,
            ping_seen_at: None,
            pings_sent: 0,
        })
    }

    /// The paper's "start to IEEE" interval.
    pub fn to_ieee(&self) -> Option<SimDuration> {
        Some(self.ieee_seen_at?.saturating_since(self.sent_bpdu_at?))
    }

    /// The paper's "start to received ping" interval.
    pub fn to_ping(&self) -> Option<SimDuration> {
        Some(self.ping_seen_at?.saturating_since(self.sent_bpdu_at?))
    }

    fn on_start(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        assert!(
            core.cfg.num_ports() >= 2,
            "the agility probe needs two NICs (eth0, eth1)"
        );
        assert!(core.cfg.promiscuous, "the probe reads raw frames");
        if self.start_delay.is_zero() {
            self.fire(core, ctx, idx);
        } else {
            ctx.schedule(self.start_delay, app_token(idx, PROBE_START));
        }
    }

    fn fire(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        // The triggering BPDU: a valid 802.1D configuration message from
        // a never-winning "bridge" (priority 0xFFFF).
        let frame = root_claim(ctx, 0xFFFF, core.cfg.mac(PortId(0)));
        core.send_raw(ctx, PortId(0), frame);
        self.sent_bpdu_at = Some(ctx.now());
        ctx.schedule(SimDuration::from_secs(1), app_token(idx, PROBE_PING));
    }

    fn on_timer(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize, user: u32) {
        if user == PROBE_START {
            self.fire(core, ctx, idx);
            return;
        }
        if user != PROBE_PING || self.ping_seen_at.is_some() {
            return;
        }
        // Prebuilt ICMP ECHO addressed to our own eth1, sent raw on eth0:
        // unknown destination, so bridges flood it — once they forward.
        let icmp = Echo::emit(EchoKind::Request, self.ident, self.seq, b"agility-probe");
        self.seq += 1;
        let ip = netstack::ipv4::emit(
            core.cfg.ip(PortId(0)),
            core.cfg.ip(PortId(1)),
            Protocol::ICMP,
            self.seq,
            64,
            &icmp,
            1500,
        )
        .expect("probe ping fits MTU");
        let frame = FrameBuilder::new(
            core.cfg.mac(PortId(1)),
            core.cfg.mac(PortId(0)),
            EtherType::IPV4,
        )
        .payload(&ip)
        .build();
        core.send_raw(ctx, PortId(0), frame);
        self.pings_sent += 1;
        ctx.schedule(SimDuration::from_secs(1), app_token(idx, PROBE_PING));
    }

    fn on_raw(
        &mut self,
        _core: &mut HostCore,
        ctx: &mut Ctx<'_>,
        _idx: usize,
        port: PortId,
        frame: &Frame<'_>,
    ) {
        if port != PortId(1) {
            return;
        }
        if frame.dst() == MacAddr::ALL_BRIDGES && self.ieee_seen_at.is_none() {
            // An IEEE BPDU on eth1: every bridge in the path switched.
            if let Some((llc, rest)) = Llc::parse(frame.payload()) {
                if llc == Llc::BPDU && matches!(ieee::parse(rest), Some(Bpdu::Config(_))) {
                    self.ieee_seen_at = Some(ctx.now());
                }
            }
            return;
        }
        if frame.ethertype() == EtherType::IPV4 && self.ping_seen_at.is_none() {
            if let Ok(ip) = netstack::ipv4::Packet::parse(frame.payload()) {
                if ip.protocol() == Protocol::ICMP {
                    if let Ok(echo) = Echo::parse(ip.payload()) {
                        if echo.kind == EchoKind::Request && echo.ident == self.ident {
                            self.ping_seen_at = Some(ctx.now());
                        }
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------- blast

/// The tick [`App::pace`] arms between frames.
const PACE_TICK: u32 = 1;

/// A raw-frame generator for flooding/learning experiments.
pub struct BlastApp {
    /// Port to send from.
    pub port: PortId,
    /// Destination address.
    pub dst_mac: MacAddr,
    /// Frame payload size.
    pub size: usize,
    /// Frames to send.
    pub count: u64,
    /// Inter-frame interval.
    pub interval: SimDuration,
    /// Frames sent so far.
    pub sent: u64,
    /// The frame, built once and then shared (every send is a refcount
    /// bump), keyed by the `(dst_mac, src_mac, size)` it was built from
    /// so edits to the public configuration fields (including `port`,
    /// which selects the source MAC) rebuild it.
    frame: Option<(MacAddr, MacAddr, usize, netsim::FrameBuf)>,
}

impl BlastApp {
    /// Configure a blaster.
    pub fn new(
        port: PortId,
        dst_mac: MacAddr,
        size: usize,
        count: u64,
        interval: SimDuration,
    ) -> App {
        App::Blast(BlastApp {
            port,
            dst_mac,
            size,
            count,
            interval,
            sent: 0,
            frame: None,
        })
    }

    fn send_one(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>) {
        let src_mac = core.cfg.mac(self.port);
        let frame = match &self.frame {
            Some((dst, src, size, f))
                if *dst == self.dst_mac && *src == src_mac && *size == self.size =>
            {
                f.clone()
            }
            _ => {
                let size = self.size;
                let built = FrameBuilder::new(self.dst_mac, src_mac, EtherType::EXPERIMENTAL)
                    .payload_with(size, |out| out.resize(out.len() + size, 0x42))
                    .build();
                self.frame = Some((self.dst_mac, src_mac, self.size, built.clone()));
                built
            }
        };
        core.send_raw(ctx, self.port, frame);
        self.sent += 1;
    }
}

// --------------------------------------------------------------- attacks
//
// Adversarial workloads for the defense-plane battery. Each attacker
// draws from its own `Xoshiro` stream seeded by the scenario (never the
// world RNG), so an attack is a pure function of its seed and the
// defended/undefended arms replay the identical offense.

/// A MAC-flood attacker: frames with randomized (locally-administered,
/// unicast) source addresses toward a fixed never-learned destination —
/// classic CAM-table exhaustion against an unbounded learning table.
pub struct MacFloodApp {
    /// Port to send from.
    pub port: PortId,
    /// Frames to send.
    pub count: u64,
    /// Inter-frame interval.
    pub interval: SimDuration,
    /// Frames sent so far.
    pub sent: u64,
    rng: netsim::Xoshiro,
}

impl MacFloodApp {
    /// Configure a MAC flooder.
    pub fn new(port: PortId, count: u64, interval: SimDuration, seed: u64) -> App {
        App::MacFlood(MacFloodApp {
            port,
            count,
            interval,
            sent: 0,
            rng: netsim::Xoshiro::seed_from_u64(seed),
        })
    }

    fn send_one(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>) {
        let mut b = self.rng.next_u64().to_be_bytes();
        // Locally administered, unicast: never collides with a real
        // station's globally-unique address, never a group source.
        b[0] = (b[0] | 0x02) & !0x01;
        let src = MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]]);
        // A fixed unicast destination no station owns: every frame is
        // unknown-unicast and floods (the storm class policing catches).
        let dst = MacAddr([0x02, 0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        let frame = FrameBuilder::new(dst, src, EtherType::EXPERIMENTAL)
            .in_buf(ctx.take_buf(ether::MIN_FRAME))
            .payload(&[0x5A; 46])
            .build();
        core.send_raw(ctx, self.port, frame);
        self.sent += 1;
    }
}

/// An ARP-storm attacker: broadcast who-has requests for addresses
/// nobody owns, at line rate — every frame floods the whole extended LAN.
pub struct ArpStormApp {
    /// Port to send from.
    pub port: PortId,
    /// Frames to send.
    pub count: u64,
    /// Inter-frame interval.
    pub interval: SimDuration,
    /// Frames sent so far.
    pub sent: u64,
    rng: netsim::Xoshiro,
}

impl ArpStormApp {
    /// Configure an ARP storm.
    pub fn new(port: PortId, count: u64, interval: SimDuration, seed: u64) -> App {
        App::ArpStorm(ArpStormApp {
            port,
            count,
            interval,
            sent: 0,
            rng: netsim::Xoshiro::seed_from_u64(seed),
        })
    }

    fn send_one(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>) {
        let src_mac = core.cfg.mac(self.port);
        let spa = core.cfg.ip(self.port);
        // Resolve a different nonexistent address each time (a dedicated
        // dark /16 no scenario host lives in), so no cache ever answers.
        let r = self.rng.next_u32();
        let tpa = Ipv4Addr::new(10, 250, (r >> 8) as u8, r as u8);
        let arp = netstack::ArpPacket::request(src_mac, spa, tpa).emit();
        let frame = FrameBuilder::new(MacAddr::BROADCAST, src_mac, EtherType::ARP)
            .in_buf(ctx.take_buf(ether::MIN_FRAME))
            .payload(&arp)
            .build();
        core.send_raw(ctx, self.port, frame);
        self.sent += 1;
    }
}

/// An 802.1D configuration BPDU from station `src` that names itself root
/// at `priority`, framed in a buffer from the world's pool.
fn root_claim(ctx: &mut Ctx<'_>, priority: u16, src: MacAddr) -> FrameBuf {
    let me = BridgeId::new(priority, src);
    let config = ConfigBpdu {
        root: me,
        root_cost: 0,
        bridge: me,
        port: 1,
        message_age: 0,
        max_age: 20,
        hello_time: 2,
        forward_delay: 15,
        tc: false,
        tca: false,
    };
    let payload = ieee::emit(&Bpdu::Config(config));
    FrameBuilder::new_llc(MacAddr::ALL_BRIDGES, src)
        .in_buf(ctx.take_buf(ether::MIN_FRAME))
        .payload(&Llc::BPDU.wrap(&payload))
        .build()
}

/// A rogue-root attacker: forged *superior* configuration BPDUs
/// (priority 0x0000) claiming this host is the spanning-tree root. On an
/// unguarded port every bridge believes it; BPDU guard err-disables the
/// port at the first frame instead.
pub struct RogueBpduApp {
    /// Port to send from.
    pub port: PortId,
    /// BPDUs to send.
    pub count: u64,
    /// Inter-BPDU interval.
    pub interval: SimDuration,
    /// BPDUs sent so far.
    pub sent: u64,
}

impl RogueBpduApp {
    /// Configure a rogue-root BPDU source.
    pub fn new(port: PortId, count: u64, interval: SimDuration) -> App {
        App::RogueBpdu(RogueBpduApp {
            port,
            count,
            interval,
            sent: 0,
        })
    }

    fn send_one(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>) {
        let src_mac = core.cfg.mac(self.port);
        // Priority 0 beats every real bridge (802.1D's default is 0x8000):
        // processed anywhere, this claim wins the election outright.
        let frame = root_claim(ctx, 0x0000, src_mac);
        core.send_raw(ctx, self.port, frame);
        self.sent += 1;
    }
}

// --------------------------------------------------------------- delayed

/// The wrapper's own start-fire token. Inner apps use small user values
/// (1..=3), so the top of the range is reserved for the wrapper.
const DELAY_FIRE: u32 = u32::MAX;

/// An app whose active start is postponed — built with [`App::delayed`].
pub struct DelayedApp {
    /// How long after host start the inner app starts.
    pub after: SimDuration,
    inner: Box<App>,
    started: bool,
}

impl DelayedApp {
    /// The wrapped app.
    pub fn inner(&self) -> &App {
        &self.inner
    }

    fn on_start(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        if self.after.is_zero() {
            self.started = true;
            self.inner.on_start(core, ctx, idx);
        } else {
            ctx.schedule(self.after, app_token(idx, DELAY_FIRE));
        }
    }

    fn on_timer(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize, user: u32) {
        if user == DELAY_FIRE && !self.started {
            self.started = true;
            self.inner.on_start(core, ctx, idx);
        } else {
            // Everything else belongs to the inner app — including a
            // DELAY_FIRE after we already started, which is a nested
            // wrapper's own fire (both levels share the token value).
            self.inner.on_timer(core, ctx, idx, user);
        }
    }

    fn on_tx_done(&mut self, core: &mut HostCore, ctx: &mut Ctx<'_>, idx: usize) {
        // Send-side pacing must not leak to an app that has not started:
        // the host broadcasts tx-done to every app, and an unstarted ttcp
        // sender would begin its write loop ahead of schedule.
        if self.started {
            self.inner.on_tx_done(core, ctx, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HostCostModel;
    use crate::host::{HostConfig, HostNode};
    use netsim::{SegmentConfig, SimTime, World};

    #[test]
    fn delayed_app_starts_late_and_unwraps() {
        let mut world = World::new(1);
        let lan = world.add_segment(SegmentConfig::default());
        let blast = BlastApp::new(PortId(0), MacAddr::local(9), 64, 5, SimDuration::from_ms(1));
        let app = App::delayed(SimDuration::from_ms(100), blast);
        assert!(matches!(app.unwrapped(), App::Blast(_)));
        let h = world.add_node(HostNode::new(
            "h",
            HostConfig::simple(
                MacAddr::local(1),
                Ipv4Addr::new(10, 1, 0, 1),
                HostCostModel::FREE,
            ),
            vec![app],
        ));
        world.attach(h, lan);
        world.run_until(SimTime::from_ms(50));
        let App::Blast(b) = world.node::<HostNode>(h).app(0).unwrapped() else {
            unreachable!()
        };
        assert_eq!(b.sent, 0, "nothing sent before the delay fires");
        world.run_until(SimTime::from_ms(300));
        let App::Blast(b) = world.node::<HostNode>(h).app(0).unwrapped() else {
            unreachable!()
        };
        assert_eq!(b.sent, 5, "the train runs to completion after the delay");
    }

    #[test]
    fn nested_delays_compose() {
        let mut world = World::new(1);
        let lan = world.add_segment(SegmentConfig::default());
        // 100 ms + 100 ms: the inner wrapper's fire reuses the same timer
        // token, so the outer must forward it once started.
        let app = App::delayed(
            SimDuration::from_ms(100),
            App::delayed(
                SimDuration::from_ms(100),
                BlastApp::new(PortId(0), MacAddr::local(9), 64, 3, SimDuration::from_ms(1)),
            ),
        );
        let h = world.add_node(HostNode::new(
            "h",
            HostConfig::simple(
                MacAddr::local(1),
                Ipv4Addr::new(10, 1, 0, 1),
                HostCostModel::FREE,
            ),
            vec![app],
        ));
        world.attach(h, lan);
        world.run_until(SimTime::from_ms(150));
        let App::Blast(b) = world.node::<HostNode>(h).app(0).unwrapped() else {
            unreachable!()
        };
        assert_eq!(b.sent, 0, "inner delay has not elapsed yet");
        world.run_until(SimTime::from_ms(400));
        let App::Blast(b) = world.node::<HostNode>(h).app(0).unwrapped() else {
            unreachable!()
        };
        assert_eq!(b.sent, 3, "nested wrappers must both fire");
    }

    /// ARP has no checksum, so a corrupting medium can poison the
    /// sender's cache with a MAC nobody owns. Every fourth fruitless
    /// retransmission drops the entry, and the next send re-resolves
    /// the true MAC from the peer's reply. Retransmissions back off
    /// 0.4 s → 0.8 s → 1.6 s → 3.2 s from the start, so they land at
    /// 0.4, 1.2, 2.8 and 6.0 s, and the fourth one heals the cache.
    #[test]
    fn arp_refresh_heals_a_poisoned_cache() {
        let mut world = World::new(7);
        let lan = world.add_segment(SegmentConfig::default());
        let peer_mac = MacAddr::local(2);
        let peer_ip = Ipv4Addr::new(10, 1, 0, 2);
        let peer = world.add_node(HostNode::new(
            "peer",
            HostConfig::simple(peer_mac, peer_ip, HostCostModel::FREE),
            vec![],
        ));
        world.attach(peer, lan);

        let app = UploadApp::new(PortId(0), peer_ip, 4000, "poisoned.swl", vec![0u8; 64]);
        let h = world.add_node(HostNode::new(
            "uploader",
            HostConfig::simple(
                MacAddr::local(1),
                Ipv4Addr::new(10, 1, 0, 1),
                HostCostModel::FREE,
            ),
            vec![app],
        ));
        world.attach(h, lan);
        // Poison the cache before the first send: one bit away from
        // the peer's real MAC, exactly as a corrupted reply leaves it.
        let bogus = MacAddr::local(0x8002);
        world.node_mut::<HostNode>(h).core.seed_arp(peer_ip, bogus);
        let upload = |world: &World| {
            let App::Upload(a) = world.node::<HostNode>(h).app(0).unwrapped() else {
                unreachable!()
            };
            (a.retries, a.is_done())
        };

        world.run_until(SimTime::from_ms(5_900));
        assert_eq!(
            world.node::<HostNode>(h).core.arp_entry(peer_ip),
            Some(bogus),
            "three fruitless retransmissions leave the cache alone"
        );
        assert_eq!(
            upload(&world),
            (3, false),
            "retransmitted at 0.4, 1.2, 2.8 s"
        );

        world.run_until(SimTime::from_ms(6_100));
        assert_eq!(
            world.node::<HostNode>(h).core.arp_entry(peer_ip),
            Some(peer_mac),
            "the fourth retransmission (6.0 s) re-resolves the true MAC"
        );
        assert_eq!(
            upload(&world),
            (4, false),
            "no TFTP server answers here, so the upload keeps retrying"
        );
    }

    #[test]
    fn zero_delay_starts_immediately() {
        let mut world = World::new(1);
        let lan = world.add_segment(SegmentConfig::default());
        let app = App::delayed(
            SimDuration::ZERO,
            BlastApp::new(PortId(0), MacAddr::local(9), 64, 1, SimDuration::from_ms(1)),
        );
        let h = world.add_node(HostNode::new(
            "h",
            HostConfig::simple(
                MacAddr::local(1),
                Ipv4Addr::new(10, 1, 0, 1),
                HostCostModel::FREE,
            ),
            vec![app],
        ));
        world.attach(h, lan);
        world.run_until(SimTime::from_ms(1));
        let App::Blast(b) = world.node::<HostNode>(h).app(0).unwrapped() else {
            unreachable!()
        };
        assert_eq!(b.sent, 1);
    }
}
