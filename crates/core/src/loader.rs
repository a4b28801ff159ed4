//! The network loader (paper Section 5.2).
//!
//! "When the loader first starts, it is limited to those capabilities
//! required to continue the loading process ... the initial loader can
//! only load switchlets from disk. To overcome this limitation, we load a
//! network loader. It consists of four layers": the Ethernet demux (the
//! bridge's demultiplexer, at which this switchlet registers the bridge's
//! own station address), a minimal IP, a minimal UDP, and a TFTP server
//! that only services binary write requests. "Any such file is taken to
//! be a ... byte code file and, upon successful receipt, an attempt is
//! made to dynamically load and evaluate the file."

use ether::{EtherType, FrameBuilder, MacAddr};
use netsim::{FrameBuf, PortId};
use netstack::ipv4::Protocol;
use netstack::{ArpOp, ArpPacket, TftpPacket, TftpServer, UdpDatagram};

use crate::bridge::{BridgeCommand, BridgeCtx, DataFrame, NativeSwitchlet};

/// The switchlet's unit name.
pub const NAME: &str = "netloader";

/// The UDP port the TFTP server listens on.
pub const TFTP_PORT: u16 = 69;

/// The network-loader switchlet.
pub struct NetLoader {
    tftp: TftpServer,
    ip_ident: u16,
    /// Images received over the network.
    pub images_received: u64,
    /// Sealed images whose envelope failed verification — counted here
    /// *and* in [`crate::plane::BridgeStats::images_rejected`]; the
    /// payload never reaches decode or evaluation.
    pub integrity_rejects: u64,
}

impl Default for NetLoader {
    fn default() -> Self {
        NetLoader {
            tftp: TftpServer::new(),
            ip_ident: 1,
            images_received: 0,
            integrity_rejects: 0,
        }
    }
}

impl NetLoader {
    fn send_udp(
        &mut self,
        bc: &mut BridgeCtx<'_, '_>,
        port: PortId,
        dst_mac: MacAddr,
        dst_ip: std::net::Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) {
        let udp = netstack::udp::emit(bc.ip, TFTP_PORT, dst_ip, dst_port, payload);
        let ip =
            match netstack::ipv4::emit(bc.ip, dst_ip, Protocol::UDP, self.ip_ident, 64, &udp, 1500)
            {
                Ok(p) => p,
                Err(_) => return, // reply exceeds MTU: drop (no fragmentation)
            };
        self.ip_ident = self.ip_ident.wrapping_add(1);
        let frame = FrameBuilder::new(dst_mac, bc.mac, EtherType::IPV4)
            .payload(&ip)
            .build();
        bc.send_frame(port, frame);
    }
}

impl NativeSwitchlet for NetLoader {
    fn name(&self) -> &'static str {
        NAME
    }

    fn on_install(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        // Register for frames "destined for an Ethernet card installed on
        // this machine". (Broadcast ARP is steered here by the bridge.)
        let mac = bc.mac;
        bc.plane.register_addr(mac, NAME);
        let ip = bc.ip;
        bc.log(format_args!(
            "network loader ready at {ip} (tftp/{TFTP_PORT})"
        ));
    }

    fn on_registered_frame(
        &mut self,
        bc: &mut BridgeCtx<'_, '_>,
        port: PortId,
        frame: &DataFrame<'_>,
    ) {
        match frame.ethertype() {
            EtherType::ARP => {
                let Ok(arp) = ArpPacket::parse(frame.payload()) else {
                    return;
                };
                if arp.op == ArpOp::Request && arp.tpa == bc.ip {
                    let reply = arp.reply_with(bc.mac);
                    let out = FrameBuilder::new(arp.sha, bc.mac, EtherType::ARP)
                        .payload(&reply.emit())
                        .build();
                    bc.send_frame(port, out);
                }
            }
            EtherType::IPV4 => {
                let Ok(ip) = netstack::ipv4::Packet::parse(frame.payload()) else {
                    return;
                };
                if ip.dst() != bc.ip || ip.protocol() != Protocol::UDP {
                    return;
                }
                let Ok(udp) = UdpDatagram::parse(ip.payload(), ip.src(), ip.dst()) else {
                    return;
                };
                if udp.dst_port() != TFTP_PORT {
                    return;
                }
                let peer = (ip.src(), udp.src_port());
                let now_ns = bc.now().as_ns();
                let (mut reply, file) = self.tftp.on_packet_at(peer, udp.payload(), now_ns);
                // The integrity gate: a digest-sealed envelope is
                // verified *before* any decode or evaluation touches the
                // payload. On a corrupted image the final ACK is replaced
                // by a TFTP error whose message lets the sender classify
                // the failure as `IntegrityReject` and re-send; the data
                // plane keeps running the last known-good selection. Bare
                // images (no envelope magic) take the legacy path
                // untouched.
                let mut accepted = None;
                let mut rejected = None;
                if let Some(file) = file {
                    if switchlet::is_enveloped(&file.data) {
                        match switchlet::unseal(&file.data) {
                            Ok(payload) => accepted = Some((file.filename, payload.to_vec())),
                            Err(e) => {
                                reply = Some(
                                    TftpPacket::Error {
                                        code: 0,
                                        msg: &format!("integrity check failed: {e}"),
                                    }
                                    .emit(),
                                );
                                rejected = Some((file.filename, file.data.len(), e));
                            }
                        }
                    } else {
                        accepted = Some((file.filename, file.data));
                    }
                }
                if let Some(reply) = reply {
                    let dst_mac = frame.src();
                    self.send_udp(bc, port, dst_mac, peer.0, peer.1, &reply);
                }
                if let Some((filename, len, e)) = rejected {
                    self.integrity_rejects += 1;
                    bc.plane.stats.images_rejected += 1;
                    bc.log(format_args!(
                        "loader: rejected {filename} ({len} bytes): {e}"
                    ));
                }
                if let Some((filename, image)) = accepted {
                    self.images_received += 1;
                    bc.log(format_args!(
                        "loader: received {filename} ({} bytes); loading",
                        image.len()
                    ));
                    // "... an attempt is made to dynamically load and
                    // evaluate the file."
                    bc.command(BridgeCommand::LoadImage(image));
                }
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

/// Build the Ethernet frame a host sends to upload `payload` to a
/// bridge's TFTP loader (used by `hostsim`'s uploader and by tests).
pub fn wrap_tftp_packet(
    src_mac: MacAddr,
    src_ip: std::net::Ipv4Addr,
    src_port: u16,
    dst_mac: MacAddr,
    dst_ip: std::net::Ipv4Addr,
    ident: u16,
    tftp_payload: &[u8],
) -> FrameBuf {
    let udp = netstack::udp::emit(src_ip, src_port, dst_ip, TFTP_PORT, tftp_payload);
    let ip = netstack::ipv4::emit(src_ip, dst_ip, Protocol::UDP, ident, 64, &udp, 1500)
        .expect("tftp packets fit the MTU");
    FrameBuilder::new(dst_mac, src_mac, EtherType::IPV4)
        .payload(&ip)
        .build()
}
