//! TFTP (RFC 1350), restricted exactly as the paper restricts it: "this
//! server only services write requests in binary format. Any such file is
//! taken to be a Caml byte code file and, upon successful receipt, an
//! attempt is made to dynamically load and evaluate the file."
//!
//! Both ends are pure state machines — the embedding node supplies packet
//! transport and retransmission timers.

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// TFTP data block size.
pub const BLOCK_SIZE: usize = 512;

/// A parsed TFTP packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TftpPacket<'a> {
    /// Read request (always refused by our server).
    Rrq {
        /// Requested file name.
        filename: &'a str,
        /// Transfer mode.
        mode: &'a str,
    },
    /// Write request.
    Wrq {
        /// Target file name.
        filename: &'a str,
        /// Transfer mode; only "octet" (binary) is served.
        mode: &'a str,
    },
    /// A data block.
    Data {
        /// Block number (1-based).
        block: u16,
        /// Up to 512 octets; fewer ends the transfer.
        data: &'a [u8],
    },
    /// Acknowledgement of a block (0 acknowledges the WRQ).
    Ack {
        /// Acknowledged block number.
        block: u16,
    },
    /// Error.
    Error {
        /// Error code.
        code: u16,
        /// Human-readable message.
        msg: &'a str,
    },
}

fn read_cstr(buf: &[u8]) -> Option<(&str, &[u8])> {
    let nul = buf.iter().position(|&b| b == 0)?;
    let s = core::str::from_utf8(&buf[..nul]).ok()?;
    Some((s, &buf[nul + 1..]))
}

impl<'a> TftpPacket<'a> {
    /// Parse a TFTP packet; `None` on malformed input.
    pub fn parse(buf: &'a [u8]) -> Option<TftpPacket<'a>> {
        if buf.len() < 2 {
            return None;
        }
        let op = u16::from_be_bytes([buf[0], buf[1]]);
        let rest = &buf[2..];
        match op {
            1 | 2 => {
                let (filename, rest) = read_cstr(rest)?;
                let (mode, _) = read_cstr(rest)?;
                Some(if op == 1 {
                    TftpPacket::Rrq { filename, mode }
                } else {
                    TftpPacket::Wrq { filename, mode }
                })
            }
            3 => {
                if rest.len() < 2 || rest.len() > 2 + BLOCK_SIZE {
                    return None;
                }
                Some(TftpPacket::Data {
                    block: u16::from_be_bytes([rest[0], rest[1]]),
                    data: &rest[2..],
                })
            }
            4 => {
                if rest.len() < 2 {
                    return None;
                }
                Some(TftpPacket::Ack {
                    block: u16::from_be_bytes([rest[0], rest[1]]),
                })
            }
            5 => {
                if rest.len() < 2 {
                    return None;
                }
                let (msg, _) = read_cstr(&rest[2..])?;
                Some(TftpPacket::Error {
                    code: u16::from_be_bytes([rest[0], rest[1]]),
                    msg,
                })
            }
            _ => None,
        }
    }

    /// Assemble this packet.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            TftpPacket::Rrq { filename, mode } | TftpPacket::Wrq { filename, mode } => {
                let op: u16 = if matches!(self, TftpPacket::Rrq { .. }) {
                    1
                } else {
                    2
                };
                buf.extend_from_slice(&op.to_be_bytes());
                buf.extend_from_slice(filename.as_bytes());
                buf.push(0);
                buf.extend_from_slice(mode.as_bytes());
                buf.push(0);
            }
            TftpPacket::Data { block, data } => {
                assert!(data.len() <= BLOCK_SIZE);
                buf.extend_from_slice(&3u16.to_be_bytes());
                buf.extend_from_slice(&block.to_be_bytes());
                buf.extend_from_slice(data);
            }
            TftpPacket::Ack { block } => {
                buf.extend_from_slice(&4u16.to_be_bytes());
                buf.extend_from_slice(&block.to_be_bytes());
            }
            TftpPacket::Error { code, msg } => {
                buf.extend_from_slice(&5u16.to_be_bytes());
                buf.extend_from_slice(&code.to_be_bytes());
                buf.extend_from_slice(msg.as_bytes());
                buf.push(0);
            }
        }
        buf
    }
}

/// A completed upload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceivedFile {
    /// The name from the WRQ.
    pub filename: String,
    /// Reassembled contents.
    pub data: Vec<u8>,
}

struct Transfer {
    filename: String,
    next_block: u16,
    data: Vec<u8>,
    /// Timestamp of the last packet seen on this session (whatever clock
    /// the embedding node passes to [`TftpServer::on_packet_at`]; 0 when
    /// driven through the clockless [`TftpServer::on_packet`]).
    last_activity_ns: u64,
}

/// Sessions idle longer than this are expired (lazily, on the next
/// packet): a sender stranded by a server crash must not pin state
/// forever, and a fresh WRQ after the stall starts clean.
pub const IDLE_SESSION_NS: u64 = 30_000_000_000; // 30 s

/// The most bytes one upload session may hold. A DATA block that would
/// take a session past it is answered with ERROR 3 ("allocation
/// exceeded", RFC 1350) and the session is dropped, so a peer that keeps
/// sending full blocks cannot grow a loader's heap without bound. 1 MiB
/// is fifty times the largest image any scenario sends, and at
/// [`BLOCK_SIZE`] it is 2 048 blocks, so a session's block number never
/// wraps.
pub const MAX_UPLOAD_BYTES: usize = 1 << 20;

/// The write-only, binary-only TFTP server.
#[derive(Default)]
pub struct TftpServer {
    transfers: HashMap<(Ipv4Addr, u16), Transfer>,
    /// Completed uploads served so far.
    pub completed: u64,
    /// Requests refused (RRQ, bad mode, bad sequence, over
    /// [`MAX_UPLOAD_BYTES`]).
    pub refused: u64,
    /// Sessions dropped by idle expiry.
    pub expired: u64,
}

impl TftpServer {
    /// Fresh server.
    pub fn new() -> TftpServer {
        TftpServer::default()
    }

    /// In-progress upload sessions.
    pub fn active_transfers(&self) -> usize {
        self.transfers.len()
    }

    /// Handle one packet from `peer` with no notion of time (no idle
    /// expiry). Equivalent to [`TftpServer::on_packet_at`] at a frozen
    /// clock.
    pub fn on_packet(
        &mut self,
        peer: (Ipv4Addr, u16),
        packet: &[u8],
    ) -> (Option<Vec<u8>>, Option<ReceivedFile>) {
        self.on_packet_at(peer, packet, 0)
    }

    /// Handle one packet from `peer` at `now_ns` on the embedding node's
    /// clock. Returns the reply to send (if any) and the completed file
    /// (if this packet finished an upload). Sessions idle longer than
    /// [`IDLE_SESSION_NS`] are expired before the packet is processed,
    /// so a stale half-transfer cannot shadow a fresh WRQ or accept a
    /// wildly late DATA block.
    pub fn on_packet_at(
        &mut self,
        peer: (Ipv4Addr, u16),
        packet: &[u8],
        now_ns: u64,
    ) -> (Option<Vec<u8>>, Option<ReceivedFile>) {
        let before = self.transfers.len();
        self.transfers
            .retain(|_, t| now_ns.saturating_sub(t.last_activity_ns) < IDLE_SESSION_NS);
        self.expired += (before - self.transfers.len()) as u64;
        let Some(pkt) = TftpPacket::parse(packet) else {
            return (None, None); // malformed: silently dropped
        };
        match pkt {
            TftpPacket::Rrq { .. } => {
                self.refused += 1;
                (
                    Some(
                        TftpPacket::Error {
                            code: 2,
                            msg: "write-only server",
                        }
                        .emit(),
                    ),
                    None,
                )
            }
            TftpPacket::Wrq { filename, mode } => {
                if !mode.eq_ignore_ascii_case("octet") {
                    self.refused += 1;
                    return (
                        Some(
                            TftpPacket::Error {
                                code: 0,
                                msg: "binary (octet) mode only",
                            }
                            .emit(),
                        ),
                        None,
                    );
                }
                self.transfers.insert(
                    peer,
                    Transfer {
                        filename: filename.to_owned(),
                        next_block: 1,
                        data: Vec::new(),
                        last_activity_ns: now_ns,
                    },
                );
                (Some(TftpPacket::Ack { block: 0 }.emit()), None)
            }
            TftpPacket::Data { block, data } => {
                let Some(t) = self.transfers.get_mut(&peer) else {
                    self.refused += 1;
                    return (
                        Some(
                            TftpPacket::Error {
                                code: 5,
                                msg: "no transfer in progress",
                            }
                            .emit(),
                        ),
                        None,
                    );
                };
                t.last_activity_ns = now_ns;
                if block < t.next_block {
                    // Duplicate of an already-received block (a lost ACK
                    // made the sender retransmit): re-ack, never
                    // re-append. Only a *future* block is a protocol
                    // violation.
                    return (Some(TftpPacket::Ack { block }.emit()), None);
                }
                if block != t.next_block {
                    self.refused += 1;
                    self.transfers.remove(&peer);
                    return (
                        Some(
                            TftpPacket::Error {
                                code: 4,
                                msg: "block out of sequence",
                            }
                            .emit(),
                        ),
                        None,
                    );
                }
                if t.data.len() + data.len() > MAX_UPLOAD_BYTES {
                    self.refused += 1;
                    self.transfers.remove(&peer);
                    return (
                        Some(
                            TftpPacket::Error {
                                code: 3,
                                msg: "allocation exceeded",
                            }
                            .emit(),
                        ),
                        None,
                    );
                }
                t.data.extend_from_slice(data);
                t.next_block += 1;
                let ack = TftpPacket::Ack { block }.emit();
                if data.len() < BLOCK_SIZE {
                    let t = self.transfers.remove(&peer).unwrap();
                    self.completed += 1;
                    (
                        Some(ack),
                        Some(ReceivedFile {
                            filename: t.filename,
                            data: t.data,
                        }),
                    )
                } else {
                    (Some(ack), None)
                }
            }
            TftpPacket::Ack { .. } | TftpPacket::Error { .. } => {
                // A pure write server never expects these; drop.
                (None, None)
            }
        }
    }
}

/// Why an upload attempt failed — the adaptive-retransmission layer
/// keys its recovery policy off this.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// The retry budget ran out with no server response (assigned by the
    /// embedding transport, never by the state machine itself).
    Timeout,
    /// The server refused or lost the session (write-only violation,
    /// out-of-sequence, "no transfer in progress" after a crash, ...).
    /// A fresh WRQ may well succeed — restart and re-send.
    ServerError,
    /// The receiver's integrity gate rejected the completed image: the
    /// bits that arrived did not match the sealed digest. Re-sending
    /// gives the payload another chance through the lossy medium.
    IntegrityReject,
}

impl FailureClass {
    /// Stable lowercase label (report/probe rendering).
    pub fn label(&self) -> &'static str {
        match self {
            FailureClass::Timeout => "timeout",
            FailureClass::ServerError => "server_error",
            FailureClass::IntegrityReject => "integrity_reject",
        }
    }
}

/// What the sender should do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SenderStep {
    /// Transmit these bytes.
    Send(Vec<u8>),
    /// Transfer complete.
    Done,
    /// The server refused the transfer. The sender is parked until
    /// [`TftpSender::restart`]; the class says whether re-sending is
    /// worth it.
    Failed(FailureClass, String),
    /// Ignore this packet (duplicate/foreign).
    Ignore,
}

/// The uploading client: sends a WRQ then data blocks, advancing on ACKs.
pub struct TftpSender {
    filename: String,
    data: Vec<u8>,
    /// Next block to send (0 = WRQ outstanding).
    acked_through: Option<u16>,
    done: bool,
}

impl TftpSender {
    /// Prepare an upload.
    pub fn new(filename: impl Into<String>, data: Vec<u8>) -> TftpSender {
        TftpSender {
            filename: filename.into(),
            data,
            acked_through: None,
            done: false,
        }
    }

    /// The first packet (WRQ). Also what to retransmit if no ACK arrives.
    pub fn start(&self) -> Vec<u8> {
        TftpPacket::Wrq {
            filename: &self.filename,
            mode: "octet",
        }
        .emit()
    }

    fn block_payload(&self, block: u16) -> &[u8] {
        let start = (block as usize - 1) * BLOCK_SIZE;
        let end = (start + BLOCK_SIZE).min(self.data.len());
        &self.data[start.min(self.data.len())..end]
    }

    fn total_blocks(&self) -> u16 {
        (self.data.len() / BLOCK_SIZE + 1) as u16
    }

    /// The packet currently outstanding (for retransmission).
    pub fn current(&self) -> Option<Vec<u8>> {
        if self.done {
            return None;
        }
        match self.acked_through {
            None => Some(self.start()),
            Some(b) => {
                let next = b + 1;
                Some(
                    TftpPacket::Data {
                        block: next,
                        data: self.block_payload(next),
                    }
                    .emit(),
                )
            }
        }
    }

    /// Handle a packet from the server.
    pub fn on_packet(&mut self, packet: &[u8]) -> SenderStep {
        if self.done {
            return SenderStep::Ignore;
        }
        match TftpPacket::parse(packet) {
            Some(TftpPacket::Ack { block }) => {
                let expected = match self.acked_through {
                    None => 0,
                    Some(b) => b + 1,
                };
                if block != expected {
                    return SenderStep::Ignore;
                }
                if block >= self.total_blocks() {
                    self.done = true;
                    return SenderStep::Done;
                }
                self.acked_through = Some(block);
                let next = block + 1;
                SenderStep::Send(
                    TftpPacket::Data {
                        block: next,
                        data: self.block_payload(next),
                    }
                    .emit(),
                )
            }
            Some(TftpPacket::Error { code, msg }) => {
                self.done = true;
                // The loader's integrity gate rejects with a message the
                // sender can recognize; everything else is a generic
                // server-side refusal.
                let class = if msg.contains("integrity") {
                    FailureClass::IntegrityReject
                } else {
                    FailureClass::ServerError
                };
                SenderStep::Failed(class, format!("tftp error {code}: {msg}"))
            }
            _ => SenderStep::Ignore,
        }
    }

    /// True once the final block has been acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Rewind to a fresh session: the next [`TftpSender::start`] /
    /// [`TftpSender::current`] is a new WRQ for the same payload. This
    /// is the crash-resume path — after a server restart (or an
    /// integrity reject) the old session is gone, and RFC 1350 has no
    /// mid-transfer resume, so the upload begins again from block 1.
    pub fn restart(&mut self) {
        self.acked_through = None;
        self.done = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 5), 1069);

    /// Run a full lossless transfer through both state machines.
    fn transfer(data: Vec<u8>) -> ReceivedFile {
        let mut server = TftpServer::new();
        let mut sender = TftpSender::new("switchlet.swl", data);
        let mut wire = sender.start();
        loop {
            let (reply, file) = server.on_packet(PEER, &wire);
            if let Some(f) = file {
                // Sender still needs the final ack.
                let step = sender.on_packet(&reply.unwrap());
                assert_eq!(step, SenderStep::Done);
                assert!(sender.is_done());
                return f;
            }
            match sender.on_packet(&reply.expect("server always replies here")) {
                SenderStep::Send(next) => wire = next,
                SenderStep::Done => unreachable!("file completion seen above"),
                other => panic!("unexpected step {other:?}"),
            }
        }
    }

    #[test]
    fn packet_roundtrips() {
        let pkts = [
            TftpPacket::Wrq {
                filename: "f.swl",
                mode: "octet",
            },
            TftpPacket::Rrq {
                filename: "x",
                mode: "netascii",
            },
            TftpPacket::Data {
                block: 7,
                data: b"abc",
            },
            TftpPacket::Ack { block: 9 },
            TftpPacket::Error {
                code: 2,
                msg: "nope",
            },
        ];
        for p in &pkts {
            let bytes = p.emit();
            assert_eq!(TftpPacket::parse(&bytes).as_ref(), Some(p));
        }
    }

    #[test]
    fn short_transfer() {
        let f = transfer(b"tiny module".to_vec());
        assert_eq!(f.filename, "switchlet.swl");
        assert_eq!(f.data, b"tiny module");
    }

    #[test]
    fn multi_block_transfer() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        assert_eq!(transfer(data.clone()).data, data);
    }

    #[test]
    fn exact_multiple_of_block_size() {
        // 1024 bytes = 2 full blocks + required empty terminator.
        let data = vec![0xAA; 1024];
        assert_eq!(transfer(data.clone()).data, data);
    }

    #[test]
    fn empty_file() {
        assert_eq!(transfer(Vec::new()).data, Vec::<u8>::new());
    }

    #[test]
    fn rrq_refused() {
        let mut server = TftpServer::new();
        let rrq = TftpPacket::Rrq {
            filename: "secrets",
            mode: "octet",
        }
        .emit();
        let (reply, file) = server.on_packet(PEER, &rrq);
        assert!(file.is_none());
        assert!(matches!(
            TftpPacket::parse(&reply.unwrap()),
            Some(TftpPacket::Error { code: 2, .. })
        ));
        assert_eq!(server.refused, 1);
    }

    #[test]
    fn netascii_mode_refused() {
        let mut server = TftpServer::new();
        let wrq = TftpPacket::Wrq {
            filename: "f",
            mode: "netascii",
        }
        .emit();
        let (reply, _) = server.on_packet(PEER, &wrq);
        assert!(matches!(
            TftpPacket::parse(&reply.unwrap()),
            Some(TftpPacket::Error { .. })
        ));
    }

    #[test]
    fn duplicate_data_block_reacked() {
        let mut server = TftpServer::new();
        let wrq = TftpPacket::Wrq {
            filename: "f",
            mode: "octet",
        }
        .emit();
        server.on_packet(PEER, &wrq);
        let d1 = TftpPacket::Data {
            block: 1,
            data: &[1u8; BLOCK_SIZE],
        }
        .emit();
        let (r1, _) = server.on_packet(PEER, &d1);
        assert!(matches!(
            TftpPacket::parse(&r1.unwrap()),
            Some(TftpPacket::Ack { block: 1 })
        ));
        // Retransmitted duplicate: re-acked, data not appended twice.
        let (r2, f) = server.on_packet(PEER, &d1);
        assert!(f.is_none());
        assert!(matches!(
            TftpPacket::parse(&r2.unwrap()),
            Some(TftpPacket::Ack { block: 1 })
        ));
        let d2 = TftpPacket::Data {
            block: 2,
            data: b"end",
        }
        .emit();
        let (_, f) = server.on_packet(PEER, &d2);
        assert_eq!(f.unwrap().data.len(), BLOCK_SIZE + 3);
    }

    #[test]
    fn out_of_sequence_aborts() {
        let mut server = TftpServer::new();
        server.on_packet(
            PEER,
            &TftpPacket::Wrq {
                filename: "f",
                mode: "octet",
            }
            .emit(),
        );
        let d9 = TftpPacket::Data {
            block: 9,
            data: b"x",
        }
        .emit();
        let (reply, _) = server.on_packet(PEER, &d9);
        assert!(matches!(
            TftpPacket::parse(&reply.unwrap()),
            Some(TftpPacket::Error { code: 4, .. })
        ));
    }

    #[test]
    fn sender_retransmits_current() {
        let sender = TftpSender::new("f", vec![1, 2, 3]);
        // Before any ack, current() is the WRQ.
        assert_eq!(sender.current().unwrap(), sender.start());
    }

    #[test]
    fn stale_ack_is_ignored_by_sender() {
        let mut server = TftpServer::new();
        let mut sender = TftpSender::new("f", vec![0xCC; 700]);
        let (ack0, _) = server.on_packet(PEER, &sender.start());
        let d1 = match sender.on_packet(&ack0.unwrap()) {
            SenderStep::Send(p) => p,
            other => panic!("expected first data block, got {other:?}"),
        };
        let (ack1, _) = server.on_packet(PEER, &d1);
        let ack1 = ack1.unwrap();
        let d2 = match sender.on_packet(&ack1) {
            SenderStep::Send(p) => p,
            other => panic!("expected second data block, got {other:?}"),
        };
        // A duplicated ACK for block 1 (the network replayed it) must not
        // advance or reset the sender: block 2 stays outstanding.
        assert_eq!(sender.on_packet(&ack1), SenderStep::Ignore);
        assert_eq!(sender.current().unwrap(), d2);
        let (_, file) = server.on_packet(PEER, &d2);
        assert_eq!(file.unwrap().data.len(), 700);
    }

    #[test]
    fn duplicate_final_block_reacked_without_double_completion() {
        let mut server = TftpServer::new();
        server.on_packet(
            PEER,
            &TftpPacket::Wrq {
                filename: "f",
                mode: "octet",
            }
            .emit(),
        );
        let fin = TftpPacket::Data {
            block: 1,
            data: b"short",
        }
        .emit();
        let (r1, f1) = server.on_packet(PEER, &fin);
        assert!(matches!(
            TftpPacket::parse(&r1.unwrap()),
            Some(TftpPacket::Ack { block: 1 })
        ));
        assert_eq!(f1.unwrap().data, b"short");
        assert_eq!(server.completed, 1);
        // The final ACK was lost; the sender retransmits the final block.
        // With the session gone this is "no transfer in progress" — the
        // sender treats that error as terminal only if it never saw Done,
        // which it did; the important property is the server does not
        // complete (or load) the file twice.
        let (r2, f2) = server.on_packet(PEER, &fin);
        assert!(f2.is_none());
        assert!(matches!(
            TftpPacket::parse(&r2.unwrap()),
            Some(TftpPacket::Error { code: 5, .. })
        ));
        assert_eq!(server.completed, 1);
    }

    #[test]
    fn zero_length_wrq_completes_with_empty_terminator() {
        let mut server = TftpServer::new();
        let mut sender = TftpSender::new("empty.swl", Vec::new());
        let (ack0, _) = server.on_packet(PEER, &sender.start());
        // The only data block is the zero-length terminator.
        let d1 = match sender.on_packet(&ack0.unwrap()) {
            SenderStep::Send(p) => p,
            other => panic!("expected terminator block, got {other:?}"),
        };
        assert_eq!(
            TftpPacket::parse(&d1),
            Some(TftpPacket::Data {
                block: 1,
                data: &[]
            })
        );
        let (ack1, file) = server.on_packet(PEER, &d1);
        assert_eq!(file.unwrap().data, Vec::<u8>::new());
        assert_eq!(sender.on_packet(&ack1.unwrap()), SenderStep::Done);
    }

    #[test]
    fn mid_transfer_server_reset_recovers_via_restart() {
        let mut server = TftpServer::new();
        let mut sender = TftpSender::new("f", vec![0xEE; 1300]);
        let (ack0, _) = server.on_packet(PEER, &sender.start());
        let d1 = match sender.on_packet(&ack0.unwrap()) {
            SenderStep::Send(p) => p,
            other => panic!("expected data, got {other:?}"),
        };
        let (ack1, _) = server.on_packet(PEER, &d1);
        let d2 = match sender.on_packet(&ack1.unwrap()) {
            SenderStep::Send(p) => p,
            other => panic!("expected data, got {other:?}"),
        };
        // The server crashes and restarts: all session state is gone.
        server = TftpServer::new();
        let (err, _) = server.on_packet(PEER, &d2);
        let step = sender.on_packet(&err.unwrap());
        match step {
            SenderStep::Failed(class, _) => assert_eq!(class, FailureClass::ServerError),
            other => panic!("expected classified failure, got {other:?}"),
        }
        assert!(sender.current().is_none(), "failed sender is parked");
        // Recovery: restart() rewinds to a fresh WRQ and the whole file
        // goes through the new server instance.
        sender.restart();
        let mut wire = sender.current().expect("restart re-arms the WRQ");
        assert_eq!(wire, sender.start());
        loop {
            let (reply, file) = server.on_packet(PEER, &wire);
            if let Some(f) = file {
                assert_eq!(f.data, vec![0xEE; 1300]);
                assert_eq!(sender.on_packet(&reply.unwrap()), SenderStep::Done);
                break;
            }
            match sender.on_packet(&reply.unwrap()) {
                SenderStep::Send(next) => wire = next,
                other => panic!("unexpected step {other:?}"),
            }
        }
    }

    #[test]
    fn integrity_error_classified_for_resend() {
        let mut sender = TftpSender::new("f", vec![1]);
        let err = TftpPacket::Error {
            code: 0,
            msg: "integrity check failed",
        }
        .emit();
        match sender.on_packet(&err) {
            SenderStep::Failed(class, msg) => {
                assert_eq!(class, FailureClass::IntegrityReject);
                assert!(msg.contains("integrity"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(FailureClass::IntegrityReject.label(), "integrity_reject");
    }

    #[test]
    fn idle_sessions_expire_and_fresh_wrq_starts_clean() {
        let mut server = TftpServer::new();
        let wrq = TftpPacket::Wrq {
            filename: "f",
            mode: "octet",
        }
        .emit();
        server.on_packet_at(PEER, &wrq, 1_000);
        let d1 = TftpPacket::Data {
            block: 1,
            data: &[7u8; BLOCK_SIZE],
        }
        .emit();
        server.on_packet_at(PEER, &d1, 2_000);
        assert_eq!(server.active_transfers(), 1);
        // The sender crashes and comes back much later with a new WRQ:
        // the stale half-transfer is expired, the new session starts at
        // block 1 and completes with only its own bytes.
        let later = 2_000 + IDLE_SESSION_NS;
        let (ack, _) = server.on_packet_at(PEER, &wrq, later);
        assert!(matches!(
            TftpPacket::parse(&ack.unwrap()),
            Some(TftpPacket::Ack { block: 0 })
        ));
        assert_eq!(server.expired, 1);
        assert_eq!(server.active_transfers(), 1);
        let fin = TftpPacket::Data {
            block: 1,
            data: b"fresh",
        }
        .emit();
        let (_, file) = server.on_packet_at(PEER, &fin, later + 1);
        assert_eq!(file.unwrap().data, b"fresh");
    }

    #[test]
    fn late_data_after_expiry_is_refused_not_appended() {
        let mut server = TftpServer::new();
        let wrq = TftpPacket::Wrq {
            filename: "f",
            mode: "octet",
        }
        .emit();
        server.on_packet_at(PEER, &wrq, 0);
        // A wildly late DATA block (the sender stalled past the idle
        // horizon) must hit an expired session, not a live one.
        let d1 = TftpPacket::Data {
            block: 1,
            data: b"late",
        }
        .emit();
        let (reply, file) = server.on_packet_at(PEER, &d1, IDLE_SESSION_NS + 1);
        assert!(file.is_none());
        assert!(matches!(
            TftpPacket::parse(&reply.unwrap()),
            Some(TftpPacket::Error { code: 5, .. })
        ));
        assert_eq!(server.expired, 1);
        assert_eq!(server.active_transfers(), 0);
    }

    #[test]
    fn an_upload_past_the_cap_is_refused_and_dropped() {
        let mut server = TftpServer::new();
        let wrq = TftpPacket::Wrq {
            filename: "big",
            mode: "octet",
        }
        .emit();
        server.on_packet(PEER, &wrq);
        // A peer that never sends a short block: every full block up to
        // the cap is acknowledged, the first one past it is refused.
        let full = [0x5au8; BLOCK_SIZE];
        let blocks_in_cap = (MAX_UPLOAD_BYTES / BLOCK_SIZE) as u16;
        for block in 1..=blocks_in_cap + 1 {
            let data = TftpPacket::Data { block, data: &full }.emit();
            let (reply, file) = server.on_packet(PEER, &data);
            assert!(file.is_none());
            let reply = TftpPacket::parse(reply.as_deref().unwrap()).unwrap();
            if block <= blocks_in_cap {
                assert_eq!(reply, TftpPacket::Ack { block });
            } else {
                assert!(
                    matches!(reply, TftpPacket::Error { code: 3, .. }),
                    "{reply:?}"
                );
            }
        }
        assert_eq!(server.refused, 1);
        assert_eq!(server.completed, 0);
        assert_eq!(server.active_transfers(), 0);
    }

    #[test]
    fn an_upload_just_under_the_cap_completes() {
        let data: Vec<u8> = (0..MAX_UPLOAD_BYTES - 1).map(|i| i as u8).collect();
        assert_eq!(transfer(data.clone()).data, data);
    }
}
