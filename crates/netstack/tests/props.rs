//! Property tests for the protocol codecs and the TcpLite state
//! machines.

use std::net::Ipv4Addr;

use netstack::tcplite::{
    pattern_byte, pattern_fill, ReceiverConfig, RecvAction, SenderConfig, TcpReceiver, TcpSender,
};
use netstack::{checksum, Echo, EchoKind, TftpPacket, UdpDatagram};
use proptest::prelude::*;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

proptest! {
    /// UDP emit→parse is the identity; verification is tied to the
    /// pseudo-header.
    #[test]
    fn udp_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let wire = netstack::udp::emit(src, sp, dst, dp, &payload);
        let parsed = UdpDatagram::parse(&wire, src, dst).unwrap();
        prop_assert_eq!(parsed.src_port(), sp);
        prop_assert_eq!(parsed.dst_port(), dp);
        prop_assert_eq!(parsed.payload(), &payload[..]);
    }

    /// IPv4 emit→parse is the identity for datagrams within the MTU.
    #[test]
    fn ipv4_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        proto in any::<u8>(),
        ident in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..1400),
    ) {
        let wire = netstack::ipv4::emit(
            src, dst, netstack::ipv4::Protocol(proto), ident, 64, &payload, 1500,
        ).unwrap();
        let parsed = netstack::Ipv4Packet::parse(&wire).unwrap();
        prop_assert_eq!(parsed.src(), src);
        prop_assert_eq!(parsed.dst(), dst);
        prop_assert_eq!(parsed.protocol().0, proto);
        prop_assert_eq!(parsed.payload(), &payload[..]);
    }

    /// Fragmentation → reassembly is the identity for any payload size.
    #[test]
    fn fragmentation_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        payload in prop::collection::vec(any::<u8>(), 0..6000),
    ) {
        let frags = netstack::ipv4::emit_fragments(
            src, dst, netstack::ipv4::Protocol::ICMP, 7, 64, &payload, 1500,
        );
        let mut r = netstack::ipv4::Reassembler::new();
        let mut out = None;
        for f in &frags {
            prop_assert!(f.len() <= 1500);
            let p = netstack::ipv4::Packet::parse_fragment(f).unwrap();
            if let Some(done) = r.push(&p) {
                out = Some(done);
            }
        }
        prop_assert_eq!(out.unwrap(), payload);
    }

    /// ICMP echo emit→parse→reply preserves ident/seq/payload.
    #[test]
    fn icmp_roundtrip(
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let req = Echo::emit(EchoKind::Request, ident, seq, &payload);
        let parsed = Echo::parse(&req).unwrap();
        prop_assert_eq!(parsed.ident, ident);
        prop_assert_eq!(parsed.seq, seq);
        let rep = parsed.reply();
        let parsed_rep = Echo::parse(&rep).unwrap();
        prop_assert_eq!(parsed_rep.kind, EchoKind::Reply);
        prop_assert_eq!(parsed_rep.payload, &payload[..]);
    }

    /// TFTP packet emit→parse is the identity (NUL-free names).
    #[test]
    fn tftp_roundtrip(
        name in "[a-zA-Z0-9_.]{1,32}",
        block in any::<u16>(),
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let pkts = vec![
            TftpPacket::Wrq { filename: &name, mode: "octet" },
            TftpPacket::Data { block, data: &data },
            TftpPacket::Ack { block },
        ];
        for p in &pkts {
            let wire = p.emit();
            let parsed = TftpPacket::parse(&wire);
            prop_assert_eq!(parsed.as_ref(), Some(p));
        }
    }

    /// Checksum: any single-bit flip is detected. (The checksum field
    /// must be 16-bit aligned, as in every real header, so the covered
    /// region is padded to even length.)
    #[test]
    fn checksum_detects_bit_flips(
        data in prop::collection::vec(any::<u8>(), 2..256),
        bit in 0usize..2048,
    ) {
        let mut pkt = data.clone();
        if pkt.len() % 2 != 0 {
            pkt.push(0);
        }
        pkt.extend_from_slice(&[0, 0]);
        let c = checksum(&pkt);
        let n = pkt.len();
        pkt[n - 2..].copy_from_slice(&c.to_be_bytes());
        prop_assert!(netstack::checksum::verify(&pkt));
        let idx = (bit / 8) % (n - 2);
        pkt[idx] ^= 1 << (bit % 8);
        // Ones'-complement arithmetic: a flip is detected unless it turns
        // 0x0000 into 0xFFFF (both zero representations) in one word;
        // single-bit flips never do that.
        prop_assert!(!netstack::checksum::verify(&pkt));
    }

    /// Parsers never panic on garbage.
    #[test]
    fn parsers_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let a = Ipv4Addr::new(1, 2, 3, 4);
        let b = Ipv4Addr::new(5, 6, 7, 8);
        let _ = netstack::Ipv4Packet::parse(&bytes);
        let _ = netstack::ipv4::Packet::parse_fragment(&bytes);
        let _ = UdpDatagram::parse(&bytes, a, b);
        let _ = Echo::parse(&bytes);
        let _ = TftpPacket::parse(&bytes);
        let _ = netstack::ArpPacket::parse(&bytes);
        let _ = netstack::TcpLiteSegment::parse(&bytes, a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// TcpLite delivers every byte, in order, under random loss applied
    /// to both directions.
    #[test]
    fn tcplite_survives_random_loss(
        total in 1_000u64..50_000,
        drop_pattern in any::<u64>(),
        mss in prop::sample::select(vec![100usize, 536, 1462]),
    ) {
        let mut tx = TcpSender::new(SenderConfig {
            mss,
            window: 8 * 1024,
            init_rto_ns: 1_000_000,
        });
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        tx.write(total);
        let mut now = 0u64;
        let mut lfsr = drop_pattern | 1;
        let mut drop = move || {
            // xorshift; ~6% loss.
            lfsr ^= lfsr << 13;
            lfsr ^= lfsr >> 7;
            lfsr ^= lfsr << 17;
            lfsr.is_multiple_of(16)
        };
        let mut guard = 0;
        while !tx.all_acked() {
            guard += 1;
            prop_assert!(guard < 100_000, "did not converge");
            now += 50_000; // 50 us per step
            let mut progressed = false;
            while let Some(seg) = tx.poll_meta(now) {
                progressed = true;
                if drop() {
                    continue; // lost data segment
                }
                match rx.on_segment(seg.seq, seg.len, now) {
                    RecvAction::AckNow(a) => {
                        if !drop() {
                            tx.on_ack(a, now);
                        }
                    }
                    RecvAction::AckAt(_) | RecvAction::None => {}
                }
            }
            if let Some(a) = rx.on_timer(now) {
                if !drop() {
                    tx.on_ack(a, now);
                }
            }
            if !progressed {
                if let Some(deadline) = tx.next_timeout() {
                    if deadline <= now {
                        tx.on_timeout(now);
                    }
                }
            }
        }
        prop_assert_eq!(rx.bytes_received, total);
    }

    /// The stream pattern is position-determined: the segments follow
    /// one another in the stream, and each payload, filled at its
    /// sequence number, matches the stream offset.
    #[test]
    fn tcplite_segments_carry_pattern(total in 100u64..10_000) {
        let mut tx = TcpSender::new(SenderConfig::default());
        tx.write(total);
        let mut next = 0u64;
        while let Some(seg) = tx.poll_meta(0) {
            prop_assert_eq!(seg.seq as u64, next);
            let mut payload = Vec::new();
            pattern_fill(&mut payload, seg.seq as u64, seg.len);
            prop_assert_eq!(payload.len(), seg.len);
            for (i, &b) in payload.iter().enumerate() {
                prop_assert_eq!(b, pattern_byte(seg.seq as u64 + i as u64));
            }
            next += seg.len as u64;
        }
    }
}
