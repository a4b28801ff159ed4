//! The hello a bridge sends is composed in one buffer — Ethernet header,
//! LLC header, encoded BPDU, each written straight behind the other. These
//! properties hold that frame to the bytes the three separate builders
//! (`StpVariant::emit` → `Llc::wrap` → `FrameBuilder`) produce, and to the
//! decoder.

use active_bridge::switchlets::stp::{config_frame, decode_frame};
use active_bridge::{Bpdu, BridgeId, ConfigBpdu, StpVariant};
use ether::{EtherType, Frame, FrameBuilder, Llc, MacAddr};
use netsim::{FrameBuf, FrameBufMut};
use proptest::prelude::*;

/// The frame as three builders compose it, one buffer per layer.
fn layered(variant: StpVariant, src: MacAddr, config: &ConfigBpdu) -> FrameBuf {
    let payload = variant.emit(&Bpdu::Config(*config));
    match variant {
        StpVariant::Ieee => FrameBuilder::new_llc(MacAddr::ALL_BRIDGES, src)
            .payload(&Llc::BPDU.wrap(&payload))
            .build(),
        StpVariant::Dec => FrameBuilder::new(MacAddr::DEC_BRIDGES, src, EtherType::DEC_STP)
            .payload(&payload)
            .build(),
    }
}

proptest! {
    /// Every field over its full range, both flags both ways, both
    /// variants, into a fresh buffer and into a recycled one.
    #[test]
    fn one_buffer_hello_equals_the_layered_one(
        ids in any::<[[u8; 6]; 3]>(),
        priorities in any::<[u16; 2]>(),
        root_cost in any::<u32>(),
        port in any::<u16>(),
        times in any::<[u16; 4]>(),
        flags in any::<[bool; 3]>(),
    ) {
        let [root_mac, bridge_mac, src] = ids.map(MacAddr::new);
        let [tc, tca, dec] = flags;
        let variant = if dec { StpVariant::Dec } else { StpVariant::Ieee };
        let config = ConfigBpdu {
            root: BridgeId::new(priorities[0], root_mac),
            root_cost,
            bridge: BridgeId::new(priorities[1], bridge_mac),
            port,
            message_age: times[0],
            max_age: times[1],
            hello_time: times[2],
            forward_delay: times[3],
            tc,
            tca,
        };
        let expected = layered(variant, src, &config);
        prop_assert_eq!(expected.len(), ether::MIN_FRAME, "a hello is padded to the minimum");
        let fresh = config_frame(variant, src, &config);
        prop_assert_eq!(&fresh, &expected);
        // A pooled buffer arrives holding a dead frame's bytes.
        let mut dead = FrameBufMut::with_capacity(ether::MAX_FRAME);
        dead.extend_from_slice(&[0xA5; 200]);
        let dead = dead.freeze();
        let storage = dead.as_ptr();
        dead.recycle();
        let frame = config_frame(variant, src, &config);
        prop_assert_eq!(&frame, &expected);
        prop_assert_eq!(frame.as_ptr(), storage, "built in the recycled buffer");

        // And the receive side reads back what both wire formats can
        // carry: whole seconds below 256 (802.1D's 1/256 s units in
        // sixteen bits, DEC's one byte).
        let carried = ConfigBpdu {
            message_age: times[0] & 0xFF,
            max_age: times[1] & 0xFF,
            hello_time: times[2] & 0xFF,
            forward_delay: times[3] & 0xFF,
            ..config
        };
        let parsed = Frame::parse(&frame).unwrap();
        prop_assert_eq!(decode_frame(variant, &parsed), Some(Bpdu::Config(carried)));
        let other = if dec { StpVariant::Ieee } else { StpVariant::Dec };
        prop_assert_eq!(decode_frame(other, &parsed), None);
    }
}
