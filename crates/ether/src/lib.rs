//! # ether — Ethernet wire formats
//!
//! MAC addressing (including the 802.1D "All Bridges" and DEC bridge group
//! addresses the paper's spanning-tree switchlets use), Ethernet II / 802.3
//! framing with parse/emit in the smoltcp idiom, the 802.2 LLC header that
//! carries BPDUs, the BPDUs themselves (802.1D and the paper's DEC-style
//! variant), and the IEEE CRC-32 frame check sequence.
//!
//! ```
//! use ether::{EtherType, Frame, FrameBuilder, MacAddr};
//!
//! let frame = FrameBuilder::new(MacAddr::BROADCAST, MacAddr::local(1), EtherType::IPV4)
//!     .payload(b"hello lan")
//!     .build();
//! let parsed = Frame::parse(&frame).unwrap();
//! assert!(parsed.dst().is_broadcast());
//! assert_eq!(parsed.ethertype(), EtherType::IPV4);
//! ```

pub mod bpdu;
pub mod crc;
pub mod ethertype;
pub mod frame;
pub mod llc;
pub mod mac;

pub use crc::{append_fcs, check_fcs, crc32};
pub use ethertype::EtherType;
pub use frame::{Frame, FrameBuilder, FrameError, HEADER_LEN, MAX_FRAME, MAX_PAYLOAD, MIN_FRAME};
pub use llc::Llc;
pub use mac::MacAddr;
