//! TcpLite: a from-scratch sliding-window reliable byte stream.
//!
//! The paper measured bridge throughput with `ttcp` over Linux TCP. Full
//! TCP is out of scope (and irrelevant on an idle two-segment LAN), but the
//! mechanisms that shape the measured curves are not:
//!
//! * **MSS segmentation** — an 8 KB ttcp write becomes "multiple
//!   back-to-back LAN frames", exactly as the paper notes;
//! * **sliding window with cumulative ACKs** — keeps the pipeline through
//!   the bridge full, so throughput is set by the slowest stage;
//! * **retransmission timeout with exponential backoff** — go-back-N from
//!   the lowest unacknowledged byte (enough for queue-overflow loss);
//! * **Nagle's algorithm** — sub-MSS writes stop-and-wait behind the
//!   outstanding small segment, which (with delayed ACKs) is what pins the
//!   paper's small-packet ttcp rates to hundreds of frames/second;
//! * **delayed ACKs** — the receiver acknowledges every second segment or
//!   after a holdoff.
//!
//! Both endpoints are pure state machines over `u64` nanosecond
//! timestamps; `hostsim` drives them with simulator timers. Stream content
//! is a deterministic pattern (`byte i = i mod 251`) so retransmissions
//! can be regenerated without buffering megabytes.

use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::ipv4::Protocol;

/// TcpLite header length.
pub const HEADER_LEN: usize = 18;

/// Default maximum segment size (Ethernet MTU 1500 − IP 20 − TcpLite 18).
pub const DEFAULT_MSS: usize = 1462;

/// The stream pattern's period.
const PERIOD: usize = 251;

/// The deterministic stream pattern.
pub fn pattern_byte(offset: u64) -> u8 {
    (offset % PERIOD as u64) as u8
}

/// The stream pattern from offset 0, long enough that a full-size
/// segment's payload is one contiguous run of it wherever in the period it
/// starts — so a payload is filled by one copy instead of a division per
/// byte.
static PATTERN: [u8; PERIOD + DEFAULT_MSS] = {
    let mut t = [0u8; PERIOD + DEFAULT_MSS];
    let mut i = 0;
    while i < t.len() {
        t[i] = (i % PERIOD) as u8;
        i += 1;
    }
    t
};

/// Append `len` pattern bytes starting at stream offset `offset` —
/// equivalent to pushing `pattern_byte(offset + i)` for `i in 0..len`,
/// but copied a table's worth (any payload up to [`DEFAULT_MSS`]) at a
/// time.
#[inline]
pub fn pattern_fill(out: &mut Vec<u8>, offset: u64, len: usize) {
    out.reserve(len);
    let mut start = (offset % PERIOD as u64) as usize;
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(PATTERN.len() - start);
        out.extend_from_slice(&PATTERN[start..start + take]);
        remaining -= take;
        start = (start + take) % PERIOD;
    }
}

/// `WORD_SUMS[m]` is the sum of the first `m` 16-bit big-endian words of
/// the pattern read from offset 0. The period is odd, so those words run
/// through two periods before they repeat: word `m` is the byte pair at
/// offset `2m mod 251`, and `WORD_SUMS[251]` sums all 251 distinct pairs.
static WORD_SUMS: [u64; PERIOD + 1] = {
    let mut t = [0u64; PERIOD + 1];
    let mut m = 0;
    while m < PERIOD {
        let (hi, lo) = ((2 * m) % PERIOD, (2 * m + 1) % PERIOD);
        t[m + 1] = t[m] + ((hi as u64) << 8) + lo as u64;
        m += 1;
    }
    t
};

/// A [`Checksum`] fed exactly the `len` pattern bytes starting at stream
/// offset `offset`, without reading them (RFC 1071 §2: the sum is a
/// property of the data, and this data is arithmetic): the payload's
/// whole words are a run of the word sequence [`WORD_SUMS`] describes,
/// so their sum is a difference of two of its prefix sums, whole periods
/// counted by multiplication; an odd last byte is fed as a byte.
#[inline]
fn pattern_sum(offset: u64, len: usize) -> Checksum {
    /// The sum of the first `m` words of the (endlessly repeating) word
    /// sequence.
    #[inline]
    fn words_before(m: usize) -> u64 {
        (m / PERIOD) as u64 * WORD_SUMS[PERIOD] + WORD_SUMS[m % PERIOD]
    }
    let start = (offset % PERIOD as u64) as usize;
    // The word sequence reaches byte offset `start` at word `start / 2`
    // of its first period when `start` is even and, the period being
    // odd, at word `(start + 251) / 2` of its second when it is odd.
    let first = (start + (start % 2) * PERIOD) / 2;
    let words = words_before(first + len / 2) - words_before(first);
    let mut c = Checksum::new();
    // The 16-bit quarters of a 64-bit total are congruent to it modulo
    // 2^16 − 1, which is all a ones'-complement sum keeps.
    c.add(&words.to_be_bytes());
    if len % 2 == 1 {
        c.add(&[PATTERN[(start + len - 1) % PERIOD]]);
    }
    c
}

/// Wrapping 32-bit sequence comparison: is `a < b`?
pub fn seq_lt(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 <= 0 && a != b
}

/// A parsed TcpLite segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement (next expected byte).
    pub ack: u32,
    /// True if the ack field is meaningful.
    pub is_ack: bool,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Errors from [`Segment::parse`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TcpLiteError {
    /// Too short or inconsistent length.
    Truncated,
    /// Checksum failed.
    BadChecksum,
}

impl core::fmt::Display for TcpLiteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TcpLiteError::Truncated => write!(f, "truncated TcpLite segment"),
            TcpLiteError::BadChecksum => write!(f, "TcpLite checksum mismatch"),
        }
    }
}

impl std::error::Error for TcpLiteError {}

/// Feed the pseudo-header (addresses, protocol, segment length): its six
/// 16-bit words added up front and fed as one 32-bit total, whose halves
/// are congruent to it modulo 2^16 − 1.
#[inline]
fn pseudo_header(c: &mut Checksum, src: Ipv4Addr, dst: Ipv4Addr, len: u16) {
    let (src, dst) = (u32::from(src), u32::from(dst));
    let words = (src >> 16)
        + (src & 0xFFFF)
        + (dst >> 16)
        + (dst & 0xFFFF)
        + u32::from(Protocol::TCPLITE.0)
        + u32::from(len);
    c.add(&words.to_be_bytes());
}

impl<'a> Segment<'a> {
    /// Parse a segment; `src`/`dst` feed the pseudo-header checksum.
    #[inline]
    pub fn parse(buf: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Segment<'a>, TcpLiteError> {
        if buf.len() < HEADER_LEN {
            return Err(TcpLiteError::Truncated);
        }
        let len = u16::from_be_bytes([buf[13], buf[14]]) as usize;
        if buf.len() < HEADER_LEN + len {
            return Err(TcpLiteError::Truncated);
        }
        let buf = &buf[..HEADER_LEN + len];
        let mut c = Checksum::new();
        pseudo_header(&mut c, src, dst, buf.len() as u16);
        c.add(buf);
        if c.finish() != 0 {
            return Err(TcpLiteError::BadChecksum);
        }
        Ok(Segment {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            is_ack: buf[12] & 0x01 != 0,
            payload: &buf[HEADER_LEN..],
        })
    }

    /// Assemble a segment.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.emit_into(&mut buf, src, dst);
        buf
    }

    /// Append the wire form of this segment to `out` (reusable-buffer
    /// form for the per-frame paths).
    pub fn emit_into(&self, out: &mut Vec<u8>, src: Ipv4Addr, dst: Ipv4Addr) {
        assert!(self.payload.len() <= u16::MAX as usize);
        let start = out.len();
        emit_header(
            out,
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            self.is_ack,
            self.payload.len(),
        );
        out.extend_from_slice(self.payload);
        let mut payload = Checksum::new();
        payload.add(self.payload);
        finish_segment(out, start, src, dst, payload);
    }
}

/// Append the 18-byte TcpLite header (checksum zeroed) to `out`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn emit_header(
    out: &mut Vec<u8>,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    is_ack: bool,
    payload_len: usize,
) {
    out.reserve(HEADER_LEN + payload_len);
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&ack.to_be_bytes());
    out.push(if is_ack { 1 } else { 0 });
    out.extend_from_slice(&(payload_len as u16).to_be_bytes());
    out.push(0); // pad (keeps the checksum field 16-bit aligned)
    out.extend_from_slice(&[0, 0]); // checksum placeholder at 16..18
}

/// Checksum the segment appended at `start` — its header summed here,
/// its payload's sum supplied (a [`Checksum`] fed exactly the payload
/// bytes; pseudo-header and header are even-sized, so it folds in) — and
/// patch the checksum field.
#[inline]
fn finish_segment(out: &mut [u8], start: usize, src: Ipv4Addr, dst: Ipv4Addr, payload: Checksum) {
    let total = out.len() - start;
    let mut c = Checksum::new();
    pseudo_header(&mut c, src, dst, total as u16);
    c.add(&out[start..start + HEADER_LEN]);
    c.add_partial(payload);
    let cksum = c.finish();
    out[start + 16..start + 18].copy_from_slice(&cksum.to_be_bytes());
}

/// Append a *data* segment whose payload is the deterministic stream
/// pattern starting at stream offset `seq` — the ttcp sender's hot path:
/// the pattern bytes are copied straight into the output buffer (no
/// intermediate payload vector) and never read back: the sender knows
/// what it wrote, so the payload's share of the checksum is computed
/// (`pattern_sum`). The receiver sums every byte it accepts
/// ([`Segment::parse`]).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn emit_pattern_segment(
    out: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    len: usize,
) {
    let start = out.len();
    emit_header(out, src_port, dst_port, seq, 0, false, len);
    pattern_fill(out, seq as u64, len);
    finish_segment(out, start, src, dst, pattern_sum(seq as u64, len));
}

/// Nagle's algorithm, always on: a segment below this size is "small" and
/// waits while data is outstanding. The paper's testbed streamed
/// 1024-byte ttcp writes (1790 frames/s on the wire) while ~50-byte writes
/// collapsed to stop-and-wait (~360 frames/s); a threshold between the two
/// reproduces both regimes. At 256, `examples/paper_figures` (§ 7.3) reads
/// 360 frames/s at ~50-byte writes (paper: ~360) and 1 444 at 1 024-byte
/// ones, streaming (paper: ~1 790).
pub const NAGLE_THRESHOLD: usize = 256;

/// Sender configuration.
#[derive(Copy, Clone, Debug)]
pub struct SenderConfig {
    /// Maximum segment size.
    pub mss: usize,
    /// Send window in bytes.
    pub window: u32,
    /// Initial retransmission timeout (ns).
    pub init_rto_ns: u64,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            mss: DEFAULT_MSS,
            window: 32 * 1024,
            init_rto_ns: 200_000_000, // 200 ms
        }
    }
}

/// A segment decision without its payload bytes (the payload is the
/// deterministic pattern at `seq`, so callers on the hot path regenerate
/// it straight into a wire buffer via [`emit_pattern_segment`] instead of
/// materializing a `Vec` per segment).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SegMeta {
    /// Sequence number (also the pattern offset of the first byte).
    pub seq: u32,
    /// Payload length.
    pub len: usize,
}

/// The sending endpoint (unidirectional data; receives only ACKs).
#[derive(Debug)]
pub struct TcpSender {
    cfg: SenderConfig,
    /// Lowest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to transmit.
    snd_nxt: u32,
    /// Application bytes queued so far (absolute stream length).
    app_len: u64,
    current_rto_ns: u64,
    rto_deadline_ns: Option<u64>,
    /// Stats: retransmissions.
    pub retransmits: u64,
}

impl TcpSender {
    /// New sender with sequence numbers starting at 0.
    pub fn new(cfg: SenderConfig) -> TcpSender {
        TcpSender {
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            app_len: 0,
            current_rto_ns: cfg.init_rto_ns,
            rto_deadline_ns: None,
            retransmits: 0,
        }
    }

    /// Queue `n` more application bytes.
    pub fn write(&mut self, n: u64) {
        self.app_len += n;
    }

    /// Stream offset of `seq` (sequence numbers are the low 32 bits of the
    /// stream offset; transfers here stay far below 4 GB).
    fn offset(seq: u32) -> u64 {
        seq as u64
    }

    /// Bytes in flight.
    pub fn in_flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Queued application bytes not yet transmitted.
    pub fn unsent(&self) -> u64 {
        self.app_len - Self::offset(self.snd_nxt)
    }

    /// True when every queued byte is acknowledged.
    pub fn all_acked(&self) -> bool {
        Self::offset(self.snd_una) == self.app_len
    }

    /// Produce the next segment to transmit at `now_ns`, if the window,
    /// data availability and Nagle allow one. Allocation-free; the
    /// payload is implied (pattern bytes starting at `seq`).
    #[inline]
    pub fn poll_meta(&mut self, now_ns: u64) -> Option<SegMeta> {
        let nxt_off = Self::offset(self.snd_nxt);
        if nxt_off >= self.app_len {
            return None; // nothing unsent
        }
        let window_left = self.cfg.window.saturating_sub(self.in_flight()) as u64;
        if window_left == 0 {
            return None;
        }
        let remaining = self.app_len - nxt_off;
        let take = remaining.min(self.cfg.mss as u64).min(window_left) as usize;
        if take < NAGLE_THRESHOLD && self.in_flight() > 0 {
            // Nagle: a small segment waits for outstanding data to drain.
            return None;
        }
        let seq = self.snd_nxt;
        self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
        if self.rto_deadline_ns.is_none() {
            self.rto_deadline_ns = Some(now_ns + self.current_rto_ns);
        }
        Some(SegMeta { seq, len: take })
    }

    /// Handle a cumulative acknowledgement.
    #[inline]
    pub fn on_ack(&mut self, ack: u32, now_ns: u64) {
        if seq_lt(self.snd_una, ack) && !seq_lt(self.snd_nxt, ack) {
            self.snd_una = ack;
            self.current_rto_ns = self.cfg.init_rto_ns;
            self.rto_deadline_ns = if self.in_flight() > 0 {
                Some(now_ns + self.current_rto_ns)
            } else {
                None
            };
        }
    }

    /// When the retransmission timer next fires (absolute ns).
    pub fn next_timeout(&self) -> Option<u64> {
        self.rto_deadline_ns
    }

    /// Fire the retransmission timer: go-back-N to `snd_una`.
    pub fn on_timeout(&mut self, now_ns: u64) {
        if self.in_flight() == 0 {
            self.rto_deadline_ns = None;
            return;
        }
        self.retransmits += 1;
        self.snd_nxt = self.snd_una;
        self.current_rto_ns = (self.current_rto_ns * 2).min(60_000_000_000);
        self.rto_deadline_ns = Some(now_ns + self.current_rto_ns);
    }

    /// The configured MSS.
    pub fn mss(&self) -> usize {
        self.cfg.mss
    }
}

/// Receiver configuration.
#[derive(Copy, Clone, Debug)]
pub struct ReceiverConfig {
    /// Acknowledge immediately after this many unacknowledged segments.
    pub ack_every: u32,
    /// Otherwise acknowledge after this holdoff (ns). The 1997 preset
    /// uses 1.8 ms, calibrated so small-write ttcp lands near the paper's
    /// ~360 frames/s (the sub-MSS cycle is Nagle + this holdoff).
    pub delayed_ack_ns: u64,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig {
            ack_every: 2,
            delayed_ack_ns: 1_800_000,
        }
    }
}

/// What the receiver wants done after a segment arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvAction {
    /// Send this cumulative ACK now.
    AckNow(u32),
    /// Arm (or keep) the delayed-ACK timer for this absolute deadline.
    AckAt(u64),
    /// Nothing to do.
    None,
}

/// The receiving endpoint.
#[derive(Debug)]
pub struct TcpReceiver {
    cfg: ReceiverConfig,
    rcv_nxt: u32,
    unacked_segments: u32,
    ack_deadline_ns: Option<u64>,
    /// Stats: in-order payload bytes delivered.
    pub bytes_received: u64,
    /// Stats: segments accepted in order.
    pub segments_received: u64,
    /// Stats: out-of-order segments dropped (go-back-N).
    pub ooo_dropped: u64,
}

impl TcpReceiver {
    /// New receiver expecting sequence 0.
    pub fn new(cfg: ReceiverConfig) -> TcpReceiver {
        TcpReceiver {
            cfg,
            rcv_nxt: 0,
            unacked_segments: 0,
            ack_deadline_ns: None,
            bytes_received: 0,
            segments_received: 0,
            ooo_dropped: 0,
        }
    }

    /// The next expected sequence number (the cumulative ACK value).
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// Handle a data segment.
    #[inline]
    pub fn on_segment(&mut self, seq: u32, len: usize, now_ns: u64) -> RecvAction {
        if seq != self.rcv_nxt {
            // Out of order (go-back-N): drop, re-ack immediately so the
            // sender learns where we are.
            self.ooo_dropped += 1;
            self.unacked_segments = 0;
            self.ack_deadline_ns = None;
            return RecvAction::AckNow(self.rcv_nxt);
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(len as u32);
        self.bytes_received += len as u64;
        self.segments_received += 1;
        self.unacked_segments += 1;
        if self.unacked_segments >= self.cfg.ack_every {
            self.unacked_segments = 0;
            self.ack_deadline_ns = None;
            RecvAction::AckNow(self.rcv_nxt)
        } else {
            let deadline = now_ns + self.cfg.delayed_ack_ns;
            if self.ack_deadline_ns.is_none() {
                self.ack_deadline_ns = Some(deadline);
            }
            RecvAction::AckAt(self.ack_deadline_ns.unwrap())
        }
    }

    /// Fire the delayed-ACK timer; returns the ACK to send, if still due.
    pub fn on_timer(&mut self, now_ns: u64) -> Option<u32> {
        match self.ack_deadline_ns {
            Some(deadline) if deadline <= now_ns => {
                self.ack_deadline_ns = None;
                self.unacked_segments = 0;
                Some(self.rcv_nxt)
            }
            _ => None,
        }
    }

    /// The pending delayed-ACK deadline, if any. Callers re-arm their
    /// timer from this after a timer fires early (the deadline may have
    /// moved while a timer was in flight).
    pub fn ack_deadline(&self) -> Option<u64> {
        self.ack_deadline_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn segment_roundtrip() {
        let payload: Vec<u8> = (0..100).map(pattern_byte).collect();
        let seg = Segment {
            src_port: 5001,
            dst_port: 5002,
            seq: 12345,
            ack: 999,
            is_ack: true,
            payload: &payload,
        };
        let bytes = seg.emit(A, B);
        let back = Segment::parse(&bytes, A, B).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn corrupted_segment_detected() {
        let seg = Segment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            is_ack: false,
            payload: b"datadata",
        };
        let mut bytes = seg.emit(A, B);
        bytes[20] ^= 0x02;
        assert_eq!(
            Segment::parse(&bytes, A, B).unwrap_err(),
            TcpLiteError::BadChecksum
        );
    }

    #[test]
    fn seq_compare_wraps() {
        assert!(seq_lt(0xFFFF_FFF0, 0x10));
        assert!(!seq_lt(0x10, 0xFFFF_FFF0));
        assert!(!seq_lt(5, 5));
    }

    /// Lossless in-order exchange: every byte arrives, window respected.
    #[test]
    fn lossless_transfer_completes() {
        let mut tx = TcpSender::new(SenderConfig {
            mss: 1000,
            window: 4000,
            init_rto_ns: 1_000_000,
        });
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        tx.write(10_500);
        let mut now = 0u64;
        let mut guard = 0;
        while !tx.all_acked() {
            guard += 1;
            assert!(guard < 1000, "transfer did not converge");
            now += 1000;
            let mut sent_any = false;
            while let Some(seg) = tx.poll_meta(now) {
                sent_any = true;
                assert!(tx.in_flight() <= 4000);
                match rx.on_segment(seg.seq, seg.len, now) {
                    RecvAction::AckNow(a) => tx.on_ack(a, now),
                    RecvAction::AckAt(_) | RecvAction::None => {}
                }
            }
            if !sent_any {
                // Flush a pending delayed ACK to unblock Nagle/window.
                if let Some(a) = rx.on_timer(now + 2_000_000) {
                    tx.on_ack(a, now);
                }
            }
        }
        assert_eq!(rx.bytes_received, 10_500);
        assert_eq!(tx.retransmits, 0);
    }

    /// Nagle: a small write waits while another small segment is
    /// outstanding.
    #[test]
    fn nagle_holds_small_segments() {
        let mut tx = TcpSender::new(SenderConfig {
            mss: 1000,
            window: 100_000,
            init_rto_ns: 1_000_000,
        });
        tx.write(50);
        let s1 = tx.poll_meta(0).unwrap();
        assert_eq!(s1.len, 50);
        tx.write(50);
        assert!(tx.poll_meta(10).is_none(), "second small write must wait");
        tx.on_ack(50, 20);
        let s2 = tx.poll_meta(30).unwrap();
        assert_eq!(s2.seq, 50);
    }

    /// Loss triggers go-back-N from snd_una and exponential backoff.
    #[test]
    fn timeout_retransmits_from_una() {
        let mut tx = TcpSender::new(SenderConfig {
            mss: 1000,
            window: 10_000,
            init_rto_ns: 1_000_000,
        });
        tx.write(3000);
        let s1 = tx.poll_meta(0).unwrap();
        let _s2 = tx.poll_meta(0).unwrap();
        let _s3 = tx.poll_meta(0).unwrap();
        assert_eq!(tx.in_flight(), 3000);
        // Everything is lost; the timer fires.
        let deadline = tx.next_timeout().unwrap();
        tx.on_timeout(deadline);
        assert_eq!(tx.retransmits, 1);
        let r1 = tx.poll_meta(deadline).unwrap();
        assert_eq!(r1.seq, s1.seq, "go-back-N restarts at snd_una");
        // Backoff doubled.
        assert!(tx.next_timeout().unwrap() >= deadline + 2_000_000);
    }

    #[test]
    fn receiver_ack_policy() {
        let mut rx = TcpReceiver::new(ReceiverConfig {
            ack_every: 2,
            delayed_ack_ns: 1_000_000,
        });
        // First segment: delayed.
        match rx.on_segment(0, 100, 0) {
            RecvAction::AckAt(d) => assert_eq!(d, 1_000_000),
            other => panic!("expected delayed ack, got {other:?}"),
        }
        // Second: immediate.
        assert_eq!(rx.on_segment(100, 100, 10), RecvAction::AckNow(200));
        // Out of order: immediate duplicate ack.
        assert_eq!(rx.on_segment(999, 100, 20), RecvAction::AckNow(200));
        assert_eq!(rx.ooo_dropped, 1);
        // Delayed-ack timer pathway.
        match rx.on_segment(200, 50, 30) {
            RecvAction::AckAt(_) => {}
            other => panic!("expected delayed ack, got {other:?}"),
        }
        assert_eq!(rx.on_timer(2_000_000), Some(250));
        assert_eq!(rx.on_timer(2_000_001), None, "timer disarms after firing");
    }

    proptest! {
        /// The one-copy fill is the per-byte pattern and the computed sum
        /// is the sum of those bytes — from any offset a sequence number
        /// can name, for every length up to several tables' and word
        /// periods' worth, odd and even.
        #[test]
        fn pattern_fill_matches_per_byte(offset in any::<u32>(), len in 0usize..4000) {
            let offset = u64::from(offset);
            let bytes: Vec<u8> = (0..len as u64).map(|i| pattern_byte(offset + i)).collect();
            let mut filled = vec![0xEE; 3];
            pattern_fill(&mut filled, offset, len);
            prop_assert_eq!(&filled[3..], &bytes[..], "offset {} len {}", offset, len);
            let mut summed = Checksum::new();
            summed.add(&bytes);
            prop_assert_eq!(
                pattern_sum(offset, len).finish(),
                summed.finish(),
                "offset {} len {}", offset, len
            );
        }

        /// A segment whose payload sum was computed is byte for byte the
        /// segment whose payload was summed: `seq` over the whole `u32`
        /// range (a payload may run past `u32::MAX` — the pattern offset
        /// does not wrap), at each end of it and at both parities of
        /// every place in the period, `len` everything an MTU allows.
        #[test]
        fn emit_pattern_segment_matches_emit(
            seq in any::<u32>(),
            near_wrap in 0u32..2000,
            len in 0usize..=DEFAULT_MSS,
        ) {
            for seq in [seq, u32::MAX - near_wrap, seq % 502] {
                let payload: Vec<u8> =
                    (0..len as u64).map(|i| pattern_byte(seq as u64 + i)).collect();
                let reference = Segment {
                    src_port: 5001,
                    dst_port: 5002,
                    seq,
                    ack: 0,
                    is_ack: false,
                    payload: &payload,
                }
                .emit(A, B);
                let mut fused = Vec::new();
                emit_pattern_segment(&mut fused, A, B, 5001, 5002, seq, len);
                prop_assert_eq!(&fused, &reference, "seq {} len {}", seq, len);
                prop_assert!(Segment::parse(&fused, A, B).is_ok());
            }
        }

        /// The receive check is what it was: whichever single bit of an
        /// emitted pattern segment flips on the way, `parse` refuses it.
        #[test]
        fn any_flipped_bit_is_refused(
            seq in any::<u32>(),
            len in 0usize..=DEFAULT_MSS,
            bit in any::<usize>(),
        ) {
            let mut wire = Vec::new();
            emit_pattern_segment(&mut wire, A, B, 5001, 5002, seq, len);
            let bit = bit % (wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                matches!(
                    Segment::parse(&wire, A, B),
                    Err(TcpLiteError::BadChecksum | TcpLiteError::Truncated)
                ),
                "seq {} len {} bit {}", seq, len, bit
            );
        }
    }

    #[test]
    fn pattern_is_deterministic() {
        assert_eq!(pattern_byte(0), pattern_byte(251));
        let seg: Vec<u8> = (1000..1010).map(pattern_byte).collect();
        let again: Vec<u8> = (1000..1010).map(pattern_byte).collect();
        assert_eq!(seg, again);
    }
}
