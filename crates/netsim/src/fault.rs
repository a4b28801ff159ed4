//! Fault injection for segments.
//!
//! Following the smoltcp example conventions, each segment can be configured
//! to randomly drop, corrupt, or duplicate frames. Faults are applied to a
//! completed frame just before its delivery, and are drawn from the world's
//! deterministic RNG — so a faulty run replays exactly.
//!
//! # Replay contract
//!
//! The world RNG belongs to this layer: nothing else draws from it (nodes
//! and apps carry their own seeded streams). A world's draw sequence is
//! therefore the order in which its non-transparent segments deliver, each
//! delivery drawing as [`FaultConfig::apply_stateful`] documents. With two
//! or more such segments active at once and unequal propagation delays that
//! order is by delivery instant (completion + propagation), not by
//! completion instant.

use framebuf::FrameBuf;

use crate::rng::Xoshiro;

/// Per-segment fault configuration. The default injects no faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Drop one frame in `drop_one_in` (0 = never drop).
    pub drop_one_in: u64,
    /// Corrupt one octet of one frame in `corrupt_one_in` (0 = never).
    pub corrupt_one_in: u64,
    /// Deliver one frame in `duplicate_one_in` twice (0 = never).
    pub duplicate_one_in: u64,
    /// Two-state Gilbert–Elliott burst model. When set, the per-state
    /// drop/corrupt odds below **supersede** `drop_one_in` /
    /// `corrupt_one_in` (which are ignored); `duplicate_one_in` still
    /// applies in both states.
    pub burst: Option<BurstConfig>,
}

/// A two-state Gilbert–Elliott loss model: the medium alternates between
/// a *good* state (background loss) and a *bad* state (a loss burst),
/// flipping per frame with the configured odds. All odds are "one in N"
/// (0 = never), matching the i.i.d. knobs on [`FaultConfig`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BurstConfig {
    /// Per-frame odds of entering the bad state while good (0 = never).
    pub enter_one_in: u64,
    /// Per-frame odds of returning to the good state while bad
    /// (0 = never leave — a permanent burst once entered).
    pub exit_one_in: u64,
    /// Drop odds while in the good state.
    pub good_drop_one_in: u64,
    /// Corrupt odds while in the good state.
    pub good_corrupt_one_in: u64,
    /// Drop odds while in the bad state.
    pub bad_drop_one_in: u64,
    /// Corrupt odds while in the bad state.
    pub bad_corrupt_one_in: u64,
}

impl BurstConfig {
    /// Steady-state drop probability (per mille), from the stationary
    /// distribution of the two-state chain:
    /// `π_bad = p_enter / (p_enter + p_exit)`. Diagnostic only — integer
    /// arithmetic, not on any replay path.
    pub fn steady_state_drop_pm(&self) -> u64 {
        let p = |one_in: u64| 1_000_000u64.checked_div(one_in).unwrap_or(0);
        let (enter, exit) = (p(self.enter_one_in), p(self.exit_one_in));
        if enter + exit == 0 {
            return p(self.good_drop_one_in) / 1000;
        }
        let pi_bad = enter * 1000 / (enter + exit);
        let pi_good = 1000 - pi_bad;
        (pi_bad * p(self.bad_drop_one_in) + pi_good * p(self.good_drop_one_in)) / 1_000_000
    }
}

/// Everything the fault layer decided about one frame, including the
/// burst-model bookkeeping the caller needs for counters and probes.
#[derive(Debug)]
pub struct FaultVerdict {
    /// Deliver / duplicate / drop.
    pub outcome: FaultOutcome,
    /// The delivered frame had one bit flipped.
    pub corrupted: bool,
    /// The drop was fired by the burst model's *bad* state (always
    /// implies `outcome == Drop`; counted in `SegCounters::burst_drops`
    /// on top of `fault_drops`).
    pub burst_dropped: bool,
    /// The burst state flipped on this frame; the payload is the new
    /// state (`true` = entered bad). `None` when it stayed put.
    pub flipped: Option<bool>,
}

/// What the fault layer decided about one frame.
#[derive(Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver as-is.
    Deliver(FrameBuf),
    /// Deliver twice.
    Duplicate(FrameBuf),
    /// Silently dropped.
    Drop,
}

impl FaultConfig {
    /// True if this configuration can never alter traffic.
    #[inline]
    pub fn is_transparent(&self) -> bool {
        self.drop_one_in == 0
            && self.corrupt_one_in == 0
            && self.duplicate_one_in == 0
            && self.burst.is_none()
    }

    /// Apply the configured faults to one frame, threading the segment's
    /// burst state (`bad`, `true` while in the Gilbert–Elliott bad state).
    /// The one entry point: the world calls it for every frame a
    /// non-transparent segment delivers.
    ///
    /// Corruption goes through [`FrameBuf::mutate`] — the data plane's
    /// single copy-on-write point — so the corrupted copy is private to
    /// this delivery and the buffer other holders share stays pristine.
    ///
    /// The RNG draw sequence is part of the replay contract (module doc):
    /// `one_in(0)` draws nothing, so a transparent config draws nothing.
    /// With `burst: None` the draws are drop, (corrupt, index, bit),
    /// duplicate, in that order — bit-identical to the pre-burst contract
    /// the golden digests pin. With `burst: Some` the draws are transition
    /// (`enter_one_in` while good / `exit_one_in` while bad — the state
    /// flips *before* the emission draws, so a frame that enters the bad
    /// state already suffers its odds), then the current state's drop,
    /// (corrupt, index, bit), then the shared duplicate draw. The decision
    /// draws never depend on the frame's contents — an empty frame still
    /// consumes the corrupt decision and skips only the index/bit draws,
    /// so frame length cannot shift the stream for later frames'
    /// decisions.
    pub fn apply_stateful(
        &self,
        frame: FrameBuf,
        rng: &mut Xoshiro,
        bad: &mut bool,
    ) -> FaultVerdict {
        let mut flipped = None;
        let (drop_odds, corrupt_odds) = match self.burst {
            None => (self.drop_one_in, self.corrupt_one_in),
            Some(b) => {
                let flip = if *bad {
                    rng.one_in(b.exit_one_in)
                } else {
                    rng.one_in(b.enter_one_in)
                };
                if flip {
                    *bad = !*bad;
                    flipped = Some(*bad);
                }
                if *bad {
                    (b.bad_drop_one_in, b.bad_corrupt_one_in)
                } else {
                    (b.good_drop_one_in, b.good_corrupt_one_in)
                }
            }
        };
        if rng.one_in(drop_odds) {
            return FaultVerdict {
                outcome: FaultOutcome::Drop,
                corrupted: false,
                burst_dropped: self.burst.is_some() && *bad,
                flipped,
            };
        }
        let mut corrupted = false;
        let mut frame = frame;
        if rng.one_in(corrupt_odds) && !frame.is_empty() {
            corrupted = true;
            let idx = rng.range(frame.len() as u64) as usize;
            // Flip a random bit so corruption is always a real change.
            let bit = 1u8 << rng.range(8);
            frame.mutate(|buf| buf[idx] ^= bit);
        }
        let outcome = if rng.one_in(self.duplicate_one_in) {
            FaultOutcome::Duplicate(frame)
        } else {
            FaultOutcome::Deliver(frame)
        };
        FaultVerdict {
            outcome,
            corrupted,
            burst_dropped: false,
            flipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame through `cfg` from the good state: the outcome and
    /// whether the frame was corrupted.
    fn apply(cfg: &FaultConfig, frame: FrameBuf, rng: &mut Xoshiro) -> (FaultOutcome, bool) {
        let v = cfg.apply_stateful(frame, rng, &mut false);
        (v.outcome, v.corrupted)
    }

    #[test]
    fn transparent_by_default() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_transparent());
        let mut rng = Xoshiro::seed_from_u64(1);
        let frame = FrameBuf::from_static(b"hello");
        assert_eq!(
            apply(&cfg, frame.clone(), &mut rng),
            (FaultOutcome::Deliver(frame), false)
        );
    }

    #[test]
    fn always_drop() {
        let cfg = FaultConfig {
            drop_one_in: 1,
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(1);
        assert_eq!(
            apply(&cfg, FrameBuf::from_static(b"x"), &mut rng),
            (FaultOutcome::Drop, false)
        );
    }

    #[test]
    fn corruption_changes_exactly_one_bit() {
        let cfg = FaultConfig {
            corrupt_one_in: 1,
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(3);
        let original = FrameBuf::from_static(b"abcdefgh");
        match apply(&cfg, original.clone(), &mut rng) {
            (FaultOutcome::Deliver(out), corrupted) => {
                assert!(corrupted, "corruption must be reported");
                let diff_bits: u32 = original
                    .iter()
                    .zip(out.iter())
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(diff_bits, 1);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn drop_rate_roughly_matches() {
        let cfg = FaultConfig {
            drop_one_in: 4,
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(5);
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| {
                matches!(
                    apply(&cfg, FrameBuf::from_static(b"y"), &mut rng),
                    (FaultOutcome::Drop, _)
                )
            })
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((0.22..0.28).contains(&rate), "rate was {rate}");
    }

    #[test]
    fn empty_frame_never_corrupted() {
        let cfg = FaultConfig {
            corrupt_one_in: 1,
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(6);
        match apply(&cfg, FrameBuf::from_static(b""), &mut rng) {
            (FaultOutcome::Deliver(out), false) => assert!(out.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// How many `next_u64` calls one `apply_stateful` consumed, starting
    /// from burst state `bad`: replay the seed's stream until it lines up
    /// with the RNG state the call left behind.
    fn draws_consumed(cfg: &FaultConfig, frame: FrameBuf, seed: u64, bad: bool) -> u64 {
        let mut used = Xoshiro::seed_from_u64(seed);
        let _ = cfg.apply_stateful(frame, &mut used, &mut { bad });
        let probe = used.next_u64();
        let mut reference = Xoshiro::seed_from_u64(seed);
        for consumed in 0..16 {
            if reference.next_u64() == probe {
                return consumed;
            }
        }
        panic!("apply_stateful consumed more than 15 draws");
    }

    /// The replay contract: the decision draws (drop, corrupt,
    /// duplicate) must not depend on the frame's contents. With all
    /// three knobs set but astronomically unlikely to fire, one call
    /// consumes exactly three draws for every frame length — including
    /// the degenerate empty and 1-byte frames.
    #[test]
    fn decision_draw_sequence_is_independent_of_frame_length() {
        let cfg = FaultConfig {
            drop_one_in: u64::MAX,
            corrupt_one_in: u64::MAX,
            duplicate_one_in: u64::MAX,
            ..Default::default()
        };
        for frame in [
            FrameBuf::from_static(b""),
            FrameBuf::from_static(b"x"),
            FrameBuf::from_static(b"hello world"),
        ] {
            assert_eq!(draws_consumed(&cfg, frame, 123, false), 3);
        }
    }

    /// When the corrupt decision *fires*, an empty frame skips only the
    /// index/bit draws (nothing to flip) and is delivered unmodified,
    /// while a 1-byte frame takes them and gets exactly one bit flipped
    /// — and the duplicate decision still sees the stream position right
    /// after the corrupt decision in both cases.
    #[test]
    fn degenerate_frames_pin_the_corrupt_draws() {
        let cfg = FaultConfig {
            corrupt_one_in: 1,
            duplicate_one_in: 1,
            ..Default::default()
        };
        // Empty: corrupt decision (1 draw) + duplicate decision (1 draw).
        assert_eq!(
            draws_consumed(&cfg, FrameBuf::from_static(b""), 9, false),
            2
        );
        match apply(
            &cfg,
            FrameBuf::from_static(b""),
            &mut Xoshiro::seed_from_u64(9),
        ) {
            (FaultOutcome::Duplicate(out), false) => assert!(out.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // 1-byte: corrupt + index + bit + duplicate = 4 draws
        // (range(1) and range(8) are power-of-two bounds: no rejection).
        assert_eq!(
            draws_consumed(&cfg, FrameBuf::from_static(b"z"), 9, false),
            4
        );
        match apply(
            &cfg,
            FrameBuf::from_static(b"z"),
            &mut Xoshiro::seed_from_u64(9),
        ) {
            (FaultOutcome::Duplicate(out), true) => {
                assert_eq!(out.len(), 1);
                assert_eq!((out[0] ^ b'z').count_ones(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // ---------------------------------------------- Gilbert–Elliott burst

    /// A burst config whose transitions and emissions can all draw but
    /// (almost surely) never fire — for counting draws.
    fn inert_burst() -> BurstConfig {
        BurstConfig {
            enter_one_in: u64::MAX,
            exit_one_in: u64::MAX,
            good_drop_one_in: u64::MAX,
            good_corrupt_one_in: u64::MAX,
            bad_drop_one_in: u64::MAX,
            bad_corrupt_one_in: u64::MAX,
        }
    }

    /// The burst draw-order contract: transition, per-state drop,
    /// per-state corrupt (+index+bit), shared duplicate — so a full
    /// non-firing pass consumes exactly 4 draws regardless of frame
    /// length, and zero-odds knobs draw nothing at all.
    #[test]
    fn burst_draw_sequence_is_pinned() {
        let cfg = FaultConfig {
            duplicate_one_in: u64::MAX,
            burst: Some(inert_burst()),
            ..Default::default()
        };
        for frame in [
            FrameBuf::from_static(b""),
            FrameBuf::from_static(b"x"),
            FrameBuf::from_static(b"hello world"),
        ] {
            assert_eq!(draws_consumed(&cfg, frame.clone(), 11, false), 4);
            assert_eq!(draws_consumed(&cfg, frame, 11, true), 4);
        }
        // Zero odds are free: a burst whose good state injects nothing
        // and can (almost) never transition consumes only the enter draw.
        let sparse = FaultConfig {
            burst: Some(BurstConfig {
                enter_one_in: u64::MAX,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert_eq!(
            draws_consumed(&sparse, FrameBuf::from_static(b"abc"), 12, false),
            1
        );
    }

    /// A set burst config supersedes the base drop/corrupt odds: the
    /// good state with zero odds delivers everything even though the
    /// base i.i.d. knobs say "always drop".
    #[test]
    fn burst_supersedes_base_drop_and_corrupt_odds() {
        let cfg = FaultConfig {
            drop_one_in: 1,
            corrupt_one_in: 1,
            burst: Some(BurstConfig {
                enter_one_in: u64::MAX,
                exit_one_in: 1,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(21);
        let mut bad = false;
        for _ in 0..64 {
            let v = cfg.apply_stateful(FrameBuf::from_static(b"q"), &mut rng, &mut bad);
            assert!(matches!(v.outcome, FaultOutcome::Deliver(_)));
            assert!(!v.corrupted);
            assert!(!v.burst_dropped);
        }
    }

    /// The bad state drops everything, transitions are reported exactly
    /// once per flip, and drops fired while bad are flagged
    /// `burst_dropped` (the `SegCounters::burst_drops` feed).
    #[test]
    fn bad_state_drops_and_flags() {
        let cfg = FaultConfig {
            burst: Some(BurstConfig {
                enter_one_in: 1, // flip immediately
                exit_one_in: 0,  // and never come back
                bad_drop_one_in: 1,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(31);
        let mut bad = false;
        let v = cfg.apply_stateful(FrameBuf::from_static(b"a"), &mut rng, &mut bad);
        assert_eq!(v.flipped, Some(true), "first frame enters the bad state");
        assert!(bad);
        assert!(matches!(v.outcome, FaultOutcome::Drop));
        assert!(v.burst_dropped);
        // Subsequent frames stay bad (exit odds 0 draw nothing) and keep
        // dropping without re-reporting a flip.
        let v = cfg.apply_stateful(FrameBuf::from_static(b"b"), &mut rng, &mut bad);
        assert_eq!(v.flipped, None);
        assert!(v.burst_dropped);
    }

    /// Same seed ⇒ identical drop/corrupt/transition sequence: the burst
    /// model is a pure function of (config, seed, frame lengths).
    #[test]
    fn burst_sequence_replays_from_seed() {
        let cfg = FaultConfig {
            duplicate_one_in: 9,
            burst: Some(BurstConfig {
                enter_one_in: 10,
                exit_one_in: 4,
                good_drop_one_in: 100,
                good_corrupt_one_in: 80,
                bad_drop_one_in: 2,
                bad_corrupt_one_in: 3,
            }),
            ..Default::default()
        };
        let run = |seed: u64| {
            let mut rng = Xoshiro::seed_from_u64(seed);
            let mut bad = false;
            (0..2_000)
                .map(|i| {
                    let frame = FrameBuf::from(vec![i as u8; 1 + (i % 7)]);
                    let v = cfg.apply_stateful(frame, &mut rng, &mut bad);
                    let tag = match v.outcome {
                        FaultOutcome::Deliver(_) => 0u8,
                        FaultOutcome::Duplicate(_) => 1,
                        FaultOutcome::Drop => 2,
                    };
                    (tag, v.corrupted, v.burst_dropped, v.flipped)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78), "different seeds must diverge");
    }

    /// Empirical dwell time in the bad state matches the configured
    /// exit odds (geometric with mean `exit_one_in`), and the overall
    /// drop rate lands near the stationary-distribution prediction.
    #[test]
    fn burst_dwell_time_matches_configured_odds() {
        let burst = BurstConfig {
            enter_one_in: 20,
            exit_one_in: 5,
            bad_drop_one_in: 2,
            ..Default::default()
        };
        let cfg = FaultConfig {
            burst: Some(burst),
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(41);
        let mut bad = false;
        let mut dwells = Vec::new();
        let mut current = 0u64;
        let mut drops = 0u64;
        let n = 100_000u64;
        for _ in 0..n {
            let v = cfg.apply_stateful(FrameBuf::from_static(b"m"), &mut rng, &mut bad);
            if bad {
                current += 1;
            } else if current > 0 {
                dwells.push(current);
                current = 0;
            }
            if matches!(v.outcome, FaultOutcome::Drop) {
                drops += 1;
            }
        }
        let mean_dwell = dwells.iter().sum::<u64>() as f64 / dwells.len() as f64;
        assert!(
            (4.0..6.0).contains(&mean_dwell),
            "mean bad-state dwell was {mean_dwell}, expected ~{}",
            burst.exit_one_in
        );
        // π_bad = (1/20) / (1/20 + 1/5) = 0.2; drop rate ≈ 0.2 · 0.5 = 0.1.
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "drop rate was {rate}");
        assert_eq!(burst.steady_state_drop_pm(), 100);
    }

    /// Without a burst model no burst bookkeeping is ever reported: the
    /// state stays good, nothing flips, no drop counts as a burst drop.
    #[test]
    fn no_burst_config_reports_no_burst_state() {
        let cfg = FaultConfig {
            drop_one_in: 4,
            corrupt_one_in: 7,
            duplicate_one_in: 5,
            ..Default::default()
        };
        let mut rng = Xoshiro::seed_from_u64(123);
        let mut bad = false;
        for i in 0..500 {
            let frame = FrameBuf::from(vec![i as u8; 1 + (i % 5)]);
            let v = cfg.apply_stateful(frame, &mut rng, &mut bad);
            assert!(!v.burst_dropped);
            assert_eq!(v.flipped, None);
            assert!(!bad);
        }
    }
}
