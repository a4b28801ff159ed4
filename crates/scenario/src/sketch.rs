//! The report's JSON form of a [`Sketch`], the integer log2 histogram
//! every app flow records.
//!
//! The sketch itself — buckets, statistics, merging and the fixed-point
//! [`log2_fp`] the quality scorer uses — lives in `netsim::sketch`, where
//! the measurement apps fold each sample in as it arrives; raw samples
//! are never retained. This module adds what only reports need: writing
//! a sketch as JSON and reading it back ([`SketchJson`]).

use crate::json::{Json, Writer};

pub use netsim::sketch::{log2_fp, Sketch, BUCKETS};

/// A [`Sketch`]'s report JSON: summary integers plus the non-empty
/// buckets as `[bucket_index, count]` pairs.
pub trait SketchJson: Sized {
    /// Write as JSON: summary integers plus the non-empty buckets as
    /// `[bucket_index, count]` pairs in index order (sparse — most of
    /// the 64 buckets are empty for any real flow).
    fn write_json(&self, w: &mut Writer);

    /// Rebuild a sketch from its [`SketchJson::write_json`] text, parsed
    /// (what the offline analyzer does). Returns None on structural
    /// mismatch.
    fn from_json(json: &Json) -> Option<Self>;
}

impl SketchJson for Sketch {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.key("count").u64(self.count());
            w.key("sum").u64(self.sum());
            w.key("min").opt_u64(self.min());
            w.key("max").opt_u64(self.max());
            w.key("buckets").arr(|w| {
                for (i, &n) in self.buckets().iter().enumerate().filter(|(_, &n)| n > 0) {
                    w.arr(|w| {
                        w.u64(i as u64).u64(n);
                    });
                }
            });
        });
    }

    fn from_json(json: &Json) -> Option<Sketch> {
        let u64_of = |key| match json.get(key)? {
            Json::U64(n) => Some(*n),
            _ => None,
        };
        let opt_u64_of = |key| match json.get(key)? {
            Json::U64(n) => Some(Some(*n)),
            Json::Null => Some(None),
            _ => None,
        };
        let (count, sum) = (u64_of("count")?, u64_of("sum")?);
        let (min, max) = (opt_u64_of("min")?, opt_u64_of("max")?);
        let Json::Arr(pairs) = json.get("buckets")? else {
            return None;
        };
        let mut buckets = [0; BUCKETS];
        for pair in pairs {
            let Json::Arr(kv) = pair else { return None };
            let [Json::U64(i), Json::U64(n)] = kv.as_slice() else {
                return None;
            };
            *buckets.get_mut(*i as usize)? = *n;
        }
        Some(Sketch::from_parts(buckets, count, sum, min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonText;

    #[test]
    fn json_round_trips() {
        let s = Sketch::from_samples([0, 3, 900, 1_000_000, 123_456_789]);
        let read_back =
            |s: &Sketch| Sketch::from_json(&JsonText::write(|w| s.write_json(w)).tree());
        assert_eq!(read_back(&s), Some(s));
        let empty = Sketch::new();
        assert_eq!(read_back(&empty), Some(empty));
    }
}
