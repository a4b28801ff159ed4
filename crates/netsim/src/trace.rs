//! Run-wide trace log and counters.
//!
//! The trace is a bounded ring of human-readable entries that nodes and the
//! kernel of the simulator append to; tests assert on it and examples print
//! it. Counters are a string-keyed map used by experiment harnesses to
//! accumulate results (frames forwarded, bytes received, ...).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use crate::node::NodeId;
use crate::time::SimTime;

/// One trace entry.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// Which node logged it (None for simulator-kernel entries).
    pub node: Option<NodeId>,
    /// The message.
    pub msg: String,
}

/// Bounded in-memory trace.
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    cap: usize,
    /// Total entries ever appended (including evicted ones).
    appended: u64,
    enabled: bool,
}

impl Trace {
    pub(crate) fn new(cap: usize) -> Self {
        Trace {
            entries: VecDeque::new(),
            cap,
            appended: 0,
            enabled: true,
        }
    }

    /// Turn tracing off (entries are discarded) or back on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Rewind to the fresh-trace state (empty, zero appended, enabled),
    /// keeping the ring's storage.
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.appended = 0;
        self.enabled = true;
    }

    /// Append an entry. Only an enabled trace formats `msg`; a disabled
    /// one still counts the call in [`Trace::appended`].
    pub(crate) fn push(&mut self, at: SimTime, node: Option<NodeId>, msg: fmt::Arguments<'_>) {
        self.appended += 1;
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        let msg = msg.to_string();
        self.entries.push_back(TraceEntry { at, node, msg });
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Total entries ever appended.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// True if any retained entry's message contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.entries.iter().any(|e| e.msg.contains(needle))
    }

    /// Retained entries whose message contains `needle`.
    pub fn find<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.msg.contains(needle))
    }
}

/// String-keyed experiment counters. Uses a BTreeMap so printed output is
/// stable.
#[derive(Default, Debug, Clone)]
pub struct Counters {
    map: BTreeMap<String, u64>,
}

impl Counters {
    /// Add `n` to `key`. Only a key's first bump allocates.
    pub fn bump(&mut self, key: &str, n: u64) {
        match self.map.get_mut(key) {
            Some(v) => *v += n,
            None => {
                self.map.insert(key.to_owned(), n);
            }
        }
    }

    /// Read `key` (0 if never bumped).
    pub fn get(&self, key: &str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// All counters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Forget every counter.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(2);
        t.push(SimTime::from_ms(1), None, format_args!("a"));
        t.push(SimTime::from_ms(2), None, format_args!("b"));
        t.push(SimTime::from_ms(3), None, format_args!("c"));
        let msgs: Vec<&str> = t.entries().map(|e| e.msg.as_str()).collect();
        assert_eq!(msgs, vec!["b", "c"]);
        assert_eq!(t.appended(), 3);
    }

    #[test]
    fn disabled_trace_discards() {
        let mut t = Trace::new(10);
        t.set_enabled(false);
        t.push(SimTime::ZERO, None, format_args!("x"));
        assert_eq!(t.entries().count(), 0);
        assert_eq!(t.appended(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::default();
        c.bump("rx", 2);
        c.bump("rx", 3);
        assert_eq!(c.get("rx"), 5);
        assert_eq!(c.get("missing"), 0);
        // First inserts and repeat bumps interleaved: sums hold and
        // `iter` stays in key order whatever the insertion order.
        c.bump("tx", 1);
        c.bump("drops", 0);
        c.bump("rx", 1);
        c.bump("tx", 4);
        let all: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(all, vec![("drops", 0), ("rx", 6), ("tx", 5)]);
    }
}
