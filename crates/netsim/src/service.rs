//! Store-compute-forward service queue.
//!
//! The paper turns a store-and-forward element into a "store, *compute*, and
//! forward" element: every frame passes through a software path with a
//! nontrivial per-frame cost (Figure 5). [`ServiceQueue`] models that path
//! as a single server with a FIFO queue: items queue while the server is
//! busy; service times are supplied by the caller (typically from a
//! [`crate::cost::CostModel`]).
//!
//! # Protocol
//!
//! ```text
//! on_frame:   match q.offer(item) {
//!                 Offer::Started => ctx.schedule_service(service_time, SERVICE_DONE),
//!                 Offer::Queued => {}
//!                 Offer::Dropped((_, frame)) => frame.recycle(),
//!             }
//! on_timer(SERVICE_DONE):
//!             let (item, next) = q.complete();
//!             ... process item, emit frames ...
//!             if next { ctx.schedule_service(service_time_of_new_head, SERVICE_DONE) }
//! ```

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use std::collections::VecDeque;

/// Result of offering an item to the queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Offer<T> {
    /// The server was idle and begins serving this item now: the caller
    /// must schedule its completion.
    Started,
    /// The item is queued behind the in-service item.
    Queued,
    /// The queue was full: the item is refused, counted and handed back
    /// (a frame's pooled buffer goes back to its pool).
    Dropped(T),
}

/// A single-server FIFO queue with bounded capacity.
#[derive(Debug)]
pub struct ServiceQueue<T> {
    /// The item currently in service.
    in_service: Option<T>,
    waiting: VecDeque<T>,
    cap: usize,
    dropped: u64,
    served: u64,
}

impl<T> ServiceQueue<T> {
    /// A queue that holds at most `cap` *waiting* items (one more may be in
    /// service).
    #[inline]
    pub fn new(cap: usize) -> Self {
        ServiceQueue {
            in_service: None,
            waiting: VecDeque::new(),
            cap,
            dropped: 0,
            served: 0,
        }
    }

    /// Offer an item; see [`Offer`].
    #[inline]
    pub fn offer(&mut self, item: T) -> Offer<T> {
        if self.in_service.is_none() {
            self.in_service = Some(item);
            Offer::Started
        } else if self.waiting.len() < self.cap {
            self.waiting.push_back(item);
            Offer::Queued
        } else {
            self.dropped += 1;
            Offer::Dropped(item)
        }
    }

    /// The item currently in service, if any.
    #[inline]
    pub fn head(&self) -> Option<&T> {
        self.in_service.as_ref()
    }

    /// Complete service of the head item. Returns it together with a
    /// reference to the next item now entering service (for which the
    /// caller must schedule a completion). Panics if idle.
    #[inline]
    pub fn complete(&mut self) -> (T, Option<&T>) {
        let done = self
            .in_service
            .take()
            .expect("ServiceQueue::complete while idle");
        self.served += 1;
        if let Some(next) = self.waiting.pop_front() {
            self.in_service = Some(next);
        }
        (done, self.in_service.as_ref())
    }

    /// True if nothing is in service.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.in_service.is_none()
    }

    /// Items waiting behind the in-service item.
    #[inline]
    pub fn backlog(&self) -> usize {
        self.waiting.len()
    }

    /// Items dropped due to a full queue.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items whose service completed.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_discipline() {
        let mut q: ServiceQueue<u32> = ServiceQueue::new(8);
        assert!(q.is_idle());
        assert_eq!(q.offer(1), Offer::Started);
        assert_eq!(q.offer(2), Offer::Queued);
        assert_eq!(q.offer(3), Offer::Queued);
        assert_eq!(q.backlog(), 2);
        let (done, next) = q.complete();
        assert_eq!(done, 1);
        assert_eq!(next, Some(&2));
        let (done, next) = q.complete();
        assert_eq!(done, 2);
        assert_eq!(next, Some(&3));
        let (done, next) = q.complete();
        assert_eq!(done, 3);
        assert_eq!(next, None);
        assert!(q.is_idle());
        assert_eq!(q.served(), 3);
    }

    #[test]
    fn overflow_drops() {
        let mut q: ServiceQueue<u32> = ServiceQueue::new(1);
        assert_eq!(q.offer(1), Offer::Started);
        assert_eq!(q.offer(2), Offer::Queued);
        assert_eq!(q.offer(3), Offer::Dropped(3));
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "while idle")]
    fn complete_while_idle_panics() {
        let mut q: ServiceQueue<u32> = ServiceQueue::new(1);
        let _ = q.complete();
    }
}
