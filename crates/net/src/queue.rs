//! The bounded MPMC dispatch queue, built on `Mutex` + `Condvar`.
//!
//! The standard library offers only unbounded MPSC channels; the
//! front-end needs a *bounded* queue with many consumers, so that a
//! dispatch pool that falls behind sheds load ([`BoundedQueue::try_push`]
//! refuses, the I/O thread replies `Busy`) instead of growing an
//! unbounded backlog. The only producer is the I/O thread, which never
//! blocks — there is no blocking push. No external crates are available
//! offline, so the bounded buffer is implemented here directly.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// A closable bounded FIFO shared by producers and consumers.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    /// Signalled when an item is enqueued or the queue closes.
    not_empty: Condvar,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Error returned by [`BoundedQueue::try_push`]; carries the rejected item
/// back to the caller so it can be retried or answered with a shed reply.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue is at capacity right now — the caller should shed load
    /// (reply `Busy`) rather than block a non-blocking front-end.
    Full(T),
    /// The queue has been closed; no further items will ever be accepted.
    Closed(T),
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    /// Locks the queue state, recovering from a poisoned mutex.
    ///
    /// A thread that panics while holding the lock poisons it; before
    /// this recovery, every subsequent producer and consumer call would
    /// itself panic — one bad request cascading into a dead server. The
    /// queue's critical sections are single `VecDeque` operations and
    /// flag writes, none of which can leave the state torn mid-way, so
    /// the inner value is always coherent and the poison flag carries no
    /// information: clear it and hand the guard out.
    fn lock_inner(&self) -> MutexGuard<'_, Inner<T>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Enqueues `item` only if there is room right now — the non-blocking
    /// admission hook for a network front-end: a full queue is answered
    /// with [`TryPushError::Full`] (reply `Busy` to the client, never
    /// block the event loop or silently drop the request).
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.lock_inner();
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() < self.capacity {
            inner.items.push_back(item);
            self.not_empty.notify_one();
            Ok(())
        } else {
            Err(TryPushError::Full(item))
        }
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained — consumers
    /// use this as their shutdown signal after processing the backlog.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock_inner();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = match self.not_empty.wait(inner) {
                Ok(guard) => guard,
                Err(poisoned) => {
                    self.inner.clear_poison();
                    poisoned.into_inner()
                }
            };
        }
    }

    /// Closes the queue: pending `pop`s drain the backlog then return
    /// `None`; subsequent `try_push`es fail. Idempotent.
    pub fn close(&self) {
        let mut inner = self.lock_inner();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.lock_inner().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(q.try_push(8).is_err());
        assert_eq!(q.pop(), Some(7), "backlog drains after close");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn try_push_sheds_when_full_and_fails_when_closed() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(TryPushError::Full(item)) => assert_eq!(item, 3, "the item comes back"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "room reopens after a pop");
        q.close();
        match q.try_push(4) {
            Err(TryPushError::Closed(item)) => assert_eq!(item, 4),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        // Poison the mutex: a thread panics while holding the lock — the
        // moral equivalent of a worker dying mid-queue-operation.
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = q2.inner.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(q.inner.is_poisoned() || q.len() == 1, "setup: lock was held through a panic");
        // Every path recovers: the backlog survives and new traffic flows.
        assert_eq!(q.pop(), Some(1), "pop recovers from the poison");
        q.try_push(2).unwrap();
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_producers_many_consumers() {
        let q = Arc::new(BoundedQueue::new(8));
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    // The feeder retries a full queue (production's one
                    // producer sheds instead).
                    let mut item = p * 1000 + i;
                    while let Err(TryPushError::Full(back)) = q.try_push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let expect: Vec<u64> =
            (0..4u64).flat_map(|p| (0..100).map(move |i| p * 1000 + i)).collect();
        assert_eq!(all, expect);
    }
}
