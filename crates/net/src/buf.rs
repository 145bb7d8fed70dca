//! Pooled frame buffers: a free list of `Vec<u8>`s each reactor thread
//! recycles its reply frames through (DESIGN.md §9.6).
//!
//! Every buffer in flight holds exactly **one** frame (header +
//! payload, written in place by [`crate::frame::begin_frame`] /
//! [`crate::frame::finish_frame`]). One-frame-per-buffer is what makes both ends
//! of the lifecycle cheap: the flusher can hand the kernel many frames
//! in a single `write_vectored` call without copying them into a
//! staging buffer first, and a fully-written frame goes straight back
//! to the free list with its capacity intact.
//!
//! At steady state — warm connections, pool primed by the first few
//! round trips — `acquire` and `release` are a mutex'd `Vec`
//! push/pop with **zero** allocator traffic, which is what the net
//! alloc-guard suite pins. The pool is deliberately simple: no
//! per-size classes (frames on one workload are similarly sized, and
//! a `Vec`'s capacity adapts upward on first use), a bounded free
//! list (overflow buffers just drop), and a retention cap so one
//! pathological 16 MiB reply cannot pin its allocation forever.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::metrics::NetCounters;

/// Free-list capacity: more buffers than this in flight simply
/// allocate (and free) like before the pool existed.
const MAX_POOLED: usize = 64;

/// A buffer whose capacity grew past this returns to the allocator
/// instead of the free list — recycling is for the common small frames,
/// not for pinning one giant reply's memory.
const MAX_RETAIN_BYTES: usize = 256 * 1024;

/// A free list of frame buffers (see module docs); the server keeps one
/// per reactor. All counters land in the shared [`NetCounters`] so the
/// metrics page can expose pool efficiency.
pub struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Pre-size hint for freshly allocated buffers (misses).
    init_capacity: usize,
    counters: Arc<NetCounters>,
}

impl BufPool {
    /// A pool whose miss-path buffers start at `init_capacity` bytes.
    pub fn new(init_capacity: usize, counters: Arc<NetCounters>) -> Self {
        BufPool { free: Mutex::new(Vec::with_capacity(MAX_POOLED)), init_capacity, counters }
    }

    /// Hands out an empty buffer: recycled when the free list has one
    /// (`buf_pool` hit), freshly allocated otherwise (miss).
    pub fn acquire(&self) -> Vec<u8> {
        let recycled = self.free.lock().unwrap_or_else(|p| p.into_inner()).pop();
        match recycled {
            Some(buf) => {
                NetCounters::bump(&self.counters.buf_pool_hits);
                buf
            }
            None => {
                NetCounters::bump(&self.counters.buf_pool_misses);
                Vec::with_capacity(self.init_capacity)
            }
        }
    }

    /// Returns a buffer to the free list (cleared, capacity kept) —
    /// or drops it when the list is full or the buffer outgrew the
    /// retention cap. Accepts buffers the pool never handed out (the
    /// HTTP scrape path builds its response elsewhere); they become
    /// pool capital like any other.
    pub fn release(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_RETAIN_BYTES {
            return;
        }
        buf.clear();
        let mut free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        if free.len() < MAX_POOLED {
            free.push(buf);
            drop(free);
            self.counters.buf_pool_recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Buffers currently parked on the free list.
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufPool {
        BufPool::new(512, Arc::new(NetCounters::default()))
    }

    #[test]
    fn acquire_release_recycles_capacity() {
        let p = pool();
        let mut a = p.acquire();
        assert_eq!(NetCounters::get(&p.counters.buf_pool_misses), 1);
        a.extend_from_slice(&[7u8; 100]);
        let cap = a.capacity();
        p.release(a);
        assert_eq!(p.idle(), 1);
        let b = p.acquire();
        assert_eq!(NetCounters::get(&p.counters.buf_pool_hits), 1);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "and keep their capacity");
    }

    #[test]
    fn oversized_and_overflow_buffers_are_dropped_not_pooled() {
        let p = pool();
        p.release(Vec::with_capacity(MAX_RETAIN_BYTES + 1));
        assert_eq!(p.idle(), 0, "a giant buffer must not pin its memory");
        p.release(Vec::new());
        assert_eq!(p.idle(), 0, "a zero-capacity buffer is worthless capital");
        for _ in 0..MAX_POOLED + 10 {
            p.release(Vec::with_capacity(64));
        }
        assert_eq!(p.idle(), MAX_POOLED, "the free list is bounded");
        assert_eq!(NetCounters::get(&p.counters.buf_pool_recycled), MAX_POOLED as u64);
    }

    #[test]
    fn foreign_buffers_become_pool_capital() {
        let p = pool();
        p.release(b"HTTP/1.1 200 OK".to_vec());
        assert_eq!(p.idle(), 1);
        assert!(p.acquire().is_empty());
    }
}
