//! The process-wide pool of recycled scratch buffers.
//!
//! Every codec stage buffer (the LZ token stream, the entropy-coded
//! payload, an assembled container body, split even/odd halves, Huffman
//! symbols) and every block-sized buffer of the simulator's hot path (the
//! decoded amplitudes of a block, the encoded output before it becomes a
//! shared payload, an assembled frame) is checked out here with `take_*`
//! and handed back with `put_*`. A returned buffer is cleared but keeps
//! its capacity, so a steady stream of (de)compressions reuses grown
//! buffers instead of asking the allocator again.
//!
//! The pool is shared by all threads, not thread-local: the parallel
//! iterators run each operation on freshly spawned scoped threads, so a
//! per-thread pool would die with its thread after every wave. Each type
//! has [`STRIPES`] mutex-guarded stacks; a checkout scans the stripes from
//! a rotating start and a return goes to the next stripe in turn, which
//! keeps contention low. Each stripe holds at most [`MAX_PER_STRIPE`] idle
//! buffers and drops any beyond that, so the pool never pins more than
//! `STRIPES * MAX_PER_STRIPE` idle buffers of each type.
//!
//! Idle buffers live as long as the process. In a long-lived process (the
//! job server, a worker daemon) the pool therefore keeps up to
//! `STRIPES * MAX_PER_STRIPE` buffers per type at the largest block size
//! an earlier job used, after that job has ended. The server's per-job
//! memory carve does not count them.
//!
//! ```
//! use qcs_compress::scratch;
//!
//! let mut buf = scratch::take_bytes();
//! buf.extend_from_slice(&[7u8; 4096]);
//! scratch::put_bytes(buf);
//! let again = scratch::take_bytes();
//! assert!(again.is_empty());
//! scratch::put_bytes(again);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Stripes per buffer type.
pub const STRIPES: usize = 8;
/// Idle buffers kept per stripe; returns beyond it are dropped.
pub const MAX_PER_STRIPE: usize = 4;

/// One striped, bounded stack of idle `Vec<T>`s.
struct Pool<T> {
    stripes: [Mutex<Vec<Vec<T>>>; STRIPES],
    next: AtomicUsize,
}

impl<T> Pool<T> {
    const fn new() -> Self {
        Self {
            stripes: [const { Mutex::new(Vec::new()) }; STRIPES],
            next: AtomicUsize::new(0),
        }
    }

    fn stripe(&self, i: usize) -> MutexGuard<'_, Vec<Vec<T>>> {
        // A panic while a stack was locked leaves it consistent (push and
        // pop are the only mutations), so poisoning is ignored.
        self.stripes[i % STRIPES]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn take(&self) -> Vec<T> {
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        (0..STRIPES)
            .find_map(|off| self.stripe(start + off).pop())
            .unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        let mut stack = self.stripe(self.next.fetch_add(1, Ordering::Relaxed));
        if stack.len() < MAX_PER_STRIPE {
            stack.push(buf);
        }
    }
}

static BYTES: Pool<u8> = Pool::new();
static F64S: Pool<f64> = Pool::new();
static U32S: Pool<u32> = Pool::new();

/// Check out an empty byte buffer, reusing a recycled one when possible.
pub fn take_bytes() -> Vec<u8> {
    BYTES.take()
}

/// Return a byte buffer to the pool.
pub fn put_bytes(buf: Vec<u8>) {
    BYTES.put(buf)
}

/// Check out an empty `f64` buffer, reusing a recycled one when possible.
pub fn take_f64s() -> Vec<f64> {
    F64S.take()
}

/// Return an `f64` buffer to the pool.
pub fn put_f64s(buf: Vec<f64>) {
    F64S.put(buf)
}

/// Check out an empty `u32` buffer (Huffman symbols, SZ quantization codes).
pub fn take_u32s() -> Vec<u32> {
    U32S.take()
}

/// Return a `u32` buffer to the pool.
pub fn put_u32s(buf: Vec<u32>) {
    U32S.put(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_recycles() {
        let pool = Pool::<u8>::new();
        let mut b = pool.take();
        b.extend_from_slice(&[1u8; 4096]);
        let cap = b.capacity();
        pool.put(b);
        let b2 = pool.take();
        assert!(b2.is_empty());
        assert!(b2.capacity() >= cap);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = Pool::<f64>::new();
        for _ in 0..2 * STRIPES * MAX_PER_STRIPE {
            pool.put(Vec::with_capacity(1));
        }
        let idle: usize = (0..STRIPES).map(|i| pool.stripe(i).len()).sum();
        assert_eq!(idle, STRIPES * MAX_PER_STRIPE);
    }

    #[test]
    fn a_buffer_returned_on_one_thread_serves_a_take_on_another() {
        let pool = Pool::<u32>::new();
        let mut buf = Vec::with_capacity(1 << 16);
        buf.push(1);
        let ptr = buf.as_ptr() as usize;
        std::thread::scope(|s| {
            s.spawn(|| pool.put(buf));
        });
        let served = std::thread::scope(|s| s.spawn(|| pool.take()).join().unwrap());
        assert_eq!(served.as_ptr() as usize, ptr, "the recycled buffer");
        assert!(served.is_empty() && served.capacity() >= 1 << 16);
    }
}
