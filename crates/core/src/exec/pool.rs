//! The scoped-thread worker pool.
//!
//! A [`ThreadPool`] is a *configuration* (the worker count) plus two
//! parallel-region primitives built on [`std::thread::scope`]. Scoped
//! threads let workers borrow the caller's data directly — no `'static`
//! bounds, no channels, no unsafe — at the cost of spawning OS threads
//! per region. Regions here are batch-of-queries or whole-collection
//! sized (milliseconds to seconds) and a spawn is 30–60 µs on a quiet
//! host, but milliseconds while a shared host is busy: the calling
//! thread is therefore one of a region's workers (`on_workers`), so a
//! region of `n` workers spawns `n − 1` threads and never waits for one
//! before it starts.
//!
//! Both primitives schedule **dynamically**: work is cut into chunks and
//! workers pull the next chunk from a shared cursor, so a straggler
//! chunk (an expensive query, a dense k-means band) does not idle the
//! other workers. Chunk *boundaries* are fixed by `chunk_size` — never
//! by the worker count — so any chunk-indexed reduction that combines
//! results in chunk order is deterministic at every thread count.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count. Accepts a
/// positive integer or `max` (= all hardware threads). Ignored when a
/// caller requests an explicit thread count.
pub const THREADS_ENV: &str = "PDX_THREADS";

/// Number of CPUs this process may run on, with a floor of 1.
///
/// A live probe, not a cached value: on Linux
/// `std::thread::available_parallelism` reads the affinity mask and opens
/// and parses `/proc/self/cgroup` and the cgroup's `cpu.max` on every
/// call — 12–21 µs on a 2-vCPU cloud VM, as much as a whole resident IVF
/// query. Call it when an index is opened or built and keep the answer;
/// never call it per query.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Resolves a requested worker count: a positive `requested` wins;
/// `0` means "default", which honours [`THREADS_ENV`] (`max` or a
/// positive integer) and otherwise uses [`hardware_threads`].
///
/// ```
/// use pdx_core::exec::resolve_threads;
/// assert_eq!(resolve_threads(3), 3);
/// assert!(resolve_threads(0) >= 1);
/// ```
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match std::env::var(THREADS_ENV) {
        Ok(v) => {
            let v = v.trim();
            if v.eq_ignore_ascii_case("max") {
                hardware_threads()
            } else {
                v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("warning: ignoring invalid {THREADS_ENV}={v:?}");
                    hardware_threads()
                })
            }
        }
        Err(_) => hardware_threads(),
    }
}

/// Runs `work` on `workers` threads at once: the calling thread and
/// `workers − 1` scoped ones. The caller takes its first chunk while the
/// others are still being created and scheduled, and when it is the last
/// to find the queue empty there is nobody to wake.
fn on_workers(workers: usize, work: impl Fn() + Sync) {
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(&work);
        }
        work();
    });
}

/// A scoped-thread worker pool of a fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool of `threads` workers; `0` resolves the default via
    /// [`resolve_threads`] (env override, then hardware parallelism).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
        }
    }

    /// The default pool: [`THREADS_ENV`] if set, hardware width if not.
    pub fn from_env() -> Self {
        Self::new(0)
    }

    /// Worker count of this pool (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(start_index, chunk)` over every `chunk_size`-sized
    /// disjoint chunk of `data`, dynamically scheduled across the
    /// workers. `start_index` is the offset of `chunk[0]` within `data`.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_size = chunk_size.max(1);
        if data.is_empty() {
            return;
        }
        let n_chunks = data.len().div_ceil(chunk_size);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            for (ci, chunk) in data.chunks_mut(chunk_size).enumerate() {
                f(ci * chunk_size, chunk);
            }
            return;
        }
        // Workers pull the next chunk from the shared iterator; the
        // yielded sub-slices are disjoint, so each is mutated by exactly
        // one worker.
        let queue = Mutex::new(data.chunks_mut(chunk_size).enumerate());
        on_workers(workers, || loop {
            let next = queue.lock().unwrap().next();
            let Some((ci, chunk)) = next else { break };
            f(ci * chunk_size, chunk);
        });
    }

    /// Runs `f(chunk_index, range)` for every `chunk_size`-sized slice
    /// of `0..n_items`, dynamically scheduled, and returns the per-chunk
    /// results **in chunk order** — reductions that fold the returned
    /// vector left-to-right are therefore independent of the worker
    /// count and of which worker ran which chunk.
    pub fn run_chunks<R, F>(&self, n_items: usize, chunk_size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = n_items.div_ceil(chunk_size);
        if n_chunks == 0 {
            return Vec::new();
        }
        let range_of = |ci: usize| ci * chunk_size..(ci * chunk_size + chunk_size).min(n_items);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            return (0..n_chunks).map(|ci| f(ci, range_of(ci))).collect();
        }
        // One slot per chunk; workers only ever lock their own chunk's
        // slot, so the mutexes are uncontended and exist purely to make
        // the disjoint writes safe.
        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        on_workers(workers, || loop {
            let ci = cursor.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                break;
            }
            let r = f(ci, range_of(ci));
            *slots[ci].lock().unwrap() = Some(r);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("worker filled every chunk"))
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_threads(5), 5);
        assert_eq!(ThreadPool::new(2).threads(), 2);
    }

    #[test]
    fn zero_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert!(ThreadPool::from_env().threads() >= 1);
    }

    #[test]
    fn env_override_is_honoured() {
        // Transient values are harmless to concurrent tests (every
        // engine result is thread-count independent), but the variable
        // may be pinned externally (the CI matrix runs the whole suite
        // under PDX_THREADS=1 and =max), so the prior value must be
        // restored — not erased — when this test finishes.
        let prior = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(resolve_threads(0), 3);
        assert_eq!(resolve_threads(7), 7, "explicit request beats the env");
        std::env::set_var(THREADS_ENV, "max");
        assert_eq!(resolve_threads(0), hardware_threads());
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(resolve_threads(0), hardware_threads());
        match prior {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_every_element() {
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0usize; 103];
            pool.for_each_chunk_mut(&mut data, 10, |start, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + i + 1;
                }
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i + 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn for_each_chunk_mut_empty_slice_is_a_noop() {
        let pool = ThreadPool::new(4);
        let mut data: Vec<u32> = Vec::new();
        pool.for_each_chunk_mut(&mut data, 8, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn run_chunks_returns_results_in_chunk_order() {
        for threads in [1usize, 3, 16] {
            let pool = ThreadPool::new(threads);
            let got = pool.run_chunks(25, 4, |ci, range| (ci, range.start, range.end));
            let want: Vec<(usize, usize, usize)> = (0..7)
                .map(|ci| (ci, ci * 4, (ci * 4 + 4).min(25)))
                .collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn run_chunks_zero_items_yields_nothing() {
        let pool = ThreadPool::new(4);
        let got: Vec<u32> = pool.run_chunks(0, 16, |_, _| panic!("no chunks expected"));
        assert!(got.is_empty());
    }

    #[test]
    fn chunked_reduction_is_thread_count_independent() {
        // The fixed chunk boundaries make an in-order fold bitwise
        // reproducible — the property k-means' inertia sum relies on.
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        let sum_with = |threads: usize| -> f64 {
            ThreadPool::new(threads)
                .run_chunks(xs.len(), 64, |_, r| {
                    xs[r].iter().map(|&x| x as f64).sum::<f64>()
                })
                .into_iter()
                .sum()
        };
        let want = sum_with(1);
        for threads in [2usize, 5, 9] {
            assert_eq!(sum_with(threads).to_bits(), want.to_bits());
        }
    }
}
