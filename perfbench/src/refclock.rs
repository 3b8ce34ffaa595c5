//! The reference clock: a fixed piece of harness-owned work, timed beside
//! the work that is measured, so that a timing can be stated in the time
//! of a machine that is not disturbed.
//!
//! On a shared host a neighbour on the sibling hyperthread slows
//! throughput-bound code by 20 to 50 % for a tenth of a second to minutes
//! at a time: no estimator inside a 20 s run removes a spell longer than
//! the run, and these spells were the whole of the run-to-run spread of
//! the wall-clock timings. What does remove them is a second measurement
//! that the neighbour slows by the same factor: one *tick* is a
//! squared-distance scan of [`ROWS`] vectors of [`DIMS`] floats against
//! one query — the same kind of work as the library's kernels, larger than
//! L1 and resident in L2 — written in plain Rust in this file, so no
//! change to the library can move it. Timed work is multiplied by
//! `NOMINAL_US / (the median tick taken beside it)`: a microsecond of a
//! reported timing is a microsecond on the machine that recorded `AA.md`
//! while it ran the tick in [`NOMINAL_US`]. The README's "Undisturbed
//! time" has the measurements behind this.

use crate::stats::median;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub const DIMS: usize = 128;
/// 384 rows x 128 floats = 192 KiB.
pub const ROWS: usize = 384;

/// What one tick takes on the undisturbed machine that recorded `AA.md`,
/// microseconds. A constant of the unit, not a measurement: changing it
/// rescales every reported timing by the same factor.
pub const NOMINAL_US: f64 = 6.0;

pub struct RefClock {
    rows: Vec<f32>,
    query: [f32; DIMS],
}

/// The process's one clock.
pub fn clock() -> &'static RefClock {
    static CLOCK: OnceLock<RefClock> = OnceLock::new();
    CLOCK.get_or_init(RefClock::new)
}

impl RefClock {
    fn new() -> Self {
        // Any fixed, finite contents do: the scan's time does not depend
        // on the values.
        let value = |i: usize| ((i * 2_654_435_761) % 1024) as f32 / 1024.0;
        let mut query = [0.0; DIMS];
        for (i, q) in query.iter_mut().enumerate() {
            *q = value(i + 7);
        }
        RefClock {
            rows: (0..ROWS * DIMS).map(value).collect(),
            query,
        }
    }

    /// The scan itself: sixteen independent accumulators per row, so the
    /// loop is bound by arithmetic throughput like the kernels it stands
    /// beside, not by one dependency chain.
    fn scan(&self) -> f32 {
        let mut total = 0.0f32;
        for row in self.rows.chunks_exact(DIMS) {
            let mut acc = [0.0f32; 16];
            for (r, q) in row.chunks_exact(16).zip(self.query.chunks_exact(16)) {
                for ((a, &x), &y) in acc.iter_mut().zip(r).zip(q) {
                    let d = x - y;
                    *a += d * d;
                }
            }
            total += acc.iter().sum::<f32>();
        }
        total
    }

    /// One tick, microseconds: the scan once untimed, which brings its
    /// rows into L2 whatever ran before, then once timed — so a tick does
    /// not depend on what the measured work left in the caches.
    pub fn tick(&self) -> f64 {
        std::hint::black_box(self.scan());
        let t0 = Instant::now();
        std::hint::black_box(self.scan());
        t0.elapsed().as_secs_f64() * 1e6
    }
}

/// The median of `n` ticks taken now, microseconds.
pub fn read(n: usize) -> f64 {
    median(&(0..n).map(|_| clock().tick()).collect::<Vec<_>>())
}

/// Runs `work` with the clock ticking beside it on a thread of its own,
/// once a millisecond from before it starts until after it has ended, and
/// returns what `work` returned with the median of those ticks,
/// microseconds: the reading for work that takes long and has no place
/// for ticks inside it.
pub fn beside<T>(work: impl FnOnce() -> T) -> (T, f64) {
    /// Stops the ticker when `work` returns and when it panics: a scope
    /// waits for its threads either way.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let ticker = scope.spawn(|| {
            let mut ticks = vec![clock().tick()];
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
                ticks.push(clock().tick());
            }
            median(&ticks)
        });
        let value = {
            let _stop = Stop(&done);
            work()
        };
        (value, ticker.join().expect("the ticker panicked"))
    })
}

/// The factor that states a timing taken beside ticks of median
/// `tick_us` in undisturbed time.
pub fn factor(tick_us: f64) -> f64 {
    NOMINAL_US / tick_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tick_is_positive_and_the_scan_repeats() {
        let clock = clock();
        assert_eq!(clock.scan().to_bits(), clock.scan().to_bits());
        assert!(clock.scan() > 0.0);
        assert!(clock.tick() > 0.0);
        assert!(read(3) > 0.0);
    }

    #[test]
    fn a_slow_tick_shrinks_the_timing_beside_it() {
        assert_eq!(factor(NOMINAL_US), 1.0);
        assert_eq!(factor(2.0 * NOMINAL_US), 0.5);
    }
}
