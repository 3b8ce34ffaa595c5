//! The estimators. Timings on a shared 2-core VM are slowed from
//! outside, for milliseconds or for minutes at a time, so nothing here
//! pools raw samples: latencies are reduced per script position (the
//! lower quartile of the passes) before any quantile is taken, and
//! throughput is reduced per chunk of the script (the lower quartile of
//! the passes) before the rate is taken. The samples are in undisturbed
//! time (see `refclock`), which removes the slow spells a neighbour on the
//! host causes; what is left only ever adds (a cache refilled, a page
//! faulted in), hence a low quantile — and not the minimum, because a
//! sample divided by a clock reading that was itself read slow comes out
//! too small, and a minimum over many passes collects exactly those. The
//! rank depends on the number of passes, so the pass counts are fixed per
//! workload.

/// Nearest-rank quantile of an unsorted sample (`q` in `(0, 1]`): the
/// smallest value with at least `q·n` samples at or below it.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile of the passes each position, chunk and set-up counts
/// with.
pub const LOW: f64 = 0.25;

/// Per-position lower quartile (nearest rank) across passes:
/// `passes[p][i]` is the latency of script position `i` in pass `p`. With
/// two passes it is the minimum.
pub fn low_of_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == n),
        "every pass replays the same script"
    );
    (0..n)
        .map(|i| quantile(&passes.iter().map(|p| p[i]).collect::<Vec<_>>(), LOW))
        .collect()
}

/// Ops per second of a script of `ops` operations whose throughput
/// passes ran it in timed chunks: `chunk_s[p][c]` is what chunk `c` took
/// in pass `p`, each chunk counts with the lower quartile of its passes.
/// The per-position estimator, applied to throughput: a whole pass is
/// only as good as its worst chunk, and on two shared cores some chunk of
/// every pass is disturbed.
pub fn rate_of_low_chunks(ops: usize, chunk_s: &[Vec<f64>]) -> f64 {
    ops as f64 / low_of_passes(chunk_s).iter().sum::<f64>()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method) — the spread the benchmark is accepted on.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (ld, n) = (data.len(), 4usize);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(&mut out) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_made_samples() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.2), 1.0);
        assert_eq!(quantile(&v, 0.21), 2.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        // p99 of 1..=1000 leaves exactly ten samples beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&big, 0.99), 990.0);
        assert_eq!(quantile(&big, 0.75), 750.0);
    }

    #[test]
    fn low_of_passes_takes_each_position_lower_quartile() {
        // Up to four passes the lower quartile is the minimum.
        let passes = vec![
            vec![3.0, 9.0, 5.0],
            vec![4.0, 2.0, 5.5],
            vec![3.5, 8.0, 1.0],
        ];
        assert_eq!(low_of_passes(&passes), vec![3.0, 2.0, 1.0]);
        assert!(low_of_passes(&[]).is_empty());
        // Of eight passes it is the second smallest: one sample that
        // came out too small does not become the position's value.
        let eight: Vec<Vec<f64>> = [7.0, 0.1, 5.0, 6.0, 4.0, 9.0, 8.0, 4.5]
            .iter()
            .map(|&v| vec![v])
            .collect();
        assert_eq!(low_of_passes(&eight), vec![4.0]);
    }

    #[test]
    fn rate_counts_each_chunk_with_its_low_pass() {
        // Two chunks, three passes: 0.5 s + 0.25 s for 300 ops.
        let passes = vec![vec![1.0, 0.25], vec![0.5, 0.5], vec![0.75, 1.0]];
        assert_eq!(rate_of_low_chunks(300, &passes), 400.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) = [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }
}
