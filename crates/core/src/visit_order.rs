//! Query-aware dimension visit orders (§5, Figure 5).
//!
//! A pruner that relies on partial distances wants to visit the
//! dimensions that grow the distance fastest *for this query*. The paper
//! compares three criteria plus storage order:
//!
//! * **Decreasing** — BOND's original criterion: highest query value
//!   first. Only effective when query values are outliers w.r.t. the
//!   collection.
//! * **Distance to means** — dimensions whose block mean is farthest
//!   from the query value first; the highest pruning power.
//! * **Dimension zones** — ranks *zones* of consecutive dimensions by
//!   their aggregate distance-to-means, preserving sequential stretches
//!   inside each zone (the memory-friendly compromise used on small IVF
//!   blocks).
//!
//! Each order is an argsort of one score per dimension (or zone) by its
//! [`descending_key`]: a bitonic network in AVX-512 registers where the
//! resolved ISA has them, `sort_unstable` elsewhere
//! ([`kernels::argsort`](crate::kernels::argsort)).

use crate::kernels::argsort::{argsort_descending, descending_key, key_index, sort_keys};
use crate::kernels::KernelPolicy;

/// How PDX-BOND orders dimension visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitOrder {
    /// Storage order (maximally sequential, no query awareness).
    Sequential,
    /// BOND's criterion: highest query value first.
    Decreasing,
    /// Largest `|query − block mean|` first.
    DistanceToMeans,
    /// Zones of `zone_size` consecutive dims ranked by aggregate
    /// `|query − mean|`; dims inside a zone stay in storage order.
    DimensionZones {
        /// Consecutive dimensions per zone.
        zone_size: usize,
    },
}

/// Default zone width: long enough for hardware prefetching to engage,
/// short enough to retain most of the distance-to-means pruning power.
pub const DEFAULT_ZONE_SIZE: usize = 16;

/// Writes the visit permutation for a query into `perm`, or leaves
/// `perm` empty for storage order. `means` is required by the mean-based
/// criteria; when absent those fall back to `Decreasing` semantics on the
/// query alone. `keys` is the sort's buffer; `kernel` picks its path
/// ([`sort_keys`]), and every path writes the same permutation.
///
/// # Panics
/// Panics if a score is NaN (a NaN in the query or the means).
pub fn dimension_permutation(
    order: VisitOrder,
    query: &[f32],
    means: Option<&[f32]>,
    kernel: KernelPolicy,
    keys: &mut Vec<u64>,
    perm: &mut Vec<u32>,
) {
    perm.clear();
    let d = query.len();
    let score = |i: usize| -> f32 {
        match means {
            Some(m) => (query[i] - m[i]).abs(),
            None => query[i],
        }
    };
    let isa = kernel.resolve();
    match order {
        VisitOrder::Sequential => {}
        VisitOrder::Decreasing => argsort_descending(query, None, isa, keys, perm),
        VisitOrder::DistanceToMeans => argsort_descending(query, means, isa, keys, perm),
        VisitOrder::DimensionZones { zone_size } => {
            let zone_size = zone_size.max(1);
            let n_zones = d.div_ceil(zone_size);
            if n_zones <= 1 {
                return;
            }
            let zone = |z: u32| {
                let lo = z as usize * zone_size;
                lo..(lo + zone_size).min(d)
            };
            keys.clear();
            keys.extend((0..n_zones as u32).map(|z| {
                let dims = zone(z);
                let len = dims.len();
                descending_key(z as usize, dims.map(score).sum::<f32>() / len as f32)
            }));
            sort_keys(keys, isa);
            for &key in keys.iter() {
                perm.extend(zone(key_index(key)).map(|i| i as u32));
            }
        }
    }
}

/// Checks that a permutation covers every dimension exactly once
/// (debug/test helper).
pub fn is_valid_permutation(perm: &[u32], dims: usize) -> bool {
    if perm.len() != dims {
        return false;
    }
    let mut seen = vec![false; dims];
    for &p in perm {
        let p = p as usize;
        if p >= dims || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Every policy a scan may pass; `Simd` and `Auto` reach the
    /// network on an AVX-512 host.
    const POLICIES: [KernelPolicy; 3] =
        [KernelPolicy::Scalar, KernelPolicy::Simd, KernelPolicy::Auto];

    /// [`dimension_permutation`] on `kernel` into fresh buffers, `None`
    /// for storage order.
    fn permutation_on(
        kernel: KernelPolicy,
        order: VisitOrder,
        query: &[f32],
        means: Option<&[f32]>,
    ) -> Option<Vec<u32>> {
        let mut perm = vec![u32::MAX];
        dimension_permutation(order, query, means, kernel, &mut Vec::new(), &mut perm);
        (!perm.is_empty()).then_some(perm)
    }

    fn permutation(order: VisitOrder, query: &[f32], means: Option<&[f32]>) -> Option<Vec<u32>> {
        permutation_on(KernelPolicy::Auto, order, query, means)
    }

    /// The comparator-based definition [`dimension_permutation`] must equal:
    /// scores recomputed inside `sort_by`, ties by dimension id.
    fn dimension_permutation_oracle(
        order: VisitOrder,
        query: &[f32],
        means: Option<&[f32]>,
    ) -> Option<Vec<u32>> {
        let d = query.len();
        match order {
            VisitOrder::Sequential => None,
            VisitOrder::Decreasing => {
                let mut perm: Vec<u32> = (0..d as u32).collect();
                perm.sort_by(|&a, &b| {
                    query[b as usize]
                        .partial_cmp(&query[a as usize])
                        .expect("NaN in query")
                        .then(a.cmp(&b))
                });
                Some(perm)
            }
            VisitOrder::DistanceToMeans => {
                let score = |i: usize| -> f32 {
                    match means {
                        Some(m) => (query[i] - m[i]).abs(),
                        None => query[i],
                    }
                };
                let mut perm: Vec<u32> = (0..d as u32).collect();
                perm.sort_by(|&a, &b| {
                    score(b as usize)
                        .partial_cmp(&score(a as usize))
                        .expect("NaN score")
                        .then(a.cmp(&b))
                });
                Some(perm)
            }
            VisitOrder::DimensionZones { zone_size } => {
                let zone_size = zone_size.max(1);
                let n_zones = d.div_ceil(zone_size);
                if n_zones <= 1 {
                    return None;
                }
                let score = |i: usize| -> f32 {
                    match means {
                        Some(m) => (query[i] - m[i]).abs(),
                        None => query[i],
                    }
                };
                let mut zones: Vec<(u32, f32)> = (0..n_zones as u32)
                    .map(|z| {
                        let lo = z as usize * zone_size;
                        let hi = (lo + zone_size).min(d);
                        let total: f32 = (lo..hi).map(score).sum();
                        (z, total / (hi - lo) as f32)
                    })
                    .collect();
                zones.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("NaN zone score")
                        .then(a.0.cmp(&b.0))
                });
                let mut perm = Vec::with_capacity(d);
                for (z, _) in zones {
                    let lo = z as usize * zone_size;
                    let hi = (lo + zone_size).min(d);
                    perm.extend((lo as u32)..(hi as u32));
                }
                Some(perm)
            }
        }
    }

    const ALL_ORDERS: [VisitOrder; 6] = [
        VisitOrder::Sequential,
        VisitOrder::Decreasing,
        VisitOrder::DistanceToMeans,
        VisitOrder::DimensionZones { zone_size: 1 },
        VisitOrder::DimensionZones { zone_size: 4 },
        VisitOrder::DimensionZones { zone_size: 16 },
    ];

    /// Values from a small grid, so equal scores, zeros of both signs,
    /// subnormals and negative query values are all common.
    /// A query's infinities take one sign per width (`+inf` at even
    /// widths, `−inf` at odd), so a zone never sums both into a NaN.
    fn gridded(len: usize, infinities: bool) -> impl Strategy<Value = Vec<f32>> {
        let inf = if len.is_multiple_of(2) {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
        proptest::collection::vec(0usize..13, len).prop_map(move |picks| {
            picks
                .into_iter()
                .map(|pick| match pick {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::MIN_POSITIVE / 2.0,
                    3 => -f32::MIN_POSITIVE / 4.0,
                    // `inf − inf` is the NaN both forms reject: queries
                    // may be infinite, means stay finite.
                    4 | 5 if infinities => inf,
                    v => (v as f32 - 8.0) * 0.5,
                })
                .collect()
        })
    }

    /// The widths around a register, a power of two, the 128-key block
    /// and the memory merge, and the gist-like width.
    const WIDTHS: [usize; 10] = [1, 2, 7, 8, 9, 127, 128, 129, 960, 1024];

    /// Every policy writes the oracle's permutation, for every order,
    /// with and without means.
    fn check_against_oracle(query: &[f32], means: &[f32]) -> Result<(), TestCaseError> {
        for order in ALL_ORDERS {
            for means in [None, Some(means)] {
                let want = dimension_permutation_oracle(order, query, means);
                for kernel in POLICIES {
                    prop_assert!(
                        permutation_on(kernel, order, query, means) == want,
                        "{:?} on {}, d {}, means given: {}",
                        order,
                        kernel.name(),
                        query.len(),
                        means.is_some()
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sorting precomputed keys gives exactly the permutation of the
        /// comparator that recomputes scores, for every order, with and
        /// without means, on every policy.
        #[test]
        fn key_sort_equals_the_comparator_oracle(
            (query, means) in (1usize..70).prop_flat_map(|d| (gridded(d, true), gridded(d, false))),
        ) {
            check_against_oracle(&query, &means)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The same at the network's edge widths.
        #[test]
        fn key_sort_equals_the_oracle_at_edge_widths(
            (query, means) in (0..WIDTHS.len())
                .prop_flat_map(|w| (gridded(WIDTHS[w], true), gridded(WIDTHS[w], false))),
        ) {
            check_against_oracle(&query, &means)?;
        }
    }

    /// All-equal scores sort by dimension id alone, at every edge width.
    #[test]
    fn equal_scores_keep_storage_order() {
        for d in WIDTHS {
            for value in [0.0, -0.0, 3.5, f32::INFINITY] {
                let query = vec![value; d];
                check_against_oracle(&query, &vec![0.0; d]).unwrap();
                let ascending: Vec<u32> = (0..d as u32).collect();
                let perm = permutation(VisitOrder::Decreasing, &query, None).unwrap();
                assert_eq!(perm, ascending, "d {d}, value {value}");
            }
        }
    }

    /// One permutation from every policy on the same scores (the
    /// network on an AVX-512 host, `sort_unstable` on the others).
    #[test]
    fn every_policy_writes_one_permutation() {
        for d in WIDTHS {
            let query: Vec<f32> = (0..d)
                .map(|i| ((i * 37) % 101) as f32 * 0.25 - 9.0)
                .collect();
            let means: Vec<f32> = (0..d).map(|i| ((i * 11) % 7) as f32).collect();
            for order in ALL_ORDERS {
                let perms: Vec<_> = POLICIES
                    .iter()
                    .map(|&k| permutation_on(k, order, &query, Some(&means)))
                    .collect();
                assert!(perms.iter().all(|p| *p == perms[0]), "{order:?}, d {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_query_is_rejected() {
        permutation(VisitOrder::Decreasing, &[1.0, f32::NAN], None);
    }

    /// A NaN score panics on every policy, wherever it sits.
    #[test]
    fn nan_score_panics_on_every_policy() {
        for kernel in POLICIES {
            for (d, at) in [(2, 1), (128, 0), (129, 128), (960, 500)] {
                let mut query = vec![1.0; d];
                query[at] = f32::NAN;
                for order in [VisitOrder::Decreasing, VisitOrder::DistanceToMeans] {
                    let caught =
                        std::panic::catch_unwind(|| permutation_on(kernel, order, &query, None));
                    let message = caught.expect_err("a NaN score must panic");
                    let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
                    assert_eq!(message, "NaN score", "{} {order:?}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn sequential_is_none() {
        assert!(permutation(VisitOrder::Sequential, &[1.0, 2.0], None).is_none());
    }

    #[test]
    fn decreasing_sorts_by_query_value() {
        let perm = permutation(VisitOrder::Decreasing, &[0.5, 3.0, -1.0, 2.0], None).unwrap();
        assert_eq!(perm, vec![1, 3, 0, 2]);
    }

    #[test]
    fn distance_to_means_uses_means() {
        let q = [1.0, 1.0, 1.0];
        let means = [1.0, 5.0, -2.0];
        // |q-m| = [0, 4, 3] → order 1, 2, 0.
        let perm = permutation(VisitOrder::DistanceToMeans, &q, Some(&means)).unwrap();
        assert_eq!(perm, vec![1, 2, 0]);
    }

    #[test]
    fn zones_keep_internal_storage_order() {
        let q = [0.0, 0.0, 9.0, 9.0, 1.0, 1.0];
        let means = [0.0; 6];
        let perm = permutation(
            VisitOrder::DimensionZones { zone_size: 2 },
            &q,
            Some(&means),
        )
        .unwrap();
        // Zone scores: z0=0, z1=9, z2=1 → visit z1, z2, z0; dims inside zones ascend.
        assert_eq!(perm, vec![2, 3, 4, 5, 0, 1]);
    }

    #[test]
    fn zone_of_whole_vector_is_sequential() {
        let q = [1.0, 2.0, 3.0];
        assert!(permutation(VisitOrder::DimensionZones { zone_size: 10 }, &q, None).is_none());
    }

    #[test]
    fn partial_final_zone_is_handled() {
        let q = [0.0, 0.0, 0.0, 7.0, 7.0];
        let means = [0.0; 5];
        let perm = permutation(
            VisitOrder::DimensionZones { zone_size: 3 },
            &q,
            Some(&means),
        )
        .unwrap();
        assert!(is_valid_permutation(&perm, 5));
        // Tail zone {3,4} has average 7 > zone {0,1,2} average 0.
        assert_eq!(&perm[..2], &[3, 4]);
    }

    #[test]
    fn all_orders_produce_valid_permutations() {
        let q: Vec<f32> = (0..33).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let means: Vec<f32> = (0..33).map(|i| (i % 5) as f32).collect();
        for order in [
            VisitOrder::Decreasing,
            VisitOrder::DistanceToMeans,
            VisitOrder::DimensionZones { zone_size: 4 },
            VisitOrder::DimensionZones { zone_size: 1 },
        ] {
            let perm = permutation(order, &q, Some(&means)).unwrap();
            assert!(is_valid_permutation(&perm, 33), "{order:?}");
        }
    }
}
