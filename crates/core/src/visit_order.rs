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

/// Computes the visit permutation for a query, or `None` for storage
/// order. `means` is required by the mean-based criteria; when absent
/// those fall back to `Decreasing` semantics on the query alone.
///
/// # Panics
/// Panics if a score is NaN (a NaN in the query or the means).
pub fn dimension_permutation(
    order: VisitOrder,
    query: &[f32],
    means: Option<&[f32]>,
) -> Option<Vec<u32>> {
    let d = query.len();
    let score = |i: usize| -> f32 {
        match means {
            Some(m) => (query[i] - m[i]).abs(),
            None => query[i],
        }
    };
    match order {
        VisitOrder::Sequential => None,
        VisitOrder::Decreasing => Some(argsort_descending(query.iter().copied())),
        VisitOrder::DistanceToMeans => Some(argsort_descending((0..d).map(score))),
        VisitOrder::DimensionZones { zone_size } => {
            let zone_size = zone_size.max(1);
            let n_zones = d.div_ceil(zone_size);
            if n_zones <= 1 {
                return None;
            }
            let zone = |z: u32| {
                let lo = z as usize * zone_size;
                lo..(lo + zone_size).min(d)
            };
            let zones = argsort_descending((0..n_zones as u32).map(|z| {
                let dims = zone(z);
                let len = dims.len();
                dims.map(score).sum::<f32>() / len as f32
            }));
            let mut perm = Vec::with_capacity(d);
            for z in zones {
                perm.extend(zone(z).map(|i| i as u32));
            }
            Some(perm)
        }
    }
}

/// Indices of `scores`, highest score first, equal scores by ascending
/// index. Every score is read once into an integer key that orders like
/// the float (`-0.0` as `0.0`, as `partial_cmp` has it) with the index
/// in the low bits, so the sort compares plain `u64`s.
fn argsort_descending(scores: impl Iterator<Item = f32>) -> Vec<u32> {
    let mut keys: Vec<u64> = scores
        .enumerate()
        .map(|(i, score)| {
            assert!(!score.is_nan(), "NaN score");
            let bits = (score + 0.0).to_bits();
            // Ascending float order as ascending unsigned order, then
            // inverted: the highest score sorts first.
            let ascending = if bits >> 31 == 1 {
                !bits
            } else {
                bits | 1 << 31
            };
            (u64::from(!ascending) << 32) | i as u64
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|key| key as u32).collect()
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

    /// Values from a small grid, so equal scores, zeros of both signs
    /// and negative query values are all common.
    fn gridded(len: usize, infinities: bool) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(0usize..11, len).prop_map(move |picks| {
            picks
                .into_iter()
                .map(|pick| match pick {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::MIN_POSITIVE / 2.0,
                    // `inf − inf` is the NaN both forms reject: queries
                    // may be infinite, means stay finite.
                    3 if infinities => f32::INFINITY,
                    v => (v as f32 - 7.0) * 0.5,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sorting precomputed keys gives exactly the permutation of the
        /// comparator that recomputes scores, for every order, with and
        /// without means.
        #[test]
        fn key_sort_equals_the_comparator_oracle(
            (query, means) in (1usize..70).prop_flat_map(|d| (gridded(d, true), gridded(d, false))),
        ) {
            for order in ALL_ORDERS {
                for means in [None, Some(&means[..])] {
                    prop_assert!(
                        dimension_permutation(order, &query, means)
                            == dimension_permutation_oracle(order, &query, means),
                        "{:?}, means given: {}", order, means.is_some()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_query_is_rejected() {
        dimension_permutation(VisitOrder::Decreasing, &[1.0, f32::NAN], None);
    }

    #[test]
    fn sequential_is_none() {
        assert!(dimension_permutation(VisitOrder::Sequential, &[1.0, 2.0], None).is_none());
    }

    #[test]
    fn decreasing_sorts_by_query_value() {
        let perm =
            dimension_permutation(VisitOrder::Decreasing, &[0.5, 3.0, -1.0, 2.0], None).unwrap();
        assert_eq!(perm, vec![1, 3, 0, 2]);
    }

    #[test]
    fn distance_to_means_uses_means() {
        let q = [1.0, 1.0, 1.0];
        let means = [1.0, 5.0, -2.0];
        // |q-m| = [0, 4, 3] → order 1, 2, 0.
        let perm = dimension_permutation(VisitOrder::DistanceToMeans, &q, Some(&means)).unwrap();
        assert_eq!(perm, vec![1, 2, 0]);
    }

    #[test]
    fn zones_keep_internal_storage_order() {
        let q = [0.0, 0.0, 9.0, 9.0, 1.0, 1.0];
        let means = [0.0; 6];
        let perm = dimension_permutation(
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
        assert!(
            dimension_permutation(VisitOrder::DimensionZones { zone_size: 10 }, &q, None).is_none()
        );
    }

    #[test]
    fn partial_final_zone_is_handled() {
        let q = [0.0, 0.0, 0.0, 7.0, 7.0];
        let means = [0.0; 5];
        let perm = dimension_permutation(
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
            let perm = dimension_permutation(order, &q, Some(&means)).unwrap();
            assert!(is_valid_permutation(&perm, 33), "{order:?}");
        }
    }
}
