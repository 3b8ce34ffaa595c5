//! [`RowMask`]: the rows of one deployment a search must not return.

use std::ops::RangeInclusive;
use std::sync::Arc;

/// Rows per page, the unit of sharing between clones.
const PAGE_ROWS: u64 = 4096;
const PAGE_WORDS: usize = (PAGE_ROWS / 64) as usize;
type Page = [u64; PAGE_WORDS];

/// A set of row ids of one deployment (the ids its blocks carry): the
/// rows that are dead to a search. [`pdxearch`](crate::search::pdxearch)
/// drops them inside the scan, so they neither take a slot of the k-NN
/// heap nor loosen its threshold; a mutable collection keeps one per
/// sealed segment for its tombstoned rows.
///
/// A paged bitset. Pages without a row are absent and a clone shares
/// every page, so a holder that publishes a clone after each
/// [`insert`](RowMask::insert) copies the page table and at most one
/// 512-byte page, never the whole set.
#[derive(Debug, Clone, Default)]
pub struct RowMask {
    pages: Vec<Option<Arc<Page>>>,
    len: usize,
}

impl RowMask {
    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn page(&self, row: u64) -> Option<&Page> {
        self.pages.get((row / PAGE_ROWS) as usize)?.as_deref()
    }

    /// Whether `row` is in the set.
    pub fn contains(&self, row: u64) -> bool {
        self.page(row)
            .is_some_and(|page| page[(row % PAGE_ROWS / 64) as usize] >> (row % 64) & 1 == 1)
    }

    /// Adds `row`; returns whether it was new. Row ids are dense
    /// (`0..len` of a deployment): the page table grows to cover `row`.
    pub fn insert(&mut self, row: u64) -> bool {
        if self.contains(row) {
            return false;
        }
        let pi = (row / PAGE_ROWS) as usize;
        if self.pages.len() <= pi {
            self.pages.resize(pi + 1, None);
        }
        let page = self.pages[pi].get_or_insert_with(|| Arc::new([0; PAGE_WORDS]));
        Arc::make_mut(page)[(row % PAGE_ROWS / 64) as usize] |= 1 << (row % 64);
        self.len += 1;
        true
    }

    /// Whether any row of `span` is in the set. Reads the words the span
    /// covers in the pages that exist: 17 for 1 024 consecutive ids.
    pub fn any_in(&self, span: RangeInclusive<u64>) -> bool {
        let (lo, hi) = (*span.start(), *span.end());
        let first = (lo / PAGE_ROWS) as usize;
        let pages = self.pages.iter().enumerate().skip(first);
        pages
            .take_while(|&(pi, _)| pi as u64 * PAGE_ROWS <= hi)
            .filter_map(|(pi, page)| Some((pi as u64 * PAGE_ROWS, page.as_deref()?)))
            .any(|(base, page)| {
                let (a, b) = (lo.max(base) - base, hi.min(base + PAGE_ROWS - 1) - base);
                (a / 64..=b / 64).any(|w| {
                    let from = if w == a / 64 { a % 64 } else { 0 };
                    let to = if w == b / 64 { b % 64 } else { 63 };
                    page[w as usize] >> from << from << (63 - to) != 0
                })
            })
    }

    /// The rows of the set, ascending (one probe per row the page table
    /// covers).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.pages.len() as u64 * PAGE_ROWS).filter(|&row| self.contains(row))
    }
}

impl FromIterator<u64> for RowMask {
    fn from_iter<I: IntoIterator<Item = u64>>(rows: I) -> Self {
        let mut mask = RowMask::default();
        for row in rows {
            mask.insert(row);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_sorted_set() {
        let rows = [0u64, 63, 64, 4095, 4096, 9000, 70_000];
        let mask: RowMask = rows.iter().rev().copied().collect();
        assert_eq!(mask.len(), rows.len());
        assert_eq!(mask.iter().collect::<Vec<_>>(), rows);
        assert!(rows.iter().all(|&r| mask.contains(r)));
        assert!(!mask.contains(1) && !mask.contains(70_001) && !mask.contains(u64::MAX));
        let mut again = mask.clone();
        assert!(!again.insert(64), "a second insert is not new");
        assert!(again.insert(65));
        assert_eq!((mask.len(), again.len()), (rows.len(), rows.len() + 1));
        assert!(!mask.contains(65), "a clone's insert stays in the clone");
        assert!(RowMask::default().is_empty() && !mask.is_empty());
    }

    #[test]
    fn any_in_agrees_with_contains_on_every_span() {
        let mask: RowMask = [5u64, 64, 127, 4095, 4096, 12_300].into_iter().collect();
        let edges = [
            0u64, 4, 5, 6, 63, 64, 65, 126, 127, 128, 4094, 4095, 4096, 4097, 8191, 8192, 12_299,
            12_300, 12_301, 20_000, 999_999,
        ];
        for &lo in &edges {
            for &hi in edges.iter().filter(|&&hi| hi >= lo) {
                let want = mask.iter().any(|r| (lo..=hi).contains(&r));
                assert_eq!(mask.any_in(lo..=hi), want, "{lo}..={hi}");
            }
        }
        assert!(mask.any_in(12_300..=u64::MAX) && !mask.any_in(12_301..=u64::MAX));
        assert!(!RowMask::default().any_in(0..=u64::MAX));
    }
}
