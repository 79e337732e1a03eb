//! Page → slot numbering for a trace pass.

use ccnuma_types::{FxHashMap, VirtPage};
use std::collections::hash_map::Entry;

/// Pages numbered below this are slotted through a directly indexed
/// table, so its memory never exceeds 4 MiB of `u32`s. A workload's
/// `PageSpace` hands out pages densely from 0, so every page of a
/// captured trace lands here; a page at or above the cap (a foreign or
/// synthetic trace) goes to a hashed overflow, so a trace holding page
/// 2^40 allocates in proportion to its distinct pages.
const DENSE_PAGES: u64 = 1 << 20;

/// Hands each distinct page the next dense slot — 0, 1, 2, … in order
/// of first sight — so per-page state can live in plain vectors indexed
/// by slot, whatever the page numbers.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageSlots {
    /// `slot + 1` of each page below [`DENSE_PAGES`], by page number
    /// (0: not seen yet). Grows on demand to cover the largest page seen.
    dense: Vec<u32>,
    /// Slots of pages at or above [`DENSE_PAGES`].
    sparse: FxHashMap<VirtPage, u32>,
    /// Slots handed out so far.
    len: u32,
}

impl PageSlots {
    /// `page`'s slot, handing out the next one at first sight; the flag
    /// is `true` when the slot is new.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` distinct pages.
    #[inline]
    pub(crate) fn slot(&mut self, page: VirtPage) -> (usize, bool) {
        if page.0 >= DENSE_PAGES {
            return match self.sparse.entry(page) {
                Entry::Occupied(e) => (*e.get() as usize, false),
                Entry::Vacant(e) => (*e.insert(next(&mut self.len)) as usize, true),
            };
        }
        let i = page.0 as usize;
        if i >= self.dense.len() {
            let grown = (i + 1).next_power_of_two().min(DENSE_PAGES as usize);
            self.dense.resize(grown, 0);
        }
        match self.dense[i] {
            0 => {
                let slot = next(&mut self.len);
                self.dense[i] = slot + 1;
                (slot as usize, true)
            }
            tagged => (tagged as usize - 1, false),
        }
    }
}

/// Takes the next slot from the counter `len`.
fn next(len: &mut u32) -> u32 {
    let slot = *len;
    assert!(slot < u32::MAX - 1, "distinct pages fit in u32");
    *len += 1;
    slot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_in_first_sight_order_across_both_tables() {
        let mut s = PageSlots::default();
        let pages = [7, 1 << 40, 0, 7, DENSE_PAGES, DENSE_PAGES - 1, 1 << 40, 0];
        let got: Vec<(usize, bool)> = pages.iter().map(|&p| s.slot(VirtPage(p))).collect();
        assert_eq!(
            got,
            [
                (0, true),
                (1, true),
                (2, true),
                (0, false),
                (3, true),
                (4, true),
                (1, false),
                (2, false)
            ]
        );
        assert_eq!(s.dense.len(), DENSE_PAGES as usize);
        assert_eq!(s.sparse.len(), 2);
    }

    #[test]
    fn sparse_pages_never_grow_the_dense_table() {
        let mut s = PageSlots::default();
        for i in 0..1000u64 {
            assert_eq!(s.slot(VirtPage((1 << 40) + i * 7919)), (i as usize, true));
        }
        assert!(s.dense.is_empty());
        s.slot(VirtPage(5));
        assert_eq!(s.dense.len(), 8, "grows to the next power of two");
    }
}
