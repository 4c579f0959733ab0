//! Tables: paged sequences of fixed-width rows for one predicate.

use crate::page::Page;
use soct_model::{Term, MAX_ARITY};

/// A table of packed-term rows.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    arity: usize,
    pages: Vec<Page>,
    rows: u64,
}

impl Table {
    /// Creates an empty table.
    ///
    /// Panics if `arity` exceeds [`MAX_ARITY`] — predicates admitted by
    /// `Schema::add_predicate` never do; this guards direct constructions
    /// that bypass a schema.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        assert!(
            arity <= MAX_ARITY,
            "arity {arity} exceeds MAX_ARITY ({MAX_ARITY}); \
             Schema::add_predicate enforces this limit"
        );
        Table {
            name: name.into(),
            arity,
            pages: Vec::new(),
            rows: 0,
        }
    }

    /// The relation name (for SQL rendering and persistence).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// True when the table has no rows (drives the catalog query).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of pages (I/O proxy for the benchmarks).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Appends a row of packed values.
    pub fn insert_packed(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.arity);
        if self.pages.last().is_none_or(Page::is_full) {
            self.pages.push(Page::new(self.arity));
        }
        self.pages.last_mut().unwrap().push_row(row);
        self.rows += 1;
    }

    /// Appends a row of terms.
    pub fn insert_terms(&mut self, terms: &[Term]) {
        // The buffer is safe by the MAX_ARITY contract checked in
        // `Table::new` (and, upstream, in `Schema::add_predicate`).
        debug_assert_eq!(terms.len(), self.arity);
        let mut row = [0u64; MAX_ARITY];
        for (i, t) in terms.iter().enumerate() {
            row[i] = t.pack();
        }
        self.insert_packed(&row[..terms.len()]);
    }

    /// Deletes the first row equal to `row` by swap-remove inside the page
    /// arena: the globally-last row overwrites the match, the tail slot is
    /// popped, and an emptied trailing page is released. Returns whether a
    /// matching row existed. Cost is the O(rows) equality scan; the removal
    /// itself is O(1) and row order is not preserved (the engine never
    /// promises positional stability — scans are set-semantics).
    pub fn delete_first_match(&mut self, row: &[u64]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let hit = self
            .pages
            .iter()
            .enumerate()
            .find_map(|(pi, page)| page.rows().position(|r| r == row).map(|ri| (pi, ri)));
        let Some((pi, ri)) = hit else {
            return false;
        };
        let last_pi = self.pages.len() - 1;
        let last_ri = self.pages[last_pi].len() - 1;
        if (pi, ri) != (last_pi, last_ri) {
            // Safe by the MAX_ARITY contract checked in `Table::new`.
            let mut last = [0u64; MAX_ARITY];
            last[..self.arity].copy_from_slice(self.pages[last_pi].row(last_ri));
            self.pages[pi].overwrite_row(ri, &last[..self.arity]);
        }
        self.pages[last_pi].pop_row();
        if self.pages[last_pi].is_empty() {
            self.pages.pop();
        }
        self.rows -= 1;
        true
    }

    /// Visits up to `limit` rows (`u64::MAX` = all) in order, handing the
    /// callback each row borrowed straight from its page; stops early when
    /// the callback returns `false`. Returns `false` if the callback
    /// stopped the scan. Generic over the callback, so a caller's
    /// predicate is inlined into the page loop.
    #[inline]
    pub fn for_each_row_limited(&self, limit: u64, mut f: impl FnMut(&[u64]) -> bool) -> bool {
        let mut remaining = limit;
        for page in &self.pages {
            if remaining == 0 {
                return true;
            }
            let take = (page.len() as u64).min(remaining);
            for row in page.rows().take(take as usize) {
                if !f(row) {
                    return false;
                }
            }
            remaining -= take;
        }
        true
    }

    /// Visits every row with early exit.
    pub fn for_each_row(&self, f: impl FnMut(&[u64]) -> bool) -> bool {
        self.for_each_row_limited(u64::MAX, f)
    }

    /// Copies row `i` (global index) into a fresh vector — the slow
    /// convenience path used by tests.
    pub fn row(&self, mut i: u64) -> Option<Vec<u64>> {
        if i >= self.rows {
            return None;
        }
        for page in &self.pages {
            if (i as usize) < page.len() {
                return Some(page.row(i as usize).to_vec());
            }
            i -= page.len() as u64;
        }
        None
    }

    /// The pages (for persistence).
    pub(crate) fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// Restores a table from persisted pages.
    pub(crate) fn from_pages(name: String, arity: usize, pages: Vec<Page>) -> Self {
        let rows = pages.iter().map(|p| p.len() as u64).sum();
        Table {
            name,
            arity,
            pages,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::ConstId;

    #[test]
    fn insert_and_scan() {
        let mut t = Table::new("r", 2);
        for i in 0..5000u64 {
            t.insert_packed(&[i, i * 2]);
        }
        assert_eq!(t.row_count(), 5000);
        assert!(t.page_count() > 1, "spills to multiple pages");
        let mut sum = 0u64;
        t.for_each_row(|row| {
            sum += row[1];
            true
        });
        assert_eq!(sum, (0..5000u64).map(|i| i * 2).sum());
    }

    #[test]
    fn limited_scan_sees_prefix() {
        let mut t = Table::new("r", 1);
        for i in 0..100u64 {
            t.insert_packed(&[i]);
        }
        let mut seen = Vec::new();
        t.for_each_row_limited(7, |row| {
            seen.push(row[0]);
            true
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn early_exit_scan() {
        let mut t = Table::new("r", 1);
        for i in 0..10 {
            t.insert_packed(&[i]);
        }
        let mut seen = 0;
        let complete = t.for_each_row(|row| {
            seen += 1;
            row[0] < 4
        });
        assert!(!complete);
        // Rows 0..=3 return true; row 4 returns false and stops the scan.
        assert_eq!(seen, 5);
    }

    #[test]
    fn term_round_trip() {
        let mut t = Table::new("r", 2);
        let a = Term::Const(ConstId(42));
        let b = Term::Const(ConstId(7));
        t.insert_terms(&[a, b]);
        let row = t.row(0).unwrap();
        assert_eq!(Term::unpack(row[0]), Some(a));
        assert_eq!(Term::unpack(row[1]), Some(b));
    }

    #[test]
    fn delete_swap_removes_across_pages() {
        let mut t = Table::new("r", 2);
        for i in 0..3000u64 {
            t.insert_packed(&[i, i + 1]);
        }
        let pages_before = t.page_count();
        assert!(t.delete_first_match(&[7, 8]));
        assert!(!t.delete_first_match(&[7, 8]), "already gone");
        assert_eq!(t.row_count(), 2999);
        // The multiset of surviving rows is exactly the original minus one.
        let mut firsts: Vec<u64> = Vec::new();
        t.for_each_row(|row| {
            firsts.push(row[0]);
            true
        });
        firsts.sort_unstable();
        let expect: Vec<u64> = (0..3000u64).filter(|&i| i != 7).collect();
        assert_eq!(firsts, expect);
        // Draining the tail releases emptied pages.
        for i in 2000..3000u64 {
            assert!(t.delete_first_match(&[i, i + 1]));
        }
        assert!(t.page_count() < pages_before);
        assert_eq!(t.row_count(), 1999);
    }

    #[test]
    fn delete_to_empty_and_reinsert() {
        let mut t = Table::new("r", 1);
        t.insert_packed(&[5]);
        assert!(t.delete_first_match(&[5]));
        assert!(t.is_empty());
        assert_eq!(t.page_count(), 0);
        assert!(!t.delete_first_match(&[5]));
        t.insert_packed(&[6]);
        assert_eq!(t.row(0).unwrap(), vec![6]);
    }

    #[test]
    fn random_access_across_pages() {
        let mut t = Table::new("r", 3);
        for i in 0..3000u64 {
            t.insert_packed(&[i, i, i]);
        }
        assert_eq!(t.row(0).unwrap()[0], 0);
        assert_eq!(t.row(2999).unwrap()[0], 2999);
        assert!(t.row(3000).is_none());
    }
}
