//! Fixed-size pages of fixed-width rows.
//!
//! The storage engine plays the role PostgreSQL plays in the paper (§6, §9):
//! it holds the generated databases and answers the three queries the
//! termination algorithms need (catalog listing, shape EXISTS queries, full
//! scans). Rows are tuples of packed terms ([`soct_model::Term::pack`]).
//!
//! A page stores its rows row-major in one `Vec<u64>` of at most
//! [`PAGE_SIZE`] bytes, allocated once at full capacity: row `i` is
//! `words[i * arity .. (i + 1) * arity]`. Scans borrow those slices
//! directly ([`Page::row`], [`Page::rows`]), so a scan never copies or
//! decodes a row. Only persistence sees bytes: [`Page::write_le`] and
//! [`Page::from_le_bytes`] convert to and from the little-endian image
//! the `persist` format has always stored.

/// Page capacity in bytes.
pub const PAGE_SIZE: usize = 8192;

/// One page: complete rows of a single table, as packed-term words.
#[derive(Debug, Clone)]
pub struct Page {
    words: Vec<u64>,
    arity: usize,
}

impl Page {
    /// Creates an empty page for rows of `arity` columns.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0 && arity * 8 <= PAGE_SIZE, "arity out of range");
        Page {
            words: Vec::with_capacity(Self::capacity_words(arity)),
            arity,
        }
    }

    /// Words a full page of `arity`-column rows holds.
    fn capacity_words(arity: usize) -> usize {
        PAGE_SIZE / (arity * 8) * arity
    }

    /// Rows a page of this row width can hold.
    #[inline]
    pub fn capacity_rows(&self) -> usize {
        PAGE_SIZE / (self.arity * 8)
    }

    /// Rows currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() / self.arity
    }

    /// True when no row fits anymore.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.words.len() >= Self::capacity_words(self.arity)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Appends a row of packed terms. Panics if full or width mismatch.
    pub fn push_row(&mut self, row: &[u64]) {
        assert!(!self.is_full(), "page overflow");
        assert_eq!(row.len(), self.arity, "row width mismatch");
        self.words.extend_from_slice(row);
    }

    /// Row `i`, borrowed from the page.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.arity..(i + 1) * self.arity]
    }

    /// The stored rows in order, borrowed from the page.
    #[inline]
    pub fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.arity)
    }

    /// Overwrites row `i` in place (same width). Panics on out-of-range.
    pub fn overwrite_row(&mut self, i: usize, row: &[u64]) {
        assert!(i < self.len(), "row index out of range");
        assert_eq!(row.len(), self.arity, "row width mismatch");
        self.words[i * self.arity..(i + 1) * self.arity].copy_from_slice(row);
    }

    /// Removes the last row (the O(1) half of a table-level swap-remove).
    /// Panics if empty.
    pub fn pop_row(&mut self) {
        assert!(!self.is_empty(), "pop from empty page");
        self.words.truncate(self.words.len() - self.arity);
    }

    /// Size of the page's persisted image in bytes.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 8
    }

    /// Appends the page's persisted image: every word little-endian, rows
    /// in order.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        out.reserve(self.byte_len());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Rebuilds a page from its persisted image (for persistence). The
    /// page keeps room for a full page of rows, so a restored tail page
    /// takes later inserts without reallocating.
    pub fn from_le_bytes(arity: usize, data: &[u8]) -> Self {
        assert!(arity > 0, "arity out of range");
        assert_eq!(data.len() % (arity * 8), 0, "corrupt page");
        let mut words = Vec::with_capacity((data.len() / 8).max(Self::capacity_words(arity)));
        words.extend(
            data.chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
        );
        Page { words, arity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_round_trip() {
        let mut p = Page::new(3);
        p.push_row(&[1, 2, 3]);
        p.push_row(&[4, 5, 6]);
        assert_eq!(p.row(0), [1, 2, 3]);
        assert_eq!(p.row(1), [4, 5, 6]);
        assert_eq!(p.len(), 2);
        let rows: Vec<&[u64]> = p.rows().collect();
        assert_eq!(rows, [&[1, 2, 3][..], &[4, 5, 6][..]]);
    }

    #[test]
    fn capacity_math() {
        let p = Page::new(1);
        assert_eq!(p.capacity_rows(), PAGE_SIZE / 8);
        let p5 = Page::new(5);
        assert_eq!(p5.capacity_rows(), PAGE_SIZE / 40);
    }

    #[test]
    fn fills_up_exactly() {
        let mut p = Page::new(4);
        let cap = p.capacity_rows();
        for i in 0..cap {
            p.push_row(&[i as u64; 4]);
        }
        assert!(p.is_full());
        assert_eq!(p.row(cap - 1)[0], (cap - 1) as u64);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn overflow_panics() {
        let mut p = Page::new(1024); // 8192-byte rows: exactly one per page
        p.push_row(&vec![0u64; 1024]);
        p.push_row(&vec![0u64; 1024]);
    }

    #[test]
    fn overwrite_and_pop() {
        let mut p = Page::new(2);
        p.push_row(&[1, 2]);
        p.push_row(&[3, 4]);
        p.push_row(&[5, 6]);
        p.overwrite_row(0, &[5, 6]);
        p.pop_row();
        assert_eq!(p.len(), 2);
        assert_eq!(p.row(0), [5, 6]);
        assert_eq!(p.row(1), [3, 4]);
        // Popped space is reusable: the page accepts a fresh row again.
        p.push_row(&[7, 8]);
        assert_eq!(p.row(2), [7, 8]);
    }

    #[test]
    fn bytes_round_trip() {
        let mut p = Page::new(2);
        p.push_row(&[7, 8]);
        p.push_row(&[9, 0x0102_0304_0506_0708]);
        let mut image = Vec::new();
        p.write_le(&mut image);
        assert_eq!(image.len(), p.byte_len());
        // Little-endian words, rows in order.
        assert_eq!(&image[..8], &7u64.to_le_bytes());
        assert_eq!(&image[24..], &[8, 7, 6, 5, 4, 3, 2, 1]);
        let q = Page::from_le_bytes(2, &image);
        assert_eq!(q.len(), 2);
        assert_eq!(q.row(1), [9, 0x0102_0304_0506_0708]);
    }
}
