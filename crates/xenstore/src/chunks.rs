//! Index-addressed tables shared copy-on-write across world forks.
//!
//! Every symbol- or slot-indexed table of a store (the node arena, the
//! symbol → slot map, the digest cache) and of a watch table (the
//! per-symbol watch lists) is a [`CowChunks`]. Cloning one bumps one
//! refcount per chunk instead of copying every entry, and a write
//! copies only the chunk it lands in (`Arc::make_mut`), so a world
//! forked from a template pays in memory for what it writes, not for
//! the template's size (DESIGN.md §6j).

use std::sync::Arc;

/// log2 of the entries per chunk. 64 keeps a chunk copy at a few KB:
/// small enough that a fork touching a handful of guests copies only a
/// handful of chunks.
pub(crate) const CHUNK_BITS: usize = 6;
/// Entries per chunk.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;

/// A growable table of `T` stored as fixed-size chunks shared
/// copy-on-write. An index that was never written reads as the table's
/// fill value, so reads never grow the table.
#[derive(Clone, Debug)]
pub(crate) struct CowChunks<T> {
    chunks: Vec<Arc<[T; CHUNK]>>,
    /// What every unwritten index reads as.
    fill: T,
}

impl<T: Clone + Default> Default for CowChunks<T> {
    fn default() -> Self {
        CowChunks::new(T::default())
    }
}

impl<T: Clone> CowChunks<T> {
    /// An empty table whose every index reads as `fill`.
    pub(crate) fn new(fill: T) -> CowChunks<T> {
        CowChunks {
            chunks: Vec::new(),
            fill,
        }
    }

    /// The entry at `idx`, or the fill value if it was never written.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> &T {
        self.chunks
            .get(idx >> CHUNK_BITS)
            .map_or(&self.fill, |c| &c[idx & (CHUNK - 1)])
    }

    /// The entry at `idx`, for writing: grows the table by whole chunks
    /// of fill values, then copies the chunk if a fork shares it. A
    /// caller that may not write checks [`CowChunks::get`] first, so a
    /// no-op never copies a shared chunk.
    #[inline]
    pub(crate) fn get_mut(&mut self, idx: usize) -> &mut T {
        let c = idx >> CHUNK_BITS;
        while self.chunks.len() <= c {
            let fresh = std::array::from_fn(|_| self.fill.clone());
            self.chunks.push(Arc::new(fresh));
        }
        &mut Arc::make_mut(&mut self.chunks[c])[idx & (CHUNK - 1)]
    }

    /// Resets every entry to the fill value.
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
    }

    /// True if both tables hold the chunk containing `idx` in the same
    /// allocation, i.e. neither has written it since they forked.
    #[cfg(test)]
    pub(crate) fn shares_chunk(&self, other: &CowChunks<T>, idx: usize) -> bool {
        match (self.chunks.get(idx >> CHUNK_BITS), other.chunks.get(idx >> CHUNK_BITS)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_indexes_read_as_the_fill_value() {
        let mut t = CowChunks::new(7u32);
        assert_eq!(*t.get(0), 7);
        assert_eq!(*t.get(10 * CHUNK), 7, "a read past the end does not grow");
        *t.get_mut(CHUNK + 3) = 1;
        assert_eq!(*t.get(CHUNK + 3), 1);
        // The rest of the grown chunks, and the one before, read as fill.
        assert_eq!(*t.get(0), 7);
        assert_eq!(*t.get(CHUNK + 2), 7);
        assert_eq!(*t.get(2 * CHUNK - 1), 7);
        assert_eq!(*t.get(2 * CHUNK), 7);
        t.clear();
        for idx in [0, CHUNK + 3, 2 * CHUNK] {
            assert_eq!(*t.get(idx), 7, "index {idx} after clear");
        }
        *t.get_mut(5) = 2;
        assert_eq!((*t.get(5), *t.get(CHUNK + 3)), (2, 7), "write after clear");
    }

    #[test]
    fn a_clone_shares_every_chunk_until_a_write_copies_its_own() {
        let mut a: CowChunks<Vec<u32>> = CowChunks::default();
        for c in 0..4 {
            a.get_mut(c * CHUNK).push(c as u32);
        }
        let mut b = a.clone();
        for c in 0..4 {
            assert!(a.shares_chunk(&b, c * CHUNK), "chunk {c} before any write");
        }
        b.get_mut(2 * CHUNK + 1).push(9);
        for c in 0..4 {
            assert_eq!(a.shares_chunk(&b, c * CHUNK), c != 2, "chunk {c} after the write");
        }
        assert!(a.get(2 * CHUNK + 1).is_empty(), "the original is untouched");
        assert_eq!(b.get(2 * CHUNK + 1), &[9]);
        assert_eq!(b.get(2 * CHUNK), &[2], "the copy keeps the chunk's other entries");
        // Reading never copies.
        let _ = b.get(CHUNK);
        assert!(a.shares_chunk(&b, CHUNK));
    }
}
