//! Recycled scratch buffers for the LP kernel — the linalg layer of the
//! workspace's scratch-memory discipline.
//!
//! A phase-1 run of [`crate::bareiss`] needs a whole working set per call:
//! the tableau rows with their right-hand sides and basis, the map from
//! artificial variables to their rows, the maintained objective row, and a
//! merge output for every elimination. The final tableau and objective row
//! stay here after the run, and callers read their witness from them. On
//! the per-probe hot loop of the containment decider those calls happen
//! thousands of times per pair with near-identical shapes, so all of that
//! capacity is recyclable.
//!
//! [`LpScratch`] owns those buffers. [`RowPool`] recycles the entry vectors
//! that back [`IntRow`]s — tableau rows are torn back down into their entry
//! storage at the next reset instead of being dropped.
//!
//! Reuse is **capacity-only**: every buffer is cleared before use, so a
//! kernel run through a warmed scratch performs bit-identical arithmetic
//! (same pivot sequence, same witness) to a run through a fresh one. The
//! differential proptests in `tests/scratch_differential.rs` pin that.
//!
//! Observability: a [`RowPool`] miss (a request served by a fresh heap
//! allocation) bumps `alloc.scratch.spills`, and every return to the pool
//! records the pool's high-water mark in `alloc.pool.rows.hwm`.

use dioph_arith::Integer;

use crate::row::IntRow;

/// A pool of row entry vectors: spent rows are torn down into their
/// `Vec<(usize, Integer)>` storage and handed back out, cleared, with their
/// capacity intact.
#[derive(Debug, Default)]
pub struct RowPool {
    spare: Vec<Vec<(usize, Integer)>>,
}

impl RowPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an empty entry vector from the pool, allocating a fresh one
    /// (and counting an `alloc.scratch.spills`) only when the pool is dry.
    pub fn take(&mut self) -> Vec<(usize, Integer)> {
        match self.spare.pop() {
            Some(entries) => entries,
            None => {
                dioph_obs::registry::ALLOC_SCRATCH_SPILLS.incr();
                Vec::new()
            }
        }
    }

    /// Returns an entry vector's capacity to the pool.
    pub fn put(&mut self, mut entries: Vec<(usize, Integer)>) {
        entries.clear();
        self.spare.push(entries);
        dioph_obs::registry::ALLOC_POOL_ROWS_HWM.record_max(self.spare.len() as u64);
    }

    /// Tears a row down, reclaiming its entry storage.
    pub(crate) fn reclaim(&mut self, row: IntRow) {
        self.put(row.into_entries());
    }

    /// Number of entry vectors currently held.
    pub fn held(&self) -> usize {
        self.spare.len()
    }
}

/// One scratch per worker: the per-call working set of the phase-1 kernel,
/// with every buffer recycled across calls.
///
/// Its row pool ([`LpScratch::int_pool`]) is also the recycling home for
/// [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem) rows — the
/// MPI layer builds its systems from the same storage the kernel draws on.
#[derive(Debug, Default)]
pub struct LpScratch {
    /// The tableau rows, over the `x | s` columns only: each artificial
    /// column is its row's surplus column negated and is not stored. Row
    /// `i` represents `rows[i] / d_i`, where `d_i` is the row's own entry in
    /// its basic column, so no denominator is stored either.
    pub(crate) rows: Vec<IntRow>,
    /// The right-hand sides.
    pub(crate) rhs: Vec<Integer>,
    /// The current basis, one column index per row; artificial `j` has the
    /// index `n + m + j`, as in the full-width tableau.
    pub(crate) basis: Vec<usize>,
    /// The row each artificial variable was attached to, in increasing
    /// order: artificial `j` is read through the surplus column of row
    /// `art_row[j]`.
    pub(crate) art_row: Vec<usize>,
    /// The scaled phase-1 reduced-cost row `S` over the stored columns,
    /// eliminated along with the tableau on every pivot. After a run it
    /// holds the final prices: its surplus entries are the phase-1 duals
    /// times one positive scale.
    pub(crate) objective: IntRow,
    /// Output buffer of the elimination merge, empty between merges (the
    /// result moves back into the eliminated row's own storage).
    pub(crate) merge_buf: Vec<(usize, Integer)>,
    /// Recycled entry storage backing the rows above.
    pub(crate) pool: RowPool,
}

impl LpScratch {
    /// A cold scratch; buffers warm up over the first call and are recycled
    /// from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared integer entry pool, for callers that build
    /// [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem) rows out
    /// of recycled storage.
    pub fn int_pool(&mut self) -> &mut RowPool {
        &mut self.pool
    }

    /// Clears every buffer for a new kernel run, tearing the previous run's
    /// rows back down into the pool. Capacity is kept everywhere.
    pub(crate) fn reset(&mut self) {
        // Reclaimed last row first, so the next run's row `i` pops the entry
        // storage that row `i` grew to in this one.
        for row in self.rows.drain(..).rev() {
            self.pool.reclaim(row);
        }
        self.rhs.clear();
        self.basis.clear();
        self.art_row.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_round_trips_sparse_entry_storage() {
        let mut pool = RowPool::new();
        assert_eq!(pool.held(), 0);
        let mut entries = pool.take();
        entries.push((1, Integer::from(7)));
        let capacity = entries.capacity();
        let row = IntRow::new(4, entries);
        pool.reclaim(row);
        assert_eq!(pool.held(), 1);
        let recycled = pool.take();
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), capacity, "capacity must survive the round trip");
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn reset_reclaims_rows_and_staged_entries() {
        let mut scratch = LpScratch::default();
        scratch.rows.push(IntRow::new(4, vec![(0, Integer::one())]));
        scratch.rows.push(IntRow::new(4, vec![(2, Integer::from(5))]));
        scratch.rhs.push(Integer::one());
        scratch.basis.push(0);
        scratch.art_row.push(0);
        scratch.reset();
        assert!(scratch.rows.is_empty());
        assert!(scratch.rhs.is_empty());
        assert!(scratch.basis.is_empty());
        assert!(scratch.art_row.is_empty());
        assert_eq!(scratch.pool.held(), 2, "both entry vectors must be recycled");
    }
}
