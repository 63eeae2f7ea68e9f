//! The integer row of the LP kernel: one sparse representation.
//!
//! The strict homogeneous systems of Theorem 4.1 are mostly zeros: a row
//! `e − e_i` touches only the unknowns appearing in two monomials, and the
//! phase-1 simplex tableau built from it adds one surplus coefficient to
//! each row (artificial columns are folded into the surplus columns) — a
//! handful of non-zeros in a tableau whose width grows with the row count. Measured on the benchmark
//! workloads, those tableaus never come close to filling in, so [`IntRow`]
//! stores exactly the non-zero entries, sorted by column, and nothing else:
//! zero-skipping comes from the representation instead of per-loop checks.
//!
//! The fraction-free [`bareiss`](crate::bareiss) kernel pivots over these
//! rows; every intermediate value stays an integer and division happens once
//! per row, exactly.

use core::fmt;

use dioph_arith::Integer;

/// A sparse integer coefficient row over `dim` columns: strictly increasing
/// column indices, no stored zeros. The default is the empty row over zero
/// columns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntRow {
    dim: usize,
    entries: Vec<(usize, Integer)>,
}

impl IntRow {
    /// Builds a row over `dim` columns from its non-zero (column, value)
    /// entries.
    ///
    /// # Panics
    /// Panics if the entries are not strictly increasing by column, mention a
    /// column `>= dim`, or contain an explicit zero.
    pub fn new(dim: usize, entries: Vec<(usize, Integer)>) -> Self {
        let mut prev: Option<usize> = None;
        for (col, value) in &entries {
            assert!(*col < dim, "sparse entry column {col} out of bounds for dimension {dim}");
            assert!(prev.is_none_or(|p| p < *col), "sparse entries must be strictly increasing");
            assert!(!value.is_zero(), "sparse rows must not store zeros");
            prev = Some(*col);
        }
        IntRow { dim, entries }
    }

    /// Builds a row from dense coefficients, keeping only the non-zeros.
    pub fn from_dense(coeffs: &[Integer]) -> Self {
        let entries = coeffs
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        IntRow { dim: coeffs.len(), entries }
    }

    /// Number of columns.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The non-zero entries, in strictly increasing column order.
    pub fn entries(&self) -> &[(usize, Integer)] {
        &self.entries
    }

    /// The coefficient at `col`; `None` means zero.
    pub fn get(&self, col: usize) -> Option<&Integer> {
        self.entries.binary_search_by_key(&col, |(c, _)| *c).ok().map(|idx| &self.entries[idx].1)
    }

    /// Removes and returns the coefficient at `col` (zero if absent).
    pub fn take(&mut self, col: usize) -> Integer {
        match self.entries.binary_search_by_key(&col, |(c, _)| *c) {
            Ok(idx) => self.entries.remove(idx).1,
            Err(_) => Integer::zero(),
        }
    }

    /// Tears the row down into its entry storage (for recycling).
    pub(crate) fn into_entries(self) -> Vec<(usize, Integer)> {
        self.entries
    }

    /// Divides every entry by `divisor`, which must divide each of them
    /// (the kernel's gcd normalisation); quotients of non-zeros stay
    /// non-zero, so the row keeps its invariants.
    pub(crate) fn exact_div_assign(&mut self, divisor: &Integer) {
        for (_, value) in &mut self.entries {
            let taken = core::mem::take(value);
            *value = taken.exact_div(divisor);
        }
    }

    /// [`Self::exact_div_assign`] on machine words, for the word path of the
    /// kernel's gcd normalisation: every entry must be an inline `i64` that
    /// the positive `divisor` divides.
    pub(crate) fn exact_div_word_assign(&mut self, divisor: i64) {
        for (_, value) in &mut self.entries {
            let word = value.to_i64().expect("the word path divides inline entries only");
            *value = Integer::from(word / divisor);
        }
    }

    /// `true` iff every coefficient is zero.
    pub(crate) fn is_zero_row(&self) -> bool {
        self.entries.is_empty()
    }

    /// A dense copy of the coefficients (used by displays and tests).
    pub fn to_dense_vec(&self) -> Vec<Integer> {
        let mut out = vec![Integer::zero(); self.dim]; // alloc-ok: dense copy for displays
        for (col, value) in &self.entries {
            out[*col] = value.clone();
        }
        out
    }

    /// The fraction-free elimination step of the Bareiss kernel:
    /// `self ← pivot·self − factor·src`, skipping the column `skip` (the
    /// pivot column, whose coefficient the caller already removed with
    /// [`Self::take`]). Exact zeros produced by cancellation are dropped.
    ///
    /// The sorted two-stream merge writes into `spare` and moves the result
    /// back into the row's own entry storage, leaving `spare` empty. Each
    /// buffer therefore stays with its row, so a pivot loop replayed over
    /// the same rows and the same `spare` allocates nothing once every
    /// buffer has grown to the size its own run needs.
    pub fn eliminate_fraction_free(
        &mut self,
        pivot: &Integer,
        factor: &Integer,
        src: &IntRow,
        skip: usize,
        spare: &mut Vec<(usize, Integer)>,
    ) {
        spare.clear();
        spare.reserve(self.entries.len() + src.entries.len());
        let mut it = self.entries.iter().peekable();
        let mut is = src.entries.iter().filter(|&&(col, _)| col != skip).peekable();
        loop {
            let (col, value) = match (it.peek(), is.peek()) {
                (None, None) => break,
                (Some(&&(ct, ref vt)), Some(&&(cs, ref vs))) if ct == cs => {
                    let value = &(vt * pivot) - &(factor * vs);
                    it.next();
                    is.next();
                    (ct, value)
                }
                (Some(&&(ct, ref vt)), Some(&&(cs, _))) if ct < cs => {
                    it.next();
                    (ct, vt * pivot)
                }
                (_, Some(&&(cs, ref vs))) => {
                    is.next();
                    (cs, -(factor * vs))
                }
                (Some(&&(ct, ref vt)), None) => {
                    it.next();
                    (ct, vt * pivot)
                }
            };
            if !value.is_zero() {
                spare.push((col, value));
            }
        }
        self.entries.clear();
        self.entries.append(spare);
    }
}

impl fmt::Display for IntRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (col, value) in &self.entries {
            if first {
                write!(f, "{value}*x{col}")?;
                first = false;
            } else if value.is_negative() {
                write!(f, " - {}*x{col}", -value.clone())?;
            } else {
                write!(f, " + {value}*x{col}")?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Integer {
        Integer::from(v)
    }

    fn row(vals: &[i64]) -> IntRow {
        IntRow::from_dense(&vals.iter().map(|&v| i(v)).collect::<Vec<_>>())
    }

    #[test]
    fn accessors_read_the_stored_entries() {
        let r = row(&[0, 4, 0, -6]);
        assert_eq!(r, IntRow::new(4, vec![(1, i(4)), (3, i(-6))]));
        assert_eq!(r.dim(), 4);
        assert_eq!(r.entries(), &[(1, i(4)), (3, i(-6))]);
        for (col, expect) in [None, Some(i(4)), None, Some(i(-6))].into_iter().enumerate() {
            assert_eq!(r.get(col), expect.as_ref(), "column {col}");
        }
        assert_eq!(r.to_dense_vec(), vec![i(0), i(4), i(0), i(-6)]);
        assert!(!r.is_zero_row());
        assert!(row(&[0, 0]).is_zero_row());
    }

    #[test]
    fn take_zeroes_the_column() {
        let mut r = row(&[0, 5, 0, 7]);
        assert_eq!(r.take(1), i(5));
        assert_eq!(r.get(1), None);
        assert_eq!(r.take(0), i(0));
        assert_eq!(r.entries(), &[(3, i(7))]);
    }

    fn eliminate(target: &mut IntRow, pivot: i64, factor: i64, src: &IntRow, skip: usize) {
        let mut spare = Vec::new();
        target.eliminate_fraction_free(&i(pivot), &i(factor), src, skip, &mut spare);
    }

    #[test]
    fn eliminate_matches_dense_reference() {
        // target ← 3·target − 2·src, with src's column 0 skipped.
        let target_vals = [3i64, 0, 5, -1, 0, 2, 0, 0];
        let src_vals = [7i64, 1, 0, -1, 4, 2, 0, 0];
        let expect: Vec<Integer> = (0..8)
            .map(|c| i(3 * target_vals[c] - if c == 0 { 0 } else { 2 * src_vals[c] }))
            .collect();
        let mut t = row(&target_vals);
        eliminate(&mut t, 3, 2, &row(&src_vals), 0);
        assert_eq!(t.to_dense_vec(), expect);
    }

    #[test]
    fn eliminate_keeps_fill_in_and_drops_cancellation() {
        // Fill the row in completely, then cancel six of its eight entries:
        // storage tracks the non-zeros both ways.
        let mut r = row(&[1, 0, 0, 0, 0, 0, 0, 0]);
        eliminate(&mut r, 1, 1, &row(&[0, 1, 1, 1, 1, 1, 1, 1]), usize::MAX);
        assert_eq!(r, row(&[1, -1, -1, -1, -1, -1, -1, -1]));
        eliminate(&mut r, 1, -1, &row(&[0, 1, 1, 1, 1, 1, 1, 0]), usize::MAX);
        assert_eq!(r.entries(), &[(0, i(1)), (7, i(-1))]);
    }

    #[test]
    fn display_reads_like_a_constraint_lhs() {
        assert_eq!(row(&[2, 0, -3, 0]).to_string(), "2*x0 - 3*x2");
        assert_eq!(row(&[0, 4, 0, 6]).to_string(), "4*x1 + 6*x3");
        assert_eq!(row(&[0, 0, 0, 0]).to_string(), "0");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_sparse_entries_are_rejected() {
        let _ = IntRow::new(4, vec![(2, i(1)), (1, i(1))]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_columns_are_rejected() {
        let _ = IntRow::new(4, vec![(1, i(1)), (1, i(2)), (2, i(3))]);
    }

    #[test]
    #[should_panic(expected = "must not store zeros")]
    fn explicit_zero_entries_are_rejected() {
        let _ = IntRow::new(4, vec![(1, i(0))]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_columns_are_rejected() {
        let _ = IntRow::new(4, vec![(4, i(1))]);
    }
}
