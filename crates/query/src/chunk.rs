//! Execution chunks: a shared [`DataChunk`] window plus an optional
//! *selection vector*.
//!
//! Columnar operators pass [`Chunk`]s instead of `Vec<Tuple>` batches.
//! A chunk never copies column data on its way through a pipeline:
//! scans emit `Arc`-shared windows over a table's columns,
//! filters refine the selection vector (which rows are live) without
//! touching the data, and only projections / pipeline breakers build
//! new columns (a hash join keeps its build side as columns and
//! gathers its output from build and probe columns). Rows are
//! materialized back into `Tuple`s as late as possible — at the one
//! blocking operator that inherently needs rows (sort), and by a caller
//! that reads the rows of the view the top of the plan hands out
//! ([`crate::exec::execute_rows`]).

use std::ops::Range;
use std::sync::Arc;

use eco_storage::{DataChunk, EncodedChunk, Tuple};

/// A view over a run of rows: shared column data, a `[start, end)` row
/// window, and an optional selection vector of *absolute* row indices
/// into the data (always sorted ascending, always within the window).
/// `sel: None` means every row of the window is live.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The shared column data.
    pub data: Arc<DataChunk>,
    /// First live row (inclusive) when `sel` is `None`.
    pub start: usize,
    /// One-past-last live row when `sel` is `None`.
    pub end: usize,
    /// Optional selection: the live rows, ascending.
    pub sel: Option<Vec<u32>>,
    /// Encoded mirror of `data` (same rows, same indices), attached by
    /// scans under compressed pricing (ledger schema v3). Kernels that
    /// find a useful encoding here run directly on the compressed form
    /// (dictionary-id compares, run-at-a-time filtering/aggregation)
    /// and fall back to `data` otherwise. `None` under raw pricing —
    /// the raw path never looks at it.
    pub enc: Option<Arc<EncodedChunk>>,
}

/// The live rows of a [`Chunk`], for kernel loops.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// A dense window.
    Range(usize, usize),
    /// An explicit selection.
    Sel(&'a [u32]),
}

impl Rows<'_> {
    /// Number of live rows.
    pub fn len(&self) -> usize {
        match self {
            Rows::Range(s, e) => e - s,
            Rows::Sel(s) => s.len(),
        }
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Invoke `f(k, i)` for every live row: `k` is the ordinal within
    /// this row set (0-based), `i` the absolute row index into the
    /// chunk's data. Monomorphized per call site, so kernels pay no
    /// dispatch per row.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            Rows::Range(s, e) => {
                for (k, i) in (*s..*e).enumerate() {
                    f(k, i);
                }
            }
            Rows::Sel(sel) => {
                for (k, &i) in sel.iter().enumerate() {
                    f(k, i as usize);
                }
            }
        }
    }

    /// The absolute row index of ordinal `k`.
    #[inline]
    pub fn at(&self, k: usize) -> usize {
        match self {
            Rows::Range(s, _) => s + k,
            Rows::Sel(sel) => sel[k] as usize,
        }
    }

    /// Collect the absolute indices into a vector.
    pub(crate) fn to_indices(self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each(|_, i| v.push(i as u32));
        v
    }
}

impl Chunk {
    /// A chunk covering all of `data`.
    pub fn dense(data: Arc<DataChunk>) -> Self {
        let end = data.len();
        Self {
            data,
            start: 0,
            end,
            sel: None,
            enc: None,
        }
    }

    /// A chunk covering rows `[range.start, range.end)` of `data`.
    pub fn window(data: Arc<DataChunk>, range: Range<usize>) -> Self {
        debug_assert!(range.end <= data.len());
        Self {
            data,
            start: range.start,
            end: range.end,
            sel: None,
            enc: None,
        }
    }

    /// Attach an encoded mirror of the chunk's data (builder style).
    /// Row indices in the mirror must align with `data`.
    pub(crate) fn with_enc(mut self, enc: Arc<EncodedChunk>) -> Self {
        debug_assert_eq!(enc.rows(), self.data.len());
        self.enc = Some(enc);
        self
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.end - self.start,
        }
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live rows as a [`Rows`] view.
    pub fn rows(&self) -> Rows<'_> {
        match &self.sel {
            Some(s) => Rows::Sel(s),
            None => Rows::Range(self.start, self.end),
        }
    }

    /// Replace the selection (indices must be ascending and within the
    /// window; callers produce them by refining [`Chunk::rows`]).
    pub fn with_sel(mut self, sel: Vec<u32>) -> Self {
        self.sel = Some(sel);
        self
    }

    /// Materialize every live row into `out`, in row order — what a
    /// pipeline breaker that needs rows drains its child with.
    pub(crate) fn to_tuples(&self, out: &mut Vec<Tuple>) {
        out.reserve(self.len());
        self.rows().for_each(|_, i| out.push(self.data.row(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_storage::{ColumnType, Schema, Value};

    fn chunk() -> Arc<DataChunk> {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let rows: Vec<Tuple> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        Arc::new(DataChunk::from_rows(&schema, &rows))
    }

    #[test]
    fn dense_window_and_selection_lengths() {
        let data = chunk();
        assert_eq!(Chunk::dense(Arc::clone(&data)).len(), 10);
        let w = Chunk::window(Arc::clone(&data), 2..7);
        assert_eq!(w.len(), 5);
        assert_eq!(w.rows().to_indices(), vec![2, 3, 4, 5, 6]);
        let s = w.with_sel(vec![3, 6]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows().at(1), 6);
    }

    #[test]
    fn materializes_selected_rows_in_order() {
        let c = Chunk::dense(chunk()).with_sel(vec![1, 4, 9]);
        let mut out = Vec::new();
        c.to_tuples(&mut out);
        assert_eq!(
            out,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(4)],
                vec![Value::Int(9)],
            ]
        );
    }

    #[test]
    fn empty_selection_is_empty() {
        let c = Chunk::dense(chunk()).with_sel(vec![]);
        assert!(c.is_empty());
        let mut out = Vec::new();
        c.to_tuples(&mut out);
        assert!(out.is_empty());
    }
}
