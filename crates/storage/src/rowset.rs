//! Result sets that stay columnar until someone reads a row.
//!
//! A [`RowSet`] is what a statement hands its caller. It comes in two
//! forms behind one cheap-to-clone handle:
//!
//! * **owned** — the tuples themselves, shared (`From<Vec<Tuple>>`):
//!   what SQL, DML and point-read outcomes carry, and what the
//!   row-engine oracle of the merged scan returns;
//! * **view** — query *q* of one merged scan's [`RoutedRows`]: the
//!   scan's column chunks with the `(row, query)` pairs routed out of
//!   each, in scan order. No tuple exists until [`RowSet::tuples`] is
//!   first called on *any* query of that scan; that call decodes the
//!   whole scan in one sequential pass (the pattern of
//!   [`crate::PageFrame`]) and every other query, and every clone,
//!   reads the same decoded rows from then on.
//!
//! # A view is a snapshot
//!
//! A view holds the `Arc<DataChunk>` version it was cut from, so it
//! keeps reading the rows the scan saw — before or after it is first
//! decoded — whatever later `INSERT`/`UPDATE`/`DELETE` does to the
//! table. The price is the one [`crate::HeapTable`] already documents
//! for scan windows: the first mutation of a heap table while a view of
//! it is alive goes through [`Arc::make_mut`]'s copy of the columns (a
//! disk table rebuilds its columnar mirror on the next scan either
//! way). Drop result sets you no longer read before a write burst.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::column::DataChunk;
use crate::value::Tuple;

/// What a merged scan accumulates instead of rows: per column chunk it
/// saw, the `(row, query)` pairs it routed, in scan order.
/// [`RoutedRows::into_row_sets`] freezes it into one view per query.
#[derive(Debug, Default)]
pub struct RoutedRows {
    parts: Vec<Part>,
}

/// One column chunk and the matches routed out of it.
#[derive(Debug)]
struct Part {
    data: Arc<DataChunk>,
    /// `(row of data, query)`, rows ascending.
    matches: Vec<(u32, u32)>,
}

impl RoutedRows {
    /// The match list to append the next routed `(row, query)` pairs of
    /// `data` to. Consecutive windows of one chunk (a heap table's scan)
    /// share a list.
    pub fn matches_for(&mut self, data: &Arc<DataChunk>) -> &mut Vec<(u32, u32)> {
        let same_chunk = |p: &Part| Arc::ptr_eq(&p.data, data);
        if !self.parts.last().is_some_and(same_chunk) {
            self.parts.push(Part {
                data: Arc::clone(data),
                matches: Vec::new(),
            });
        }
        let last = self.parts.len() - 1;
        &mut self.parts[last].matches
    }

    /// Append what a later stretch of the same scan routed.
    pub fn append(&mut self, later: RoutedRows) {
        for part in later.parts {
            match self.parts.last_mut() {
                Some(last) if Arc::ptr_eq(&last.data, &part.data) => {
                    last.matches.extend(part.matches);
                }
                _ => self.parts.push(part),
            }
        }
    }

    /// One [`RowSet`] per query `0..queries`, all views of this scan.
    /// Panics if a match names a query or a row out of range.
    pub fn into_row_sets(self, queries: usize) -> Vec<RowSet> {
        let mut counts = vec![0usize; queries];
        for part in &self.parts {
            for &(row, query) in &part.matches {
                assert!((row as usize) < part.data.len(), "routed row out of range");
                counts[query as usize] += 1;
            }
        }
        let split = Arc::new(Split {
            parts: self.parts,
            counts,
            decoded: OnceLock::new(),
        });
        (0..queries)
            .map(|query| {
                RowSet(Repr::View {
                    split: Arc::clone(&split),
                    query,
                })
            })
            .collect()
    }
}

/// A frozen [`RoutedRows`]: what every view of one merged scan shares.
struct Split {
    parts: Vec<Part>,
    /// Rows routed to each query.
    counts: Vec<usize>,
    /// Every query's tuples, decoded together on first read.
    decoded: OnceLock<Vec<Vec<Tuple>>>,
}

impl Split {
    /// One pass over the scan's chunks in scan order — not one strided
    /// pass per query — building each routed row once.
    fn decoded(&self) -> &[Vec<Tuple>] {
        self.decoded.get_or_init(|| {
            let mut per_query: Vec<Vec<Tuple>> =
                self.counts.iter().map(|&n| Vec::with_capacity(n)).collect();
            for part in &self.parts {
                for &(row, query) in &part.matches {
                    per_query[query as usize].push(part.data.row(row as usize));
                }
            }
            per_query
        })
    }
}

/// A statement's result rows: shared, and — out of a merged scan — not
/// materialised until read. See the [module docs](self) for the two
/// forms and the snapshot rule.
///
/// [`RowSet::len`] and [`RowSet::is_empty`] never decode; everything
/// that hands out tuples ([`RowSet::tuples`], `Deref` to `[Tuple]`,
/// `==`, `Debug`) does, once per merged scan. `clone()` copies a
/// pointer.
#[derive(Clone)]
pub struct RowSet(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Arc<Vec<Tuple>>),
    View { split: Arc<Split>, query: usize },
}

impl RowSet {
    /// Number of rows; a view answers from its scan's routing counts.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Owned(rows) => rows.len(),
            Repr::View { split, query } => split.counts[*query],
        }
    }

    /// True when the set holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows as tuples, in scan order. The first call on any view of
    /// a merged scan decodes that scan's rows for all its queries.
    pub fn tuples(&self) -> &[Tuple] {
        match &self.0 {
            Repr::Owned(rows) => rows,
            Repr::View { split, query } => &split.decoded()[*query],
        }
    }

    /// True once the tuples exist in memory (always, for an owned set).
    pub fn is_decoded(&self) -> bool {
        match &self.0 {
            Repr::Owned(_) => true,
            Repr::View { split, .. } => split.decoded.get().is_some(),
        }
    }
}

impl From<Vec<Tuple>> for RowSet {
    fn from(rows: Vec<Tuple>) -> Self {
        RowSet(Repr::Owned(Arc::new(rows)))
    }
}

impl Deref for RowSet {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        self.tuples()
    }
}

impl fmt::Debug for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.tuples().fmt(f)
    }
}

impl PartialEq for RowSet {
    fn eq(&self, other: &RowSet) -> bool {
        self.len() == other.len() && self.tuples() == other.tuples()
    }
}

impl PartialEq<Vec<Tuple>> for RowSet {
    fn eq(&self, other: &Vec<Tuple>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<[Tuple]> for RowSet {
    fn eq(&self, other: &[Tuple]) -> bool {
        self.len() == other.len() && self.tuples() == other
    }
}

impl<const N: usize> PartialEq<[Tuple; N]> for RowSet {
    fn eq(&self, other: &[Tuple; N]) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Schema, Value};

    fn chunk(keys: &[i64]) -> Arc<DataChunk> {
        let schema = Schema::new(&[("k", ColumnType::Int), ("s", ColumnType::Str)]);
        let rows: Vec<Tuple> = keys.iter().map(|&k| row(k)).collect();
        Arc::new(DataChunk::from_rows(&schema, &rows))
    }

    fn row(k: i64) -> Tuple {
        vec![Value::Int(k), Value::str(format!("s{k}"))]
    }

    /// Three queries over two chunks: query 0 takes the even keys,
    /// query 1 nothing, query 2 the keys 3 and 4 (4 fans out to both).
    fn views() -> Vec<RowSet> {
        let (a, b) = (chunk(&[0, 1, 2, 3]), chunk(&[4, 5, 6]));
        let mut routed = RoutedRows::default();
        // Two windows of one chunk share a part.
        routed.matches_for(&a).push((0, 0));
        routed.matches_for(&a).extend([(2, 0), (3, 2)]);
        let mut later = RoutedRows::default();
        later.matches_for(&b).extend([(0, 0), (0, 2), (2, 0)]);
        routed.append(later);
        assert_eq!(routed.parts.len(), 2);
        routed.into_row_sets(3)
    }

    fn expected() -> [Vec<Tuple>; 3] {
        [
            vec![row(0), row(2), row(4), row(6)],
            vec![],
            vec![row(3), row(4)],
        ]
    }

    #[test]
    fn len_is_answered_without_decoding() {
        let v = views();
        assert_eq!(
            v.iter().map(RowSet::len).collect::<Vec<_>>(),
            expected().iter().map(Vec::len).collect::<Vec<_>>()
        );
        assert!(v[1].is_empty() && !v[0].is_empty());
        assert!(v.iter().all(|r| !r.is_decoded()));
    }

    #[test]
    fn one_decode_serves_every_query_and_every_clone() {
        let v = views();
        let early = v[0].clone();
        assert_eq!(v[2].tuples(), expected()[2]);
        // Decoding query 2 decoded the scan: clones made before and
        // after it read the very same rows.
        assert!(v[0].is_decoded() && early.is_decoded());
        let late = v[0].clone();
        assert_eq!(early.tuples(), expected()[0]);
        assert_eq!(early.as_ptr(), v[0].as_ptr());
        assert_eq!(late.as_ptr(), v[0].as_ptr());
        // An empty query in a non-empty scan.
        assert_eq!(v[1].tuples(), &[] as &[Tuple]);
        assert_eq!(v[1], RowSet::from(Vec::new()));
    }

    #[test]
    fn views_and_owned_sets_compare_by_rows() {
        let v = views();
        for (view, want) in v.iter().zip(expected()) {
            let owned = RowSet::from(want.clone());
            assert!(owned.is_decoded());
            assert_eq!(*view, owned);
            assert_eq!(owned, *view);
            assert_eq!(*view, want);
            assert_eq!(format!("{view:?}"), format!("{want:?}"));
            assert!(view.iter().eq(&want));
        }
        assert_eq!(v[2], [row(3), row(4)]);
        assert_ne!(v[2], [row(3)]);
        assert_ne!(v[2], [row(4), row(3)]);
        assert_ne!(v[0], v[2]);
        assert_ne!(v[0], RowSet::from(vec![row(0), row(2), row(4), row(5)]));
    }

    #[test]
    fn a_view_outlives_the_table_version_it_was_cut_from() {
        let mut table = chunk(&[7, 8]);
        let mut routed = RoutedRows::default();
        routed.matches_for(&table).extend([(0, 0), (1, 0)]);
        let view = routed.into_row_sets(1).remove(0);
        // The writer copies (a reader holds the old version) …
        Arc::make_mut(&mut table).set_row(0, &row(70));
        assert_eq!(table.row(0), row(70));
        // … and the view, first decoded only now, reads what it scanned.
        assert_eq!(view, [row(7), row(8)]);
    }

    #[test]
    #[should_panic(expected = "routed row out of range")]
    fn a_match_beyond_its_chunk_is_refused() {
        let mut routed = RoutedRows::default();
        routed.matches_for(&chunk(&[1])).push((1, 0));
        routed.into_row_sets(1);
    }

    #[test]
    fn row_sets_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RowSet>();
    }
}
