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
//!   reads the same decoded rows from then on. Comparing a view with
//!   tuples the caller already holds (`==`, [`RowSet::all_eq`]) is not
//!   a read: the routed cells are compared where they lie.
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

    /// Whether, for every query `q` with `expected[q]` given, the rows
    /// routed to `q` are exactly those tuples in that order — compared
    /// cell by cell in the scan's chunks, in one pass over the scan
    /// whatever the number of queries compared; no tuple is built.
    fn rows_eq(&self, expected: &[Option<&[Tuple]>]) -> bool {
        let lengths_agree = expected
            .iter()
            .zip(&self.counts)
            .all(|(want, &n)| want.is_none_or(|want| want.len() == n));
        if !lengths_agree {
            return false;
        }
        // Each compared query's expected rows not yet met by the scan.
        let mut rest = expected.to_vec();
        self.parts.iter().all(|part| {
            part.matches.iter().all(|&(row, query)| {
                let Some(want) = &mut rest[query as usize] else {
                    return true;
                };
                let Some((next, later)) = want.split_first() else {
                    return false;
                };
                *want = later;
                part.data.row_eq(row as usize, next)
            })
        })
    }
}

/// A statement's result rows: shared, and — out of a merged scan — not
/// materialised until read. See the [module docs](self) for the two
/// forms and the snapshot rule.
///
/// [`RowSet::len`] and [`RowSet::is_empty`] never decode, and neither
/// does comparing a view with tuples (`== [Tuple]`, `== Vec<Tuple>`,
/// [`RowSet::all_eq`]); everything that hands out tuples
/// ([`RowSet::tuples`], `Deref` to `[Tuple]`, `Debug`) does, once per
/// merged scan, and so does comparing two result sets. `clone()`
/// copies a pointer.
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

    /// The scan and query of a view whose rows are not decoded yet.
    fn undecoded_view(&self) -> Option<(&Arc<Split>, usize)> {
        match &self.0 {
            Repr::View { split, query } if split.decoded.get().is_none() => Some((split, *query)),
            _ => None,
        }
    }

    /// Whether `sets[i] == *expected[i]` for every `i` (and the two are
    /// equally many). Undecoded views of one merged scan — what
    /// [`RoutedRows::into_row_sets`] returns, or any part of it — are
    /// all checked in a single pass over that scan and stay undecoded.
    pub fn all_eq<R: AsRef<[Tuple]>>(sets: &[RowSet], expected: &[R]) -> bool {
        if sets.len() != expected.len() {
            return false;
        }
        let scan = sets.first().and_then(RowSet::undecoded_view).map(|v| v.0);
        let mut of_scan = vec![None; scan.map_or(0, |s| s.counts.len())];
        for (set, want) in sets.iter().zip(expected) {
            let want = want.as_ref();
            match (scan, set.undecoded_view()) {
                (Some(scan), Some((split, query)))
                    if Arc::ptr_eq(split, scan) && of_scan[query].is_none() =>
                {
                    of_scan[query] = Some(want);
                }
                // An owned or decoded set, another scan's view, or one
                // query a second time: compared on its own.
                _ if set != want => return false,
                _ => {}
            }
        }
        scan.is_none_or(|scan| scan.rows_eq(&of_scan))
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
        match self.undecoded_view() {
            Some((split, query)) => {
                let mut expected = vec![None; split.counts.len()];
                expected[query] = Some(other);
                split.rows_eq(&expected)
            }
            None => self.len() == other.len() && self.tuples() == other,
        }
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

    /// One column of every stored type, and a view of all of its rows.
    fn typed_view() -> (Vec<Tuple>, RowSet) {
        let schema = Schema::new(&[
            ("i", ColumnType::Int),
            ("s", ColumnType::Str),
            ("d", ColumnType::Date),
            ("c", ColumnType::Char),
        ]);
        let rows: Vec<Tuple> = (0..3)
            .map(|k| {
                vec![
                    Value::Int(k),
                    Value::str(format!("s{k}")),
                    Value::Date(k as i32 * 7),
                    Value::Char(char::from(b'a' + k as u8)),
                ]
            })
            .collect();
        let data = Arc::new(DataChunk::from_rows(&schema, &rows));
        let mut routed = RoutedRows::default();
        routed.matches_for(&data).extend([(0, 0), (1, 0), (2, 0)]);
        (rows, routed.into_row_sets(1).remove(0))
    }

    #[test]
    fn comparing_a_view_with_tuples_reads_cells_in_place_and_decodes_nothing() {
        let (rows, view) = typed_view();
        assert_eq!(view, rows);
        assert_eq!(view, rows[..]);
        // A wrong length, a wrong order …
        assert_ne!(view, rows[..2]);
        assert_ne!(view, [&rows[..], &rows[..1]].concat());
        assert_ne!(view, [rows[1].clone(), rows[0].clone(), rows[2].clone()]);
        // … and one differing cell, in each column type and a type that
        // is not the column's at all.
        for (col, wrong) in [
            Value::Int(-1),
            Value::str("s"),
            Value::Date(-1),
            Value::Char('z'),
        ]
        .into_iter()
        .enumerate()
        {
            for other in [wrong, Value::Bool(true)] {
                let mut off = rows.clone();
                off[2][col] = other;
                assert_ne!(view, off, "column {col}");
            }
        }
        assert!(!view.is_decoded(), "no comparison above built a tuple");
        // The same verdicts once decoded (the tuple path).
        assert_eq!(view.tuples(), rows);
        assert_eq!(view, rows);
        assert_ne!(view, rows[..2]);
    }

    #[test]
    fn all_eq_checks_every_view_of_a_scan_in_one_pass_and_falls_back_per_set() {
        let v = views();
        let want = expected();
        assert!(RowSet::all_eq(&v, &want));
        assert!(RowSet::all_eq(&v[1..], &want[1..]), "any part of a scan");
        assert!(!RowSet::all_eq(&v, &want[..2]), "fewer expected than sets");
        let mut off = want.clone();
        off[2][1][1] = Value::str("S4");
        assert!(!RowSet::all_eq(&v, &off));
        assert!(!RowSet::all_eq(&v[..2], &[&want[0][..3], &want[1][..]]));
        // Mixed company: an owned set, another scan's view, and one
        // query twice are each compared on their own.
        let (rows, other_scan) = typed_view();
        let mixed = [
            v[2].clone(),
            RowSet::from(want[0].clone()),
            other_scan,
            v[2].clone(),
        ];
        let mixed_want = [&want[2][..], &want[0][..], &rows[..], &want[2][..]];
        assert!(RowSet::all_eq(&mixed, &mixed_want));
        let swapped = [&want[2][..], &want[0][..], &rows[..], &want[0][..]];
        assert!(!RowSet::all_eq(&mixed, &swapped));
        assert!(v.iter().all(|r| !r.is_decoded()));
        // Decoded views compare as tuples.
        let _ = v[0].tuples();
        assert!(RowSet::all_eq(&v, &want) && !RowSet::all_eq(&v, &off));
        assert!(RowSet::all_eq(&[], &[] as &[Vec<Tuple>]));
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
