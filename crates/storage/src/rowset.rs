//! Result sets that stay columnar until someone reads a row.
//!
//! A [`RowSet`] is what a statement hands its caller. It comes in two
//! forms behind one cheap-to-clone handle:
//!
//! * **owned** — the tuples themselves, shared (`From<Vec<Tuple>>`):
//!   what DML and point-read outcomes carry, and what the scalar
//!   engine's drivers return;
//! * **view** — query *q* of one scan's [`RoutedRows`]: the column
//!   chunks the scan produced with the `(row, query)` pairs routed out
//!   of each, in scan order. A merged QED scan routes to many queries;
//!   the columnar top-of-plan driver routes every final row to query 0.
//!   No tuple exists until [`RowSet::tuples`] is first called on *any*
//!   query of that scan; that call decodes the whole scan in one
//!   sequential pass (the pattern of [`crate::PageFrame`]) and every
//!   other query, and every clone, reads the same decoded rows from
//!   then on.
//!
//! Comparing is not reading. A view compared with tuples the caller
//! already holds, or with another result set (`==`,
//! [`RowSet::all_eq`]), is compared where its cells lie: against
//! another view's row in the same chunk — the same snapshot — by row id
//! first, and cell by cell otherwise. No comparison decodes.
//!
//! # A view is a snapshot
//!
//! A view holds the `Arc<DataChunk>` version it was cut from, so it
//! keeps reading the rows the scan saw — before or after it is first
//! decoded — whatever later `INSERT`/`UPDATE`/`DELETE` does to the
//! table. The price is the one [`crate::HeapTable`] already documents
//! for scan windows: the first mutation of a heap table while a view of
//! it is alive goes through [`Arc::make_mut`]'s copy of the columns (a
//! disk table decodes the extents a mutation rewrote into a new mirror
//! on the next scan either way, and shares the others with the view).
//! Drop result sets you no longer read before a write burst.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::column::DataChunk;
use crate::value::Tuple;

/// What a scan accumulates instead of rows: per column chunk it saw,
/// the `(row, query)` pairs it routed, in scan order.
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

/// A frozen [`RoutedRows`]: what every view of one scan shares.
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

    /// The `(chunk, row)` entries routed to `query`, in scan order.
    fn entries(&self, query: usize) -> Entries<'_> {
        Entries {
            parts: self.parts.iter(),
            part: None,
            query: query as u32,
        }
    }

    /// Whether, for every query `q` with `expected[q]` given, the rows
    /// routed to `q` are exactly the rows that cursor yields, in that
    /// order — in one pass over the scan whatever the number of queries
    /// compared; no tuple is built. The caller has checked that each
    /// cursor holds as many rows as its query was routed.
    fn rows_eq(&self, expected: &mut [Option<Cursor<'_>>]) -> bool {
        self.parts.iter().all(|part| {
            part.matches.iter().all(|&(row, query)| {
                expected[query as usize]
                    .as_mut()
                    .is_none_or(|want| want.next_eq(&part.data, row as usize))
            })
        })
    }

    /// [`Self::rows_eq`] for query `query` alone.
    fn query_eq(&self, query: usize, want: Cursor<'_>) -> bool {
        let mut expected: Vec<Option<Cursor<'_>>> = self.counts.iter().map(|_| None).collect();
        expected[query] = Some(want);
        self.rows_eq(&mut expected)
    }
}

/// The entries of one query of a [`Split`] (see [`Split::entries`]).
struct Entries<'a> {
    parts: std::slice::Iter<'a, Part>,
    /// The part being read and the next of its matches to look at.
    part: Option<(&'a Part, usize)>,
    query: u32,
}

impl<'a> Iterator for Entries<'a> {
    type Item = (&'a Arc<DataChunk>, usize);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((part, at)) = &mut self.part {
                let part: &'a Part = part;
                while let Some(&(row, query)) = part.matches.get(*at) {
                    *at += 1;
                    if query == self.query {
                        return Some((&part.data, row as usize));
                    }
                }
            }
            self.part = Some((self.parts.next()?, 0));
        }
    }
}

/// The rows one side of a comparison expects, consumed front to back.
enum Cursor<'a> {
    Tuples(std::slice::Iter<'a, Tuple>),
    View(Entries<'a>),
}

impl Cursor<'_> {
    /// Whether the next expected row equals row `row` of `data`: the
    /// same row of the same chunk is equal without a look at its cells.
    /// False when no row is left.
    fn next_eq(&mut self, data: &Arc<DataChunk>, row: usize) -> bool {
        match self {
            Cursor::Tuples(rows) => rows.next().is_some_and(|t| data.row_eq(row, t)),
            Cursor::View(entries) => entries.next().is_some_and(|(other, at)| {
                (Arc::ptr_eq(data, other) && row == at) || data.row_eq_at(row, other, at)
            }),
        }
    }
}

/// A statement's result rows: shared, and — out of the columnar
/// engine — not materialised until read. See the [module docs](self)
/// for the two forms and the snapshot rule.
///
/// [`RowSet::len`] and [`RowSet::is_empty`] never decode, and neither
/// does any comparison (`==` with tuples or another set,
/// [`RowSet::all_eq`]); everything that hands out tuples
/// ([`RowSet::tuples`], [`RowSet::into_tuples`], `Deref` to `[Tuple]`,
/// `Debug`) does, once per scan. `clone()` copies a pointer.
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
    /// a scan decodes that scan's rows for all its queries.
    pub fn tuples(&self) -> &[Tuple] {
        match &self.0 {
            Repr::Owned(rows) => rows,
            Repr::View { split, query } => &split.decoded()[*query],
        }
    }

    /// The rows as owned tuples. A view that is the last handle on its
    /// scan builds each of its rows once, straight into the vector;
    /// otherwise this is [`Self::tuples`] cloned.
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self.0 {
            Repr::Owned(rows) => Arc::unwrap_or_clone(rows),
            Repr::View { split, query } => match Arc::try_unwrap(split) {
                Ok(mut split) => match split.decoded.take() {
                    Some(mut decoded) => decoded.swap_remove(query),
                    None => {
                        let mut rows = Vec::with_capacity(split.counts[query]);
                        rows.extend(split.entries(query).map(|(data, row)| data.row(row)));
                        rows
                    }
                },
                Err(split) => split.decoded()[query].clone(),
            },
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

    /// A cursor over this set's rows: its entries while undecoded, its
    /// tuples otherwise.
    fn cursor(&self) -> Cursor<'_> {
        match self.undecoded_view() {
            Some((split, query)) => Cursor::View(split.entries(query)),
            None => Cursor::Tuples(self.tuples().iter()),
        }
    }

    /// Whether `sets[i] == expected[i]` for every `i` (and the two are
    /// equally many). Undecoded views of one scan — what
    /// [`RoutedRows::into_row_sets`] returns, or any part of it — are
    /// all checked in a single pass over that scan, against expected
    /// sets of any form, and nothing is decoded.
    pub fn all_eq(sets: &[RowSet], expected: &[RowSet]) -> bool {
        if sets.len() != expected.len() {
            return false;
        }
        let scan = sets.first().and_then(RowSet::undecoded_view).map(|v| v.0);
        let queries = scan.map_or(0, |s| s.counts.len());
        let mut of_scan: Vec<Option<Cursor<'_>>> = (0..queries).map(|_| None).collect();
        for (set, want) in sets.iter().zip(expected) {
            if set.len() != want.len() {
                return false;
            }
            match (scan, set.undecoded_view()) {
                (Some(scan), Some((split, query)))
                    if Arc::ptr_eq(split, scan) && of_scan[query].is_none() =>
                {
                    of_scan[query] = Some(want.cursor());
                }
                // An owned or decoded set, another scan's view, or one
                // query a second time: compared on its own.
                _ if set != want => return false,
                _ => {}
            }
        }
        scan.is_none_or(|scan| scan.rows_eq(&mut of_scan))
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
        if self.len() != other.len() {
            return false;
        }
        match (self.undecoded_view(), other.undecoded_view()) {
            (Some((split, query)), _) => split.query_eq(query, other.cursor()),
            (None, Some((split, query))) => split.query_eq(query, self.cursor()),
            (None, None) => self.tuples() == other.tuples(),
        }
    }
}

impl PartialEq<Vec<Tuple>> for RowSet {
    fn eq(&self, other: &Vec<Tuple>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<[Tuple]> for RowSet {
    fn eq(&self, other: &[Tuple]) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match self.undecoded_view() {
            Some((split, query)) => split.query_eq(query, Cursor::Tuples(other.iter())),
            None => self.tuples() == other,
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
        let owned = |sets: &[&[Tuple]]| -> Vec<RowSet> {
            sets.iter()
                .map(|rows| RowSet::from(rows.to_vec()))
                .collect()
        };
        let v = views();
        let want = expected();
        let want_sets = owned(&[&want[0], &want[1], &want[2]]);
        assert!(RowSet::all_eq(&v, &want_sets));
        assert!(
            RowSet::all_eq(&v[1..], &want_sets[1..]),
            "any part of a scan"
        );
        assert!(
            !RowSet::all_eq(&v, &want_sets[..2]),
            "fewer expected than sets"
        );
        let mut off = want.clone();
        off[2][1][1] = Value::str("S4");
        let off_sets = owned(&[&off[0], &off[1], &off[2]]);
        assert!(!RowSet::all_eq(&v, &off_sets));
        assert!(!RowSet::all_eq(&v[..2], &owned(&[&want[0][..3], &want[1]])));
        // Expected views: the scan itself (row ids) and a second scan
        // over equal copies of its chunks (cells).
        assert!(RowSet::all_eq(&v, &v));
        assert!(RowSet::all_eq(&v, &views()));
        assert!(!RowSet::all_eq(
            &v,
            &[v[0].clone(), v[1].clone(), v[0].clone()]
        ));
        // Mixed company: an owned set, another scan's view, and one
        // query twice are each compared on their own.
        let (rows, other_scan) = typed_view();
        let mixed = [
            v[2].clone(),
            RowSet::from(want[0].clone()),
            other_scan.clone(),
            v[2].clone(),
        ];
        let mixed_want = owned(&[&want[2], &want[0], &rows, &want[2]]);
        assert!(RowSet::all_eq(&mixed, &mixed_want));
        let swapped = owned(&[&want[2], &want[0], &rows, &want[0]]);
        assert!(!RowSet::all_eq(&mixed, &swapped));
        assert!(v.iter().all(|r| !r.is_decoded()) && !other_scan.is_decoded());
        // Decoded views compare as tuples.
        let _ = v[0].tuples();
        assert!(RowSet::all_eq(&v, &want_sets) && !RowSet::all_eq(&v, &off_sets));
        assert!(RowSet::all_eq(&[], &[]));
    }

    #[test]
    fn into_tuples_builds_each_row_once_or_clones_the_decoded_rows() {
        let want = expected();
        // The last handle on an undecoded scan: rows built straight out.
        let mut v = views();
        let last = v.pop().expect("three queries");
        drop(v);
        assert_eq!(last.into_tuples(), want[2]);
        // Shared, or already decoded: the decoded rows.
        let v = views();
        assert_eq!(v[0].clone().into_tuples(), want[0]);
        assert!(v[0].is_decoded());
        let first = v.into_iter().next().expect("three queries");
        assert_eq!(first.into_tuples(), want[0]);
        assert_eq!(RowSet::from(want[1].clone()).into_tuples(), want[1]);
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
