//! In-memory heap table — the "MySQL memory engine" profile.
//!
//! The table *is* its columns: one typed vector per schema column (a
//! [`DataChunk`]), which columnar scans window without copying. Scans
//! stream straight from DRAM with no disk involvement, which is exactly
//! why the paper uses the memory engine "to stress the CPU" (§3.3).
//! Rows are not stored; [`HeapTable::row`] / [`HeapTable::rows`]
//! materialize them for the consumers that need one (the oracle
//! engines' row scans, DML bind matches).

use std::sync::{Arc, OnceLock};

use crate::column::DataChunk;
use crate::encode::EncodedChunk;
use crate::value::{tuple_width, Schema, Tuple};

/// An in-memory table, stored column by column.
///
/// The columns are shared, not copied, with every reader that holds
/// them: a scan's window for the length of the scan, and a merged
/// selection's result sets ([`crate::RowSet`] views) for as long as
/// the caller keeps them. A mutation edits the columns where they
/// stand when nobody else holds them and copies them first
/// ([`Arc::make_mut`]) otherwise — so the first `INSERT`/`UPDATE`/
/// `DELETE` after a selection whose results are still alive pays one
/// copy of the table, and the held results go on reading the version
/// they scanned.
#[derive(Debug, Clone, Default)]
pub struct HeapTable {
    schema: Schema,
    /// The rows, decomposed. Shared with every scan window handed out;
    /// the mutators go through [`Arc::make_mut`], so a mutation copies
    /// the columns only while a reader still holds a snapshot.
    columns: Arc<DataChunk>,
    bytes: u64,
    /// Lazily-built *encoded* form of [`HeapTable::columns`] (see
    /// [`HeapTable::encoded`]); invalidated on mutation.
    encoded: OnceLock<Arc<EncodedChunk>>,
}

impl HeapTable {
    /// Empty table with a schema.
    pub fn new(schema: Schema) -> Self {
        Self::from_tuples(schema, [])
    }

    /// Build from pre-validated tuples, consumed one at a time (a
    /// loader can stream its source rows through without ever holding
    /// the table in row form).
    pub fn from_tuples(schema: Schema, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let tuples = tuples.into_iter();
        let mut t = Self {
            columns: Arc::new(DataChunk::with_capacity(&schema, tuples.size_hint().0)),
            schema,
            bytes: 0,
            encoded: OnceLock::new(),
        };
        for tup in tuples {
            t.insert(tup);
        }
        t
    }

    /// A table whose rows are already decomposed into `columns`
    /// (`schema`'s types), `bytes` their summed stored width.
    pub(crate) fn from_columns(schema: Schema, columns: DataChunk, bytes: u64) -> Self {
        Self {
            schema,
            columns: Arc::new(columns),
            bytes,
            encoded: OnceLock::new(),
        }
    }

    /// `tuple`'s stored width; panics if it does not match `schema`.
    fn checked_width(schema: &Schema, tuple: &Tuple) -> u64 {
        assert!(
            schema.check(tuple),
            "tuple does not match schema {:?}",
            schema.names()
        );
        tuple_width(tuple)
    }

    /// Append one tuple; panics if it does not match the schema.
    pub fn insert(&mut self, tuple: Tuple) {
        self.bytes += Self::checked_width(&self.schema, &tuple);
        Arc::make_mut(&mut self.columns).push_row(tuple);
        self.encoded.take();
    }

    /// Overwrite row `row` in place. Panics on an out-of-range row or a
    /// schema mismatch — the write path validates both before applying
    /// (see `Catalog::apply_wal_record`), so a panic here is a caller
    /// bug, not a data error.
    pub fn set_row(&mut self, row: usize, tuple: Tuple) {
        self.bytes -= self.columns.width_sum(std::iter::once(row));
        self.bytes += Self::checked_width(&self.schema, &tuple);
        Arc::make_mut(&mut self.columns).set_row(row, &tuple);
        self.encoded.take();
    }

    /// Remove row `row`, shifting later rows down by one (multi-row
    /// deletes are therefore applied in descending row order — see
    /// `eco_storage::wal`). Panics on an out-of-range row; callers
    /// validate first.
    pub fn remove_row(&mut self, row: usize) -> Tuple {
        let old = Arc::make_mut(&mut self.columns).remove_row(row);
        self.bytes -= tuple_width(&old);
        self.encoded.take();
        old
    }

    /// The whole table as one [`DataChunk`], rows in insertion order.
    /// The columnar scan path windows it instead of cloning row tuples,
    /// while charging the ledger identically to the row path.
    pub fn columns(&self) -> &Arc<DataChunk> {
        &self.columns
    }

    /// The whole table *encoded* (dictionary / RLE / bit-packed per
    /// column, auto-selected; see [`crate::encode`]), built lazily on
    /// first use — raw-pricing executions never build it. Row indices
    /// align exactly with [`HeapTable::columns`].
    pub fn encoded(&self) -> &Arc<EncodedChunk> {
        self.encoded
            .get_or_init(|| Arc::new(EncodedChunk::encode(&self.columns)))
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Total stored bytes (drives memory-stream accounting for scans).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Average tuple width in bytes (0 for an empty table).
    pub fn avg_tuple_bytes(&self) -> u64 {
        self.bytes.checked_div(self.len() as u64).unwrap_or(0)
    }

    /// Row `i`, materialized. Panics on an out-of-range row.
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.row(i)
    }

    /// Every row in insertion order, materialized one at a time.
    pub fn rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Value};

    fn schema() -> Schema {
        Schema::new(&[("k", ColumnType::Int), ("s", ColumnType::Str)])
    }

    #[test]
    fn insert_and_scan() {
        let mut t = HeapTable::new(schema());
        assert!(t.is_empty());
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::str(format!("v{i}"))]);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.row(3)[0], Value::Int(3));
        assert!(t.bytes() > 0);
        assert!(t.avg_tuple_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn schema_mismatch_rejected() {
        let mut t = HeapTable::new(schema());
        t.insert(vec![Value::Int(1)]);
    }

    #[test]
    fn a_held_window_keeps_its_snapshot_across_inserts() {
        let mut t = HeapTable::new(schema());
        t.insert(vec![Value::Int(1), Value::str("a")]);
        let snapshot = Arc::clone(t.columns());
        t.insert(vec![Value::Int(2), Value::str("b")]);
        assert_eq!(snapshot.len(), 1, "the reader's view did not move");
        let cols = t.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.column(0).data.as_ints().unwrap(), &[1, 2]);
        // Unshared again: the next insert mutates where it stands.
        drop(snapshot);
        let before = Arc::as_ptr(t.columns());
        t.insert(vec![Value::Int(3), Value::str("c")]);
        assert_eq!(Arc::as_ptr(t.columns()), before);
    }

    #[test]
    fn encoded_mirror_tracks_inserts_and_roundtrips() {
        let mut t = HeapTable::new(schema());
        for i in 0..64 {
            t.insert(vec![Value::Int(i % 4), Value::str(format!("g{}", i % 3))]);
        }
        let enc = Arc::clone(t.encoded());
        assert_eq!(enc.rows(), 64);
        for (i, col) in enc.columns().iter().enumerate() {
            assert_eq!(col.decode(), t.columns().column(i).data, "column {i}");
        }
        // Insert invalidates; the fresh encoding sees the new row.
        t.insert(vec![Value::Int(9), Value::str("g9")]);
        assert_eq!(t.encoded().rows(), 65);
    }

    /// Random `insert`/`set_row`/`remove_row` sequences against a
    /// `Vec<Tuple>` model; every other case holds a scan's window on
    /// the columns across each mutation.
    #[test]
    fn mutations_track_a_row_model_and_never_move_a_held_snapshot() {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        for case in 0..64u64 {
            let mut state = case;
            let mut below = |n: usize| (splitmix64(&mut state) % n.max(1) as u64) as usize;
            let hold_snapshot = case % 2 == 1;
            let mut model: Vec<Tuple> = Vec::new();
            let mut t = HeapTable::new(schema());
            for step in 0..40 + below(80) {
                let what = format!("case {case} step {step}");
                let row = vec![
                    Value::Int(below(7) as i64 - 3),
                    Value::str("s".repeat(below(40))),
                ];
                let snapshot = hold_snapshot.then(|| (Arc::clone(t.columns()), model.clone()));
                // Grow early, then mix; an empty table can only grow.
                match if model.is_empty() { 0 } else { below(4) } {
                    0 | 1 => {
                        t.insert(row.clone());
                        model.push(row);
                    }
                    2 => {
                        let at = below(model.len());
                        t.set_row(at, row.clone());
                        model[at] = row;
                    }
                    _ => {
                        let at = below(model.len());
                        assert_eq!(t.remove_row(at), model.remove(at), "{what}");
                    }
                }
                assert_eq!(t.len(), model.len(), "{what}");
                assert_eq!(t.rows().collect::<Vec<_>>(), model, "{what}");
                let bytes: u64 = model.iter().map(tuple_width).sum();
                assert_eq!(t.bytes(), bytes, "{what}");
                let avg = bytes.checked_div(model.len() as u64).unwrap_or(0);
                assert_eq!(t.avg_tuple_bytes(), avg, "{what}");
                let enc = t.encoded();
                assert_eq!(enc.rows(), model.len(), "{what}");
                for (i, col) in enc.columns().iter().enumerate() {
                    assert_eq!(col.decode(), t.columns().column(i).data, "{what} col {i}");
                }
                if let Some((held, rows_before)) = snapshot {
                    assert_eq!(held.len(), rows_before.len(), "{what}: snapshot");
                    for (i, r) in rows_before.iter().enumerate() {
                        assert_eq!(&held.row(i), r, "{what}: snapshot row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn bytes_accumulate() {
        let mut t = HeapTable::new(schema());
        t.insert(vec![Value::Int(1), Value::str("ab")]);
        let one = t.bytes();
        t.insert(vec![Value::Int(2), Value::str("ab")]);
        assert_eq!(t.bytes(), 2 * one);
    }
}
