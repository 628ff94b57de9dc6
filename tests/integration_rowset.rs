//! A merged selection's result sets are views of the table version the
//! scan saw (`eco_storage::RowSet`): a later `INSERT`/`UPDATE`/`DELETE`
//! on the same table must not move them — whether they were decoded
//! before the mutation or are first decoded after it — while a fresh
//! selection sees the mutation. Both storage profiles.

mod support;

use std::sync::Arc;

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::query::exec::ExecEngine;
use ecodb::storage::{ColumnType, DataChunk, RoutedRows, RowSet, Schema, TableData, Tuple, Value};
use ecodb::tpch::{qed_workload, QedQuery};
use support::Rng;

const SCALE: f64 = 0.002;
const PROFILES: [EngineProfile; 2] = [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk];

/// Quantity 1's rows move to quantity 2, quantity 3's rows go, and
/// quantity 4 gains a row.
const MUTATIONS: [&str; 3] = [
    "UPDATE lineitem SET l_quantity = 2 WHERE l_quantity = 1",
    "DELETE FROM lineitem WHERE l_quantity = 3",
    "INSERT INTO lineitem VALUES (1, 2, 3, 9, 4, 100, 5, 2, 'N', 'O', \
     DATE '1995-01-01', DATE '1995-02-01', DATE '1995-03-01', 'NONE', 'MAIL', 'a fresh row')",
];

fn mutate(db: &EcoDb) {
    for sql in MUTATIONS {
        db.try_trace_sql(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// What the scalar row engine answers, query by query.
fn oracle_rows(oracle: &EcoDb, queries: &[QedQuery]) -> Vec<Vec<Tuple>> {
    queries
        .iter()
        .map(Query::Selection)
        .map(|q| oracle.trace(&q, 1).unwrap().0.into_tuples())
        .collect()
}

fn snapshot_case(profile: EngineProfile, workers: usize, decode_first: bool) {
    let what = format!("{profile:?} workers={workers} decode_first={decode_first}");
    let db = EcoDb::tpch(profile, SCALE);
    let oracle = EcoDb::tpch(profile, SCALE).with_engine(ExecEngine::Scalar);
    let queries = qed_workload(5);
    let select = |db: &EcoDb| -> Vec<RowSet> {
        let batch = db.try_trace_merged_selection_cores(&queries, true, workers);
        batch.unwrap().0
    };

    let before = oracle_rows(&oracle, &queries);
    let held = select(&db);
    assert!(held.iter().all(|r| !r.is_decoded()), "{what}");
    // Comparing with rows already in hand reads the scan's columns in
    // place; only handing out tuples decodes.
    assert_eq!(held[4], before[4], "{what}");
    assert!(held.iter().all(|r| !r.is_decoded()), "{what}");
    if decode_first {
        assert_eq!(held[4].tuples(), before[4], "{what}");
    }
    assert_eq!(held[0].is_decoded(), decode_first, "{what}");
    let lens: Vec<usize> = held.iter().map(RowSet::len).collect();

    mutate(&db);
    mutate(&oracle);

    // A fresh selection sees the mutated table …
    let after = oracle_rows(&oracle, &queries);
    assert!(after[0].is_empty() && after[2].is_empty(), "{what}");
    assert_eq!(after[1].len(), before[0].len() + before[1].len(), "{what}");
    assert_eq!(after[3].len(), before[3].len() + 1, "{what}");
    assert_eq!(select(&db), after, "{what}: fresh selection");

    // … and the held one still reads the rows its scan saw.
    assert_eq!(held.iter().map(RowSet::len).collect::<Vec<_>>(), lens);
    assert_eq!(held, before, "{what}: held result");
    // (Compared in place above; read as tuples — on the per-core arm
    // decoded only now, after the mutation — they are the same rows.)
    assert_eq!(held[0].tuples(), before[0], "{what}: held result, decoded");
    assert!(!before[0].is_empty() && !before[2].is_empty(), "{what}");
}

#[test]
fn a_held_result_keeps_its_rows_across_dml_on_both_profiles() {
    for profile in PROFILES {
        // Decoded before the mutation on the serial arm, first decoded
        // after it on the per-core arm.
        snapshot_case(profile, 1, true);
        snapshot_case(profile, 2, false);
    }
}

/// The cost of the snapshot on the memory engine: the first mutation
/// while a result is held copies the table's columns
/// (`Arc::make_mut`); once the result is dropped, mutations edit in
/// place again.
#[test]
fn a_held_result_makes_the_next_heap_mutation_copy() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, SCALE);
    let columns = || {
        let table = db.catalog().expect("lineitem");
        let TableData::Memory(heap) = &table.data else {
            panic!("memory profile stores heap tables")
        };
        std::sync::Arc::as_ptr(heap.columns())
    };
    let held = db
        .try_trace_merged_selection(&qed_workload(2), true)
        .unwrap()
        .0;
    let scanned = columns();
    db.try_trace_sql(MUTATIONS[0]).expect("update");
    let copied = columns();
    assert_ne!(copied, scanned, "the held result kept the old version");
    drop(held);
    db.try_trace_sql(MUTATIONS[1]).expect("delete");
    assert_eq!(columns(), copied, "unshared: edited where it stands");
}

// ---------------------------------------------------------------------------
// Comparing result sets: view against view without a decode.
// ---------------------------------------------------------------------------

/// The chunks views are cut from: `A`, a copy of `A` (another
/// snapshot of the same rows), `A` with one cell changed, and an
/// unrelated chunk. Values come from tiny domains, so equal rows sit
/// at different row ids of one chunk.
fn chunks(rng: &mut Rng, rows: usize) -> Vec<Arc<DataChunk>> {
    let schema = Schema::new(&[("k", ColumnType::Int), ("s", ColumnType::Str)]);
    let row = |rng: &mut Rng| -> Tuple {
        vec![
            Value::Int(rng.index(3) as i64),
            Value::str(["x", "y", "z"][rng.index(3)]),
        ]
    };
    let a: Vec<Tuple> = (0..rows).map(|_| row(rng)).collect();
    let mut changed = a.clone();
    if let Some(r) = changed.get_mut(rng.index(rows)) {
        r[1] = Value::str("changed");
    }
    let other: Vec<Tuple> = (0..rows).map(|_| row(rng)).collect();
    let a = Arc::new(DataChunk::from_rows(&schema, &a));
    let copy = Arc::new(DataChunk::clone(&a));
    let changed = Arc::new(DataChunk::from_rows(&schema, &changed));
    let other = Arc::new(DataChunk::from_rows(&schema, &other));
    vec![a, copy, changed, other]
}

/// One side of a comparison: `(chunk, row, query)` routed in scan order.
type Entries = Vec<(usize, u32, u32)>;

/// Rows routed out of up to three parts to `queries` queries, rows
/// ascending within a part.
fn random_entries(rng: &mut Rng, chunks: &[Arc<DataChunk>], queries: u32) -> Entries {
    let mut entries = Vec::new();
    for _ in 0..rng.index(4) {
        let chunk = rng.index(chunks.len());
        for row in 0..chunks[chunk].len() as u32 {
            if rng.index(3) == 0 {
                entries.push((chunk, row, rng.index(queries as usize) as u32));
            }
        }
    }
    entries
}

/// The views of `entries` (query 0 is the one compared) and the tuples
/// query 0's view holds, built without touching the view.
fn views(chunks: &[Arc<DataChunk>], entries: &Entries, queries: u32) -> (Vec<RowSet>, Vec<Tuple>) {
    let mut routed = RoutedRows::default();
    let mut query0 = Vec::new();
    for &(chunk, row, query) in entries {
        routed.matches_for(&chunks[chunk]).push((row, query));
        if query == 0 {
            query0.push(chunks[chunk].row(row as usize));
        }
    }
    (routed.into_row_sets(queries as usize), query0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// View-vs-view equality is the equality of the rows the views
    /// decode to, whichever path answers it: the same row of the same
    /// chunk (row ids), rows of different snapshots (cells), empty
    /// views and views of unequal length; and no comparison decodes.
    #[test]
    fn view_equality_agrees_with_decoded_equality(
        seed in 0u64..1_000_000,
        rows in 0usize..12,
        mode in 0usize..5,
        queries in 1u32..3,
    ) {
        let mut rng = Rng(seed);
        let chunks = chunks(&mut rng, rows);
        let left = random_entries(&mut rng, &chunks, queries);
        let mut right = left.clone();
        match mode {
            // Independent: mostly unequal, equal when both are empty.
            0 => right = random_entries(&mut rng, &chunks, queries),
            // The same rows of the same chunks: row ids.
            1 => {}
            // The same rows of `A`'s copy: cells.
            2 => right.iter_mut().filter(|e| e.0 == 0).for_each(|e| e.0 = 1),
            // One row id moved to another row of its chunk: unequal
            // unless the two rows hold the same values.
            3 => {
                if !right.is_empty() {
                    let at = rng.index(right.len());
                    right[at].1 = rng.index(rows) as u32;
                }
            }
            // One row fewer.
            _ => {
                right.pop();
            }
        }
        let (left_sets, left_rows) = views(&chunks, &left, queries);
        let (right_sets, right_rows) = views(&chunks, &right, queries);
        let (l, r) = (&left_sets[0], &right_sets[0]);
        let want = left_rows == right_rows;
        prop_assert_eq!(l == r, want, "{:?} vs {:?}", left, right);
        prop_assert_eq!(r == l, want);
        prop_assert_eq!(RowSet::all_eq(&left_sets[..1], &right_sets[..1]), want);
        prop_assert_eq!(*l == right_rows, want);
        let owned = RowSet::from(right_rows.clone());
        prop_assert_eq!(*l == owned, want);
        prop_assert!(left_sets.iter().chain(&right_sets).all(|s| !s.is_decoded()));
        if mode == 1 || mode == 2 {
            prop_assert!(want);
            prop_assert!(RowSet::all_eq(&left_sets, &right_sets));
        }
        // Decoded, they are the rows they were compared as.
        prop_assert_eq!(l.tuples(), &left_rows[..]);
        prop_assert_eq!(r == l, want);
    }
}
