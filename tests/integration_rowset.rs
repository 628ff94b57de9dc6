//! A merged selection's result sets are views of the table version the
//! scan saw (`eco_storage::RowSet`): a later `INSERT`/`UPDATE`/`DELETE`
//! on the same table must not move them — whether they were decoded
//! before the mutation or are first decoded after it — while a fresh
//! selection sees the mutation. Both storage profiles.

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::exec::ExecEngine;
use ecodb::storage::{RowSet, TableData, Tuple};
use ecodb::tpch::{qed_workload, QedQuery};

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
        .map(|q| oracle.trace_selection(q).0)
        .collect()
}

fn snapshot_case(profile: EngineProfile, workers: Option<usize>, decode_first: bool) {
    let what = format!("{profile:?} workers={workers:?} decode_first={decode_first}");
    let db = EcoDb::tpch(profile, SCALE);
    let oracle = EcoDb::tpch(profile, SCALE).with_engine(ExecEngine::Scalar);
    let queries = qed_workload(5);
    let select = |db: &EcoDb| -> Vec<RowSet> {
        match workers {
            None => db.trace_merged_selection(&queries, true).0,
            Some(w) => db.trace_merged_selection_cores(&queries, true, w).0,
        }
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
        snapshot_case(profile, None, true);
        snapshot_case(profile, Some(2), false);
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
    let held = db.trace_merged_selection(&qed_workload(2), true).0;
    let scanned = columns();
    db.try_trace_sql(MUTATIONS[0]).expect("update");
    let copied = columns();
    assert_ne!(copied, scanned, "the held result kept the old version");
    drop(held);
    db.try_trace_sql(MUTATIONS[1]).expect("delete");
    assert_eq!(columns(), copied, "unshared: edited where it stands");
}
