//! Property test for the O(changed-pages) write path: **incremental
//! state ≡ bulk-load state**.
//!
//! `Catalog::apply_wal_record` repacks a paged table from the touched
//! page until the old page boundaries re-align, and patches each
//! B-tree's entry array before re-emitting nodes from the first changed
//! leaf. Both claim to land on exactly what a from-scratch load of the
//! mutated rows would build. This test holds them to it: random
//! mutation sequences run against a model `Vec<Tuple>`, and after
//! **every** step
//!
//! * the table's page images, stored checksums, `num_pages`, `len`,
//!   `avg_tuple_bytes` and every `row_location` equal
//!   `DiskTable::load` over the model;
//! * each index's node images, stored checksums, `height`, `num_pages`
//!   and `len` equal `BTreeIndex::build` over the model's column — for
//!   an `Int` key with many duplicates (fanout-bound leaves) and a wide
//!   `Str` key (page-bound leaves);
//! * the table's columnar mirror, mended after the mutation by
//!   decoding the slot payloads of the extents it rewrote straight into
//!   typed columns (strings of a repeating column shared, of a
//!   non-repeating one not), equals `DataChunk::from_rows` over the
//!   model, extent by extent;
//! * point and range probes return the model's rows, and their whole
//!   [`IndexProbe`] ledgers (`index_ios`, `NodeSearch` steps, backoff)
//!   equal the bulk-loaded twin's, probe for probe.
//!
//! The sequences aim at the awkward places: appends, updates that
//! change the row width, updates that do and do not touch an indexed
//! column, and updates/deletes at the first row, the last row and the
//! first/last slot of a page; short tables are deleted to empty and
//! grown again. Half the cases hold a reader's snapshot of the table
//! and indexes across each apply, which takes the copy-on-write path
//! and must leave the snapshot untouched.
//!
//! Further down, the mirror on its own: partial masks grown on demand,
//! and a mirror kept across random row changes on a mixed schema, held
//! after every change to a fresh decode of the pages (cells, widths,
//! page rows, extents and, complete, the encoded extents), with what
//! was handed out before the change left reading the old rows. Marking
//! one extent too few stale in `Mirror::mark_rewritten` fails
//! `a_kept_mirror_equals_a_fresh_decode_after_every_change` (checked
//! by hand, for a same-count and a page-count-changing rewrite).

mod support;

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use ecodb::query::context::ExecCtx;
use ecodb::query::exec::ExecEngine;
use ecodb::storage::disk_table::DiskTable;
use ecodb::storage::{
    load_tpch, tuple_width, BTreeIndex, BufferPool, Catalog, ColumnType, ColumnarExtents,
    DataChunk, EngineKind, IndexEntry, KeyBound, Schema, StoredTable, Tuple, Value, WalRecord,
};
use support::{disk, edge_rows, Rng};

const TABLE: &str = "t";
/// `(index name, indexed column)`: a duplicate-heavy `Int` key and a
/// wide `Str` key.
const INDEXES: [(&str, usize); 2] = [("ix_k", 0), ("ix_s", 1)];

fn schema() -> Schema {
    Schema::new(&[
        ("k", ColumnType::Int),
        ("s", ColumnType::Str),
        ("pad", ColumnType::Str),
    ])
}

/// Deterministic row generator. `wide` rows are 0.3–2.5 KB, so a page
/// holds a handful and page boundaries are everywhere; narrow rows pack
/// ~60 to a page, so a few hundred of them spill the index past one
/// 256-entry leaf.
struct Gen {
    rng: Rng,
    wide: bool,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.index(n)
    }

    /// Keys from a small domain: duplicates are the rule.
    fn key(&mut self) -> Value {
        Value::Int(self.below(40) as i64 - 5)
    }

    /// 60–350-byte strings from a domain of 30, so `ix_s` leaves fill
    /// by bytes long before they reach the fanout cap. Width is not
    /// monotone in key order: the entry after a leaf boundary is often
    /// narrower than the one that closed the leaf.
    fn name(&mut self) -> Value {
        let id = self.below(30);
        Value::str(format!("{id:03}-{}", "n".repeat(60 + id * 97 % 290)))
    }

    fn pad(&mut self) -> Value {
        let len = if self.wide {
            300 + self.below(2200)
        } else {
            self.below(120)
        };
        Value::str("p".repeat(len))
    }

    fn row(&mut self) -> Tuple {
        vec![self.key(), self.name(), self.pad()]
    }
}

/// A row worth aiming at: the first, the last, the first or last slot
/// of some page, or any.
fn pick_row(gen: &mut Gen, table: &DiskTable) -> usize {
    let n = table.len();
    match gen.below(5) {
        0 => 0,
        1 => n - 1,
        2 | 3 => {
            let edge = gen.below(2);
            let page = gen.below(table.num_pages());
            // First slot of `page`, or the row just before it (the
            // last slot of the page before).
            (0..n)
                .find(|&r| table.row_location(r) == (page, 0))
                .map_or(0, |r| r.saturating_sub(edge))
        }
        _ => gen.below(n),
    }
}

fn next_record(gen: &mut Gen, table: &DiskTable, model: &[Tuple], draining: bool) -> WalRecord {
    let table_name = TABLE.to_string();
    if model.is_empty() {
        return WalRecord::Insert {
            table: table_name,
            tuple: gen.row(),
        };
    }
    let choice = if draining { 9 } else { gen.below(10) };
    match choice {
        0..=2 => WalRecord::Insert {
            table: table_name,
            tuple: gen.row(),
        },
        3..=6 => {
            let row = pick_row(gen, table);
            let mut tuple = model[row].clone();
            match gen.below(4) {
                // Width change only: no index entry moves.
                0 => tuple[2] = gen.pad(),
                // Same-width rewrite of an indexed column.
                1 => tuple[0] = gen.key(),
                2 => tuple[1] = gen.name(),
                _ => tuple = gen.row(),
            }
            WalRecord::Update {
                table: table_name,
                row,
                tuple,
            }
        }
        _ => WalRecord::Delete {
            table: table_name,
            row: pick_row(gen, table),
        },
    }
}

fn apply_to_model(model: &mut Vec<Tuple>, rec: &WalRecord) {
    match rec {
        WalRecord::Insert { tuple, .. } => model.push(tuple.clone()),
        WalRecord::Update { row, tuple, .. } => model[*row] = tuple.clone(),
        WalRecord::Delete { row, .. } => {
            model.remove(*row);
        }
        WalRecord::Commit { .. } => {}
    }
}

fn assert_table_matches(
    live: &DiskTable,
    model: &[Tuple],
    step: &str,
) -> Result<(), TestCaseError> {
    let oracle = DiskTable::load(
        live.table_id(),
        schema(),
        model,
        Arc::new(BufferPool::new(16)),
    );
    prop_assert_eq!(live.len(), oracle.len(), "{}: len", step);
    prop_assert_eq!(live.num_pages(), oracle.num_pages(), "{}: num_pages", step);
    prop_assert_eq!(
        live.avg_tuple_bytes(),
        oracle.avg_tuple_bytes(),
        "{}: avg_tuple_bytes",
        step
    );
    for p in 0..oracle.num_pages() {
        prop_assert!(
            live.page_image(p) == oracle.page_image(p),
            "{}: image of page {} differs from a bulk load",
            step,
            p
        );
        prop_assert_eq!(
            live.stored_checksum(p),
            oracle.stored_checksum(p),
            "{}: checksum of page {}",
            step,
            p
        );
    }
    for row in 0..model.len() {
        prop_assert_eq!(
            live.row_location(row),
            oracle.row_location(row),
            "{}: row_location({})",
            step,
            row
        );
    }
    prop_assert_eq!(&live.all_tuples(), model, "{}: rows", step);
    assert_mirror_matches(live, model, step)
}

/// The columnar mirror is the rows: every extent's chunk equals the
/// decomposition of the model rows it covers, and together they cover
/// the model.
fn assert_mirror_matches(
    live: &DiskTable,
    model: &[Tuple],
    step: &str,
) -> Result<(), TestCaseError> {
    let mirror = live.columnar();
    let mut covered = 0;
    for e in 0..mirror.num_extents() {
        let chunk = mirror.extent_chunk(e);
        prop_assert_eq!(
            mirror.extent_row_start(e),
            covered,
            "{}: extent {}",
            step,
            e
        );
        let rows = &model[covered..covered + chunk.len()];
        prop_assert!(
            **chunk == DataChunk::from_rows(live.schema(), rows),
            "{}: mirror extent {} differs from its rows",
            step,
            e
        );
        covered += chunk.len();
    }
    prop_assert_eq!(covered, model.len(), "{}: mirror rows", step);
    Ok(())
}

fn assert_index_matches(
    live: &BTreeIndex,
    model: &[Tuple],
    col: usize,
    gen: &mut Gen,
    step: &str,
) -> Result<(), TestCaseError> {
    let entries = model
        .iter()
        .enumerate()
        .map(|(row, t)| (t[col].clone(), row))
        .collect();
    // A fresh pool: the apply evicted every cached node of the live
    // index, so both sides probe cold and then warm up in lockstep.
    let oracle = BTreeIndex::build(
        live.index_id(),
        live.key_type(),
        entries,
        Arc::new(BufferPool::new(1 << 16)),
    );
    prop_assert_eq!(live.len(), oracle.len(), "{}: index len", step);
    prop_assert_eq!(live.height(), oracle.height(), "{}: height", step);
    prop_assert_eq!(
        live.num_pages(),
        oracle.num_pages(),
        "{}: index pages",
        step
    );
    for p in 0..oracle.num_pages() {
        prop_assert!(
            live.page_image(p) == oracle.page_image(p),
            "{}: image of node {} differs from a bulk load",
            step,
            p
        );
        prop_assert_eq!(
            live.stored_checksum(p),
            oracle.stored_checksum(p),
            "{}: checksum of node {}",
            step,
            p
        );
    }

    let draw = |gen: &mut Gen| if col == 0 { gen.key() } else { gen.name() };
    for _ in 0..3 {
        let (a, b) = (draw(gen), draw(gen));
        let (lo, hi) = if a.partial_cmp_typed(&b) == Some(Ordering::Greater) {
            (b, a)
        } else {
            (a, b)
        };
        for (from, to) in [
            (KeyBound::Inclusive(&lo), KeyBound::Inclusive(&lo)),
            (KeyBound::Inclusive(&lo), KeyBound::Exclusive(&hi)),
            (KeyBound::Exclusive(&lo), KeyBound::Unbounded),
        ] {
            let got = live.probe_range(from, to).expect("fault-free probe");
            let want = oracle.probe_range(from, to).expect("fault-free probe");
            prop_assert_eq!(
                &got,
                &want,
                "{}: ledger of probe {:?}..{:?}",
                step,
                from,
                to
            );
            let model_rows: Vec<usize> = model
                .iter()
                .enumerate()
                .filter(|(_, t)| within(&t[col], from, to))
                .map(|(row, _)| row)
                .collect();
            prop_assert_eq!(
                &got.row_ids,
                &model_rows,
                "{}: rows of probe {:?}..{:?}",
                step,
                from,
                to
            );
        }
    }
    Ok(())
}

/// The model of a range probe's bound semantics.
fn within(key: &Value, from: KeyBound<'_>, to: KeyBound<'_>) -> bool {
    let cmp = |bound: &Value| key.partial_cmp_typed(bound);
    let above = match from {
        KeyBound::Unbounded => true,
        KeyBound::Inclusive(b) => cmp(b) != Some(Ordering::Less),
        KeyBound::Exclusive(b) => cmp(b) == Some(Ordering::Greater),
    };
    let below = match to {
        KeyBound::Unbounded => true,
        KeyBound::Inclusive(b) => cmp(b) != Some(Ordering::Greater),
        KeyBound::Exclusive(b) => cmp(b) == Some(Ordering::Less),
    };
    above && below
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_apply_equals_bulk_load_after_every_step(
        seed in 0u64..1_000_000,
        n in prop_oneof![0usize..6, 6usize..60, 250usize..600],
        steps in 8usize..40,
        wide in any::<bool>(),
        hold_snapshot in any::<bool>(),
    ) {
        let mut gen = Gen { rng: Rng(seed), wide };
        let mut model: Vec<Tuple> = (0..n).map(|_| gen.row()).collect();
        let mut cat = Catalog::new(1 << 16);
        cat.add_disk_table(TABLE, schema(), &model);
        for (name, col) in INDEXES {
            cat.create_index(name, TABLE, schema().columns()[col].name.as_str())
                .expect("create index");
        }
        // Short tables are drained to empty first, then grown again.
        let mut draining = n < 6;

        for step in 0..steps {
            let stored = cat.expect(TABLE);
            let rec = next_record(&mut gen, disk(&stored), &model, draining);
            let step = match &rec {
                WalRecord::Insert { .. } => format!("step {step} insert"),
                WalRecord::Update { row, .. } => format!("step {step} update row {row}"),
                WalRecord::Delete { row, .. } => format!("step {step} delete row {row}"),
                WalRecord::Commit { .. } => unreachable!("no commit markers are generated"),
            };
            let snapshot: Option<(Arc<StoredTable>, Vec<Arc<IndexEntry>>)> = hold_snapshot
                .then(|| (Arc::clone(&stored), cat.index_entries()));
            let rows_before = model.clone();
            drop(stored);

            cat.apply_wal_record(&rec).expect("valid record applies");
            apply_to_model(&mut model, &rec);
            draining &= !model.is_empty();

            let stored = cat.expect(TABLE);
            assert_table_matches(disk(&stored), &model, &step)?;
            for (name, col) in INDEXES {
                let entry = cat.index(name).expect("index stays registered");
                assert_index_matches(&entry.index, &model, col, &mut gen, &step)?;
            }
            if let Some((old_table, old_indexes)) = snapshot {
                // Copy-on-write: the reader's snapshot did not move.
                prop_assert_eq!(&disk(&old_table).all_tuples(), &rows_before, "{}: snapshot", &step);
                for e in &old_indexes {
                    prop_assert_eq!(e.index.len(), rows_before.len(), "{}: index snapshot", &step);
                }
            }
        }
    }
}

/// 3000 narrow rows over several extents whose `s` column repeats 40
/// values for a third of the table, then shows a thousand new ones —
/// the mirror's per-column string sharing gives up mid-table — then
/// repeats again; `pad` never repeats at all.
#[test]
fn mirror_equals_rows_when_a_column_stops_repeating_mid_table() {
    let rows: Vec<Tuple> = (0..3000usize)
        .map(|i| {
            let s = if (1000..2000).contains(&i) { i } else { i % 40 };
            vec![
                Value::Int(i as i64 % 7),
                Value::str(format!("value-{s}")),
                Value::str(format!("{i:060}")),
            ]
        })
        .collect();
    let table = DiskTable::load(1, schema(), &rows, Arc::new(BufferPool::new(16)));
    assert!(table.columnar().num_extents() > 2);
    assert_mirror_matches(&table, &rows, "bulk load").expect("mirror equals rows");
}

/// A table of 100 rows whose first row's payload has the byte at
/// `offset` garbled, its rows, and where that byte is in page 0. The
/// mirror and the projected scan decode without checksum verification
/// (they never go through the pool), so the decoder itself must refuse.
fn garbled_table(offset: usize) -> (DiskTable, Vec<Tuple>, usize) {
    let mut gen = Gen {
        rng: Rng(7),
        wide: false,
    };
    let rows: Vec<Tuple> = (0..100).map(|_| gen.row()).collect();
    let mut table = DiskTable::load(1, schema(), &rows, Arc::new(BufferPool::new(16)));
    // Slot 0's directory entry follows the 4-byte page header.
    let image = table.page_image(0);
    let at = u16::from_le_bytes([image[4], image[5]]) as usize + offset;
    table.corrupt_page(0, at);
    (table, rows, at)
}

/// [`garbled_table`] handed to `decode`.
fn with_garbled_payload<R>(offset: usize, decode: impl FnOnce(&DiskTable) -> R) -> R {
    decode(&garbled_table(offset).0)
}

/// The mirror leaves out the extent of a page that does not decode,
/// where it used to panic: a scan never reads that extent (the page
/// fails its checksum first). The extent stays stale, so once the page
/// is whole again the next call decodes it.
fn assert_mirror_leaves_out_a_garbled_extent(offset: usize) {
    let (mut table, rows, at) = garbled_table(offset);
    let mirror = table.columnar();
    assert_eq!(mirror.num_extents(), 1);
    assert_eq!(
        mirror.extent_chunk(0).len(),
        0,
        "the garbled extent is left out"
    );
    table.corrupt_page(0, at);
    assert_mirror_matches(&table, &rows, "whole again").expect("mirror equals rows");
}

/// Arity (2 bytes), then the first value's tag.
const FIRST_TAG: usize = 2;
/// Arity, a tagged Int (1 + 8), the Str tag, then its u16 length: with
/// the high byte garbled the string claims more than the page.
const STR_LEN_HIGH: usize = 2 + 9 + 1 + 1;

#[test]
fn mirror_leaves_out_an_extent_with_an_unknown_value_tag() {
    assert_mirror_leaves_out_a_garbled_extent(FIRST_TAG);
}

#[test]
fn mirror_leaves_out_an_extent_with_a_string_longer_than_its_slot() {
    assert_mirror_leaves_out_a_garbled_extent(STR_LEN_HIGH);
}

#[test]
#[should_panic(expected = "corrupt page")]
fn projection_refuses_an_unknown_tag_on_a_value_it_steps_over() {
    with_garbled_payload(FIRST_TAG, |t| t.project_pages(&[1]).count());
}

#[test]
#[should_panic(expected = "corrupt page")]
fn projection_refuses_a_string_longer_than_its_slot() {
    with_garbled_payload(STR_LEN_HIGH, |t| t.project_pages(&[1]).count());
}

#[test]
fn projection_reads_nothing_past_its_last_column() {
    // The garbled length belongs to column 1; a projection of column 0
    // never gets there (and a whole-row decode of the slot would).
    let keys = with_garbled_payload(STR_LEN_HIGH, |t| t.column_with_row_ids(0));
    assert_eq!(keys.len(), 100);
    assert!(keys.iter().enumerate().all(|(i, (_, row))| *row == i));
}

// ---------------------------------------------------------------------------
// The mirror decodes column by column: what a scan asks for, grown on
// demand, mended after a mutation.
// ---------------------------------------------------------------------------

/// Every stored type, chars beyond ASCII among them, so a row's width
/// cannot be read off its payload length alone.
fn mixed_schema() -> Schema {
    Schema::new(&[
        ("a", ColumnType::Int),
        ("flag", ColumnType::Char),
        ("s", ColumnType::Str),
        ("d", ColumnType::Date),
        ("b", ColumnType::Bool),
        ("mark", ColumnType::Char),
        ("t", ColumnType::Str),
    ])
}

fn mixed_row(gen: &mut Gen) -> Tuple {
    const CHARS: [char; 5] = ['A', 'F', 'é', '日', '🦀'];
    vec![
        Value::Int(gen.below(1000) as i64 - 500),
        Value::Char(CHARS[gen.below(CHARS.len())]),
        Value::str("x".repeat(gen.below(90))),
        Value::Date(gen.below(3000) as i32),
        Value::Bool(gen.below(2) == 1),
        Value::Char(CHARS[gen.below(CHARS.len())]),
        Value::str(format!("{}-{}", gen.below(20), "é".repeat(gen.below(8)))),
    ]
}

/// The TPC-H tables as loaded, no mirror built: each case clones the
/// table it needs, so every case starts from a fresh mirror.
fn tpch_tables() -> &'static Catalog {
    static CAT: OnceLock<Catalog> = OnceLock::new();
    CAT.get_or_init(|| load_tpch(support::source(0.001), EngineKind::Disk, 1 << 16))
}

/// What Q1, Q3, Q5 and Q6 leave decoded in the mirrors of a fresh disk
/// database: `(query, table, mask)`, the masks their scans ask for.
fn plan_masks() -> &'static [(&'static str, &'static str, Vec<bool>)] {
    static MASKS: OnceLock<Vec<(&str, &str, Vec<bool>)>> = OnceLock::new();
    MASKS.get_or_init(|| {
        let mut masks = Vec::new();
        for &(query, mk) in &support::TPCH_PLANS[..4] {
            let cat = load_tpch(support::source(0.001), EngineKind::Disk, 1 << 16);
            ExecEngine::Columnar.execute(mk(&cat).as_mut(), &mut ExecCtx::new());
            for table in [
                "lineitem", "orders", "customer", "nation", "region", "supplier",
            ] {
                let stored = cat.expect(table);
                let none = vec![false; stored.schema().arity()];
                let mask = disk(&stored).columnar_with(&none).decoded().to_vec();
                if mask.contains(&true) {
                    masks.push((query, table, mask));
                }
            }
        }
        masks
    })
}

/// Q6 reads four of `lineitem`'s sixteen columns and its scan decodes
/// no more; no plan needs every column of any table it scans.
#[test]
fn tpch_plans_decode_only_the_columns_they_read() {
    let (_, _, q6) = (plan_masks().iter())
        .find(|(q, t, _)| (*q, *t) == ("Q6", "lineitem"))
        .expect("Q6 scans lineitem");
    let schema = tpch_tables().expect("lineitem").schema().clone();
    let names: Vec<&str> = (schema.names().into_iter().zip(q6))
        .filter_map(|(name, &read)| read.then_some(name))
        .collect();
    assert_eq!(
        names,
        ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"]
    );
    assert_eq!(
        plan_masks().len(),
        1 + 3 + 6 + 1,
        "tables scanned per query"
    );
    assert!(plan_masks().iter().all(|(_, _, m)| m.contains(&false)));
}

/// A mask: empty, every column, one of the plans' (on their table), or
/// each column with probability one half.
fn draw_mask(gen: &mut Gen, table: &str, arity: usize) -> Vec<bool> {
    let of_table: Vec<&Vec<bool>> = (plan_masks().iter())
        .filter(|(_, t, _)| *t == table)
        .map(|(_, _, m)| m)
        .collect();
    match gen.below(5) {
        0 => vec![false; arity],
        1 => vec![true; arity],
        2 if !of_table.is_empty() => of_table[gen.below(of_table.len())].clone(),
        _ => (0..arity).map(|_| gen.below(2) == 1).collect(),
    }
}

/// `part` holds exactly the columns `mask` of `full`'s rows, cell for
/// cell, and every row's full stored width.
fn assert_partial_mirror(
    part: &ColumnarExtents,
    full: &ColumnarExtents,
    mask: &[bool],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(part.decoded(), mask, "{}: decoded columns", what);
    prop_assert_eq!(part.num_extents(), full.num_extents(), "{}: extents", what);
    for e in 0..full.num_extents() {
        let (p, f) = (part.extent_chunk(e), full.extent_chunk(e));
        prop_assert_eq!(p.len(), f.len(), "{}: extent {} rows", what, e);
        for (c, &wanted) in mask.iter().enumerate() {
            if wanted {
                prop_assert!(
                    p.column(c) == f.column(c),
                    "{}: extent {} column {}",
                    what,
                    e,
                    c
                );
            } else {
                prop_assert!(
                    p.column(c).data.is_empty(),
                    "{}: column {} decoded",
                    what,
                    c
                );
            }
        }
        let mut widths = Vec::new();
        p.row_widths(0..p.len(), &mut widths);
        let want: Vec<u32> = (0..f.len())
            .map(|i| tuple_width(&f.row(i)) as u32)
            .collect();
        prop_assert_eq!(&widths, &want, "{}: extent {} widths", what, e);
        prop_assert_eq!(p.width_sum(0..p.len()), f.width_sum(0..f.len()));
    }
    Ok(())
}

/// Grown in two steps equals decoded at once, extent for extent.
fn assert_same_mirror(
    a: &ColumnarExtents,
    b: &ColumnarExtents,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.decoded(), b.decoded(), "{}: decoded", what);
    prop_assert_eq!(a.num_extents(), b.num_extents(), "{}: extents", what);
    for e in 0..a.num_extents() {
        prop_assert!(
            a.extent_chunk(e) == b.extent_chunk(e),
            "{}: extent {}",
            what,
            e
        );
    }
    Ok(())
}

fn union(a: &[bool], b: &[bool]) -> Vec<bool> {
    a.iter().zip(b).map(|(x, y)| x | y).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_mirror_decodes_the_columns_asked_for_and_grows_on_demand(
        seed in 0u64..1_000_000,
        table_no in 0usize..4,
        n in prop_oneof![0usize..3, 3usize..900],
    ) {
        let mut gen = Gen { rng: Rng(seed), wide: false };
        let (name, fresh): (&str, DiskTable) = match table_no {
            0 => {
                let rows: Vec<Tuple> = (0..n).map(|_| mixed_row(&mut gen)).collect();
                let pool = Arc::new(BufferPool::new(16));
                ("mixed", DiskTable::load(1, mixed_schema(), &rows, pool))
            }
            t => {
                let name = ["lineitem", "orders", "customer"][t - 1];
                (name, disk(&tpch_tables().expect(name)).clone())
            }
        };
        let arity = fresh.schema().arity();
        let (a, b) = (draw_mask(&mut gen, name, arity), draw_mask(&mut gen, name, arity));
        let both = union(&a, &b);
        let what = format!("{name} {a:?} then {b:?}");

        let full = fresh.clone().columnar();
        prop_assert_eq!(full.decoded(), &vec![true; arity][..]);
        let once = fresh.clone().columnar_with(&both);
        assert_partial_mirror(&once, &full, &both, &what)?;

        let mut grown = fresh.clone();
        let first = grown.columnar_with(&a);
        assert_partial_mirror(&first, &full, &a, &what)?;
        let second = grown.columnar_with(&b);
        assert_same_mirror(&second, &once, &what)?;
        // What the first call returned still reads its columns, and
        // asking for what is decoded decodes nothing new.
        assert_partial_mirror(&first, &full, &a, &what)?;
        prop_assert!(Arc::ptr_eq(&grown.columnar_with(&a), &second));

        // After a mutation the mirror is mended and grows again, to what
        // a fresh load of the new rows would decode at once.
        let rows = grown.all_tuples();
        if rows.is_empty() {
            grown.append(&match name {
                "mixed" => mixed_row(&mut gen),
                _ => tpch_tables().expect(name).schema().columns().iter().map(|c| match c.ty {
                    ColumnType::Int => Value::Int(1),
                    ColumnType::Str => Value::str("s"),
                    ColumnType::Date => Value::Date(1),
                    ColumnType::Char => Value::Char('c'),
                    ColumnType::Bool => Value::Bool(true),
                }).collect(),
            });
        } else {
            let row = gen.below(rows.len());
            match gen.below(3) {
                0 => grown.remove_row(row),
                1 => grown.append(&rows[row]),
                _ => grown.set_row(row, &rows[(row + 1) % rows.len()]),
            }
        }
        let mutated = grown.all_tuples();
        let pool = Arc::new(BufferPool::new(16));
        let reloaded = DiskTable::load(2, grown.schema().clone(), &mutated, pool);
        grown.columnar_with(&a);
        let regrown = grown.columnar_with(&b);
        let what = format!("{what}, mutated");
        assert_same_mirror(&regrown, &reloaded.clone().columnar_with(&both), &what)?;
        assert_partial_mirror(&regrown, &reloaded.columnar(), &both, &what)?;
    }
}

// ---------------------------------------------------------------------------
// The mirror across mutations: a row change marks stale the extents
// whose pages it rewrote, and the next `columnar_with` decodes those
// again and shares the others.
// ---------------------------------------------------------------------------

/// A [`mixed_row`] whose `s` is 0–89 bytes, or, one time in four,
/// 1–4 KB: wide enough to outgrow a page's slack, so an update to one
/// moves page boundaries and can change the page count mid-table.
fn mixed_row_of_any_width(gen: &mut Gen) -> Tuple {
    let mut row = mixed_row(gen);
    let len = match gen.below(4) {
        0 => 1000 + gen.below(3000),
        _ => gen.below(90),
    };
    row[2] = Value::str("x".repeat(len));
    row
}

/// One random row change, applied to `table` and `model`: an append,
/// a delete, a same-width update or one that changes the row's width,
/// aimed at an extent edge, a page edge, the first or last row, or any
/// row.
fn mutate(gen: &mut Gen, table: &mut DiskTable, model: &mut Vec<Tuple>) -> String {
    if model.is_empty() || gen.below(5) == 0 {
        let row = mixed_row_of_any_width(gen);
        table.append(&row);
        model.push(row);
        return "append".into();
    }
    let n = model.len();
    let row = match gen.below(4) {
        0 | 1 => {
            let edges = edge_rows(table, gen.below(2) == 0);
            edges[gen.below(edges.len())]
        }
        2 => [0, n - 1][gen.below(2)],
        _ => gen.below(n),
    };
    match gen.below(4) {
        0 => {
            table.remove_row(row);
            model.remove(row);
            format!("delete row {row}")
        }
        1 => {
            // `a`, `d` and `b` have fixed widths.
            let mut tuple = model[row].clone();
            let other = mixed_row(gen);
            for c in [0, 3, 4] {
                tuple[c] = other[c].clone();
            }
            table.set_row(row, &tuple);
            model[row] = tuple;
            format!("same-width update of row {row}")
        }
        _ => {
            let tuple = mixed_row_of_any_width(gen);
            table.set_row(row, &tuple);
            model[row] = tuple;
            format!("update of row {row}")
        }
    }
}

/// `got` is what a fresh decode of `model`'s pages gives: a table
/// loaded from `model` asked for the same columns — cells, widths, page
/// rows and extents — and, when `got` is complete, the same encoded
/// extents and per-row encoded charge.
fn assert_mirror_is_a_fresh_decode(
    got: &ColumnarExtents,
    model: &[Tuple],
    what: &str,
) -> Result<(), TestCaseError> {
    let fresh = DiskTable::load(1, mixed_schema(), model, Arc::new(BufferPool::new(16)));
    let want = fresh.clone().columnar_with(got.decoded());
    assert_same_mirror(got, &want, what)?;
    assert_partial_mirror(got, &fresh.columnar(), got.decoded(), what)?;
    for p in 0..=fresh.num_pages() {
        prop_assert_eq!(
            got.page_row_range(0, p),
            want.page_row_range(0, p),
            "{}: rows before page {}",
            what,
            p
        );
    }
    let (_, covered) = got.page_row_range(0, fresh.num_pages());
    prop_assert_eq!(covered, model.len(), "{}: rows of the pages", what);
    if got.decoded().iter().all(|&d| d) {
        for e in 0..want.num_extents() {
            prop_assert!(
                got.extent_encoded(e) == want.extent_encoded(e),
                "{}: encoded extent {}",
                what,
                e
            );
        }
        prop_assert_eq!(
            got.avg_encoded_tuple_bytes(),
            want.avg_encoded_tuple_bytes(),
            "{}: encoded bytes per row",
            what
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every row change the kept mirror equals a fresh decode, a
    /// mirror handed out before the change still reads the rows it was
    /// built from, and so does the table version a reader kept. Under
    /// compressed pricing (the mirror complete, every extent's encoded
    /// form built each step) the encoded extents and the per-row charge
    /// equal a fresh table's.
    #[test]
    fn a_kept_mirror_equals_a_fresh_decode_after_every_change(
        seed in 0u64..1_000_000,
        n in prop_oneof![0usize..4, 300usize..1200],
        steps in 4usize..20,
        compressed in any::<bool>(),
    ) {
        let mut gen = Gen { rng: Rng(seed), wide: false };
        let mut model: Vec<Tuple> = (0..n).map(|_| mixed_row_of_any_width(&mut gen)).collect();
        let pool = Arc::new(BufferPool::new(16));
        let mut live = DiskTable::load(1, mixed_schema(), &model, pool);
        let arity = mixed_schema().arity();
        let mut mask = match compressed {
            true => vec![true; arity],
            false => draw_mask(&mut gen, "mixed", arity),
        };
        let mut before = live.columnar_with(&mask);
        assert_mirror_is_a_fresh_decode(&before, &model, "load")?;
        for step in 0..steps {
            let rows_before = model.clone();
            let reader = (gen.below(2) == 0).then(|| live.clone());
            let what = format!("step {step}: {}", mutate(&mut gen, &mut live, &mut model));
            if gen.below(3) == 0 {
                // A scan asks for more columns than the mirror holds.
                mask = union(&mask, &draw_mask(&mut gen, "mixed", arity));
            }
            let after = live.columnar_with(&mask);
            assert_mirror_is_a_fresh_decode(&after, &model, &what)?;
            // What was handed out before the change did not move, and
            // a reader's version of the table still hands it out.
            let old = format!("{what}, mirror from before");
            assert_mirror_is_a_fresh_decode(&before, &rows_before, &old)?;
            if let Some(reader) = reader {
                let kept = reader.columnar_with(before.decoded());
                prop_assert!(Arc::ptr_eq(&kept, &before), "{}: reader's mirror", what);
            }
            before = after;
        }
    }
}
