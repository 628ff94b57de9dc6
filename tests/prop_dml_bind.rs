//! Property test for the DML bind pass: **production bind ≡ a
//! row-at-a-time oracle**.
//!
//! A filtered `UPDATE`/`DELETE` finds its rows by filtering typed
//! columns — the heap's own, or, on a paged table, the extent chunks of
//! its columnar mirror with the predicate's columns decoded
//! (`DiskTable::columnar_with`; after a row change only the extents it
//! rewrote are decoded again) — and decodes a whole row only where the
//! predicate held. It claims to emit the records, and charge the
//! ledger, of the obvious implementation: decode every row, evaluate
//! the predicate on the tuple. The oracle here *is* that implementation
//! (`rows()` + `Expr::eval_bool`, written in this file, sharing nothing
//! with `scan_matching`), and generated statements over generated
//! tables must agree with it in records, `affected`, the whole ledger
//! (every charge class) and `pred_evals`.
//!
//! Predicates: comparisons on `Int`/`Str`/`Date`/`Char` columns,
//! `AND`/`OR`/`NOT` nests (short-circuiting and exhaustive `OR`),
//! arithmetic, `IN`, `BETWEEN`, a predicate that reads no column, and
//! no predicate. Tables: empty, one row, many rows to a page, one row
//! to a page, mixed widths, several extents — and every table gets
//! predicates aimed at the first and last row of its pages and of its
//! extents, where the bind translates chunk rows to row ids. One
//! property binds on a table that has taken row changes while its
//! mirror was alive, so stale and kept extents are mixed.
//!
//! Mutation checks (done by hand when this file was written, redo them
//! when `scan_matching` or the mirror changes): dropping one wanted
//! column from the paged arm's mask — `cols.pop()` before `needed` is
//! built — fails `paged_bind_equals_the_row_oracle` (the filter reads a
//! column the mirror never decoded); marking one extent too few stale
//! in `Mirror::mark_rewritten`, whether or not the page count changed,
//! fails `bind_on_a_mutated_table_equals_the_row_oracle`.

mod support;

use proptest::prelude::*;

use ecodb::query::sql::plan::bind_expr;
use ecodb::query::sql::{execute_dml, parse_statement, DmlOutcome, Statement};
use ecodb::query::ExecCtx;
use ecodb::storage::disk_table::DiskTable;
use ecodb::storage::wal::WalRecord;
use ecodb::storage::{
    Catalog, ColumnType, DataChunk, HeapTable, Schema, StoredTable, TableData, Tuple, Value,
};
use ecodb::tpch::Date;
use support::{disk, edge_rows, Rng};

const TABLE: &str = "t";

/// One column of every type a predicate can name (`c1`/`c2`: a `Char`
/// compares only with another `Char`, there is no literal), a row id
/// `n` to aim at single rows, and `pad` to set how many rows a page
/// takes.
fn schema() -> Schema {
    Schema::new(&[
        ("k", ColumnType::Int),
        ("s", ColumnType::Str),
        ("d", ColumnType::Date),
        ("c1", ColumnType::Char),
        ("c2", ColumnType::Char),
        ("n", ColumnType::Int),
        ("pad", ColumnType::Str),
    ])
}

struct Gen(Rng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.index(n)
    }

    fn key(&mut self) -> i64 {
        self.below(40) as i64
    }

    fn name(&mut self) -> String {
        format!("name-{:02}", self.below(12))
    }

    fn date(&mut self) -> Date {
        Date::from_ymd(1995, 1 + self.below(3) as u32, 1 + self.below(28) as u32)
    }

    fn letter(&mut self) -> char {
        char::from(b'A' + self.below(5) as u8)
    }

    /// `shape` 0: empty; 1: one row; 2: ~100 rows to a page; 3: one row
    /// to a page; 4: a few rows to a page, widths all over the place;
    /// 5: ~35 rows to a page over three or four extents.
    fn rows(&mut self, shape: usize) -> Vec<Tuple> {
        let len = match shape {
            0 => 0,
            1 => 1,
            2 => 250 + self.below(300),
            3 => 5 + self.below(6),
            4 => 30 + self.below(60),
            _ => 1300 + self.below(700),
        };
        (0..len).map(|i| self.row(shape, i)).collect()
    }

    /// Row `n` of a table of `shape` (see [`Self::rows`]).
    fn row(&mut self, shape: usize, n: usize) -> Tuple {
        let pad = match shape {
            3 => 4200 + self.below(2500),
            4 if self.below(2) == 0 => 900 + self.below(2500),
            5 => 100 + self.below(150),
            _ => self.below(40),
        };
        vec![
            Value::Int(self.key()),
            Value::str(self.name()),
            Value::Date(self.date().0),
            Value::Char(self.letter()),
            Value::Char(self.letter()),
            Value::Int(n as i64),
            Value::str("p".repeat(pad)),
        ]
    }

    /// One row change to `table`: an append (the next `n`), a delete,
    /// or an update that rewrites `pad` (usually changing the row's
    /// width) and `k`, aimed at the edge of a page or an extent, or at
    /// any row.
    fn change(&mut self, table: &DiskTable, shape: usize, next_n: &mut usize) -> WalRecord {
        let name = TABLE.to_string();
        if table.is_empty() || self.below(4) == 0 {
            *next_n += 1;
            return WalRecord::Insert {
                table: name,
                tuple: self.row(shape, *next_n),
            };
        }
        let row = match self.below(3) {
            0 => self.below(table.len()),
            side => {
                let edges = edge_rows(table, side == 2);
                edges[self.below(edges.len())]
            }
        };
        if self.below(3) == 0 {
            return WalRecord::Delete { table: name, row };
        }
        let mut tuple = table.tuple_at(row);
        let fresh = self.row(shape, 0);
        tuple[0] = fresh[0].clone();
        tuple[6] = fresh[6].clone();
        WalRecord::Update {
            table: name,
            row,
            tuple,
        }
    }

    fn cmp(&mut self) -> &'static str {
        ["=", "<>", "<", "<=", ">", ">="][self.below(6)]
    }

    /// A comparison, `IN` or `BETWEEN` over one or two columns.
    fn leaf(&mut self, edges: &[usize]) -> String {
        let op = self.cmp();
        match self.below(11) {
            0 => format!("k {op} {}", self.key()),
            1 => format!("s {op} '{}'", self.name()),
            2 => format!("d {op} DATE '{}'", self.date().iso()),
            3 => format!("c1 {op} c2"),
            4 => format!("k + n {op} {}", self.below(400)),
            5 => format!("n * 2 - k / 3 {op} {}", self.below(600)),
            6 => format!("k IN ({}, {}, {})", self.key(), self.key(), self.key()),
            7 => format!("s IN ('{}', '{}')", self.name(), self.name()),
            8 => format!("k BETWEEN {} AND {}", self.below(20), 15 + self.below(25)),
            // One row, or two, at the first or last slot of a page.
            9 => format!("n = {}", edges[self.below(edges.len())]),
            _ => format!(
                "n IN ({}, {})",
                edges[self.below(edges.len())],
                edges[self.below(edges.len())]
            ),
        }
    }

    fn predicate(&mut self, depth: usize, edges: &[usize]) -> String {
        if depth == 0 {
            return self.leaf(edges);
        }
        match self.below(6) {
            0 | 1 => format!(
                "({} AND {})",
                self.predicate(depth - 1, edges),
                self.predicate(depth - 1, edges)
            ),
            2 | 3 => format!(
                "({} OR {})",
                self.predicate(depth - 1, edges),
                self.predicate(depth - 1, edges)
            ),
            4 => format!("NOT ({})", self.predicate(depth - 1, edges)),
            _ => self.leaf(edges),
        }
    }

    /// `WHERE …`, or nothing: a generated nest, a predicate that reads
    /// no column (true and false), or no predicate at all.
    fn where_clause(&mut self, edges: &[usize]) -> String {
        match self.below(12) {
            0 => String::new(),
            1 => " WHERE 1 = 1".to_string(),
            2 => " WHERE 2 < 1".to_string(),
            _ => {
                let depth = self.below(4);
                format!(" WHERE {}", self.predicate(depth, edges))
            }
        }
    }

    fn statement(&mut self, edges: &[usize]) -> String {
        let filter = self.where_clause(edges);
        match self.below(3) {
            0 => format!("DELETE FROM {TABLE}{filter}"),
            1 => format!("UPDATE {TABLE} SET k = k + 1, s = 'hit'{filter}"),
            _ => format!("UPDATE {TABLE} SET n = n * 2{filter}"),
        }
    }
}

/// The `n` of each of `rows` (until a row changes, its row id), or 0,
/// which matches nothing, when there are none.
fn ns(table: &DiskTable, rows: &[usize]) -> Vec<usize> {
    let n = |&r: &usize| match table.tuple_at(r)[5] {
        Value::Int(n) => n as usize,
        ref other => panic!("n is an Int, not {other:?}"),
    };
    match rows {
        [] => vec![0],
        rows => rows.iter().map(n).collect(),
    }
}

/// The obvious bind: decode every row, evaluate the predicate and the
/// `SET` expressions on the tuple, one row at a time. Charges the scan
/// as the production bind documents it — memory streaming over the
/// stored bytes — and whatever `eval`/`eval_bool` charge.
fn oracle(stored: &StoredTable, stmt: &Statement, ctx: &mut ExecCtx) -> DmlOutcome {
    let (rows, bytes): (Vec<Tuple>, u64) = match &stored.data {
        TableData::Memory(h) => (h.rows().collect(), h.bytes()),
        TableData::Disk(d) => (d.rows().collect(), d.avg_tuple_bytes() * d.len() as u64),
    };
    ctx.charge_mem_bytes(bytes);
    let schema = stored.schema();
    let (filter, sets) = match stmt {
        Statement::Update(u) => (&u.where_clause, Some(&u.sets)),
        Statement::Delete(d) => (&d.where_clause, None),
        other => panic!("not a filtered statement: {other:?}"),
    };
    let pred = filter
        .as_ref()
        .map(|w| bind_expr(w, schema).expect("predicate binds"));
    let sets: Option<Vec<_>> = sets.map(|sets| {
        sets.iter()
            .map(|(col, e)| {
                let idx = schema.index_of(col).expect("SET column exists");
                (idx, bind_expr(e, schema).expect("SET expression binds"))
            })
            .collect()
    });
    let table = stored.name.clone();
    let mut records = Vec::new();
    for (row, tuple) in rows.iter().enumerate() {
        if !pred.as_ref().is_none_or(|p| p.eval_bool(tuple, ctx)) {
            continue;
        }
        records.push(match &sets {
            Some(sets) => {
                let mut new = tuple.clone();
                for (idx, e) in sets {
                    new[*idx] = e.eval(tuple, ctx);
                }
                WalRecord::Update {
                    table: table.clone(),
                    row,
                    tuple: new,
                }
            }
            None => WalRecord::Delete {
                table: table.clone(),
                row,
            },
        });
    }
    if sets.is_none() {
        // Deletes are logged in descending row order.
        records.reverse();
    }
    let affected = records.len() as u64;
    DmlOutcome { records, affected }
}

/// Production bind of `sql` against `table` of `catalog`, held to the
/// oracle in everything the caller logs and prices.
fn assert_bind_equals_oracle(
    catalog: &Catalog,
    table: &str,
    sql: &str,
    short_circuit_or: bool,
) -> Result<(), TestCaseError> {
    let stmt = parse_statement(sql).expect("generated SQL parses");
    let ctx = || {
        let mut ctx = ExecCtx::new();
        ctx.short_circuit_or = short_circuit_or;
        ctx
    };
    let (mut got_ctx, mut want_ctx) = (ctx(), ctx());
    let got = execute_dml(catalog, &stmt, &mut got_ctx).expect("generated SQL binds");
    let want = oracle(&catalog.expect(table), &stmt, &mut want_ctx);
    prop_assert_eq!(got.affected, want.affected, "{}", sql);
    prop_assert_eq!(&got.records, &want.records, "{}", sql);
    want_ctx.ledger.assert_same(&got_ctx.ledger, sql);
    prop_assert_eq!(got_ctx.pred_evals, want_ctx.pred_evals, "{}", sql);
    Ok(())
}

fn paged(rows: &[Tuple]) -> Catalog {
    let mut catalog = Catalog::new(16);
    catalog.add_disk_table(TABLE, schema(), rows);
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn paged_bind_equals_the_row_oracle(seed in 0u64..1_000_000, shape in 0usize..6) {
        let mut gen = Gen(Rng(seed));
        let rows = gen.rows(shape);
        let catalog = paged(&rows);
        let stored = catalog.expect(TABLE);
        let table = disk(&stored);
        match shape {
            2 => prop_assert!(table.num_pages() >= 2, "many rows to a page, several pages"),
            3 => prop_assert_eq!(table.num_pages(), rows.len(), "one row to a page"),
            _ => {}
        }
        let edges = ns(table, &edge_rows(table, false));
        for i in 0..12 {
            let sql = gen.statement(&edges);
            assert_bind_equals_oracle(&catalog, TABLE, &sql, i % 2 == 0)?;
        }
        // Every page edge, by itself: exactly that row, under its id.
        for &row in &edges {
            let sql = format!("DELETE FROM {TABLE} WHERE n = {row}");
            assert_bind_equals_oracle(&catalog, TABLE, &sql, true)?;
        }
    }

    /// Bind on a table whose mirror was alive through row changes:
    /// each round applies a few changes (appends, deletes, updates that
    /// widen or narrow a row, aimed at extent and page edges), so the
    /// next bind finds the extents they rewrote stale and the others
    /// kept, then binds generated statements and every extent edge.
    #[test]
    fn bind_on_a_mutated_table_equals_the_row_oracle(
        seed in 0u64..1_000_000,
        shape in prop_oneof![Just(2usize), Just(4), Just(5)],
        rounds in 2usize..5,
    ) {
        let mut gen = Gen(Rng(seed));
        let rows = gen.rows(shape);
        let mut next_n = rows.len();
        let catalog = paged(&rows);
        for _ in 0..rounds {
            let stored = catalog.expect(TABLE);
            let table = disk(&stored);
            let pages = ns(table, &edge_rows(table, false));
            for i in 0..4 {
                let sql = gen.statement(&pages);
                assert_bind_equals_oracle(&catalog, TABLE, &sql, i % 2 == 0)?;
            }
            for n in ns(table, &edge_rows(table, true)) {
                let sql = format!("UPDATE {TABLE} SET k = 0 WHERE n = {n}");
                assert_bind_equals_oracle(&catalog, TABLE, &sql, true)?;
            }
            drop(stored);
            for _ in 0..1 + gen.below(3) {
                let rec = gen.change(disk(&catalog.expect(TABLE)), shape, &mut next_n);
                catalog.apply_wal_record(&rec).expect("a valid change applies");
            }
        }
    }

    /// The decoder under the bind, on its own: any ascending column
    /// subset of any page equals the same columns of its decoded rows.
    #[test]
    fn projected_pages_equal_their_rows(seed in 0u64..1_000_000, shape in 0usize..5, mask in 0u32..128) {
        let rows = Gen(Rng(seed)).rows(shape);
        let catalog = paged(&rows);
        let stored = catalog.expect(TABLE);
        let table = disk(&stored);
        let full = schema();
        let cols: Vec<usize> = (0..full.arity()).filter(|c| (mask >> c) & 1 == 1).collect();
        let projected: Vec<(&str, ColumnType)> = cols
            .iter()
            .map(|&c| (full.columns()[c].name.as_str(), full.columns()[c].ty))
            .collect();
        let projected = Schema::new(&projected);
        let mut next_row = 0;
        for (page_no, (first_row, chunk, page)) in table.project_pages(&cols).enumerate() {
            prop_assert_eq!(first_row, next_row);
            prop_assert!(page.image() == table.page_image(page_no));
            let want: Vec<Tuple> = rows[first_row..first_row + page.len()]
                .iter()
                .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                .collect();
            prop_assert_eq!(chunk.len(), want.len());
            prop_assert!(
                chunk == DataChunk::from_rows(&projected, &want),
                "page {} columns {:?}", page_no, cols
            );
            next_row += page.len();
        }
        prop_assert_eq!(next_row, rows.len());
    }
}

/// The heap filters its own columns a window at a time, a paged table a
/// projection of each page: neither is the other's oracle any more, so
/// both answer to the row-at-a-time one (short-circuit included: the
/// second conjunct runs only where the first held).
#[test]
fn heap_and_paged_binds_both_equal_the_row_oracle() {
    let rows = Gen(Rng(7)).rows(4);
    let mut catalog = paged(&rows);
    catalog.add_memory_table("m", HeapTable::from_tuples(schema(), rows));
    for sql in [
        "UPDATE {} SET k = k * 2 WHERE k >= 3 AND s < 'name-07'",
        "DELETE FROM {} WHERE k IN (2, 5, 7) OR s = 'name-09'",
        "DELETE FROM {} WHERE NOT (c1 < c2) AND d >= DATE '1995-02-10'",
        "UPDATE {} SET s = 'all'",
    ] {
        for table in ["m", TABLE] {
            assert_bind_equals_oracle(&catalog, table, &sql.replace("{}", table), true)
                .unwrap_or_else(|e| panic!("{table}: {e}"));
        }
    }
}
