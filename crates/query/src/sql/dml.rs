//! DML binding and execution: `INSERT`/`UPDATE`/`DELETE` → redo
//! records.
//!
//! Executing a DML statement does **not** mutate anything here — it
//! evaluates the statement against the table's current state and
//! returns the [`WalRecord`]s describing the mutation. The caller
//! (`eco-core`) owns the write protocol: charge
//! [`OpClass::LogRecord`](eco_simhw::trace::OpClass) per record, append
//! to the write-ahead log, commit (fsync, charging the v5 log I/O
//! classes), and only then apply the records through
//! `Catalog::apply_wal_record`. Keeping record *generation* separate
//! from record *application* is what makes crash recovery replay
//! byte-identical to live execution — both sides apply the exact same
//! records.
//!
//! Pricing of the generation pass itself: the row scan a filtered
//! `UPDATE`/`DELETE` performs is charged as **memory streaming** over
//! the table's stored bytes (the mutation reads the resident working
//! copy, not the paged images through the buffer pool; durability I/O
//! is priced separately by the log classes), and every predicate / SET
//! expression evaluation charges its usual op classes through
//! [`Expr::eval`]. An `INSERT` streams each new tuple's width. All of
//! it lands in the caller's [`ExecCtx`] like any read query's work.
//!
//! That is the *priced* scan: every row, every predicate term. The host
//! does less (`scan_matching`): it looks only at the columns the
//! predicate reads and builds a tuple only for a row that matched, so
//! the host time of a selective `UPDATE`/`DELETE` follows the
//! predicate's columns and the rows it hits while its ledger is, to the
//! bit, that of decoding every row and evaluating the predicate on the
//! tuple — the oracle `tests/prop_dml_bind.rs` holds both engines to.
//!
//! Deletes are emitted in **descending row order** so each removal
//! leaves the remaining logged row ids stable under in-order replay
//! (see `eco_storage::wal`).

use eco_storage::wal::WalRecord;
use eco_storage::{Catalog, ColumnType, DataChunk, StoredTable, TableData, Tuple, Value};

use super::ast::{DeleteStmt, InsertStmt, Statement, UpdateStmt};
use super::plan::{bind_expr, bind_predicate};
use super::SqlError;
use crate::context::ExecCtx;
use crate::expr::Expr;

/// What executing a DML statement produced: the redo records to log
/// and the affected-row count to report.
#[derive(Debug, Clone, PartialEq)]
pub struct DmlOutcome {
    /// Redo records in apply order (no commit marker — transaction
    /// framing is the caller's job).
    pub records: Vec<WalRecord>,
    /// Rows inserted / updated / deleted.
    pub affected: u64,
}

/// Evaluate a DML statement against the catalog's current state,
/// charging the work to `ctx`. Returns the redo records; applies
/// nothing. Non-DML statements are a bind error.
pub fn execute_dml(
    catalog: &Catalog,
    stmt: &Statement,
    ctx: &mut ExecCtx,
) -> Result<DmlOutcome, SqlError> {
    match stmt {
        Statement::Insert(i) => insert(catalog, i, ctx),
        Statement::Update(u) => update(catalog, u, ctx),
        Statement::Delete(d) => delete(catalog, d, ctx),
        Statement::Select(_) | Statement::CreateIndex { .. } => Err(SqlError::Bind(
            "statement is not INSERT/UPDATE/DELETE".to_string(),
        )),
    }
}

fn lookup(catalog: &Catalog, table: &str) -> Result<std::sync::Arc<StoredTable>, SqlError> {
    catalog
        .get(table)
        .ok_or_else(|| SqlError::Bind(format!("unknown table {table:?}")))
}

/// The mutation pass's row scan: `visit(row_id, row, ctx)` for every
/// row `pred` accepts (every row when `None`), charged as memory
/// streaming over the stored bytes plus the predicate's per-row op
/// classes. Only matching rows are ever handed out as tuples, and only
/// the columns the predicate reads are looked at to find them: both
/// engines filter typed columns ([`Expr::filter_sel`], charge-identical
/// to a per-row [`Expr::eval_bool`]) a batch-sized window at a time,
/// each comparison compacting the window's selection vector in place,
/// so the one selection vector stays small however large the table,
/// and materialize the survivors. The heap
/// filters its own columns; a paged table filters its columnar mirror's
/// extent chunks with the predicate's columns decoded
/// ([`eco_storage::disk_table::DiskTable::columnar_with`]: after a
/// mutation only the extents it rewrote are decoded again) and decodes
/// a whole row from its page ([`eco_storage::disk_table::DiskTable::tuple_at`])
/// only where the predicate held. Without a predicate, or with one that
/// reads no column, every paged row is decoded and tested as a tuple.
fn scan_matching(
    stored: &StoredTable,
    pred: Option<&Expr>,
    ctx: &mut ExecCtx,
    mut visit: impl FnMut(usize, &Tuple, &mut ExecCtx) -> Result<(), SqlError>,
) -> Result<(), SqlError> {
    let mut sel = Vec::new();
    match &stored.data {
        TableData::Memory(h) => {
            ctx.charge_mem_bytes(h.bytes());
            each_match(h.columns(), pred, ctx, &mut sel, |row, ctx| {
                visit(row, &h.row(row), ctx)
            })?;
        }
        TableData::Disk(d) => {
            ctx.charge_mem_bytes(d.avg_tuple_bytes() * d.len() as u64);
            let mut cols = Vec::new();
            if let Some(p) = pred {
                p.columns(&mut cols);
            }
            match pred {
                Some(p) if !cols.is_empty() => {
                    let mut needed = vec![false; d.schema().arity()];
                    for c in cols {
                        needed[c] = true;
                    }
                    let mirror = d.columnar_with(&needed);
                    for e in 0..mirror.num_extents() {
                        let first_row = mirror.extent_row_start(e);
                        each_match(mirror.extent_chunk(e), Some(p), ctx, &mut sel, |i, ctx| {
                            let row = first_row + i;
                            visit(row, &d.tuple_at(row), ctx)
                        })?;
                    }
                }
                _ => {
                    for (row_id, row) in d.rows().enumerate() {
                        if pred.is_none_or(|p| p.eval_bool(&row, ctx)) {
                            visit(row_id, &row, ctx)?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// `hit(i, ctx)` for every row `i` of `data` that `pred` accepts (every
/// row when `None`), in order, filtering a batch-sized window of rows
/// at a time through `sel`.
fn each_match(
    data: &DataChunk,
    pred: Option<&Expr>,
    ctx: &mut ExecCtx,
    sel: &mut Vec<u32>,
    mut hit: impl FnMut(usize, &mut ExecCtx) -> Result<(), SqlError>,
) -> Result<(), SqlError> {
    let window = ctx.batch_size.max(1);
    for start in (0..data.len()).step_by(window) {
        sel.clear();
        sel.extend(start as u32..(start + window).min(data.len()) as u32);
        if let Some(p) = pred {
            p.filter_sel(data, sel, ctx);
        }
        for &i in sel.iter() {
            hit(i as usize, ctx)?;
        }
    }
    Ok(())
}

/// Reject a tuple its table cannot physically hold (wider than a page
/// of a paged table) while the statement can still fail cleanly —
/// before anything is logged.
fn check_storable(stored: &StoredTable, tuple: &Tuple) -> Result<(), SqlError> {
    if stored.can_store(tuple) {
        Ok(())
    } else {
        Err(SqlError::Bind(format!(
            "row does not fit a page of table {:?}",
            stored.name
        )))
    }
}

/// Fit an evaluated value to its destination column type. Exact
/// matches pass through; the conversions are the ones SQL literals
/// need (a one-character string into a CHAR column, 0/1 or a
/// comparison result into BOOL, an integer day count into DATE).
fn coerce(v: Value, ty: ColumnType) -> Option<Value> {
    match (v, ty) {
        (v @ Value::Int(_), ColumnType::Int)
        | (v @ Value::Str(_), ColumnType::Str)
        | (v @ Value::Date(_), ColumnType::Date)
        | (v @ Value::Char(_), ColumnType::Char)
        | (v @ Value::Bool(_), ColumnType::Bool) => Some(v),
        (Value::Str(s), ColumnType::Char) => {
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Some(Value::Char(c)),
                _ => None,
            }
        }
        (Value::Int(i), ColumnType::Bool) => match i {
            0 => Some(Value::Bool(false)),
            1 => Some(Value::Bool(true)),
            _ => None,
        },
        (Value::Int(i), ColumnType::Date) => i32::try_from(i).ok().map(Value::Date),
        _ => None,
    }
}

fn coerce_or_bind(v: Value, ty: ColumnType, column: &str) -> Result<Value, SqlError> {
    coerce(v, ty).ok_or_else(|| SqlError::Bind(format!("value does not fit column {column:?}")))
}

fn insert(catalog: &Catalog, stmt: &InsertStmt, ctx: &mut ExecCtx) -> Result<DmlOutcome, SqlError> {
    let stored = lookup(catalog, &stmt.table)?;
    let schema = stored.schema();
    // Destination column indices, in VALUES order. An empty column
    // list means schema order; an explicit list must cover every
    // column exactly once (the engine has no column defaults).
    let dests: Vec<usize> = if stmt.columns.is_empty() {
        (0..schema.arity()).collect()
    } else {
        let idxs = stmt
            .columns
            .iter()
            .map(|c| {
                schema.index_of(c).ok_or_else(|| {
                    SqlError::Bind(format!("unknown column {c:?} in table {:?}", stmt.table))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        if sorted != (0..schema.arity()).collect::<Vec<_>>() {
            return Err(SqlError::Bind(format!(
                "INSERT column list must name every column of {:?} exactly once",
                stmt.table
            )));
        }
        idxs
    };
    let mut records = Vec::with_capacity(stmt.rows.len());
    let empty: Tuple = Vec::new();
    for row in &stmt.rows {
        if row.len() != dests.len() {
            return Err(SqlError::Bind(format!(
                "INSERT row has {} values for {} columns",
                row.len(),
                dests.len()
            )));
        }
        let mut tuple: Vec<Option<Value>> = vec![None; schema.arity()];
        for (expr, &dest) in row.iter().zip(&dests) {
            let mut cols = Vec::new();
            expr.columns(&mut cols);
            if !cols.is_empty() {
                return Err(SqlError::Bind(format!(
                    "INSERT values must be constant expressions (found column {:?})",
                    cols[0]
                )));
            }
            let col = &schema.columns()[dest];
            let bound = bind_expr(expr, schema)?;
            let v = bound.eval(&empty, ctx);
            tuple[dest] = Some(coerce_or_bind(v, col.ty, &col.name)?);
        }
        let tuple: Tuple = tuple.into_iter().flatten().collect();
        check_storable(&stored, &tuple)?;
        ctx.charge_mem_bytes(eco_storage::tuple_width(&tuple));
        records.push(WalRecord::Insert {
            table: stmt.table.clone(),
            tuple,
        });
    }
    let affected = records.len() as u64;
    Ok(DmlOutcome { records, affected })
}

fn update(catalog: &Catalog, stmt: &UpdateStmt, ctx: &mut ExecCtx) -> Result<DmlOutcome, SqlError> {
    let stored = lookup(catalog, &stmt.table)?;
    let schema = stored.schema();
    let sets: Vec<(usize, Expr)> = stmt
        .sets
        .iter()
        .map(|(col, expr)| {
            let idx = schema.index_of(col).ok_or_else(|| {
                SqlError::Bind(format!("unknown column {col:?} in table {:?}", stmt.table))
            })?;
            Ok((idx, bind_expr(expr, schema)?))
        })
        .collect::<Result<Vec<_>, SqlError>>()?;
    let pred = stmt
        .where_clause
        .as_ref()
        .map(|w| bind_predicate(w, schema))
        .transpose()?;
    let mut records = Vec::new();
    scan_matching(&stored, pred.as_ref(), ctx, |row_id, row, ctx| {
        let mut new = row.clone();
        for (idx, expr) in &sets {
            let col = &schema.columns()[*idx];
            new[*idx] = coerce_or_bind(expr.eval(row, ctx), col.ty, &col.name)?;
        }
        check_storable(&stored, &new)?;
        records.push(WalRecord::Update {
            table: stmt.table.clone(),
            row: row_id,
            tuple: new,
        });
        Ok(())
    })?;
    let affected = records.len() as u64;
    Ok(DmlOutcome { records, affected })
}

fn delete(catalog: &Catalog, stmt: &DeleteStmt, ctx: &mut ExecCtx) -> Result<DmlOutcome, SqlError> {
    let stored = lookup(catalog, &stmt.table)?;
    let pred = stmt
        .where_clause
        .as_ref()
        .map(|w| bind_predicate(w, stored.schema()))
        .transpose()?;
    let mut matched = Vec::new();
    scan_matching(&stored, pred.as_ref(), ctx, |row_id, _, _| {
        matched.push(row_id);
        Ok(())
    })?;
    // Descending order: each removal leaves earlier row ids stable.
    let records: Vec<WalRecord> = matched
        .iter()
        .rev()
        .map(|&row| WalRecord::Delete {
            table: stmt.table.clone(),
            row,
        })
        .collect();
    let affected = records.len() as u64;
    Ok(DmlOutcome { records, affected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_statement;
    use eco_storage::{HeapTable, Schema};

    fn catalog() -> Catalog {
        let schema = Schema::new(&[
            ("k", ColumnType::Int),
            ("s", ColumnType::Str),
            ("flag", ColumnType::Char),
        ]);
        let rows: Vec<Tuple> = (0..10)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("row-{i}")),
                    Value::Char(if i % 2 == 0 { 'E' } else { 'O' }),
                ]
            })
            .collect();
        let mut c = Catalog::new(64);
        c.add_memory_table("t", HeapTable::from_tuples(schema.clone(), rows.clone()));
        c.add_disk_table("td", schema, &rows);
        c
    }

    fn run(cat: &Catalog, sql: &str) -> Result<(DmlOutcome, ExecCtx), SqlError> {
        let stmt = parse_statement(sql)?;
        let mut ctx = ExecCtx::new();
        let out = execute_dml(cat, &stmt, &mut ctx)?;
        Ok((out, ctx))
    }

    #[test]
    fn insert_builds_records_in_schema_order() {
        let cat = catalog();
        let (out, ctx) = run(
            &cat,
            "INSERT INTO t (s, k, flag) VALUES ('new', 40 + 2, 'N'), ('more', 43, 'M')",
        )
        .expect("insert");
        assert_eq!(out.affected, 2);
        assert_eq!(
            out.records[0],
            WalRecord::Insert {
                table: "t".into(),
                tuple: vec![Value::Int(42), Value::str("new"), Value::Char('N')],
            }
        );
        assert!(!ctx.is_empty(), "insert charges work");
        // Nothing was applied — that's the caller's job, post-commit.
        assert_eq!(cat.expect("t").len(), 10);
    }

    #[test]
    fn update_scans_and_emits_one_record_per_match() {
        let cat = catalog();
        let (out, ctx) = run(&cat, "UPDATE t SET k = k + 100 WHERE k >= 8").expect("update");
        assert_eq!(out.affected, 2);
        assert_eq!(
            out.records,
            vec![
                WalRecord::Update {
                    table: "t".into(),
                    row: 8,
                    tuple: vec![Value::Int(108), Value::str("row-8"), Value::Char('E')],
                },
                WalRecord::Update {
                    table: "t".into(),
                    row: 9,
                    tuple: vec![Value::Int(109), Value::str("row-9"), Value::Char('O')],
                },
            ]
        );
        assert!(ctx.pred_evals >= 10, "predicate ran over every row");
    }

    #[test]
    fn delete_emits_descending_rows() {
        let cat = catalog();
        let (out, _) = run(&cat, "DELETE FROM t WHERE k IN (2, 5, 7)").expect("delete");
        assert_eq!(out.affected, 3);
        let rows: Vec<_> = out
            .records
            .iter()
            .map(|r| match r {
                WalRecord::Delete { row, .. } => *row,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rows, vec![7, 5, 2], "descending apply order");
    }

    #[test]
    fn disk_tables_take_the_same_path() {
        let cat = catalog();
        let (out, _) = run(&cat, "DELETE FROM td").expect("delete all");
        assert_eq!(out.affected, 10);
        let (out, _) = run(&cat, "UPDATE td SET flag = 'X'").expect("update all");
        assert_eq!(out.affected, 10);
    }

    #[test]
    fn heap_bind_is_independent_of_the_window_size() {
        // The heap filters a batch-sized window of its columns at a
        // time; a window smaller than the table changes nothing. (What
        // the filter must emit and charge, on both engines, is
        // `tests/prop_dml_bind.rs`'s row-at-a-time oracle.)
        let cat = catalog();
        let stmt = parse_statement("DELETE FROM t WHERE k >= 4").expect("parse");
        let mut whole = ExecCtx::new();
        let mut windowed = ExecCtx::new().with_batch_size(3);
        let a = execute_dml(&cat, &stmt, &mut whole).expect("whole");
        let b = execute_dml(&cat, &stmt, &mut windowed).expect("windowed");
        assert_eq!(a, b);
        whole.ledger.assert_same(&windowed.ledger, "windowed bind");
    }

    #[test]
    fn typed_bind_errors_never_panic() {
        let cat = catalog();
        for bad in [
            "INSERT INTO ghost VALUES (1, 'a', 'b')",
            "INSERT INTO t VALUES (1, 'a')",              // arity
            "INSERT INTO t (k, s) VALUES (1, 'a')",       // incomplete column list
            "INSERT INTO t (k, k, s) VALUES (1, 2, 'a')", // duplicate column
            "INSERT INTO t VALUES (k, 'a', 'b')",         // column ref in VALUES
            "INSERT INTO t VALUES ('str', 'a', 'b')",     // type mismatch
            "INSERT INTO t VALUES (1, 'a', 'toolong')",   // bad CHAR
            "UPDATE t SET ghost = 1",
            "UPDATE ghost SET k = 1",
            "DELETE FROM ghost",
            "SELECT k FROM t", // not DML
        ] {
            let r = run(&cat, bad);
            assert!(
                matches!(r, Err(SqlError::Bind(_))),
                "{bad:?} gave {r:?}, expected a bind error"
            );
        }
    }

    #[test]
    fn update_without_where_touches_every_row() {
        let cat = catalog();
        let (out, _) = run(&cat, "UPDATE t SET s = 'same'").expect("update");
        assert_eq!(out.affected, 10);
        assert!(out.records.iter().all(
            |r| matches!(r, WalRecord::Update { tuple, .. } if tuple[1] == Value::str("same"))
        ));
    }
}
