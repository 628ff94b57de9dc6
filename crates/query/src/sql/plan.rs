//! Binder + planner: turn a parsed `SELECT` into a physical plan.
//!
//! Joins are written TPC-H style (comma list + `WHERE` equalities); the
//! planner extracts the join graph, pushes single-table predicates down
//! to their scans, and orders joins greedily by estimated filtered
//! cardinality (smallest first, always joinable with the current
//! prefix — no cartesian products). The result is a left-deep hash-join
//! tree with the smaller side as the build input, which reproduces the
//! hand-built Q5 plan shape from `crate::plans`.
//!
//! **Index selection** (ledger schema v4): when a base table carries a
//! B-tree index on a predicate column and the predicate is sargable and
//! selective — an equality or `BETWEEN` with literal bounds, estimated
//! to keep at most `INDEX_SELECTIVITY_CUTOFF` of the table — the
//! planner replaces the scan+filter with an [`IxScan`] probe and keeps
//! any remaining predicates as a filter above it. Catalogs without
//! indexes plan exactly as before, so index-free ledgers stay
//! bit-identical.

use std::collections::HashSet;
use std::sync::Arc;

use eco_storage::{Catalog, ColumnType, StoredTable, TableData, Value};

use super::ast::{BinOp, SelectItem, SelectStmt, SqlExpr};
use super::SqlError;
use crate::expr::{AggFunc, ArithOp, CmpOp, Expr};
use crate::ops::{
    AggSpec, BoxedOp, Filter, HashAggregate, HashJoin, IxBound, IxScan, Limit, Project, SeqScan,
    Sort, SortKey,
};

/// Maximum estimated selectivity at which an available index is chosen
/// over a sequential scan. Matches the paper's crossover intuition: a
/// probe pays random I/O per matching page, so it only wins when few
/// rows survive (the `index_crossover` experiment measures where).
pub(crate) const INDEX_SELECTIVITY_CUTOFF: f64 = 0.15;

/// Plan a parsed statement against the catalog.
pub fn plan_select(catalog: &Catalog, stmt: &SelectStmt) -> Result<BoxedOp, SqlError> {
    // --- resolve FROM ------------------------------------------------------
    let mut tables: Vec<(String, Arc<StoredTable>)> = Vec::new();
    for name in &stmt.from {
        let t = catalog
            .get(name)
            .ok_or_else(|| SqlError::Bind(format!("unknown table {name:?}")))?;
        if tables.iter().any(|(n, _)| n == name) {
            return Err(SqlError::Bind(format!(
                "table {name:?} listed twice (self-joins are not supported)"
            )));
        }
        tables.push((name.clone(), t));
    }

    // --- decompose WHERE ---------------------------------------------------
    let mut conjuncts = Vec::new();
    if let Some(w) = &stmt.where_clause {
        split_conjuncts(w, &mut conjuncts);
    }

    let mut table_preds: Vec<Vec<SqlExpr>> = vec![Vec::new(); tables.len()];
    let mut join_preds: Vec<(usize, String, usize, String)> = Vec::new();
    let mut residual: Vec<SqlExpr> = Vec::new();

    for c in conjuncts {
        match classify(&c, &tables)? {
            Classified::SingleTable(i) => table_preds[i].push(c),
            Classified::EquiJoin(a, ca, b, cb) => join_preds.push((a, ca, b, cb)),
            Classified::Residual => residual.push(c),
        }
    }

    // --- base relations: scan + pushed-down filters ------------------------
    struct Rel {
        op: Option<BoxedOp>,
        est_rows: f64,
        table_idx: usize,
    }
    let mut rels: Vec<Rel> = Vec::new();
    for (i, (name, t)) in tables.iter().enumerate() {
        let mut preds: Vec<SqlExpr> = table_preds[i].clone();
        // Index selection: a sargable, selective predicate with an
        // index on its column becomes the access path; the rest stay
        // as a filter above it.
        let probe = preds.iter().enumerate().find_map(|(pos, p)| {
            let (col, lo, hi) = sargable_bounds(p)?;
            if estimate_selectivity(p) > INDEX_SELECTIVITY_CUTOFF {
                return None;
            }
            let entry = catalog.index_on(name, &col)?;
            // A mistyped probe key stays a filter, whose binding
            // rejects it with the type error.
            bind_expr(p, t.schema()).ok()?;
            matches!(t.data, TableData::Disk(_)).then_some((pos, entry, lo, hi))
        });
        let mut est = t.len() as f64;
        let mut op: BoxedOp = match probe {
            Some((pos, entry, lo, hi)) => {
                let p = preds.remove(pos);
                est *= estimate_selectivity(&p);
                Box::new(IxScan::range(
                    Arc::clone(t),
                    Arc::clone(&entry.index),
                    lo,
                    hi,
                ))
            }
            None => Box::new(SeqScan::new(Arc::clone(t))),
        };
        if !preds.is_empty() {
            let mut bound = Vec::new();
            for p in &preds {
                est *= estimate_selectivity(p);
                bound.push(bind_predicate(p, op.schema())?);
            }
            let pred = if bound.len() == 1 {
                bound.pop().expect("one predicate")
            } else {
                Expr::And(bound)
            };
            op = Box::new(Filter::new(op, pred));
        }
        rels.push(Rel {
            op: Some(op),
            est_rows: est.max(1.0),
            table_idx: i,
        });
    }

    // --- greedy left-deep join order ---------------------------------------
    let mut remaining: Vec<Rel> = rels;
    // Start from the smallest estimated relation.
    remaining.sort_by(|a, b| a.est_rows.partial_cmp(&b.est_rows).expect("no NaN"));
    let first = remaining.remove(0);
    let mut joined_tables: HashSet<usize> = [first.table_idx].into();
    let mut current = first.op.expect("op present");
    let mut current_est = first.est_rows;

    while !remaining.is_empty() {
        // Smallest relation connected to the current prefix.
        let next_pos = remaining
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                join_preds.iter().any(|(a, _, b, _)| {
                    (joined_tables.contains(a) && *b == r.table_idx)
                        || (joined_tables.contains(b) && *a == r.table_idx)
                })
            })
            .min_by(|(_, x), (_, y)| x.est_rows.partial_cmp(&y.est_rows).expect("no NaN"))
            .map(|(i, _)| i);
        let Some(pos) = next_pos else {
            let names: Vec<&str> = remaining
                .iter()
                .map(|r| tables[r.table_idx].0.as_str())
                .collect();
            return Err(SqlError::Bind(format!(
                "no join predicate connects {names:?} to the rest (cartesian products \
                 are not supported)"
            )));
        };
        let rel = remaining.remove(pos);
        let rel_op = rel.op.expect("op present");

        // All join conditions between the prefix and this relation.
        let mut left_cols = Vec::new();
        let mut right_cols = Vec::new();
        for (a, ca, b, cb) in &join_preds {
            if joined_tables.contains(a) && *b == rel.table_idx {
                left_cols.push(ca.clone());
                right_cols.push(cb.clone());
            } else if joined_tables.contains(b) && *a == rel.table_idx {
                left_cols.push(cb.clone());
                right_cols.push(ca.clone());
            }
        }
        debug_assert!(!left_cols.is_empty());

        // Build on the smaller side.
        let (build, probe, build_names, probe_names) = if current_est <= rel.est_rows {
            (current, rel_op, left_cols, right_cols)
        } else {
            (rel_op, current, right_cols, left_cols)
        };
        let build_keys = resolve_keys(build.schema(), &build_names)?;
        let probe_keys = resolve_keys(probe.schema(), &probe_names)?;
        current = Box::new(HashJoin::new(build, probe, build_keys, probe_keys));
        // Crude FK-join estimate: the larger side survives scaled by the
        // smaller side's filter fraction.
        current_est =
            (current_est * rel.est_rows / current_est.max(rel.est_rows).max(1.0)).max(1.0);
        joined_tables.insert(rel.table_idx);
    }

    // --- residual predicates ------------------------------------------------
    for r in &residual {
        let bound = bind_predicate(r, current.schema())?;
        current = Box::new(Filter::new(current, bound));
    }

    // --- aggregation / projection -------------------------------------------
    let has_agg = stmt
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.has_aggregate()));

    if has_agg || !stmt.group_by.is_empty() {
        current = plan_aggregate(current, stmt)?;
    } else {
        match &stmt.items[..] {
            [SelectItem::Star] => {}
            items => {
                let mut outputs = Vec::new();
                for (i, item) in items.iter().enumerate() {
                    let SelectItem::Expr { expr, alias } = item else {
                        return Err(SqlError::Bind(
                            "SELECT * cannot be mixed with expressions".into(),
                        ));
                    };
                    let bound = bind_expr(expr, current.schema())?;
                    let name = output_name(expr, alias.as_deref(), i);
                    let ty = output_type(expr, current.schema());
                    outputs.push((name, ty, bound));
                }
                current = Box::new(Project::new(current, outputs));
            }
        }
    }

    // --- ORDER BY / LIMIT ----------------------------------------------------
    if !stmt.order_by.is_empty() {
        let mut keys = Vec::new();
        for k in &stmt.order_by {
            let idx = current.schema().index_of(&k.name).ok_or_else(|| {
                SqlError::Bind(format!(
                    "ORDER BY column {:?} not in output {:?}",
                    k.name,
                    current.schema().names()
                ))
            })?;
            keys.push(if k.desc {
                SortKey::desc(idx)
            } else {
                SortKey::asc(idx)
            });
        }
        current = Box::new(Sort::new(current, keys));
    }
    if let Some(n) = stmt.limit {
        current = Box::new(Limit::new(current, n));
    }
    Ok(current)
}

fn plan_aggregate(input: BoxedOp, stmt: &SelectStmt) -> Result<BoxedOp, SqlError> {
    // Group columns must exist in the input.
    let mut group_idx = Vec::new();
    for g in &stmt.group_by {
        let idx = input
            .schema()
            .index_of(g)
            .ok_or_else(|| SqlError::Bind(format!("GROUP BY column {g:?} not found")))?;
        group_idx.push(idx);
    }

    // Each select item is either a grouped column or one aggregate.
    let mut aggs = Vec::new();
    let mut item_kinds = Vec::new(); // Group(name) | Agg(output name)
    enum Kind {
        Group(String),
        Agg(String),
    }
    for (i, item) in stmt.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(SqlError::Bind("SELECT * is invalid with GROUP BY".into()));
        };
        match expr {
            SqlExpr::Column { name, .. } if !expr.has_aggregate() => {
                if !stmt.group_by.contains(name) {
                    return Err(SqlError::Bind(format!(
                        "column {name:?} must appear in GROUP BY"
                    )));
                }
                item_kinds.push(Kind::Group(alias.clone().unwrap_or_else(|| name.clone())));
            }
            SqlExpr::Agg(func, inner) => {
                let bound = bind_expr(inner, input.schema())?;
                match func {
                    AggFunc::Sum => expect_type(inner, input.schema(), ColumnType::Int, "SUM")?,
                    AggFunc::Avg => expect_type(inner, input.schema(), ColumnType::Int, "AVG")?,
                    _ => {}
                }
                let name = output_name(expr, alias.as_deref(), i);
                aggs.push(AggSpec {
                    func: *func,
                    input: bound,
                    name: name.clone(),
                });
                item_kinds.push(Kind::Agg(name));
            }
            SqlExpr::CountStar => {
                let name = alias.clone().unwrap_or_else(|| "count".to_string());
                aggs.push(AggSpec {
                    func: AggFunc::Count,
                    input: Expr::int(1),
                    name: name.clone(),
                });
                item_kinds.push(Kind::Agg(name));
            }
            other if other.has_aggregate() => {
                return Err(SqlError::Bind(
                    "arithmetic around aggregates is not supported; move it inside \
                     the aggregate (e.g. SUM(a * b))"
                        .into(),
                ));
            }
            _ => {
                return Err(SqlError::Bind(
                    "non-aggregate SELECT expressions must be GROUP BY columns".into(),
                ));
            }
        }
    }

    let agg = Box::new(HashAggregate::new(input, group_idx, aggs)) as BoxedOp;

    // Aggregate output is [group cols..., aggs...]; project into the
    // order the SELECT list asked for, with aliases applied.
    let mut outputs = Vec::new();
    let mut group_seen = 0usize;
    let mut agg_seen = 0usize;
    for kind in item_kinds {
        let (name, src) = match kind {
            Kind::Group(name) => {
                group_seen += 1;
                (name, group_seen - 1)
            }
            Kind::Agg(name) => {
                agg_seen += 1;
                (name, stmt.group_by.len() + agg_seen - 1)
            }
        };
        let ty = agg.schema().columns()[src].ty;
        outputs.push((name, ty, Expr::col(src)));
    }
    Ok(Box::new(Project::new(agg, outputs)))
}

// --- helpers ----------------------------------------------------------------

fn split_conjuncts(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    if let SqlExpr::Binary(BinOp::And, l, r) = e {
        split_conjuncts(l, out);
        split_conjuncts(r, out);
    } else {
        out.push(e.clone());
    }
}

enum Classified {
    SingleTable(usize),
    EquiJoin(usize, String, usize, String),
    Residual,
}

fn table_of_column(
    name: &str,
    qualifier: Option<&str>,
    tables: &[(String, Arc<StoredTable>)],
) -> Result<usize, SqlError> {
    if let Some(q) = qualifier {
        let (i, (_, t)) = tables
            .iter()
            .enumerate()
            .find(|(_, (n, _))| n == q)
            .ok_or_else(|| SqlError::Bind(format!("unknown table qualifier {q:?}")))?;
        if t.schema().index_of(name).is_none() {
            return Err(SqlError::Bind(format!("no column {name:?} in table {q:?}")));
        }
        return Ok(i);
    }
    let hits: Vec<usize> = tables
        .iter()
        .enumerate()
        .filter(|(_, (_, t))| t.schema().index_of(name).is_some())
        .map(|(i, _)| i)
        .collect();
    match hits.len() {
        0 => Err(SqlError::Bind(format!("unknown column {name:?}"))),
        1 => Ok(hits[0]),
        _ => Err(SqlError::Bind(format!("ambiguous column {name:?}"))),
    }
}

fn classify(e: &SqlExpr, tables: &[(String, Arc<StoredTable>)]) -> Result<Classified, SqlError> {
    // Equi-join pattern: col = col across different tables.
    if let SqlExpr::Binary(BinOp::Eq, l, r) = e {
        if let (
            SqlExpr::Column {
                table: ql,
                name: nl,
            },
            SqlExpr::Column {
                table: qr,
                name: nr,
            },
        ) = (l.as_ref(), r.as_ref())
        {
            let ta = table_of_column(nl, ql.as_deref(), tables)?;
            let tb = table_of_column(nr, qr.as_deref(), tables)?;
            if ta != tb {
                // A hash join pairs key columns of one type; anything
                // else could never match a row.
                check_comparable(l, tables[ta].1.schema(), r, tables[tb].1.schema())?;
                return Ok(Classified::EquiJoin(ta, nl.clone(), tb, nr.clone()));
            }
        }
    }
    // Single-table when every referenced column binds to one table.
    let mut cols = Vec::new();
    e.columns(&mut cols);
    let mut owner: Option<usize> = None;
    for c in &cols {
        let t = table_of_column(c, None, tables)?;
        match owner {
            None => owner = Some(t),
            Some(o) if o == t => {}
            Some(_) => return Ok(Classified::Residual),
        }
    }
    Ok(match owner {
        Some(i) => Classified::SingleTable(i),
        None => Classified::Residual, // constant predicate: apply at top
    })
}

fn resolve_keys(schema: &eco_storage::Schema, names: &[String]) -> Result<Vec<usize>, SqlError> {
    names
        .iter()
        .map(|n| {
            schema
                .index_of(n)
                .ok_or_else(|| SqlError::Bind(format!("join key {n:?} lost in plan")))
        })
        .collect()
}

/// Reject a comparison between operands of different types, naming
/// both — the evaluators compare within a type only (a mismatch would
/// panic mid-query, or as a join key silently match nothing).
fn check_comparable(
    l: &SqlExpr,
    l_schema: &eco_storage::Schema,
    r: &SqlExpr,
    r_schema: &eco_storage::Schema,
) -> Result<(), SqlError> {
    let (lt, rt) = (output_type(l, l_schema), output_type(r, r_schema));
    if lt == rt {
        return Ok(());
    }
    Err(SqlError::Bind(format!(
        "cannot compare {} ({lt:?}) with {} ({rt:?})",
        show(l),
        show(r)
    )))
}

/// Reject `e` where `what` takes only values of type `want`, naming
/// both — the evaluators would panic on it mid-query.
fn expect_type(
    e: &SqlExpr,
    schema: &eco_storage::Schema,
    want: ColumnType,
    what: &str,
) -> Result<(), SqlError> {
    let got = output_type(e, schema);
    if got == want {
        return Ok(());
    }
    Err(SqlError::Bind(format!(
        "{what} expects {want:?}, got {} ({got:?})",
        show(e)
    )))
}

/// An operand as an error message names it.
fn show(e: &SqlExpr) -> String {
    match e {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Int(n) | SqlExpr::Decimal(n) => n.to_string(),
        SqlExpr::Str(s) => format!("'{s}'"),
        _ => "expression".to_string(),
    }
}

/// Bind a `WHERE` predicate: [`bind_expr`], and its value must be a
/// boolean.
pub(crate) fn bind_predicate(e: &SqlExpr, schema: &eco_storage::Schema) -> Result<Expr, SqlError> {
    let bound = bind_expr(e, schema)?;
    expect_type(e, schema, ColumnType::Bool, "WHERE")?;
    Ok(bound)
}

/// Bind a SQL expression against a physical schema. It is type-checked
/// here, so an ill-typed one is a [`SqlError::Bind`], never a panic at
/// execution time: comparisons (`=`, `<>`, `<`, `<=`, `>`, `>=`,
/// `BETWEEN`, `IN`) pair operands of one type, `AND`/`OR`/`NOT` take
/// booleans, arithmetic takes `Int`s and never divides by a literal
/// zero. (A divisor that is zero in the data fails at execution with
/// [`crate::error::ExecError::DivisionByZero`].)
pub fn bind_expr(e: &SqlExpr, schema: &eco_storage::Schema) -> Result<Expr, SqlError> {
    let comparable = |l: &SqlExpr, r: &SqlExpr| check_comparable(l, schema, r, schema);
    Ok(match e {
        SqlExpr::Column { name, .. } => {
            let idx = schema
                .index_of(name)
                .ok_or_else(|| SqlError::Bind(format!("unknown column {name:?}")))?;
            Expr::col(idx)
        }
        SqlExpr::Int(n) | SqlExpr::Decimal(n) => Expr::int(*n),
        SqlExpr::Str(s) => Expr::str(s),
        SqlExpr::DateLit(d) => Expr::date(d.0),
        SqlExpr::Not(inner) => {
            let bound = bind_expr(inner, schema)?;
            expect_type(inner, schema, ColumnType::Bool, "NOT")?;
            Expr::Not(Box::new(bound))
        }
        SqlExpr::Between(x, lo, hi) => {
            let (xe, lo_e, hi_e) = (
                bind_expr(x, schema)?,
                bind_expr(lo, schema)?,
                bind_expr(hi, schema)?,
            );
            comparable(x, lo)?;
            comparable(x, hi)?;
            Expr::And(vec![
                Expr::cmp(CmpOp::Ge, xe.clone(), lo_e),
                Expr::cmp(CmpOp::Le, xe, hi_e),
            ])
        }
        SqlExpr::InList(x, list) => {
            let xe = bind_expr(x, schema)?;
            Expr::Or(
                list.iter()
                    .map(|v| {
                        let ve = bind_expr(v, schema)?;
                        comparable(x, v)?;
                        Ok(Expr::cmp(CmpOp::Eq, xe.clone(), ve))
                    })
                    .collect::<Result<Vec<_>, SqlError>>()?,
            )
        }
        SqlExpr::Binary(op, l, r) => {
            let le = bind_expr(l, schema)?;
            let re = bind_expr(r, schema)?;
            match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    comparable(l, r)?;
                }
                BinOp::And | BinOp::Or => {
                    let what = if *op == BinOp::And { "AND" } else { "OR" };
                    expect_type(l, schema, ColumnType::Bool, what)?;
                    expect_type(r, schema, ColumnType::Bool, what)?;
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    expect_type(l, schema, ColumnType::Int, "arithmetic")?;
                    expect_type(r, schema, ColumnType::Int, "arithmetic")?;
                    if *op == BinOp::Div && literal_value(r) == Some(Value::Int(0)) {
                        return Err(SqlError::Bind(format!("division by zero: {} / 0", show(l))));
                    }
                }
            }
            match op {
                BinOp::Eq => Expr::cmp(CmpOp::Eq, le, re),
                BinOp::Ne => Expr::cmp(CmpOp::Ne, le, re),
                BinOp::Lt => Expr::cmp(CmpOp::Lt, le, re),
                BinOp::Le => Expr::cmp(CmpOp::Le, le, re),
                BinOp::Gt => Expr::cmp(CmpOp::Gt, le, re),
                BinOp::Ge => Expr::cmp(CmpOp::Ge, le, re),
                BinOp::And => Expr::And(vec![le, re]),
                BinOp::Or => Expr::Or(vec![le, re]),
                BinOp::Add => Expr::arith(ArithOp::Add, le, re),
                BinOp::Sub => Expr::arith(ArithOp::Sub, le, re),
                BinOp::Mul => Expr::arith(ArithOp::Mul, le, re),
                BinOp::Div => Expr::arith(ArithOp::Div, le, re),
            }
        }
        SqlExpr::Agg(..) | SqlExpr::CountStar => {
            return Err(SqlError::Bind(
                "aggregate in a non-aggregate position".into(),
            ))
        }
    })
}

/// A literal usable as an index probe key. Decimal literals are
/// already scaled to integer hundredths (the storage convention), so
/// they compare directly against stored ints.
fn literal_value(e: &SqlExpr) -> Option<Value> {
    match e {
        SqlExpr::Int(n) | SqlExpr::Decimal(n) => Some(Value::Int(*n)),
        SqlExpr::Str(s) => Some(Value::str(s.as_str())),
        SqlExpr::DateLit(d) => Some(Value::Date(d.0)),
        _ => None,
    }
}

/// `column = literal` (either side), as `(column, key)`.
fn column_literal(l: &SqlExpr, r: &SqlExpr) -> Option<(String, Value)> {
    if let SqlExpr::Column { name, .. } = l {
        if let Some(v) = literal_value(r) {
            return Some((name.clone(), v));
        }
    }
    if let SqlExpr::Column { name, .. } = r {
        if let Some(v) = literal_value(l) {
            return Some((name.clone(), v));
        }
    }
    None
}

/// Index-sargable predicates: `col = lit` and
/// `col BETWEEN lit AND lit` (inclusive, like its binding). Returns
/// the probed column and the owned probe bounds.
fn sargable_bounds(e: &SqlExpr) -> Option<(String, IxBound, IxBound)> {
    match e {
        SqlExpr::Binary(BinOp::Eq, l, r) => {
            let (col, v) = column_literal(l, r)?;
            Some((col, IxBound::Inclusive(v.clone()), IxBound::Inclusive(v)))
        }
        SqlExpr::Between(x, lo, hi) => {
            let SqlExpr::Column { name, .. } = x.as_ref() else {
                return None;
            };
            let lo = literal_value(lo)?;
            let hi = literal_value(hi)?;
            Some((name.clone(), IxBound::Inclusive(lo), IxBound::Inclusive(hi)))
        }
        _ => None,
    }
}

/// Selectivity heuristics for pushed-down predicates (drives join order).
fn estimate_selectivity(e: &SqlExpr) -> f64 {
    match e {
        SqlExpr::Binary(BinOp::Eq, _, _) => 0.1,
        SqlExpr::Binary(BinOp::Ne, _, _) => 0.9,
        SqlExpr::Binary(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, _, _) => 0.3,
        SqlExpr::Between(..) => 0.15,
        SqlExpr::InList(_, list) => (0.05 * list.len() as f64).min(1.0),
        SqlExpr::Not(inner) => 1.0 - estimate_selectivity(inner),
        SqlExpr::Binary(BinOp::And, l, r) => estimate_selectivity(l) * estimate_selectivity(r),
        SqlExpr::Binary(BinOp::Or, l, r) => {
            (estimate_selectivity(l) + estimate_selectivity(r)).min(1.0)
        }
        _ => 0.5,
    }
}

fn output_name(e: &SqlExpr, alias: Option<&str>, position: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match e {
        SqlExpr::Column { name, .. } => name.clone(),
        SqlExpr::Agg(f, _) => format!("{f:?}").to_lowercase(),
        SqlExpr::CountStar => "count".to_string(),
        _ => format!("col{position}"),
    }
}

fn output_type(e: &SqlExpr, schema: &eco_storage::Schema) -> ColumnType {
    match e {
        SqlExpr::Column { name, .. } => schema
            .index_of(name)
            .map(|i| schema.columns()[i].ty)
            .unwrap_or(ColumnType::Int),
        SqlExpr::Str(_) => ColumnType::Str,
        SqlExpr::DateLit(_) => ColumnType::Date,
        SqlExpr::Binary(BinOp::And | BinOp::Or, _, _)
        | SqlExpr::Not(_)
        | SqlExpr::Between(..)
        | SqlExpr::InList(..) => ColumnType::Bool,
        SqlExpr::Binary(
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            _,
            _,
        ) => ColumnType::Bool,
        _ => ColumnType::Int,
    }
}

#[cfg(test)]
mod tests {
    use super::super::compile;
    use super::*;
    use crate::context::ExecCtx;
    use crate::exec::execute;
    use crate::plans;
    use eco_storage::load_tpch;
    use eco_storage::EngineKind;
    use eco_tpch::{Q5Params, TpchGenerator};

    fn setup() -> (eco_tpch::TpchDb, Catalog) {
        let db = TpchGenerator::new(0.004).generate();
        let cat = load_tpch(&db, EngineKind::Memory, 0);
        (db, cat)
    }

    fn run(cat: &Catalog, sql: &str) -> Vec<eco_storage::Tuple> {
        let mut plan = compile(cat, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut ctx = ExecCtx::new();
        execute(plan.as_mut(), &mut ctx)
    }

    #[test]
    fn simple_selection_matches_hand_plan() {
        let (_, cat) = setup();
        let sql_rows = run(&cat, "SELECT * FROM lineitem WHERE l_quantity = 17");
        let mut hand = plans::selection_plan(&cat, &eco_tpch::QedQuery { quantity: 17 });
        let mut ctx = ExecCtx::new();
        let hand_rows = execute(hand.as_mut(), &mut ctx);
        assert_eq!(sql_rows, hand_rows);
    }

    #[test]
    fn q5_from_sql_text_matches_reference() {
        let (db, cat) = setup();
        let rows = run(
            &cat,
            "SELECT n_name, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue \
             FROM customer, orders, lineitem, supplier, nation, region \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
               AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
               AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
               AND r_name = 'ASIA' \
               AND o_orderdate >= DATE '1994-01-01' \
               AND o_orderdate < DATE '1995-01-01' \
             GROUP BY n_name ORDER BY revenue DESC",
        );
        let mut got = plans::q5_rows_to_pairs(&rows);
        got.sort();
        let mut want = plans::q5_reference(&db, &Q5Params::new("ASIA", 1994));
        want.sort();
        assert_eq!(got, want, "SQL-planned Q5 must match the oracle");
    }

    #[test]
    fn projection_and_arith() {
        let (_, cat) = setup();
        let rows = run(
            &cat,
            "SELECT r_regionkey + 10 AS k, r_name FROM region ORDER BY k",
        );
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0].as_int(), Some(10));
        assert_eq!(rows[4][0].as_int(), Some(14));
    }

    #[test]
    fn count_star_and_global_aggregate() {
        let (db, cat) = setup();
        let rows = run(
            &cat,
            "SELECT COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_int(), Some(db.lineitem.len() as i64));
        let want: i64 = db.lineitem.iter().map(|l| l.l_quantity).sum();
        assert_eq!(rows[0][1].as_int(), Some(want));
    }

    #[test]
    fn between_and_in_execute() {
        let (db, cat) = setup();
        let rows = run(
            &cat,
            "SELECT COUNT(*) AS n FROM lineitem \
             WHERE l_discount BETWEEN 5 AND 7 AND l_quantity IN (1, 2, 3)",
        );
        let want = db
            .lineitem
            .iter()
            .filter(|l| (5..=7).contains(&l.l_discount) && (1..=3).contains(&l.l_quantity))
            .count() as i64;
        assert_eq!(rows[0][0].as_int(), Some(want));
    }

    #[test]
    fn two_table_join() {
        let (db, cat) = setup();
        let rows = run(
            &cat,
            "SELECT n_name, COUNT(*) AS suppliers FROM supplier, nation \
             WHERE s_nationkey = n_nationkey GROUP BY n_name ORDER BY suppliers DESC, n_name",
        );
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, db.supplier.len() as i64);
        for w in rows.windows(2) {
            assert!(w[0][1].as_int() >= w[1][1].as_int());
        }
    }

    #[test]
    fn limit_applies_after_sort() {
        let (_, cat) = setup();
        let rows = run(
            &cat,
            "SELECT c_custkey FROM customer ORDER BY c_custkey DESC LIMIT 3",
        );
        assert_eq!(rows.len(), 3);
        assert!(rows[0][0].as_int() > rows[2][0].as_int());
    }

    #[test]
    fn decimal_literals_follow_storage_convention() {
        let (db, cat) = setup();
        // 0.07 means discount of 7 hundredths.
        let rows = run(
            &cat,
            "SELECT COUNT(*) AS n FROM lineitem WHERE l_discount = 0.07",
        );
        let want = db.lineitem.iter().filter(|l| l.l_discount == 7).count() as i64;
        assert_eq!(rows[0][0].as_int(), Some(want));
    }

    #[test]
    fn bind_errors_are_descriptive() {
        let (_, cat) = setup();
        let err = |sql: &str| match compile(&cat, sql) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected error for {sql:?}"),
        };
        assert!(err("SELECT * FROM ghost").contains("unknown table"));
        assert!(err("SELECT bogus FROM region").contains("unknown column"));
        assert!(err("SELECT r_name FROM region, nation").contains("cartesian"));
        assert!(
            err("SELECT r_name, COUNT(*) FROM region").contains("GROUP BY"),
            "ungrouped column must be rejected"
        );
        assert!(err("SELECT SUM(r_regionkey) * 2 FROM region").contains("inside"));
        assert!(
            err("SELECT * FROM region, region WHERE r_regionkey = r_regionkey").contains("twice")
        );
        assert!(err(
            "SELECT n_comment FROM region, nation WHERE n_regionkey = r_regionkey \
                     GROUP BY n_name"
        )
        .contains("must appear in GROUP BY"));
        // Comparisons across types are bind errors that name both
        // types, whether they would have been a filter …
        let e = err("SELECT COUNT(*) AS n FROM orders WHERE o_orderkey = 'abc'");
        assert!(
            e.contains("o_orderkey (Int)") && e.contains("'abc' (Str)"),
            "{e}"
        );
        let e = err("SELECT COUNT(*) AS n FROM orders WHERE o_orderdate = o_orderkey");
        assert!(e.contains("(Date)") && e.contains("(Int)"), "{e}");
        assert!(err("SELECT * FROM orders WHERE o_orderdate BETWEEN 1 AND 2").contains("(Date)"));
        assert!(err("SELECT * FROM region WHERE r_name IN ('ASIA', 3)").contains("(Str)"));
        // … or a join key (which used to scan, hash and match nothing).
        let e = err("SELECT COUNT(*) AS n FROM orders, lineitem WHERE o_orderdate = l_orderkey");
        assert!(
            e.contains("o_orderdate (Date)") && e.contains("l_orderkey (Int)"),
            "{e}"
        );
    }

    #[test]
    fn join_order_puts_small_side_on_build() {
        // Six-table Q5 plans without errors and starts from region
        // (cardinality 5) — verified indirectly: the plan executes and
        // produces sane output without exhausting memory at this scale.
        let (_, cat) = setup();
        let rows = run(
            &cat,
            "SELECT n_name, COUNT(*) AS c FROM customer, nation, region \
             WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
               AND r_name = 'EUROPE' GROUP BY n_name ORDER BY n_name",
        );
        assert!(rows.len() <= 5, "at most 5 EUROPE nations");
    }

    #[test]
    fn index_is_chosen_when_selective_and_rows_match_the_scan_plan() {
        use eco_simhw::trace::OpClass;
        let db = TpchGenerator::new(0.004).generate();
        let cat = load_tpch(&db, EngineKind::Disk, 1 << 16);
        let sql = "SELECT * FROM lineitem WHERE l_quantity = 17";
        let scan_rows = run(&cat, sql); // no index yet: sequential plan
        cat.create_index("ix_li_qty", "lineitem", "l_quantity")
            .expect("create index");

        let mut plan = compile(&cat, sql).unwrap_or_else(|e| panic!("{e}"));
        let mut ctx = ExecCtx::new();
        let ix_rows = execute(plan.as_mut(), &mut ctx);
        assert_eq!(ix_rows, scan_rows, "index path returns identical rows");
        assert!(
            ctx.ledger.cpu.count(OpClass::NodeSearch) > 0,
            "selective equality must route through the index"
        );

        // BETWEEN with literal bounds also probes.
        let mut plan = compile(
            &cat,
            "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity BETWEEN 3 AND 5",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut ctx = ExecCtx::new();
        let rows = execute(plan.as_mut(), &mut ctx);
        let want = db
            .lineitem
            .iter()
            .filter(|l| (3..=5).contains(&l.l_quantity))
            .count() as i64;
        assert_eq!(rows[0][0].as_int(), Some(want));
        assert!(ctx.ledger.cpu.count(OpClass::NodeSearch) > 0);

        // Non-selective shapes keep the sequential plan even though the
        // index exists.
        let mut plan = compile(
            &cat,
            "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity <> 17",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut ctx = ExecCtx::new();
        execute(plan.as_mut(), &mut ctx);
        assert_eq!(ctx.ledger.cpu.count(OpClass::NodeSearch), 0);
        assert_eq!(ctx.ledger.disk.index_ios, 0, "no probe, no v4 charges");
    }

    #[test]
    fn constant_predicate_goes_residual() {
        let (_, cat) = setup();
        let rows = run(
            &cat,
            "SELECT r_name FROM region WHERE 1 = 1 ORDER BY r_name",
        );
        assert_eq!(rows.len(), 5);
        let none = run(&cat, "SELECT r_name FROM region WHERE 1 = 2");
        assert!(none.is_empty());
    }
}
