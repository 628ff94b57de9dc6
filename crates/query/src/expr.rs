//! Expressions: an interpreted evaluator over tuples, with work
//! metering.
//!
//! Evaluation charges one [`OpClass::PredEval`] per comparison and one
//! [`OpClass::Arith`] per arithmetic node — modelling the interpreted,
//! `Item`-tree-style evaluators of 2008-era engines, whose per-term
//! cost is what makes the QED disjunction scan slower (and the
//! energy/response-time trade of paper §4 non-trivial).

use eco_simhw::trace::OpClass;
use eco_storage::{
    BitPacked, ColumnChunk, ColumnData, ColumnType, DataChunk, EncodedChunk, EncodedColumn, Schema,
    StrColumn, Tuple, Value,
};

use crate::chunk::Rows;
use crate::context::ExecCtx;
use crate::error::ExecError;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped: `a op b` ⇔ `b op.swap() a`.
    fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Apply to an ordering result.
    fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// Integer arithmetic operators.
///
/// Arithmetic is two's-complement wrapping in every build, on the row
/// evaluator and the columnar kernels alike: an overflowing `+`, `-` or
/// `*` wraps (`i64::wrapping_*`), and `i64::MIN / -1` is `i64::MIN`. A
/// debug build therefore never panics where a release build would wrap,
/// and both return the same rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division, truncating; a zero divisor fails the
    /// query with [`ExecError::DivisionByZero`])
    Div,
}

impl ArithOp {
    /// `a op b`, wrapping; a zero divisor yields the placeholder 0 (the
    /// caller records the error).
    #[inline(always)]
    fn of(self, a: i64, b: i64) -> i64 {
        match self {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div if b == 0 => 0,
            ArithOp::Div => a.wrapping_div(b),
        }
    }

    /// `a op b` for one row. A zero divisor records
    /// [`ExecError::DivisionByZero`] in `ctx` (the statement fails) and
    /// yields a placeholder 0.
    fn apply(self, a: i64, b: i64, ctx: &mut ExecCtx) -> i64 {
        if self == ArithOp::Div && b == 0 {
            ctx.fail(ExecError::DivisionByZero);
        }
        self.of(a, b)
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by position in the input tuple.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison of two sub-expressions of the same type.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction (short-circuits on the first false arm).
    And(Vec<Expr>),
    /// Disjunction (short-circuit behaviour set by the context — this
    /// is the QED merge point).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Integer arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// String literal.
    pub fn str(s: &str) -> Expr {
        Expr::Lit(Value::str(s))
    }

    /// Date literal (day offset).
    pub fn date(d: i32) -> Expr {
        Expr::Lit(Value::Date(d))
    }

    /// `col = lit` convenience.
    pub(crate) fn col_eq_int(i: usize, v: i64) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(i)), Box::new(Expr::int(v)))
    }

    /// `lhs cmp rhs` convenience.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs op rhs` arithmetic convenience.
    pub fn arith(op: ArithOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Arith(op, Box::new(lhs), Box::new(rhs))
    }

    /// Append every column position this expression reads to `out`
    /// (one entry per reference, in tree order).
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) => {
                l.columns(out);
                r.columns(out);
            }
            Expr::And(arms) | Expr::Or(arms) => arms.iter().for_each(|a| a.columns(out)),
            Expr::Not(e) => e.columns(out),
        }
    }

    /// The type of this expression's values over input `schema`:
    /// comparisons and connectives are `Bool`, arithmetic is `Int`.
    pub(crate) fn value_type(&self, schema: &Schema) -> ColumnType {
        match self {
            Expr::Col(i) => schema.columns()[*i].ty,
            Expr::Lit(v) => v.column_type(),
            Expr::Arith(..) => ColumnType::Int,
            Expr::Cmp(..) | Expr::And(_) | Expr::Or(_) | Expr::Not(_) => ColumnType::Bool,
        }
    }

    /// Evaluate against a tuple, charging work into `ctx`.
    pub fn eval(&self, tuple: &Tuple, ctx: &mut ExecCtx) -> Value {
        match self {
            Expr::Col(i) => tuple
                .get(*i)
                .unwrap_or_else(|| panic!("column {i} out of range {}", tuple.len()))
                .clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(tuple, ctx);
                let rv = r.eval(tuple, ctx);
                ctx.charge(OpClass::PredEval, 1);
                ctx.pred_evals += 1;
                let ord = lv
                    .partial_cmp_typed(&rv)
                    .unwrap_or_else(|| panic!("type mismatch comparing {lv:?} and {rv:?}"));
                Value::Bool(op.test(ord))
            }
            Expr::And(arms) => {
                for arm in arms {
                    if !expect_bool(arm.eval(tuple, ctx)) {
                        return Value::Bool(false);
                    }
                }
                Value::Bool(true)
            }
            Expr::Or(arms) => {
                if ctx.short_circuit_or {
                    for arm in arms {
                        if expect_bool(arm.eval(tuple, ctx)) {
                            return Value::Bool(true);
                        }
                    }
                    Value::Bool(false)
                } else {
                    let mut any = false;
                    for arm in arms {
                        any |= expect_bool(arm.eval(tuple, ctx));
                    }
                    Value::Bool(any)
                }
            }
            Expr::Not(e) => Value::Bool(!expect_bool(e.eval(tuple, ctx))),
            Expr::Arith(op, l, r) => {
                let lv = l.eval(tuple, ctx).as_int().expect("arith on Int");
                let rv = r.eval(tuple, ctx).as_int().expect("arith on Int");
                ctx.charge(OpClass::Arith, 1);
                Value::Int(op.apply(lv, rv, ctx))
            }
        }
    }

    /// Evaluate as a boolean predicate.
    pub fn eval_bool(&self, tuple: &Tuple, ctx: &mut ExecCtx) -> bool {
        expect_bool(self.eval(tuple, ctx))
    }
}

// ---------------------------------------------------------------------------
// Columnar evaluation
// ---------------------------------------------------------------------------
//
// The columnar evaluator runs the same expression tree over typed column
// slices instead of row tuples. Its load-bearing property is *charge
// identity*: for any set of live rows it charges exactly what calling
// [`Expr::eval_bool`] / [`Expr::eval`] per row would charge — one
// `PredEval` per comparison actually evaluated and one `Arith` per
// arithmetic node actually evaluated. Short-circuit semantics are
// reproduced by *selection narrowing*: an `And` arm is evaluated only
// over rows every earlier arm accepted, a short-circuiting `Or` arm only
// over rows no earlier arm matched — the columnar analogue of stopping
// early, with identical evaluation counts.
//
// Validity masks (NULLs) never occur in row execution, so they carry no
// identity obligation; a comparison involving an invalid value charges
// its `PredEval` and yields `false`, like SQL `NULL`.
//
// Kernels dispatch per chunk, never per row. An `Int` operand is settled
// into a [`Lane`] once — dense by live-row ordinal (a computed vector, or
// a column under a dense window), gathered through the selection vector,
// or a constant — and the operator is matched once, so each arithmetic
// node is one monomorphised loop over slices with no `ExecCtx`, no enum
// match and no charge inside it (charges are counts, made before the
// loop), writing into a vector it is handed (`arith_into`). A nonzero
// `Int` literal divisor (Q1's `/ 100` and `/ 10000`) is turned into a
// multiplier, a shift and a correction once per chunk (`DivConst`; the
// correction picks the loop), so its loop runs no hardware divide and
// equals `wrapping_div` for every dividend. Any other divisor — a zero
// literal, or a column or computed vector — is scanned for a zero among
// the live rows before the division loop, which is recorded once
// (`ExecError::DivisionByZero`, first error wins); the rows that divide
// by zero hold the placeholder 0, as on the row path.
//
// Filters and projections evaluate a tree node by node into fresh
// vectors (`Expr::eval_num`). The aggregate's `SUM`/`AVG` inputs go
// through [`Subexprs`] instead: their distinct subtrees (by `Expr`
// equality) are each computed once per chunk, however many inputs hold
// them, into lanes the aggregate owns and reuses across chunks, and the
// `Arith` charges stay counts taken from each input's own tree.
//
// A comparison (`compare`) settles its operands' type (`Int`, `Date`,
// `Char`, `Str` by bytes, `Bool`) and shape (a column read by row id, a
// computed vector read by ordinal, a literal; a literal on the left is
// swapped to the right) and matches its operator once per chunk, then
// runs one loop that narrows the live rows. Selection refinement
// ([`Expr::filter_sel`]) compacts the selection vector in place: every
// row id is written at a cursor that advances by the verdict, with no
// branch on the row's data and no flag vector. The same loops write
// flags instead ([`Expr::eval_flags`]) where `Or`, `Not` and boolean
// projection need one verdict per row. A validity mask is applied as a
// second narrowing pass over the same rows.

/// A comparison operand of one type, resolved over a row set.
pub(crate) enum Operand<C, T> {
    /// A column, read by absolute row id.
    Col(C),
    /// A computed vector, one value per live-row ordinal.
    Own(Vec<T>),
    /// A literal, the same for every row.
    Lit(T),
}

/// An `Int`-valued operand resolved over a row set.
pub(crate) type NumSrc<'a> = Operand<&'a [i64], i64>;

impl NumSrc<'_> {
    /// This operand laid out for one loop over `rows`.
    pub(crate) fn lane<'s>(&'s self, rows: Rows<'s>) -> Lane<'s> {
        match (self, rows) {
            (Operand::Col(v), Rows::Range(s, e)) => Lane::Dense(&v[s..e]),
            (Operand::Col(v), Rows::Sel(sel)) => Lane::Gather(v, sel),
            (Operand::Own(v), _) => Lane::Dense(v),
            (Operand::Lit(c), _) => Lane::Const(*c),
        }
    }
}

/// An `Int` operand's shape for one kernel loop over the live rows.
#[derive(Clone, Copy)]
pub(crate) enum Lane<'a> {
    /// One value per live-row ordinal.
    Dense(&'a [i64]),
    /// A column read at the selection vector's row ids.
    Gather(&'a [i64], &'a [u32]),
    /// The same value for every row.
    Const(i64),
}

impl Lane<'_> {
    /// Whether any live row holds 0 (the divide-by-zero check).
    fn has_zero(self) -> bool {
        match self {
            Lane::Dense(v) => v.contains(&0),
            Lane::Gather(v, sel) => sel.iter().any(|&i| v[i as usize] == 0),
            Lane::Const(c) => c == 0,
        }
    }
}

/// `f(l, r)` for each of `n` live rows into `out`, replacing what it
/// held: one loop, chosen by the two lanes' shapes.
#[inline(always)]
fn zip_lanes(l: Lane<'_>, r: Lane<'_>, n: usize, out: &mut Vec<i64>, f: impl Fn(i64, i64) -> i64) {
    let at = |v: &[i64], i: u32| v[i as usize];
    out.clear();
    match (l, r) {
        (Lane::Dense(a), Lane::Dense(b)) => out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y))),
        (Lane::Dense(a), Lane::Gather(b, s)) => {
            out.extend(a.iter().zip(s).map(|(&x, &i)| f(x, at(b, i))));
        }
        (Lane::Gather(a, s), Lane::Dense(b)) => {
            out.extend(s.iter().zip(b).map(|(&i, &y)| f(at(a, i), y)));
        }
        (Lane::Gather(a, s), Lane::Gather(b, _)) => {
            out.extend(s.iter().map(|&i| f(at(a, i), at(b, i))));
        }
        (Lane::Dense(a), Lane::Const(c)) => out.extend(a.iter().map(|&x| f(x, c))),
        (Lane::Const(c), Lane::Dense(b)) => out.extend(b.iter().map(|&y| f(c, y))),
        (Lane::Gather(a, s), Lane::Const(c)) => out.extend(s.iter().map(|&i| f(at(a, i), c))),
        (Lane::Const(c), Lane::Gather(b, s)) => out.extend(s.iter().map(|&i| f(c, at(b, i)))),
        (Lane::Const(a), Lane::Const(b)) => out.resize(n, f(a, b)),
    }
}

/// The arithmetic kernel: `a op b` over the `n` live rows into `out`,
/// replacing what it held. A zero divisor among the live rows records
/// [`ExecError::DivisionByZero`] in `ctx` (first error wins). Charges
/// nothing: the caller charges one `Arith` per live row and node.
fn arith_into(
    op: ArithOp,
    a: Lane<'_>,
    b: Lane<'_>,
    n: usize,
    out: &mut Vec<i64>,
    ctx: &mut ExecCtx,
) {
    match op {
        ArithOp::Add => zip_lanes(a, b, n, out, |x, y| ArithOp::Add.of(x, y)),
        ArithOp::Sub => zip_lanes(a, b, n, out, |x, y| ArithOp::Sub.of(x, y)),
        ArithOp::Mul => zip_lanes(a, b, n, out, |x, y| ArithOp::Mul.of(x, y)),
        ArithOp::Div => match b {
            Lane::Const(d) if d != 0 => {
                let by = DivConst::new(d);
                match by.fix {
                    Fix::None => zip_lanes(a, b, n, out, |x, _| by.of(x, Fix::None)),
                    Fix::Add => zip_lanes(a, b, n, out, |x, _| by.of(x, Fix::Add)),
                    Fix::Sub => zip_lanes(a, b, n, out, |x, _| by.of(x, Fix::Sub)),
                }
            }
            _ => {
                if b.has_zero() {
                    ctx.fail(ExecError::DivisionByZero);
                }
                zip_lanes(a, b, n, out, |x, y| ArithOp::Div.of(x, y));
            }
        },
    }
}

/// `l op r` over the live rows into a fresh vector, charging one
/// `Arith` per live row, as per-row [`Expr::eval`] would.
fn arith(
    op: ArithOp,
    l: &Expr,
    r: &Expr,
    data: &DataChunk,
    rows: Rows<'_>,
    ctx: &mut ExecCtx,
) -> Vec<i64> {
    let l = l.eval_num(data, rows, ctx);
    let r = r.eval_num(data, rows, ctx);
    let n = rows.len();
    ctx.charge(OpClass::Arith, n as u64);
    let mut out = Vec::with_capacity(n);
    arith_into(op, l.lane(rows), r.lane(rows), n, &mut out, ctx);
    out
}

/// One node of [`Subexprs`]: a leaf, or an operator over two earlier
/// nodes.
#[derive(Clone, Copy, PartialEq)]
enum Node {
    Col(usize),
    Lit(i64),
    Arith(ArithOp, usize, usize),
}

/// The distinct `Int` subexpressions of a set of expressions, each
/// evaluated once per chunk into a lane this owns and reuses across
/// chunks. A node is its operator and its operands' nodes, so two
/// subtrees are one node exactly when they are equal `Expr`s: Q1's
/// `l_extendedprice * (100 - l_discount)` is computed once for both
/// inputs that hold it.
pub(crate) struct Subexprs {
    /// The distinct nodes, each after its operands.
    nodes: Vec<Node>,
    /// Per node: whether its values are read whole ([`Self::values`]),
    /// not only as an operand.
    roots: Vec<bool>,
    /// Per node, this chunk: its values, one per live-row ordinal, where
    /// they are not read in place — an arithmetic node's results, a
    /// root column's values gathered through the selection, a root
    /// literal repeated; else empty.
    lanes: Vec<Vec<i64>>,
}

impl Subexprs {
    pub(crate) fn new() -> Self {
        Self {
            nodes: Vec::new(),
            roots: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// The node of `e` (an `Int` column, literal or arithmetic), whose
    /// values [`Self::values`] reads, adding it and every subexpression
    /// not seen yet.
    pub(crate) fn root(&mut self, e: &Expr) -> usize {
        let j = self.intern(e);
        self.roots[j] = true;
        j
    }

    /// The node of `e`, added with its subexpressions if not seen yet.
    fn intern(&mut self, e: &Expr) -> usize {
        let node = match e {
            Expr::Col(i) => Node::Col(*i),
            Expr::Lit(Value::Int(v)) => Node::Lit(*v),
            Expr::Arith(op, l, r) => Node::Arith(*op, self.intern(l), self.intern(r)),
            _ => not_int(e),
        };
        self.nodes
            .iter()
            .position(|&n| n == node)
            .unwrap_or_else(|| {
                self.nodes.push(node);
                self.roots.push(false);
                self.lanes.push(Vec::new());
                self.nodes.len() - 1
            })
    }

    /// The column node `node` reads, if it is a bare column.
    pub(crate) fn column(&self, node: usize) -> Option<usize> {
        match self.nodes[node] {
            Node::Col(c) => Some(c),
            _ => None,
        }
    }

    /// Evaluate every node over the live rows, once each, into its
    /// lane. A zero divisor records [`ExecError::DivisionByZero`] (first
    /// error wins). Charges nothing: the `Arith`s are counts the caller
    /// takes from its expressions' trees.
    pub(crate) fn eval(&mut self, data: &DataChunk, rows: Rows<'_>, ctx: &mut ExecCtx) {
        let n = rows.len();
        for j in 0..self.nodes.len() {
            let (done, rest) = self.lanes.split_at_mut(j);
            let out = &mut rest[0];
            match (self.nodes[j], rows, self.roots[j]) {
                (Node::Col(c), Rows::Sel(sel), true) => {
                    let v = ints(data, c);
                    out.clear();
                    out.extend(sel.iter().map(|&i| v[i as usize]));
                }
                // Every value is `c`, so only the length changes.
                (Node::Lit(c), _, true) => out.resize(n, c),
                (Node::Arith(op, l, r), ..) => {
                    let lane = |k| lane(&self.nodes, &self.roots, done, k, data, rows);
                    arith_into(op, lane(l), lane(r), n, out, ctx);
                }
                _ => {}
            }
        }
    }

    /// Root `node`'s values, one per live-row ordinal, after
    /// [`Self::eval`] over the same rows.
    pub(crate) fn values<'s>(
        &'s self,
        node: usize,
        data: &'s DataChunk,
        rows: Rows<'s>,
    ) -> &'s [i64] {
        match lane(&self.nodes, &self.roots, &self.lanes, node, data, rows) {
            Lane::Dense(v) => v,
            _ => &self.lanes[node],
        }
    }
}

/// Node `j`'s lane over `rows`: a column in place (or its gathered
/// lane, if it is a root under a selection), a literal as a constant,
/// an arithmetic node's lane.
fn lane<'s>(
    nodes: &[Node],
    roots: &[bool],
    lanes: &'s [Vec<i64>],
    j: usize,
    data: &'s DataChunk,
    rows: Rows<'s>,
) -> Lane<'s> {
    match (nodes[j], rows, roots[j]) {
        (Node::Col(c), Rows::Range(s, e), _) => Lane::Dense(&ints(data, c)[s..e]),
        (Node::Col(c), Rows::Sel(sel), false) => Lane::Gather(ints(data, c), sel),
        (Node::Lit(c), ..) => Lane::Const(c),
        _ => Lane::Dense(&lanes[j]),
    }
}

/// The panic of an `Int` operand that is not one, like the row
/// evaluator's `expect("arith on Int")`.
fn not_int(e: &Expr) -> ! {
    panic!("arith on Int, got {e:?}")
}

/// Column `c` of `data` as `Int`s.
fn ints(data: &DataChunk, c: usize) -> &[i64] {
    match data.column(c).data.as_ints() {
        Some(v) => v,
        None => panic!("arith on Int"),
    }
}

/// Division by a nonzero constant `d` with a multiply and a shift
/// instead of a hardware divide (Granlund and Montgomery, "Division by
/// Invariant Integers using Multiplication", PLDI 1994, in the signed
/// form of Warren's *Hacker's Delight*, ch. 10): `of(x)` is
/// `x.wrapping_div(d)` for every `x`, `i64::MIN / -1` included.
#[derive(Clone, Copy)]
struct DivConst {
    magic: i64,
    fix: Fix,
    shift: u32,
    /// 1 where a negative quotient is rounded up toward zero; 0 for
    /// `d = ±1`, whose quotient is exact.
    round: i64,
}

impl DivConst {
    /// The multiplier and shift for `d` (nonzero), found once.
    fn new(d: i64) -> Self {
        debug_assert_ne!(d, 0, "a zero divisor takes the checked path");
        if d.unsigned_abs() == 1 {
            return Self {
                magic: 0,
                fix: if d > 0 { Fix::Add } else { Fix::Sub },
                shift: 0,
                round: 0,
            };
        }
        // The smallest `p >= 64` with `2^p > nc * (|d| - 2^p mod |d|)`,
        // `nc` the largest dividend with `nc mod |d| = |d| - 1`; then
        // `magic = (2^p + |d| - 2^p mod |d|) / |d|`, kept mod 2^64.
        const TWO63: u64 = 1 << 63;
        let ad = d.unsigned_abs();
        let t = TWO63 + ((d as u64) >> 63);
        let anc = t - 1 - t % ad;
        let (mut q1, mut r1) = (TWO63 / anc, TWO63 % anc);
        let (mut q2, mut r2) = (TWO63 / ad, TWO63 % ad);
        let mut p = 63;
        loop {
            p += 1;
            (q1, r1) = (q1.wrapping_mul(2), 2 * r1);
            if r1 >= anc {
                (q1, r1) = (q1.wrapping_add(1), r1 - anc);
            }
            (q2, r2) = (q2.wrapping_mul(2), 2 * r2);
            if r2 >= ad {
                (q2, r2) = (q2.wrapping_add(1), r2 - ad);
            }
            let delta = ad - r2;
            if q1 > delta || (q1 == delta && r1 != 0) {
                break;
            }
        }
        let magic = q2.wrapping_add(1) as i64;
        let magic = if d < 0 { magic.wrapping_neg() } else { magic };
        let fix = match (d > 0, magic < 0) {
            (true, true) => Fix::Add,
            (false, false) => Fix::Sub,
            _ => Fix::None,
        };
        Self {
            magic,
            fix,
            shift: p - 64,
            round: 1,
        }
    }

    /// `x.wrapping_div(d)`, given `fix` is `self.fix`: a loop that
    /// passes it as a literal carries only its own correction.
    #[inline(always)]
    fn of(self, x: i64, fix: Fix) -> i64 {
        let high = ((i128::from(self.magic) * i128::from(x)) >> 64) as i64;
        let high = match fix {
            Fix::None => high,
            Fix::Add => high.wrapping_add(x),
            Fix::Sub => high.wrapping_sub(x),
        };
        let q = high >> self.shift;
        q + ((q as u64 >> 63) as i64 & self.round)
    }
}

/// What [`DivConst`] does to the product's high half before the shift:
/// nothing, add the dividend (`d > 0` and a negative `magic`, or
/// `d = 1`) or subtract it (`d < 0` and a positive `magic`, or
/// `d = -1`).
#[derive(Clone, Copy)]
enum Fix {
    None,
    Add,
    Sub,
}

/// Any typed comparison operand resolved over a row set.
enum ValSrc<'a> {
    Int(NumSrc<'a>),
    Date(Operand<&'a [i32], i32>),
    Char(Operand<&'a [char], char>),
    /// Strings compare as bytes, in place: byte order is `str` order.
    Str(Operand<&'a StrColumn, &'a [u8]>),
    Bool(Operand<&'a [bool], bool>),
}

#[inline]
fn valid_at(mask: Option<&[bool]>, i: usize) -> bool {
    mask.is_none_or(|m| m[i])
}

/// One side of a comparison loop: its value at live-row ordinal `k`,
/// absolute row id `i`.
trait Side: Copy {
    type Item: PartialOrd;
    fn at(self, k: usize, i: usize) -> Self::Item;
}

/// A column, read by row id.
impl<T: Copy + PartialOrd> Side for &[T] {
    type Item = T;
    #[inline(always)]
    fn at(self, _: usize, i: usize) -> T {
        self[i]
    }
}

/// A string column's bytes, read in place by row id.
impl<'a> Side for &'a StrColumn {
    type Item = &'a [u8];
    #[inline(always)]
    fn at(self, _: usize, i: usize) -> &'a [u8] {
        self.bytes(i)
    }
}

/// Packed offsets from a frame of reference, read by row id.
impl Side for &BitPacked {
    type Item = u64;
    #[inline(always)]
    fn at(self, _: usize, i: usize) -> u64 {
        self.get(i)
    }
}

/// A computed vector, read by live-row ordinal.
#[derive(Clone, Copy)]
struct ByOrd<'a, T>(&'a [T]);

impl<T: Copy + PartialOrd> Side for ByOrd<'_, T> {
    type Item = T;
    #[inline(always)]
    fn at(self, k: usize, _: usize) -> T {
        self.0[k]
    }
}

/// A literal.
#[derive(Clone, Copy)]
struct Same<T>(T);

impl<T: Copy + PartialOrd> Side for Same<T> {
    type Item = T;
    #[inline(always)]
    fn at(self, _: usize, _: usize) -> T {
        self.0
    }
}

/// Where a comparison's verdicts go. Both forms narrow the live rows to
/// those a verdict accepts: a selection vector compacts in place
/// ([`Expr::filter_sel`]), [`Flags`] clears the flags of the others
/// ([`Expr::eval_flags`]).
trait Verdicts {
    /// The live rows.
    fn rows(&self) -> Rows<'_>;
    /// Keep only the live rows for which `keep(k, i)` holds (`k` the
    /// live-row ordinal, `i` the absolute row id).
    fn narrow(&mut self, keep: impl Fn(usize, usize) -> bool);
}

impl Verdicts for Vec<u32> {
    fn rows(&self) -> Rows<'_> {
        Rows::Sel(self)
    }

    #[inline(always)]
    fn narrow(&mut self, keep: impl Fn(usize, usize) -> bool) {
        compact(self, keep);
    }
}

/// One flag per live-row ordinal, all `true` until narrowed.
struct Flags<'r> {
    rows: Rows<'r>,
    flags: Vec<bool>,
}

impl<'r> Flags<'r> {
    fn new(rows: Rows<'r>) -> Self {
        Self {
            rows,
            flags: vec![true; rows.len()],
        }
    }
}

impl Verdicts for Flags<'_> {
    fn rows(&self) -> Rows<'_> {
        self.rows
    }

    #[inline(always)]
    fn narrow(&mut self, keep: impl Fn(usize, usize) -> bool) {
        let flags = &mut self.flags;
        self.rows.for_each(|k, i| flags[k] &= keep(k, i));
    }
}

/// Keep the row ids of `sel` that `keep(k, i)` accepts (`k` the
/// ordinal, `i` the id), in order, with no branch on the verdict: each
/// id is written at the cursor, and the cursor advances by the verdict.
#[inline(always)]
fn compact(sel: &mut Vec<u32>, keep: impl Fn(usize, usize) -> bool) {
    let mut w = 0;
    for k in 0..sel.len() {
        let i = sel[k];
        sel[w] = i;
        w += usize::from(keep(k, i as usize));
    }
    sel.truncate(w);
}

/// Narrow `out` by `a op b`: the operator is matched here, once, so each
/// arm is one loop compiled for its operator and operand shapes.
fn by_op<A: Side, B: Side<Item = A::Item>>(op: CmpOp, a: A, b: B, out: &mut impl Verdicts) {
    match op {
        CmpOp::Eq => out.narrow(|k, i| a.at(k, i) == b.at(k, i)),
        CmpOp::Ne => out.narrow(|k, i| a.at(k, i) != b.at(k, i)),
        CmpOp::Lt => out.narrow(|k, i| a.at(k, i) < b.at(k, i)),
        CmpOp::Le => out.narrow(|k, i| a.at(k, i) <= b.at(k, i)),
        CmpOp::Gt => out.narrow(|k, i| a.at(k, i) > b.at(k, i)),
        CmpOp::Ge => out.narrow(|k, i| a.at(k, i) >= b.at(k, i)),
    }
}

/// Narrow `out` by `a op b` over two operands of one type, settling
/// their shapes once: a literal on the left moves right (`lit ⋄ x` is
/// `x ⋄' lit` with `⋄' = ⋄.swap()`), and two literals give one verdict
/// for every row.
fn by_shape<C, T>(op: CmpOp, a: Operand<C, T>, b: Operand<C, T>, out: &mut impl Verdicts)
where
    C: Side<Item = T>,
    T: Copy + PartialOrd,
{
    use Operand::{Col, Lit, Own};
    match (a, b) {
        (Col(a), Col(b)) => by_op(op, a, b, out),
        (Col(a), Own(b)) => by_op(op, a, ByOrd(&b), out),
        (Own(a), Col(b)) => by_op(op, ByOrd(&a), b, out),
        (Own(a), Own(b)) => by_op(op, ByOrd(&a), ByOrd(&b), out),
        (Col(a), Lit(c)) => by_op(op, a, Same(c), out),
        (Own(a), Lit(c)) => by_op(op, ByOrd(&a), Same(c), out),
        (Lit(c), Col(b)) => by_op(op.swap(), b, Same(c), out),
        (Lit(c), Own(b)) => by_op(op.swap(), ByOrd(&b), Same(c), out),
        (Lit(a), Lit(b)) => by_op(op, Same(a), Same(b), out),
    }
}

/// The typed comparison kernel, one for both verdict forms: resolve both
/// operands, charge one `PredEval` per live row, and narrow `out` by
/// `lhs op rhs` in one loop chosen per chunk by the operands' types and
/// shapes and the operator, with no branch on a row's data. A row
/// invalid on either side then reads `false`, still charged.
fn compare(
    op: CmpOp,
    lhs: &Expr,
    rhs: &Expr,
    data: &DataChunk,
    ctx: &mut ExecCtx,
    out: &mut impl Verdicts,
) {
    let rows = out.rows();
    let n = rows.len();
    let (l, lmask) = resolve(lhs, data, rows, ctx);
    let (r, rmask) = resolve(rhs, data, rows, ctx);
    ctx.charge(OpClass::PredEval, n as u64);
    ctx.pred_evals += n as u64;
    match (l, r) {
        (ValSrc::Int(a), ValSrc::Int(b)) => by_shape(op, a, b, out),
        (ValSrc::Date(a), ValSrc::Date(b)) => by_shape(op, a, b, out),
        (ValSrc::Char(a), ValSrc::Char(b)) => by_shape(op, a, b, out),
        (ValSrc::Str(a), ValSrc::Str(b)) => by_shape(op, a, b, out),
        (ValSrc::Bool(a), ValSrc::Bool(b)) => by_shape(op, a, b, out),
        _ => assert!(n == 0, "type mismatch in columnar comparison"),
    }
    if lmask.is_some() || rmask.is_some() {
        out.narrow(|_, i| valid_at(lmask, i) & valid_at(rmask, i));
    }
}

impl Expr {
    /// Refine a selection vector in place: keep the rows of `sel` this
    /// boolean expression accepts. Charges exactly what evaluating
    /// [`Expr::eval_bool`] against each live row would charge. `And`
    /// narrows conjunct by conjunct, and a comparison compacts `sel`
    /// itself, branch-free (see the columnar notes above); any other
    /// shape computes one flag per live row, then compacts by them.
    pub(crate) fn filter_sel(&self, data: &DataChunk, sel: &mut Vec<u32>, ctx: &mut ExecCtx) {
        if sel.is_empty() {
            return;
        }
        match self {
            Expr::And(arms) => {
                for arm in arms {
                    arm.filter_sel(data, sel, ctx);
                    if sel.is_empty() {
                        return;
                    }
                }
            }
            Expr::Cmp(op, l, r) => compare(*op, l, r, data, ctx, sel),
            _ => {
                let flags = self.eval_flags(data, Rows::Sel(sel), ctx);
                compact(sel, |k, _| flags[k]);
            }
        }
    }

    /// Refine a selection vector directly on the *compressed* column
    /// forms — the ledger-schema-v3 filter path, used only under
    /// `PricingMode::Compressed`. Selects exactly the rows
    /// [`Expr::filter_sel`] would (property-tested), but does the work
    /// — and the charging — on the encoded representation:
    ///
    /// * **dictionary** columns compare the literal once per *distinct*
    ///   value (`PredEval` × dictionary size), then match bit-packed ids
    ///   (`DictLookup` per live row);
    /// * **run-length** columns compare once per run fragment the live
    ///   rows touch (`PredEval` per fragment), accepting or rejecting
    ///   whole runs;
    /// * **bit-packed** columns translate the literal into the packed
    ///   domain once and compare packed words per row (`PredEval` per
    ///   live row — same count as raw, fewer bytes behind it);
    /// * everything else (plain columns, non-`col ⋄ lit` shapes) falls
    ///   back to the raw columnar kernel per conjunct.
    ///
    /// Top-level `And`s narrow conjunct-by-conjunct like the raw path,
    /// so each arm only touches surviving rows.
    pub(crate) fn filter_sel_enc(
        &self,
        data: &DataChunk,
        enc: &EncodedChunk,
        sel: &mut Vec<u32>,
        ctx: &mut ExecCtx,
    ) {
        if sel.is_empty() {
            return;
        }
        match self {
            Expr::And(arms) => {
                for arm in arms {
                    arm.filter_sel_enc(data, enc, sel, ctx);
                    if sel.is_empty() {
                        return;
                    }
                }
            }
            Expr::Cmp(op, l, r) => {
                // Normalize to `col ⋄ lit`; anything else takes the raw path.
                let (col, lit, op) = match (&**l, &**r) {
                    (Expr::Col(i), Expr::Lit(v)) => (*i, v, *op),
                    (Expr::Lit(v), Expr::Col(i)) => (*i, v, op.swap()),
                    _ => return self.filter_sel(data, sel, ctx),
                };
                if !cmp_sel_enc(op, enc.column(col), lit, sel, ctx) {
                    self.filter_sel(data, sel, ctx);
                }
            }
            _ => self.filter_sel(data, sel, ctx),
        }
    }

    /// Evaluate a boolean expression over the live rows, returning one
    /// flag per live-row ordinal. Charge-identical to per-row
    /// [`Expr::eval_bool`] (see module notes on selection narrowing).
    pub(crate) fn eval_flags(
        &self,
        data: &DataChunk,
        rows: Rows<'_>,
        ctx: &mut ExecCtx,
    ) -> Vec<bool> {
        let n = rows.len();
        match self {
            Expr::Cmp(op, l, r) => {
                let mut out = Flags::new(rows);
                compare(*op, l, r, data, ctx, &mut out);
                out.flags
            }
            Expr::And(arms) => {
                let mut flags = vec![true; n];
                // Rows still passing: (absolute id, original ordinal).
                let mut alive: Vec<u32> = rows.to_indices();
                let mut alive_ord: Vec<u32> = (0..n as u32).collect();
                for arm in arms {
                    if alive.is_empty() {
                        break;
                    }
                    let arm_flags = arm.eval_flags(data, Rows::Sel(&alive), ctx);
                    let mut write = 0;
                    for k in 0..alive.len() {
                        if arm_flags[k] {
                            alive[write] = alive[k];
                            alive_ord[write] = alive_ord[k];
                            write += 1;
                        } else {
                            flags[alive_ord[k] as usize] = false;
                        }
                    }
                    alive.truncate(write);
                    alive_ord.truncate(write);
                }
                flags
            }
            Expr::Or(arms) => {
                let mut flags = vec![false; n];
                if ctx.short_circuit_or {
                    // Rows not yet matched keep trying later arms.
                    let mut alive: Vec<u32> = rows.to_indices();
                    let mut alive_ord: Vec<u32> = (0..n as u32).collect();
                    for arm in arms {
                        if alive.is_empty() {
                            break;
                        }
                        let arm_flags = arm.eval_flags(data, Rows::Sel(&alive), ctx);
                        let mut write = 0;
                        for k in 0..alive.len() {
                            if arm_flags[k] {
                                flags[alive_ord[k] as usize] = true;
                            } else {
                                alive[write] = alive[k];
                                alive_ord[write] = alive_ord[k];
                                write += 1;
                            }
                        }
                        alive.truncate(write);
                        alive_ord.truncate(write);
                    }
                } else {
                    for arm in arms {
                        let arm_flags = arm.eval_flags(data, rows, ctx);
                        for (f, a) in flags.iter_mut().zip(&arm_flags) {
                            *f |= a;
                        }
                    }
                }
                flags
            }
            Expr::Not(e) => {
                let mut flags = e.eval_flags(data, rows, ctx);
                for f in &mut flags {
                    *f = !*f;
                }
                flags
            }
            Expr::Col(i) => {
                let col = data.column(*i);
                let vals = col
                    .data
                    .as_bools()
                    .unwrap_or_else(|| panic!("expected boolean column {i}"));
                let mask = col.validity.as_deref();
                let mut flags = vec![false; n];
                rows.for_each(|k, i| flags[k] = valid_at(mask, i) && vals[i]);
                flags
            }
            Expr::Lit(v) => {
                let b = v
                    .as_bool()
                    .unwrap_or_else(|| panic!("expected boolean, got {v:?}"));
                vec![b; n]
            }
            Expr::Arith(..) => panic!("expected boolean, got arithmetic expression"),
        }
    }

    /// Resolve an `Int`-valued expression over the live rows, computing
    /// (and charging) any arithmetic nodes. Panics on non-`Int`
    /// expressions, like the scalar evaluator's `expect("arith on Int")`.
    pub(crate) fn eval_num<'a>(
        &'a self,
        data: &'a DataChunk,
        rows: Rows<'_>,
        ctx: &mut ExecCtx,
    ) -> NumSrc<'a> {
        match self {
            Expr::Col(i) => Operand::Col(ints(data, *i)),
            Expr::Lit(Value::Int(v)) => Operand::Lit(*v),
            Expr::Arith(op, l, r) => Operand::Own(arith(*op, l, r, data, rows, ctx)),
            _ => not_int(self),
        }
    }

    /// The arithmetic nodes of an `Int`-valued expression: the `Arith`s
    /// evaluating it charges per row.
    pub(crate) fn arith_nodes(&self) -> u64 {
        match self {
            Expr::Arith(_, l, r) => 1 + l.arith_nodes() + r.arith_nodes(),
            _ => 0,
        }
    }

    /// Materialize this expression's values over the live rows into a
    /// fresh column — the columnar `Project` kernel. Charges exactly
    /// what per-row [`Expr::eval`] would. A column passthrough gathers
    /// through the typed [`ColumnChunk::gather`] loops, *carrying the
    /// validity mask*, so projecting never launders a NULL into a valid
    /// value; computed columns are always fully valid.
    pub(crate) fn eval_column(
        &self,
        data: &DataChunk,
        rows: Rows<'_>,
        ctx: &mut ExecCtx,
    ) -> ColumnChunk {
        let n = rows.len();
        match self {
            Expr::Col(i) => data.column(*i).gather(&rows.to_indices()),
            Expr::Lit(v) => {
                let mut out = ColumnData::with_capacity(v.column_type(), n);
                for _ in 0..n {
                    out.push(v);
                }
                ColumnChunk::new(out)
            }
            Expr::Arith(op, l, r) => {
                ColumnChunk::new(ColumnData::Int(arith(*op, l, r, data, rows, ctx)))
            }
            _ => ColumnChunk::new(ColumnData::Bool(self.eval_flags(data, rows, ctx))),
        }
    }
}

/// The direct-on-compressed comparison kernel behind
/// [`Expr::filter_sel_enc`]: refine `sel` against `col ⋄ lit` using the
/// column's encoded form. Returns `false` when the encoding (or the
/// literal's type) offers no compressed kernel — the caller then runs
/// the raw columnar kernel instead.
fn cmp_sel_enc(
    op: CmpOp,
    enc: &EncodedColumn,
    lit: &Value,
    sel: &mut Vec<u32>,
    ctx: &mut ExecCtx,
) -> bool {
    match (enc, lit) {
        (EncodedColumn::DictStr { dict, ids }, Value::Str(lit)) => {
            // Compare once per distinct value, then match ids.
            let keep: Vec<bool> = dict
                .iter()
                .map(|d| op.test(d.as_ref().cmp(lit.as_ref())))
                .collect();
            ctx.charge(OpClass::PredEval, dict.len() as u64);
            ctx.pred_evals += dict.len() as u64;
            ctx.charge(OpClass::DictLookup, sel.len() as u64);
            compact(sel, |_, i| keep[ids.get(i) as usize]);
            true
        }
        (EncodedColumn::DictChar { dict, ids }, Value::Char(lit)) => {
            let keep: Vec<bool> = dict.iter().map(|d| op.test(d.cmp(lit))).collect();
            ctx.charge(OpClass::PredEval, dict.len() as u64);
            ctx.pred_evals += dict.len() as u64;
            ctx.charge(OpClass::DictLookup, sel.len() as u64);
            compact(sel, |_, i| keep[ids.get(i) as usize]);
            true
        }
        (EncodedColumn::RleInt { values, ends }, Value::Int(lit)) => {
            rle_cmp_sel(op, values, ends, lit, sel, ctx);
            true
        }
        (EncodedColumn::RleDate { values, ends }, Value::Date(lit)) => {
            rle_cmp_sel(op, values, ends, lit, sel, ctx);
            true
        }
        (EncodedColumn::PackInt { min, packed }, Value::Int(lit)) => {
            // Translate the literal into the packed (offset-from-min)
            // domain once; rows compare packed words, never decoding.
            let delta = i128::from(*lit) - i128::from(*min);
            pack_cmp_sel(op, packed, delta, sel, ctx);
            true
        }
        (EncodedColumn::PackDate { min, packed }, Value::Date(lit)) => {
            let delta = i128::from(*lit) - i128::from(*min);
            pack_cmp_sel(op, packed, delta, sel, ctx);
            true
        }
        _ => false,
    }
}

/// Run-at-a-time comparison: one `PredEval` per run *fragment* the live
/// rows touch; every row of an accepted fragment survives with no
/// per-row work. Relies on `sel` being ascending (a [`crate::chunk::Chunk`]
/// invariant), so runs advance monotonically.
fn rle_cmp_sel<T: Ord + Copy>(
    op: CmpOp,
    values: &[T],
    ends: &[u32],
    lit: &T,
    sel: &mut Vec<u32>,
    ctx: &mut ExecCtx,
) {
    let mut run = 0usize;
    let mut have = false;
    let mut verdict = false;
    let mut touched = 0u64;
    sel.retain(|&i| {
        while ends[run] <= i {
            run += 1;
            have = false;
        }
        if !have {
            verdict = op.test(values[run].cmp(lit));
            have = true;
            touched += 1;
        }
        verdict
    });
    ctx.charge(OpClass::PredEval, touched);
    ctx.pred_evals += touched;
}

/// Packed-domain comparison: `value ⋄ lit` ⇔ `packed ⋄ (lit - min)`,
/// with out-of-range literals resolving without touching the words.
/// One `PredEval` per live row — same count as the raw kernel, but the
/// bytes behind it are the packed words.
fn pack_cmp_sel(op: CmpOp, packed: &BitPacked, delta: i128, sel: &mut Vec<u32>, ctx: &mut ExecCtx) {
    ctx.charge(OpClass::PredEval, sel.len() as u64);
    ctx.pred_evals += sel.len() as u64;
    if delta < 0 {
        // Every stored value is >= min > lit.
        let keep = matches!(op, CmpOp::Ne | CmpOp::Gt | CmpOp::Ge);
        if !keep {
            sel.clear();
        }
        return;
    }
    if delta > u64::MAX as i128 {
        // lit is above every representable offset: value < lit always.
        let keep = matches!(op, CmpOp::Ne | CmpOp::Lt | CmpOp::Le);
        if !keep {
            sel.clear();
        }
        return;
    }
    by_op(op, packed, Same(delta as u64), sel);
}

/// Resolve a comparison operand over the live rows: its typed values
/// and, for a column, its validity mask.
fn resolve<'a>(
    e: &'a Expr,
    data: &'a DataChunk,
    rows: Rows<'_>,
    ctx: &mut ExecCtx,
) -> (ValSrc<'a>, Option<&'a [bool]>) {
    use Operand::{Col, Lit, Own};
    match e {
        Expr::Col(i) => {
            let col = data.column(*i);
            let src = match &col.data {
                ColumnData::Int(v) => ValSrc::Int(Col(v)),
                ColumnData::Date(v) => ValSrc::Date(Col(v)),
                ColumnData::Char(v) => ValSrc::Char(Col(v)),
                ColumnData::Str(v) => ValSrc::Str(Col(v)),
                ColumnData::Bool(v) => ValSrc::Bool(Col(v)),
            };
            (src, col.validity.as_deref())
        }
        Expr::Lit(v) => {
            let src = match v {
                Value::Int(v) => ValSrc::Int(Lit(*v)),
                Value::Date(v) => ValSrc::Date(Lit(*v)),
                Value::Char(v) => ValSrc::Char(Lit(*v)),
                Value::Str(v) => ValSrc::Str(Lit(v.as_bytes())),
                Value::Bool(v) => ValSrc::Bool(Lit(*v)),
            };
            (src, None)
        }
        Expr::Arith(..) => (ValSrc::Int(e.eval_num(data, rows, ctx)), None),
        _ => (ValSrc::Bool(Own(e.eval_flags(data, rows, ctx))), None),
    }
}

fn expect_bool(v: Value) -> bool {
    v.as_bool()
        .unwrap_or_else(|| panic!("expected boolean, got {v:?}"))
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of an integer expression.
    Sum,
    /// Row count (argument ignored).
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Integer average (sum / count, truncating).
    Avg,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        vec![Value::Int(10), Value::str("asia"), Value::Date(100)]
    }

    #[test]
    fn comparisons() {
        let mut ctx = ExecCtx::new();
        let e = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(5));
        assert!(e.eval_bool(&t(), &mut ctx));
        let e = Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::str("asia"));
        assert!(e.eval_bool(&t(), &mut ctx));
        let e = Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::date(99));
        assert!(!e.eval_bool(&t(), &mut ctx));
        assert_eq!(ctx.pred_evals, 3);
    }

    #[test]
    fn arithmetic() {
        let mut ctx = ExecCtx::new();
        // 10 * (100 - 7) / 100 = 9
        let e = Expr::arith(
            ArithOp::Div,
            Expr::arith(
                ArithOp::Mul,
                Expr::col(0),
                Expr::arith(ArithOp::Sub, Expr::int(100), Expr::int(7)),
            ),
            Expr::int(100),
        );
        assert_eq!(e.eval(&t(), &mut ctx), Value::Int(9));
        assert_eq!(ctx.ledger.cpu.count(OpClass::Arith), 3);
    }

    #[test]
    fn and_short_circuits() {
        let mut ctx = ExecCtx::new();
        let e = Expr::And(vec![
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(5)), // false
            Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::str("asia")),
        ]);
        assert!(!e.eval_bool(&t(), &mut ctx));
        assert_eq!(ctx.pred_evals, 1, "second arm must not evaluate");
    }

    #[test]
    fn or_short_circuit_vs_exhaustive() {
        let arms: Vec<Expr> = (0..10).map(|v| Expr::col_eq_int(0, v)).collect();
        let e = Expr::Or(arms);
        // Tuple value 10 matches nothing: both modes evaluate all 10.
        let mut sc = ExecCtx::new();
        assert!(!e.eval_bool(&t(), &mut sc));
        assert_eq!(sc.pred_evals, 10);
        // Tuple matching arm 3 (0-indexed value 3).
        let tup: Tuple = vec![Value::Int(3)];
        let mut sc = ExecCtx::new();
        assert!(e.eval_bool(&tup, &mut sc));
        assert_eq!(sc.pred_evals, 4, "short-circuit stops at the match");
        let mut ex = ExecCtx::exhaustive();
        assert!(e.eval_bool(&tup, &mut ex));
        assert_eq!(ex.pred_evals, 10, "exhaustive evaluates every arm");
    }

    #[test]
    fn not_negates() {
        let mut ctx = ExecCtx::new();
        let e = Expr::Not(Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(10))));
        assert!(!e.eval_bool(&t(), &mut ctx));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn cross_type_comparison_panics() {
        let mut ctx = ExecCtx::new();
        Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::str("x")).eval(&t(), &mut ctx);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_column_panics() {
        let mut ctx = ExecCtx::new();
        Expr::col(9).eval(&t(), &mut ctx);
    }
}

#[cfg(test)]
mod columnar_tests {
    use super::*;
    use eco_storage::{ColumnChunk, ColumnType, Schema};

    fn test_chunk() -> DataChunk {
        let schema = Schema::new(&[
            ("v", ColumnType::Int),
            ("s", ColumnType::Str),
            ("d", ColumnType::Date),
        ]);
        let rows: Vec<Tuple> = (0..20)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 3 == 0 { "fizz" } else { "x" }),
                    Value::Date(i as i32 * 2),
                ]
            })
            .collect();
        DataChunk::from_rows(&schema, &rows)
    }

    /// A moderately nested predicate exercising And/Or/Cmp/Arith.
    fn predicate() -> Expr {
        Expr::And(vec![
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(15)),
            Expr::Or(vec![
                Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::str("fizz")),
                Expr::cmp(
                    CmpOp::Ge,
                    Expr::arith(ArithOp::Mul, Expr::col(0), Expr::int(3)),
                    Expr::int(30),
                ),
            ]),
        ])
    }

    /// Columnar filtering selects the same rows and charges the same
    /// ledger as evaluating the predicate row by row — including
    /// short-circuit evaluation counts.
    #[test]
    fn filter_sel_matches_scalar_rows_and_charges() {
        let chunk = test_chunk();
        for short_circuit in [true, false] {
            let mk_ctx = || {
                if short_circuit {
                    ExecCtx::new()
                } else {
                    ExecCtx::exhaustive()
                }
            };
            let pred = predicate();
            let mut sctx = mk_ctx();
            let scalar: Vec<u32> = (0..chunk.len() as u32)
                .filter(|&i| pred.eval_bool(&chunk.row(i as usize), &mut sctx))
                .collect();

            let mut cctx = mk_ctx();
            let mut sel: Vec<u32> = (0..chunk.len() as u32).collect();
            pred.filter_sel(&chunk, &mut sel, &mut cctx);

            assert_eq!(sel, scalar, "short_circuit={short_circuit}");
            assert_eq!(
                cctx.ledger.cpu, sctx.ledger.cpu,
                "short_circuit={short_circuit}"
            );
            assert_eq!(cctx.pred_evals, sctx.pred_evals);
        }
    }

    #[test]
    fn eval_column_matches_scalar_values_and_charges() {
        let chunk = test_chunk();
        let expr = Expr::arith(
            ArithOp::Div,
            Expr::arith(ArithOp::Mul, Expr::col(0), Expr::int(7)),
            Expr::int(2),
        );
        let sel: Vec<u32> = vec![0, 3, 4, 11, 19];
        let mut sctx = ExecCtx::new();
        let scalar: Vec<Value> = sel
            .iter()
            .map(|&i| expr.eval(&chunk.row(i as usize), &mut sctx))
            .collect();
        let mut cctx = ExecCtx::new();
        let col = expr.eval_column(&chunk, crate::chunk::Rows::Sel(&sel), &mut cctx);
        let got: Vec<Value> = (0..col.data.len()).map(|k| col.data.value(k)).collect();
        assert_eq!(got, scalar);
        assert_eq!(cctx.ledger.cpu, sctx.ledger.cpu);
    }

    #[test]
    fn empty_selection_charges_nothing() {
        let chunk = test_chunk();
        let mut ctx = ExecCtx::new();
        let mut sel: Vec<u32> = Vec::new();
        predicate().filter_sel(&chunk, &mut sel, &mut ctx);
        assert!(sel.is_empty());
        assert!(ctx.is_empty());
        assert_eq!(ctx.pred_evals, 0);
    }

    #[test]
    fn all_pass_and_all_fail_selections() {
        let chunk = test_chunk();
        let mut sel: Vec<u32> = (0..20).collect();
        let mut ctx = ExecCtx::new();
        Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(0)).filter_sel(&chunk, &mut sel, &mut ctx);
        assert_eq!(sel.len(), 20, "all rows pass");
        Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(0)).filter_sel(&chunk, &mut sel, &mut ctx);
        assert!(sel.is_empty(), "no rows pass");
    }

    /// The compressed kernels must select exactly the rows the raw
    /// kernels select, for every operator and every encoding — and the
    /// dictionary path must charge per *distinct* value, not per row.
    #[test]
    fn filter_sel_enc_matches_raw_rows_for_every_encoding() {
        let schema = Schema::new(&[
            ("packed", ColumnType::Int), // narrow range → PackInt
            ("runs", ColumnType::Int),   // long runs → RleInt
            ("s", ColumnType::Str),      // few distinct → DictStr
            ("c", ColumnType::Char),     // few distinct → DictChar
            ("d", ColumnType::Date),     // narrow range → PackDate
            ("wide", ColumnType::Int),   // full range → Plain
        ]);
        let rows: Vec<Tuple> = (0..600)
            .map(|i| {
                vec![
                    Value::Int(100 + (i * 37) % 50),
                    Value::Int(i / 60),
                    Value::str(format!("g{}", i % 5)),
                    Value::Char(['A', 'N', 'R'][(i as usize) % 3]),
                    Value::Date(8000 + (i as i32 * 13) % 400),
                    Value::Int(i.wrapping_mul(0x7E37_79B9_7F4A_7C15)),
                ]
            })
            .collect();
        let chunk = DataChunk::from_rows(&schema, &rows);
        let enc = EncodedChunk::encode(&chunk);
        assert_eq!(enc.column(0).encoding_name(), "pack-int");
        assert_eq!(enc.column(1).encoding_name(), "rle-int");
        assert_eq!(enc.column(2).encoding_name(), "dict-str");
        assert_eq!(enc.column(3).encoding_name(), "dict-char");
        assert_eq!(enc.column(4).encoding_name(), "pack-date");
        assert_eq!(enc.column(5).encoding_name(), "plain");

        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let cases: Vec<(usize, Value)> = vec![
            (0, Value::Int(120)),
            (0, Value::Int(5)),    // below the frame of reference
            (0, Value::Int(9999)), // above every stored value
            (1, Value::Int(4)),
            (2, Value::str("g2")),
            (2, Value::str("zzz")), // absent from the dictionary
            (3, Value::Char('N')),
            (4, Value::Date(8100)),
            (5, Value::Int(0)),
        ];
        for (col, lit) in &cases {
            for op in ops {
                for flipped in [false, true] {
                    let pred = if flipped {
                        Expr::cmp(op.swap(), Expr::Lit(lit.clone()), Expr::col(*col))
                    } else {
                        Expr::cmp(op, Expr::col(*col), Expr::Lit(lit.clone()))
                    };
                    let mut raw_sel: Vec<u32> = (0..chunk.len() as u32).collect();
                    let mut raw_ctx = ExecCtx::new();
                    pred.filter_sel(&chunk, &mut raw_sel, &mut raw_ctx);
                    let mut enc_sel: Vec<u32> = (0..chunk.len() as u32).collect();
                    let mut enc_ctx = ExecCtx::new();
                    pred.filter_sel_enc(&chunk, &enc, &mut enc_sel, &mut enc_ctx);
                    assert_eq!(
                        enc_sel, raw_sel,
                        "col {col} {op:?} {lit:?} flipped={flipped}"
                    );
                }
            }
        }

        // Dictionary kernel: PredEval per distinct value + DictLookup
        // per live row, instead of PredEval per row.
        let pred = Expr::cmp(CmpOp::Eq, Expr::col(2), Expr::str("g2"));
        let mut sel: Vec<u32> = (0..600).collect();
        let mut ctx = ExecCtx::new();
        pred.filter_sel_enc(&chunk, &enc, &mut sel, &mut ctx);
        assert_eq!(
            ctx.ledger.cpu.count(OpClass::PredEval),
            5,
            "one per distinct"
        );
        assert_eq!(
            ctx.ledger.cpu.count(OpClass::DictLookup),
            600,
            "one per row"
        );

        // RLE kernel: one PredEval per run touched (10 runs of 60).
        let pred = Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::int(4));
        let mut sel: Vec<u32> = (0..600).collect();
        let mut ctx = ExecCtx::new();
        pred.filter_sel_enc(&chunk, &enc, &mut sel, &mut ctx);
        assert_eq!(sel.len(), 240);
        assert_eq!(ctx.ledger.cpu.count(OpClass::PredEval), 10, "one per run");

        // And-narrowing: later conjuncts only touch survivors.
        let pred = Expr::And(vec![
            Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::int(1)),
            Expr::cmp(CmpOp::Eq, Expr::col(2), Expr::str("g0")),
        ]);
        let mut sel: Vec<u32> = (0..600).collect();
        let mut ctx = ExecCtx::new();
        pred.filter_sel_enc(&chunk, &enc, &mut sel, &mut ctx);
        assert_eq!(
            ctx.ledger.cpu.count(OpClass::DictLookup),
            60,
            "narrowed first"
        );
    }

    /// Per-row model of one comparison: the row evaluator's verdict,
    /// `false` where a bare column operand is invalid. Returns the
    /// verdict; charges what the row evaluator charges into `ctx`.
    fn model(
        op: CmpOp,
        l: &Expr,
        r: &Expr,
        chunk: &DataChunk,
        i: usize,
        ctx: &mut ExecCtx,
    ) -> bool {
        let valid = |e: &Expr| match e {
            Expr::Col(c) => valid_at(chunk.column(*c).validity.as_deref(), i),
            _ => true,
        };
        let holds = Expr::cmp(op, l.clone(), r.clone()).eval_bool(&chunk.row(i), ctx);
        valid(l) && valid(r) && holds
    }

    /// Every comparison shape the kernel settles once per chunk, held to
    /// a per-row model ([`model`]): each operator; `Int`, `Date`, `Char`
    /// and `Str`; `col ⋄ lit`, `lit ⋄ col` and `col ⋄ col` (and, for
    /// `Int`, arithmetic on either side or both); with and without
    /// validity masks; over a dense window and a sparse selection; with
    /// literals below, inside and above the column's values. Both
    /// verdict forms — the selection compacted in place and the flags —
    /// must keep the model's rows and charge exactly what the row
    /// evaluator charges over the live rows: one `PredEval` and one
    /// `pred_evals` per live row, masked rows included.
    #[test]
    fn comparison_kernel_matches_a_row_model_on_every_shape() {
        const N: i64 = 40;
        let schema = Schema::new(&[
            ("i0", ColumnType::Int),
            ("i1", ColumnType::Int),
            ("d0", ColumnType::Date),
            ("d1", ColumnType::Date),
            ("c0", ColumnType::Char),
            ("c1", ColumnType::Char),
            ("s0", ColumnType::Str),
            ("s1", ColumnType::Str),
        ]);
        // Strings of differing lengths, prefixes of one another included.
        let strs = ["ab", "abc", "abd", "b", "a", "abcd"];
        let rows: Vec<Tuple> = (0..N)
            .map(|i| {
                let (p, q) = ((i * 7) % 13, (i * 5) % 11);
                vec![
                    Value::Int(p - 6),
                    Value::Int(q - 5),
                    Value::Date(p as i32 * 3),
                    Value::Date(q as i32 * 3 + 1),
                    Value::Char((b'C' + (p % 9) as u8) as char),
                    Value::Char((b'C' + (q % 7) as u8) as char),
                    Value::str(strs[p as usize % 6]),
                    Value::str(strs[q as usize % 6]),
                ]
            })
            .collect();
        let plain = DataChunk::from_rows(&schema, &rows);
        let masked = DataChunk::new(
            (plain.columns().iter().enumerate())
                .map(|(c, col)| {
                    let mask = (0..N as usize).map(|i| (i + c) % 3 != 0).collect();
                    ColumnChunk::with_validity(col.data.clone(), mask)
                })
                .collect(),
        );
        // (left column, right column, literals below / inside / above).
        let types: [(usize, usize, [Value; 4]); 4] = [
            (0, 1, [-100, 0, 3, 100].map(Value::Int)),
            (2, 3, [-5, 9, 18, 1000].map(Value::Date)),
            (4, 5, ['A', 'E', 'G', 'Z'].map(Value::Char)),
            (6, 7, ["A", "abc", "abd", "zz"].map(Value::str)),
        ];
        let plus_one = |c: usize| Expr::arith(ArithOp::Add, Expr::col(c), Expr::int(1));
        let mut shapes: Vec<(Expr, Expr)> = Vec::new();
        for (a, b, lits) in &types {
            shapes.push((Expr::col(*a), Expr::col(*b)));
            for lit in lits {
                shapes.push((Expr::col(*a), Expr::Lit(lit.clone())));
                shapes.push((Expr::Lit(lit.clone()), Expr::col(*a)));
            }
        }
        // `Int` operands computed per live-row ordinal.
        shapes.push((plus_one(0), Expr::col(1)));
        shapes.push((Expr::col(0), plus_one(1)));
        shapes.push((plus_one(0), plus_one(1)));
        for lit in &types[0].2 {
            shapes.push((plus_one(0), Expr::Lit(lit.clone())));
            shapes.push((Expr::Lit(lit.clone()), plus_one(1)));
        }
        shapes.push((Expr::int(2), Expr::int(3)));

        let sparse: Vec<u32> = (0..N as u32).filter(|i| i % 3 != 1).collect();
        let inputs = [Rows::Range(5, 35), Rows::Sel(&sparse)];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for (chunk, masked) in [(&plain, false), (&masked, true)] {
            for (l, r) in &shapes {
                for op in ops {
                    let pred = Expr::cmp(op, l.clone(), r.clone());
                    for rows in inputs {
                        let what = format!("{pred:?} over {rows:?}, masked={masked}");
                        let mut want_ctx = ExecCtx::new();
                        let mut want_flags = Vec::new();
                        rows.for_each(|_, i| {
                            want_flags.push(model(op, l, r, chunk, i, &mut want_ctx));
                        });
                        let want_sel: Vec<u32> = (rows.to_indices().into_iter())
                            .zip(&want_flags)
                            .filter_map(|(i, &keep)| keep.then_some(i))
                            .collect();

                        let mut ctx = ExecCtx::new();
                        let mut sel = rows.to_indices();
                        pred.filter_sel(chunk, &mut sel, &mut ctx);
                        assert_eq!(sel, want_sel, "{what}: filter_sel rows");
                        assert_eq!(
                            ctx.ledger.cpu, want_ctx.ledger.cpu,
                            "{what}: filter_sel charges"
                        );
                        assert_eq!(
                            ctx.pred_evals, want_ctx.pred_evals,
                            "{what}: filter_sel pred_evals"
                        );

                        let mut ctx = ExecCtx::new();
                        let flags = pred.eval_flags(chunk, rows, &mut ctx);
                        assert_eq!(flags, want_flags, "{what}: eval_flags");
                        assert_eq!(
                            ctx.ledger.cpu, want_ctx.ledger.cpu,
                            "{what}: eval_flags charges"
                        );
                        assert_eq!(
                            ctx.pred_evals, want_ctx.pred_evals,
                            "{what}: eval_flags pred_evals"
                        );
                    }
                }
            }
        }
    }

    /// NULL handling: an invalid value fails every comparison (like SQL
    /// NULL) while still charging the evaluation.
    #[test]
    fn invalid_rows_fail_comparisons() {
        let data = ColumnData::Int(vec![1, 2, 3, 4]);
        let validity = vec![true, false, true, false];
        let chunk = DataChunk::new(vec![ColumnChunk::with_validity(data, validity)]);
        let mut sel: Vec<u32> = (0..4).collect();
        let mut ctx = ExecCtx::new();
        // v >= 0 passes every valid row; NULL rows drop out.
        Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(0)).filter_sel(&chunk, &mut sel, &mut ctx);
        assert_eq!(sel, vec![0, 2]);
        assert_eq!(ctx.pred_evals, 4, "NULL rows still charge their eval");
        // Negation of a NULL comparison stays false-y: NOT(v < 0) keeps
        // only valid rows' results; NULL comparisons yield false, so the
        // negation admits them — SQL three-valued logic is out of scope
        // and the chosen two-valued behavior is documented.
        let mut sel2: Vec<u32> = (0..4).collect();
        Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(0)).filter_sel(&chunk, &mut sel2, &mut ctx);
        assert!(sel2.is_empty());
    }

    /// Division by a nonzero literal is `wrapping_div` for every divisor
    /// — ±1, small ones, Q1's 100 and 10 000, every power of two, the
    /// extremes and random ones of every width, each of either sign —
    /// and every dividend: 0, ±1, the extremes, the divisor ± 1 and
    /// random ones of every width. A zero literal still fails the
    /// statement, its rows holding the placeholder 0.
    #[test]
    fn division_by_a_literal_is_wrapping_div() {
        let mut state = 0x0D17_C0DE_u64;
        let mut random = || {
            // splitmix64, cut to a random width so small values come up.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> (z % 64)) as i64 ^ -((z >> 7) as i64 & 1)
        };
        let mut divisors = vec![1, 2, 3, 7, 100, 10_000, i64::MAX, i64::MIN, i64::MIN + 1];
        divisors.extend((1..63).map(|k| 1i64 << k));
        divisors.extend((0..300).map(|_| random()));
        for d in divisors.iter().flat_map(|&d| [d, d.wrapping_neg()]) {
            if d == 0 {
                continue;
            }
            let by = DivConst::new(d);
            let mut dividends = vec![0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1];
            dividends.extend([d, d.wrapping_sub(1), d.wrapping_add(1)]);
            dividends.extend([d.wrapping_neg(), d.wrapping_neg().wrapping_add(1)]);
            dividends.extend((0..300).map(|_| random()));
            for x in dividends {
                assert_eq!(by.of(x, by.fix), x.wrapping_div(d), "{x} / {d}");
            }
        }

        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let values = [i64::MIN, -7, -1, 0, 5, 99, i64::MAX];
        let rows: Vec<Tuple> = values.iter().map(|&v| vec![Value::Int(v)]).collect();
        let chunk = DataChunk::from_rows(&schema, &rows);
        let all = crate::chunk::Rows::Range(0, values.len());
        for d in [-1, 7, 100, 0] {
            let mut ctx = ExecCtx::new();
            let e = Expr::arith(ArithOp::Div, Expr::col(0), Expr::int(d));
            let col = e.eval_column(&chunk, all, &mut ctx);
            let want: Vec<i64> = (values.iter())
                .map(|&v| if d == 0 { 0 } else { v.wrapping_div(d) })
                .collect();
            assert_eq!(col.data.as_ints(), Some(&want[..]), "/ {d}");
            let failed = ctx.error() == Some(&ExecError::DivisionByZero);
            assert_eq!(failed, d == 0, "/ {d}");
        }
    }
}
