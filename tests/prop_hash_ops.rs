//! Differential property test for the vectorised hash join and
//! group-by (the columnar engine's `HashJoin` / `HashAggregate` over
//! the shared key kernel) against the scalar row engine.
//!
//! Generated inputs aim at the places a hash table goes wrong: 1–3 key
//! columns drawn from every column type, duplicate keys with fan-out,
//! skewed and all-equal keys, keys whose hashes collide in the table's
//! low bits (one long probe cluster), distinct keys whose *full* 64-bit
//! hashes are identical, key columns that agree bit for bit but differ
//! in type (`Int(1)` vs `Date(1)`: never a match), empty build, empty
//! probe, no matches at all, selection vectors on either side, a
//! `LIMIT` pulling the join a row at a time, and group-bys over 0–3
//! columns × SUM/COUNT/MIN/MAX/AVG.
//!
//! The columnar join indexes a build whose `Int` key column is dense by
//! direct address and hashes every other build, so the inputs reach
//! both: small `Int` ids take the direct index; sparse ids (spanning
//! past its range limit), the collision and twin modes' spread ids, and
//! builds holding both `i64::MIN` and `i64::MAX` (which must fall back
//! without overflowing) take the hash table; negative ids, probe values
//! just past either end of the build's range, and composite keys where
//! only a later `Int` column is dense — with duplicates on it under
//! different other keys, so each row of a chain must be checked — take
//! the direct index. The join also comes in plan shapes
//! that make the columnar engine prune its columns (`Inputs::shaped`):
//! under an aggregate reading a few of them, as both inputs of another
//! join under one (whose charges then come from the widths the pruned
//! joins carry), and under a projection, with and without a `LIMIT`.
//!
//! Under raw pricing, rows — including multi-match emission order and
//! first-seen group order — and whole ledgers must equal the oracle's
//! at 1, 2 and 4 workers. Under compressed pricing (encoded mirrors on
//! scanned tables) rows must still equal the oracle and the
//! dictionary-id paths must charge exactly their contract: one
//! `DictLookup` per live row, and `HashProbe` + a random access only
//! on the first sight of an id (per probe chunk in the join, per
//! encoded table in the aggregate).
//!
//! The group-by packs keys of fixed-width columns that fit in 64 bits
//! into one word and serves their group ids from a memo in front of its
//! key table. Its boundary has a property of its own: key-type lists of
//! exactly 64 bits (`Int`; `Date` × 2; `Char` × 3 and a `Bool`), under
//! (`Char` × 3 in 63) and just over (`Int` and a `Bool` either way
//! round; `Date` × 2 and a `Bool`), or holding a `Str`, with every
//! type's extremes (`i64::MIN`/`MAX`, negative and extreme dates,
//! `'\0'`, `char::MAX` and `Char`s that would spill out of a narrower
//! field), must equal the oracle in rows — first-seen group order
//! included — and ledgers at chunks of 1 to 4096 rows and 1, 2 and 4
//! workers; thousands of distinct packable keys grow the memo nine
//! times over.
//!
//! The arithmetic and accumulator kernels under those aggregates have a
//! property of their own: generated `Int` expression trees (up to four
//! levels, every operand shape pair — column, computed vector, literal
//! — over dense windows and selections, zero divisors both literal and
//! in the data, values that overflow) summed, averaged and counted,
//! globally and grouped, must equal the row oracle in rows, ledger and
//! recorded `ExecError`.
//!
//! Aggregates whose inputs repeat have checks of their own: the
//! columnar aggregate keeps a row count and one sum per distinct
//! `SUM`/`AVG` input for each group, so `SUM(x)` and `AVG(x)`, `SUM(e)`
//! and `AVG(e)` for an arithmetic `e`, `AVG(x)` twice, `COUNT` alone
//! and beside `AVG`, and all of them with `MIN`/`MAX` mixed in, grouped
//! (packed keys and hashed ones) and global, must equal the oracle in
//! rows and ledgers on both storage engines at chunks of 1, 7 and 1024
//! rows and 1, 2 and 4 workers. It also evaluates each distinct
//! subexpression of those inputs once a chunk, so inputs that share a
//! proper subexpression but differ as wholes (Q1's two revenue inputs;
//! one subexpression under `SUM`, `AVG`, `MIN` and `MAX`; inputs that
//! differ in a literal only) are held to the oracle the same way, dense
//! and filtered, and a shared subexpression dividing by a column that
//! holds zeros must record the oracle's one `DivisionByZero`. Under
//! compressed pricing, where a run-length-encoded input is summed a run
//! fragment at a time, rows must still equal the oracle and each
//! aggregate must charge what it charges alone.
//!
//! Seeds are pinned: the vendored `proptest` derives each test's
//! generator from the test's name.

mod support;

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use ecodb::query::chunk::Rows;
use ecodb::query::context::ExecCtx;
use ecodb::query::error::ExecError;
use ecodb::query::exec::{execute, ExecEngine};
use ecodb::query::expr::{AggFunc, ArithOp, CmpOp, Expr};
use ecodb::query::ops::{
    hash_keys, AggSpec, BoxedOp, Filter, HashAggregate, HashJoin, Limit, Project, SeqScan,
    VecSource,
};
use ecodb::simhw::trace::{Ledger, OpClass, PricingMode};
use ecodb::storage::{
    Catalog, ColumnType, DataChunk, EncodedColumn, HeapTable, Schema, Tuple, Value,
};
use support::{check, Axes, Rng, Storage};

const TYPES: [ColumnType; 5] = [
    ColumnType::Int,
    ColumnType::Date,
    ColumnType::Char,
    ColumnType::Str,
    ColumnType::Bool,
];

/// The value key id `id` takes in a column of type `ty` — one value per
/// id (two ids per `Bool`), the same bits across the numeric types so
/// that cross-typed columns agree in payload and differ only in type.
/// `Char`s cover every scalar value: small ids are themselves, `-1` is
/// `char::MAX`.
fn key_value(ty: ColumnType, id: i64) -> Value {
    match ty {
        ColumnType::Int => Value::Int(id),
        ColumnType::Date => Value::Date(id as i32),
        ColumnType::Char => {
            // 0x10F800 scalar values: 0..=0x10FFFF less the surrogates.
            let c = id.rem_euclid(0x10_F800) as u32;
            let c = if c < 0xD800 { c } else { c + 0x800 };
            Value::Char(char::from_u32(c).expect("scalar value"))
        }
        ColumnType::Bool => Value::Bool(id % 2 != 0),
        ColumnType::Str => Value::str(match id.rem_euclid(4) {
            0 if id == 0 => String::new(),
            1 => format!("ключ-{id}"),
            2 => format!("{id}"),
            _ => format!("key/{id}/with-a-longer-tail"),
        }),
    }
}

/// How the build side's keys are distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Uniform,
    Skewed,
    AllEqual,
    /// Every key lands in one probe cluster of the table.
    LowBitCollisions,
    /// Pairs of distinct keys with identical 64-bit hashes.
    HashTwins,
    /// Ids a stride apart, spanning past the direct index's range.
    Sparse,
    /// Negative ids, and `i64::MIN` and `i64::MAX` in one build.
    Extreme,
    /// Two or three key columns: the last an `Int` over a few ids,
    /// shared by keys whose other (spread) columns differ.
    DenseLast,
    /// Probe key columns carry the build's bits under another type.
    CrossTyped,
}

/// Every mode; the group-by properties draw from the first five, the
/// compressed join from all but the last.
const MODES: [Mode; 9] = [
    Mode::Uniform,
    Mode::Skewed,
    Mode::AllEqual,
    Mode::LowBitCollisions,
    Mode::HashTwins,
    Mode::Sparse,
    Mode::Extreme,
    Mode::DenseLast,
    Mode::CrossTyped,
];

/// The gap between [`Mode::Sparse`] ids: 40 of them span 39 million,
/// past the direct index's limit for any generated build. Odd, so that
/// `Bool` keys still take both values.
const SPARSE_STRIDE: i64 = 1_000_003;

/// A random 40-bit id: a column of a few of them spans far past the
/// direct index's range.
fn spread_id(rng: &mut Rng) -> i64 {
    (rng.next() >> 24) as i64
}

/// The kernel's hash of each composite key in `keys` (typed `types`).
fn hashes_of(types: &[ColumnType], keys: &[Vec<i64>]) -> Vec<u64> {
    let cols: Vec<(String, ColumnType)> = types
        .iter()
        .enumerate()
        .map(|(j, &t)| (format!("k{j}"), t))
        .collect();
    let refs: Vec<(&str, ColumnType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let rows: Vec<Tuple> = keys
        .iter()
        .map(|k| {
            k.iter()
                .zip(types)
                .map(|(&id, &t)| key_value(t, id))
                .collect()
        })
        .collect();
    let data = DataChunk::from_rows(&Schema::new(&refs), &rows);
    let key_cols: Vec<usize> = (0..types.len()).collect();
    let mut out = Vec::new();
    hash_keys(&data, &key_cols, Rows::Range(0, rows.len()), &mut out);
    out
}

/// The pool of distinct composite keys the build side draws from.
fn key_pool(rng: &mut Rng, mode: Mode, types: &[ColumnType], distinct: usize) -> Vec<Vec<i64>> {
    let arity = types.len();
    let random_key =
        |rng: &mut Rng| -> Vec<i64> { (0..arity).map(|_| rng.below(40) as i64).collect() };
    // Spread ids keep every `Int` key column sparse, so that the
    // collision and twin modes reach the hash table.
    let spread_key = |rng: &mut Rng| -> Vec<i64> { (0..arity).map(|_| spread_id(rng)).collect() };
    match mode {
        Mode::AllEqual => vec![random_key(rng)],
        Mode::LowBitCollisions => {
            // Hash spread candidates with the kernel's own function and
            // keep the fullest low-8-bit bucket: a build of up to 128
            // rows sits in a 256-slot table, so every key starts its
            // probe at the same slot.
            let candidates: Vec<Vec<i64>> = (0..4096).map(|_| spread_key(rng)).collect();
            let hashes = hashes_of(types, &candidates);
            let mut fill = [0usize; 256];
            hashes.iter().for_each(|h| fill[(h & 255) as usize] += 1);
            let bucket = (0..256).max_by_key(|&b| fill[b]).expect("256 buckets") as u64;
            // Keep one candidate per hash: a `Bool` or `Char` first
            // column maps many ids to one key.
            let mut seen = HashSet::new();
            (candidates.into_iter().zip(&hashes))
                .filter(|(_, &h)| h & 255 == bucket && seen.insert(h))
                .map(|(k, _)| k)
                .take(distinct.max(2))
                .collect()
        }
        Mode::HashTwins => {
            // The kernel folds a column at a time: h = mix(mix(seed, a), b)
            // with mix(h, v) a function of h ^ v. Two keys (a, b) and
            // (a', b') with mix(seed, a) ^ b == mix(seed, a') ^ b' hash
            // identically — build such pairs from the one-column hash.
            assert!(types[..2].iter().all(|&t| t == ColumnType::Int));
            let mut pool = Vec::new();
            for _ in 0..distinct.div_ceil(2) {
                let (a, a2) = (spread_id(rng), spread_id(rng));
                let tail = spread_key(rng);
                let h = hashes_of(&types[..1], &[vec![a], vec![a2]]);
                let b = rng.next() as i64;
                let b2 = b ^ (h[0] ^ h[1]) as i64;
                for (x, y) in [(a, b), (a2, b2)] {
                    let mut k = tail.clone();
                    (k[0], k[1]) = (x, y);
                    pool.push(k);
                }
            }
            let h = hashes_of(types, &pool);
            assert!(h.chunks(2).all(|p| p[0] == p[1]), "twins must share a hash");
            pool
        }
        Mode::Extreme => {
            // `generate` puts the first two keys in the build first.
            let mut pool = vec![vec![i64::MIN; arity], vec![i64::MAX; arity]];
            let negative = |rng: &mut Rng| (0..arity).map(|_| -1 - rng.below(40) as i64).collect();
            pool.extend((0..distinct).map(|_| negative(rng)));
            pool
        }
        Mode::DenseLast => (0..distinct)
            .map(|_| {
                let mut k = spread_key(rng);
                k[arity - 1] = rng.below(4) as i64;
                k
            })
            .collect(),
        _ => {
            let stride = if mode == Mode::Sparse {
                SPARSE_STRIDE
            } else {
                1
            };
            let mut seen = HashSet::new();
            (0..distinct * 4)
                .map(|_| random_key(rng).into_iter().map(|id| id * stride).collect())
                .filter(|k: &Vec<i64>| seen.insert(k.clone()))
                .take(distinct)
                .collect()
        }
    }
}

/// One generated join or aggregation input.
struct Inputs {
    build_schema: Schema,
    build_rows: Vec<Tuple>,
    build_keys: Vec<usize>,
    probe_schema: Schema,
    probe_rows: Vec<Tuple>,
    probe_keys: Vec<usize>,
    /// Keep rows with `r < t` (a selection vector under the columnar
    /// engine); `None` leaves dense windows.
    build_filter: Option<i64>,
    probe_filter: Option<i64>,
    /// Scan memory tables (which carry encoded mirrors) instead of
    /// `VecSource`s.
    scanned: Option<Catalog>,
}

fn schema_of(cols: &[(String, ColumnType)]) -> Schema {
    let refs: Vec<(&str, ColumnType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Schema::new(&refs)
}

/// Payload columns every row carries besides its key: a sequence
/// number, a variable-width (multi-byte) string and the filter column.
fn payload(rng: &mut Rng, seq: usize) -> [Value; 3] {
    let pad = ["", "é", "日本", "wide-ascii-padding"][rng.below(4) as usize];
    [
        Value::Int(seq as i64),
        Value::str(format!("{pad}{}", seq % 7)),
        Value::Int(rng.below(10) as i64),
    ]
}

fn generate(seed: u64, mode: Mode, scanned: bool, filters: bool) -> Inputs {
    let mut rng = Rng(seed);
    let arity = 1 + rng.below(3) as usize;
    let mut types: Vec<ColumnType> = (0..arity).map(|_| rng.pick(&TYPES)).collect();
    let mode = match mode {
        // Cross-typed keys only exist in hand-built plans.
        Mode::CrossTyped if scanned => Mode::Uniform,
        m => m,
    };
    match mode {
        Mode::HashTwins => types = vec![ColumnType::Int; arity.max(2)],
        Mode::DenseLast => {
            types.truncate(arity.max(2) - 1);
            types.push(ColumnType::Int);
        }
        _ => {}
    }
    let probe_types: Vec<ColumnType> = match mode {
        Mode::CrossTyped => (types.iter())
            .map(|&t| match t {
                ColumnType::Int => ColumnType::Date,
                _ => ColumnType::Int,
            })
            .collect(),
        _ => types.clone(),
    };

    let n_build = rng.pick(&[0usize, 1, 5, 40, 128]);
    let n_probe = rng.pick(&[0usize, 1, 30, 300]);
    let distinct = rng.pick(&[1usize, 3, 12, 60]);
    let pool = key_pool(&mut rng, mode, &types, distinct);
    let no_matches = rng.below(6) == 0;

    let draw = |rng: &mut Rng, hit: bool| -> Vec<i64> {
        let mut k = match mode {
            Mode::Skewed if rng.below(4) != 0 => pool[0].clone(),
            _ => pool[rng.below(pool.len() as u64) as usize].clone(),
        };
        if !hit {
            k[0] = k[0].wrapping_add(5000);
        }
        k
    };

    let key_names = |side: &str, tys: &[ColumnType]| -> Vec<(String, ColumnType)> {
        (tys.iter().enumerate())
            .map(|(j, &t)| (format!("{side}k{j}"), t))
            .collect()
    };
    // Build rows: keys first. Probe rows: a payload column first, so
    // the two sides' key positions differ.
    let mut build_cols = key_names("b", &types);
    for (n, t) in [
        ("bseq", ColumnType::Int),
        ("bpay", ColumnType::Str),
        ("br", ColumnType::Int),
    ] {
        build_cols.push((n.to_string(), t));
    }
    let mut probe_cols = vec![("ppay".to_string(), ColumnType::Str)];
    probe_cols.extend(key_names("p", &probe_types));
    for (n, t) in [("pseq", ColumnType::Int), ("pr", ColumnType::Int)] {
        probe_cols.push((n.to_string(), t));
    }

    let build_keys: Vec<Vec<i64>> = (0..n_build)
        .map(|i| match mode {
            Mode::Extreme if i < 2 => pool[i].clone(),
            _ => draw(&mut rng, true),
        })
        .collect();
    // One past either end of the build's ids in one key column: where
    // the direct index's bound check decides.
    let edge = |rng: &mut Rng| -> Vec<i64> {
        let mut k = build_keys[rng.below(build_keys.len() as u64) as usize].clone();
        let j = rng.below(k.len() as u64) as usize;
        let ids = build_keys.iter().map(|b| b[j]);
        k[j] = match rng.below(2) {
            0 => ids.max().expect("a build row").wrapping_add(1),
            _ => ids.min().expect("a build row").wrapping_sub(1),
        };
        k
    };
    let build_rows: Vec<Tuple> = (build_keys.iter().enumerate())
        .map(|(i, key)| {
            let mut row: Tuple = (key.iter().zip(&types))
                .map(|(&id, &t)| key_value(t, id))
                .collect();
            row.extend(payload(&mut rng, i));
            row
        })
        .collect();
    let probe_rows: Vec<Tuple> = (0..n_probe)
        .map(|i| {
            let key = match rng.below(10) {
                0 if !no_matches && n_build > 0 => edge(&mut rng),
                c => draw(&mut rng, !no_matches && c < 7),
            };
            let [seq, pay, r] = payload(&mut rng, i);
            let mut row = vec![pay];
            row.extend((key.iter().zip(&probe_types)).map(|(&id, &t)| key_value(t, id)));
            row.extend([seq, r]);
            row
        })
        .collect();

    let (build_schema, probe_schema) = (schema_of(&build_cols), schema_of(&probe_cols));
    let scanned = scanned.then(|| {
        let mut cat = Catalog::new(1 << 20);
        let table = |s: &Schema, rows: &[Tuple]| HeapTable::from_tuples(s.clone(), rows.to_vec());
        cat.add_memory_table("b", table(&build_schema, &build_rows));
        cat.add_memory_table("p", table(&probe_schema, &probe_rows));
        cat
    });
    let mut filter = |on: bool| (on && rng.below(2) == 0).then(|| rng.pick(&[3i64, 7]));
    Inputs {
        build_keys: (0..types.len()).collect(),
        probe_keys: (1..=types.len()).collect(),
        build_filter: filter(filters),
        probe_filter: filter(filters),
        build_schema,
        build_rows,
        probe_schema,
        probe_rows,
        scanned,
    }
}

impl Inputs {
    fn source(&self, build: bool) -> BoxedOp {
        let (name, schema, rows, filter) = if build {
            ("b", &self.build_schema, &self.build_rows, self.build_filter)
        } else {
            ("p", &self.probe_schema, &self.probe_rows, self.probe_filter)
        };
        let src: BoxedOp = match &self.scanned {
            Some(cat) => Box::new(SeqScan::new(cat.expect(name))),
            None => Box::new(VecSource::new(schema.clone(), rows.clone())),
        };
        match filter {
            Some(t) => {
                let r = schema.arity() - 1;
                Box::new(Filter::new(
                    src,
                    Expr::cmp(CmpOp::Lt, Expr::col(r), Expr::int(t)),
                ))
            }
            None => src,
        }
    }

    fn join(&self) -> BoxedOp {
        Box::new(HashJoin::new(
            self.source(true),
            self.source(false),
            self.build_keys.clone(),
            self.probe_keys.clone(),
        ))
    }

    /// The join in one of four plan shapes, the columnar engine's
    /// column pruning in mind:
    /// 0. the join itself (its parent, the driver, reads every column);
    /// 1. an aggregate reading a few of the join's columns, so the join
    ///    gathers only those and its keys;
    /// 2. the same over a join whose build (the build side joined with
    ///    itself on `bseq`) and probe (the join) are both joins — the
    ///    two inner joins are pruned, and the outer one charges its
    ///    build and probe from the widths their outputs carry;
    /// 3. a projection of a few columns, one of them computed (under a
    ///    `LIMIT` it is pulled a row at a time and must not prune).
    fn shaped(&self, shape: usize, rng: &mut Rng) -> BoxedOp {
        match shape {
            0 => self.join(),
            1 => aggregate_some(self.join(), rng),
            2 => {
                let seq = self.build_keys.len();
                let build =
                    HashJoin::new(self.source(true), self.source(true), vec![seq], vec![seq]);
                let join = HashJoin::new(Box::new(build), self.join(), vec![seq], vec![seq]);
                aggregate_some(Box::new(join), rng)
            }
            _ => {
                let join = self.join();
                let schema = join.schema().clone();
                let mut outputs: Vec<(String, ColumnType, Expr)> = (some_columns(&schema, rng))
                    .into_iter()
                    .map(|c| {
                        let col = &schema.columns()[c];
                        (col.name.clone(), col.ty, Expr::col(c))
                    })
                    .collect();
                let seq = self.build_keys.len();
                let sum = Expr::arith(ArithOp::Add, Expr::col(seq), Expr::int(1));
                outputs.push(("bseq1".to_string(), ColumnType::Int, sum));
                Box::new(Project::new(join, outputs))
            }
        }
    }

    /// GROUP BY the first `groups` key columns of the probe side.
    fn aggregate(&self, groups: usize, funcs: &[AggFunc]) -> BoxedOp {
        let seq = self.probe_schema.arity() - 2;
        let aggs = (funcs.iter().enumerate())
            .map(|(j, &func)| AggSpec {
                func,
                // Alternate the two Int payload columns.
                input: Expr::col(seq + j % 2),
                name: format!("a{j}"),
            })
            .collect();
        let group_cols = self.probe_keys[..groups.min(self.probe_keys.len())].to_vec();
        Box::new(HashAggregate::new(self.source(false), group_cols, aggs))
    }
}

/// One to three distinct columns of `schema`, in random order.
fn some_columns(schema: &Schema, rng: &mut Rng) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..schema.arity()).collect();
    (0..cols.len())
        .rev()
        .for_each(|i| cols.swap(i, rng.below(i as u64 + 1) as usize));
    cols.truncate(1 + rng.below(3) as usize);
    cols
}

/// An aggregate over `child` that reads a few of its columns: up to
/// two group columns and one to three aggregates of any function
/// (`SUM`/`AVG` over an `Int` payload column — a key may hold any
/// `i64`, and its sum overflow).
fn aggregate_some(child: BoxedOp, rng: &mut Rng) -> BoxedOp {
    let schema = child.schema().clone();
    let ints: Vec<usize> = (schema.columns().iter().enumerate())
        .filter(|(_, c)| c.ty == ColumnType::Int && !c.name[1..].starts_with('k'))
        .map(|(i, _)| i)
        .collect();
    let mut groups = some_columns(&schema, rng);
    groups.truncate(rng.below(3) as usize);
    let inputs = some_columns(&schema, rng);
    let aggs = (inputs.iter().enumerate())
        .map(|(j, &c)| {
            let funcs = [
                AggFunc::Sum,
                AggFunc::Count,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ];
            let func = rng.pick(&funcs);
            let c = match func {
                AggFunc::Sum | AggFunc::Avg => rng.pick(&ints),
                _ => c,
            };
            AggSpec {
                func,
                input: Expr::col(c),
                name: format!("a{j}"),
            }
        })
        .collect();
    Box::new(HashAggregate::new(child, groups, aggs))
}

fn compressed_ctx(chunk: usize, workers: usize) -> ExecCtx {
    ExecCtx::new()
        .with_batch_size(chunk)
        .with_columnar(true)
        .with_morsel_rows(16)
        .with_workers(workers)
        .with_pricing(PricingMode::Compressed)
}

/// Rows, ledgers and recorded errors of `mk()` under the columnar
/// engine equal the scalar oracle's at 1, 2 and 4 workers (16-row
/// morsels). Returns the oracle rows.
fn check_against_oracle(name: &str, mk: &dyn Fn() -> BoxedOp, chunk: usize) -> Vec<Tuple> {
    let axes = Axes {
        chunks: vec![chunk],
        workers: vec![1, 2, 4],
        morsel_rows: vec![16],
        ..Axes::default()
    };
    check(name, &|_| mk(), &axes).remove(0).0
}

/// Literals of the kernel property: zero (a literal zero divisor), the
/// identities, small values and the extremes that overflow.
const LITERALS: [i64; 8] = [0, 1, -1, 2, 3, 100, i64::MAX, i64::MIN];

const ARITH_OPS: [ArithOp; 4] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];

/// One operand of shape `shape` — 0: a column (a borrowed slice), 1: a
/// literal, 2: arithmetic (a computed vector) — over the `Int` columns
/// `cols`, at most `depth` levels deep.
fn operand(rng: &mut Rng, shape: u64, depth: usize, cols: &[usize]) -> Expr {
    match shape {
        0 => Expr::col(rng.pick(cols)),
        1 => Expr::int(rng.pick(&LITERALS)),
        _ => int_tree(rng, depth, cols),
    }
}

/// An arithmetic node over operands of random shapes, `depth` levels
/// deep at most (leaves are columns or literals).
fn int_tree(rng: &mut Rng, depth: usize, cols: &[usize]) -> Expr {
    let side = |rng: &mut Rng| {
        let shape = rng.below(if depth > 1 { 3 } else { 2 });
        operand(rng, shape, depth - 1, cols)
    };
    let (l, r) = (side(rng), side(rng));
    Expr::arith(rng.pick(&ARITH_OPS), l, r)
}

/// The kernel property's input: `g` (a group key), `a` (never zero),
/// `b` (zero about one row in seven) and `r` (the filter column); one
/// value in ten of `a` and `b` is an extreme.
fn kernel_source(rng: &mut Rng, n: usize) -> VecSource {
    let schema = Schema::new(&[
        ("g", ColumnType::Int),
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("r", ColumnType::Int),
    ]);
    let int = |rng: &mut Rng, zero: bool| match rng.below(10) {
        0 => rng.pick(&[i64::MIN, i64::MAX, i64::MIN + 1]),
        _ if zero => rng.below(7) as i64 - 3,
        _ => rng.pick(&[-3, -2, -1, 1, 2, 3]),
    };
    let rows = (0..n)
        .map(|_| {
            let g = rng.below(3) as i64;
            let (a, b) = (int(rng, false), int(rng, true));
            vec![g, a, b, rng.below(10) as i64]
                .into_iter()
                .map(Value::Int)
                .collect()
        })
        .collect();
    VecSource::new(schema, rows)
}

/// Whether a scanned table's column `col` is dictionary-encoded.
fn dict_encoded(schema: &Schema, rows: &[Tuple], col: usize) -> bool {
    let data = DataChunk::from_rows(schema, rows);
    matches!(
        EncodedColumn::encode(&data.column(col).data),
        EncodedColumn::DictStr { .. } | EncodedColumn::DictChar { .. }
    )
}

/// Group-key type lists on either side of the packed aggregate key's
/// 64 bits (`Int` 64, `Date` 32, `Char` 21, `Bool` 1): the first five
/// pack (three of them in exactly 64 bits, `Char` × 3 in 63), the rest
/// do not — one bit over, or a `Str` — and take the general path.
const PACKING_BOUNDARY: [&[ColumnType]; 10] = {
    use ColumnType::{Bool, Char, Date, Int, Str};
    [
        &[Int],
        &[Date, Date],
        &[Char, Char, Char],
        &[Char, Char, Char, Bool],
        &[Bool, Char, Date],
        &[Int, Bool],
        &[Bool, Int],
        &[Date, Date, Bool],
        &[Char, Char, Char, Bool, Bool],
        &[Str, Bool],
    ]
};

/// A key value of type `ty` for the packing boundary: half the time
/// one of the type's extremes — the ends of its range, `-1` and `0`,
/// and `Char`s whose bits would spill into a 20-bit field — otherwise
/// one of `spread` ids.
fn boundary_value(rng: &mut Rng, ty: ColumnType, spread: u64) -> Value {
    let extreme = rng.below(2) == 0;
    match ty {
        ColumnType::Int if extreme => Value::Int(rng.pick(&[i64::MIN, i64::MAX, -1, 0, 1])),
        ColumnType::Date if extreme => Value::Date(rng.pick(&[i32::MIN, i32::MAX, -1, 0, -36_525])),
        ColumnType::Char if extreme => Value::Char(rng.pick(&[
            '\0',
            '\u{1}',
            '\u{FFFF}',
            '\u{D7FF}',
            '\u{E000}',
            '\u{FFFFF}',
            char::MAX,
        ])),
        // Negative ids reach negative dates and the top `Char`s.
        _ => key_value(ty, rng.below(spread) as i64 - (spread / 2) as i64),
    }
}

/// `rows` rows over the key types `types` drawn from `distinct` keys
/// (every key repeats, first sights scattered through the input), then
/// `seq` and the filter column `r`.
fn boundary_rows(
    rng: &mut Rng,
    types: &[ColumnType],
    distinct: usize,
    rows: usize,
) -> (Schema, Vec<Tuple>) {
    let mut cols: Vec<(String, ColumnType)> = (types.iter().enumerate())
        .map(|(j, &t)| (format!("k{j}"), t))
        .collect();
    cols.push(("seq".to_string(), ColumnType::Int));
    cols.push(("r".to_string(), ColumnType::Int));
    let spread = (distinct as u64 * 4).max(2);
    let pool: Vec<Tuple> = (0..distinct)
        .map(|_| {
            types
                .iter()
                .map(|&t| boundary_value(rng, t, spread))
                .collect()
        })
        .collect();
    let rows = (0..rows)
        .map(|i| {
            let mut row = pool[rng.index(pool.len())].clone();
            row.extend([Value::Int(i as i64), Value::Int(rng.below(10) as i64)]);
            row
        })
        .collect();
    (schema_of(&cols), rows)
}

/// GROUP BY every key column of [`boundary_rows`]: `COUNT`, `SUM`
/// and `AVG` of `seq`, `MIN` of the last key and `MAX` of the first,
/// over every row or (`filter`) about 70 % of them as selections.
fn boundary_aggregate((schema, rows): &(Schema, Vec<Tuple>), filter: bool) -> BoxedOp {
    let keys = schema.arity() - 2;
    let src: BoxedOp = Box::new(VecSource::new(schema.clone(), rows.clone()));
    let seq = Expr::col(keys);
    let spec = |func, input: Expr, name: &str| AggSpec {
        func,
        input,
        name: name.to_string(),
    };
    let aggs = vec![
        spec(AggFunc::Count, seq.clone(), "c"),
        spec(AggFunc::Sum, seq.clone(), "s"),
        spec(AggFunc::Avg, seq, "a"),
        spec(AggFunc::Min, Expr::col(keys - 1), "lo"),
        spec(AggFunc::Max, Expr::col(0), "hi"),
    ];
    let src: BoxedOp = match filter {
        true => Box::new(Filter::new(
            src,
            Expr::cmp(CmpOp::Lt, Expr::col(keys + 1), Expr::int(7)),
        )),
        false => src,
    };
    Box::new(HashAggregate::new(src, (0..keys).collect(), aggs))
}

/// Rows (first-seen group order included) and whole ledgers of
/// `mk()` under the columnar engine equal the scalar oracle's at
/// chunks of 1 to 4096 rows and 1, 2 and 4 workers (16-row morsels).
fn check_across_chunks(name: &str, mk: &dyn Fn() -> BoxedOp) -> Vec<Tuple> {
    let axes = Axes {
        chunks: vec![1, 7, 64, 1024, 4096],
        workers: vec![1, 2, 4],
        morsel_rows: vec![16],
        ..Axes::default()
    };
    check(name, &|_| mk(), &axes).remove(0).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn join_matches_both_oracles(
        seed in any::<u64>(),
        mode_idx in 0usize..MODES.len(),
        scanned in any::<bool>(),
        chunk in prop_oneof![Just(3usize), Just(64), Just(1024)],
        limit in prop_oneof![Just(None), Just(None), Just(Some(0usize)), Just(Some(7))],
        shape in 0usize..4,
    ) {
        let inputs = generate(seed, MODES[mode_idx], scanned, true);
        // Under a LIMIT the plan is pulled a row at a time, and must
        // consume — and charge — exactly as much of the probe stream
        // as the scalar engine does.
        let mk = || {
            let plan = inputs.shaped(shape, &mut Rng(seed ^ 0x5eed));
            match limit {
                Some(n) => Box::new(Limit::new(plan, n)) as BoxedOp,
                None => plan,
            }
        };
        let rows = check_against_oracle("join", &mk, chunk);
        if MODES[mode_idx] == Mode::CrossTyped && !scanned && shape == 0 {
            prop_assert!(rows.is_empty(), "key columns of different types never match");
        }
    }

    #[test]
    fn join_under_compressed_pricing_keeps_rows_and_the_dict_charge_contract(
        seed in any::<u64>(),
        mode_idx in 0usize..MODES.len() - 1,
        chunk in prop_oneof![Just(7usize), Just(64), Just(1024)],
    ) {
        let inputs = generate(seed, MODES[mode_idx], true, false);
        let mut sctx = ExecCtx::new();
        let scalar = ExecEngine::Scalar.execute(inputs.join().as_mut(), &mut sctx);

        let by_dict_id = inputs.probe_keys.len() == 1
            && dict_encoded(&inputs.probe_schema, &inputs.probe_rows, inputs.probe_keys[0]);
        let live = inputs.probe_rows.len() as u64;
        // First sights: distinct keys per probe chunk (serial windows).
        let first_sights: u64 = (inputs.probe_rows.chunks(chunk))
            .map(|w| w.iter().map(|t| &t[inputs.probe_keys[0]]).collect::<HashSet<_>>().len() as u64)
            .sum();
        for workers in [1, 2, 4] {
            let mut ctx = compressed_ctx(chunk, workers);
            let rows = execute(inputs.join().as_mut(), &mut ctx);
            prop_assert_eq!(&rows, &scalar, "compressed rows, workers={}", workers);
            let (lookups, probes) = (
                ctx.ledger.cpu.count(OpClass::DictLookup),
                ctx.ledger.cpu.count(OpClass::HashProbe),
            );
            prop_assert_eq!(ctx.ledger.mem_random_accesses, probes);
            prop_assert_eq!(ctx.ledger.cpu.count(OpClass::HashBuild), inputs.build_rows.len() as u64);
            prop_assert_eq!(ctx.ledger.cpu.count(OpClass::ResultEmit), scalar.len() as u64);
            if !by_dict_id {
                prop_assert_eq!((lookups, probes), (0, live), "raw kernel charges");
            } else {
                prop_assert_eq!(lookups, live, "one DictLookup per live probe row");
                if workers == 1 {
                    prop_assert_eq!(probes, first_sights, "HashProbe on first sight per chunk");
                }
                prop_assert!(probes <= live);
            }
        }
    }

    #[test]
    fn group_by_matches_both_oracles(
        seed in any::<u64>(),
        mode_idx in 0usize..5,
        scanned in any::<bool>(),
        groups in 0usize..4,
        funcs in proptest::collection::vec(
            prop_oneof![
                Just(AggFunc::Sum), Just(AggFunc::Count), Just(AggFunc::Min),
                Just(AggFunc::Max), Just(AggFunc::Avg)
            ],
            1..5,
        ),
        chunk in prop_oneof![Just(3usize), Just(64), Just(1024)],
    ) {
        let inputs = generate(seed, MODES[mode_idx], scanned, true);
        check_against_oracle("group by", &|| inputs.aggregate(groups, &funcs), chunk);
    }

    /// The columnar arithmetic, comparison and accumulator kernels
    /// against the row oracle: `SUM`/`AVG` of generated trees whose
    /// root combines operands of shapes `lhs` and `rhs`, and `COUNT`,
    /// globally or grouped, over a dense input or one a filter turned
    /// into selections — the filter itself comparing a generated tree,
    /// before or after a plain conjunct.
    #[test]
    fn arithmetic_kernels_match_both_oracles(
        seed in any::<u64>(),
        lhs in 0u64..3,
        rhs in 0u64..3,
        filtered in any::<bool>(),
        grouped in any::<bool>(),
        n in prop_oneof![Just(1usize), Just(40), Just(300)],
        chunk in prop_oneof![Just(3usize), Just(64), Just(1024)],
    ) {
        let mut rng = Rng(seed);
        let cols = [1, 2];
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let root = |rng: &mut Rng| {
            let l = operand(rng, lhs, 3, &cols);
            let r = operand(rng, rhs, 3, &cols);
            Expr::arith(rng.pick(&ARITH_OPS), l, r)
        };
        let (sum, avg) = (root(&mut rng), root(&mut rng));
        let filter = filtered.then(|| {
            let lit = Expr::int(rng.pick(&LITERALS));
            let tree = Expr::cmp(rng.pick(&ops), int_tree(&mut rng, 2, &cols), lit);
            let plain = Expr::cmp(CmpOp::Lt, Expr::col(3), Expr::int(7));
            let mut arms = vec![plain, tree];
            if rng.below(2) == 0 {
                arms.reverse();
            }
            Expr::And(arms)
        });
        let source_seed = rng.next();
        let mk = || {
            let src: BoxedOp = Box::new(kernel_source(&mut Rng(source_seed), n));
            let src: BoxedOp = match &filter {
                Some(p) => Box::new(Filter::new(src, p.clone())),
                None => src,
            };
            let spec = |func, input: &Expr, name: &str| AggSpec {
                func,
                input: input.clone(),
                name: name.to_string(),
            };
            let aggs = vec![
                spec(AggFunc::Sum, &sum, "s"),
                spec(AggFunc::Avg, &avg, "a"),
                spec(AggFunc::Count, &sum, "c"),
            ];
            let groups = if grouped { vec![0] } else { vec![] };
            Box::new(HashAggregate::new(src, groups, aggs)) as BoxedOp
        };
        check_against_oracle("kernels", &mk, chunk);
    }

    /// Group keys at the packed key's 64-bit boundary, both sides of
    /// it, with every type's extreme values: a packed key that merged
    /// two keys (or split one) shows as a wrong row or group order.
    #[test]
    fn group_by_at_the_packing_boundary_matches_the_oracle(
        seed in any::<u64>(),
        types_idx in 0usize..PACKING_BOUNDARY.len(),
        distinct in prop_oneof![Just(1usize), Just(5), Just(40), Just(300)],
        rows in prop_oneof![Just(0usize), Just(1), Just(60), Just(900)],
        filter in any::<bool>(),
    ) {
        let types = PACKING_BOUNDARY[types_idx];
        let input = boundary_rows(&mut Rng(seed), types, distinct, rows);
        let mk = || boundary_aggregate(&input, filter);
        check_across_chunks("packing boundary", &mk);
    }

    #[test]
    fn group_by_under_compressed_pricing_keeps_rows_and_the_dict_charge_contract(
        seed in any::<u64>(),
        mode_idx in 0usize..4,
        groups in 0usize..3,
        chunk in prop_oneof![Just(7usize), Just(64), Just(1024)],
    ) {
        let inputs = generate(seed, MODES[mode_idx], true, false);
        // COUNT and MIN have no run-at-a-time kernel, so AggUpdate
        // stays one per (row, aggregate) under compressed pricing too.
        let funcs = [AggFunc::Count, AggFunc::Min];
        let mk = || inputs.aggregate(groups, &funcs);
        let mut sctx = ExecCtx::new();
        let scalar = ExecEngine::Scalar.execute(mk().as_mut(), &mut sctx);

        let group_cols = &inputs.probe_keys[..groups.min(inputs.probe_keys.len())];
        let by_dict_id = group_cols.len() == 1
            && dict_encoded(&inputs.probe_schema, &inputs.probe_rows, group_cols[0]);
        let live = inputs.probe_rows.len() as u64;
        for workers in [1, 2, 4] {
            let mut ctx = compressed_ctx(chunk, workers);
            let rows = execute(mk().as_mut(), &mut ctx);
            prop_assert_eq!(&rows, &scalar, "compressed rows, workers={}", workers);
            let (lookups, probes) = (
                ctx.ledger.cpu.count(OpClass::DictLookup),
                ctx.ledger.cpu.count(OpClass::HashProbe),
            );
            prop_assert_eq!(ctx.ledger.mem_random_accesses, probes);
            prop_assert_eq!(ctx.ledger.cpu.count(OpClass::AggUpdate), 2 * live);
            if !by_dict_id {
                prop_assert_eq!((lookups, probes), (0, live), "raw kernel charges");
            } else {
                prop_assert_eq!(lookups, live, "one DictLookup per live row");
                if workers == 1 {
                    // One memo per encoded table: first sights are groups.
                    prop_assert_eq!(probes, scalar.len() as u64);
                }
                prop_assert!(probes <= live);
            }
        }
    }
}

/// Thousands of distinct packable keys, new ones arriving all through
/// the input: past 2048 groups the memo has grown from 16 slots to
/// 8192, nine times, while group ids keep coming from the first-seen
/// table, at every chunk size and worker count.
#[test]
fn packable_groups_grow_the_memo_across_chunks() {
    use ColumnType::{Bool, Char, Date};
    let types = [Date, Char, Bool];
    let input = boundary_rows(&mut Rng(0x6d656d6f), &types, 6000, 12_000);
    let rows = check_across_chunks("memo growth", &|| boundary_aggregate(&input, false));
    assert!(rows.len() > 2048, "{} groups", rows.len());
}

/// The aggregate lists whose `SUM`/`AVG` inputs repeat, over `x` (a
/// column) and `e` (arithmetic ending in a division by a literal):
/// `SUM(x)` + `AVG(x)`, `SUM(e)` + `AVG(e)`, `AVG(x)` twice, `COUNT`
/// alone, `COUNT` + `AVG(x)`, and every one of those with `MIN`/`MAX`
/// mixed in.
fn shared_aggs(x: &Expr, e: &Expr) -> Vec<Vec<AggSpec>> {
    use AggFunc::{Avg, Count, Max, Min, Sum};
    let sets: [&[(AggFunc, &Expr)]; 6] = [
        &[(Sum, x), (Avg, x)],
        &[(Sum, e), (Avg, e)],
        &[(Avg, x), (Avg, x)],
        &[(Count, x)],
        &[(Count, x), (Avg, x)],
        &[
            (Min, x),
            (Sum, x),
            (Max, e),
            (Avg, x),
            (Count, x),
            (Sum, e),
            (Min, e),
            (Avg, e),
            (Avg, x),
        ],
    ];
    let spec = |(j, &(func, input)): (usize, &(AggFunc, &Expr))| AggSpec {
        func,
        input: input.clone(),
        name: format!("a{j}"),
    };
    (sets.iter())
        .map(|set| set.iter().enumerate().map(spec).collect())
        .collect()
}

/// `x * (100 - y) / 100`: Q1's discounted price.
fn discounted(x: usize, y: usize) -> Expr {
    let kept = Expr::arith(ArithOp::Sub, Expr::int(100), Expr::col(y));
    let product = Expr::arith(ArithOp::Mul, Expr::col(x), kept);
    Expr::arith(ArithOp::Div, product, Expr::int(100))
}

#[test]
fn aggregates_sharing_inputs_match_the_oracle() {
    const SCALE: f64 = 0.001;
    let axes = Axes {
        storage: vec![Storage::Memory(SCALE), Storage::Disk(SCALE)],
        engines: vec![ExecEngine::Scalar, ExecEngine::Columnar],
        chunks: vec![1, 7, 1024],
        workers: vec![1, 2, 4],
        morsel_rows: vec![1024],
        ..Axes::default()
    };
    let sets = shared_aggs(&Expr::col(0), &Expr::col(1)).len();
    // Global; Q1's packed `Char` keys; a hashed `Str` key. Every set
    // and every grouping runs over dense windows and over selections.
    let groupings: [&[&str]; 3] = [&[], &["l_returnflag", "l_linestatus"], &["l_shipmode"]];
    for set in 0..sets {
        for (g, grouping) in groupings.iter().enumerate() {
            let filtered = (set + g) % 2 == 1;
            let plan = |cat: &Catalog| -> BoxedOp {
                let lineitem = cat.expect("lineitem");
                let col = |name| lineitem.schema().expect_index(name);
                let (qty, price, disc) =
                    (col("l_quantity"), col("l_extendedprice"), col("l_discount"));
                let aggs = shared_aggs(&Expr::col(qty), &discounted(price, disc)).swap_remove(set);
                let groups = grouping.iter().map(|&g| col(g)).collect();
                let scan = Box::new(SeqScan::new(Arc::clone(&lineitem)));
                let src: BoxedOp = match filtered {
                    true => Box::new(Filter::new(
                        scan,
                        Expr::cmp(CmpOp::Lt, Expr::col(qty), Expr::int(30)),
                    )),
                    false => scan,
                };
                Box::new(HashAggregate::new(src, groups, aggs))
            };
            let name =
                format!("shared inputs: set {set}, groups {grouping:?}, filtered {filtered}");
            check(&name, &plan, &axes);
        }
    }
}

/// Under compressed pricing, over a run-length-encoded `x`: rows equal
/// the oracle's, and the aggregates together charge what each charges
/// alone (a plan of all of them plus `k - 1` plans of none equals the
/// `k` plans of one), at every chunk size and worker count.
#[test]
fn aggregates_sharing_inputs_charge_alone_under_compressed_pricing() {
    charges_alone_under_compressed_pricing(&|x, y| shared_aggs(&Expr::col(x), &discounted(x, y)));
}

/// The lists `lists(x, y)` (`x` run-length encoded) under compressed
/// pricing, grouped three ways (global, packed keys, a dictionary `Str`
/// key) at chunks of 1, 7 and 1024 rows and 1, 2 and 4 workers: rows
/// equal the oracle's, and each list's plan plus `k - 1` plans of no
/// aggregate charges what its `k` one-aggregate plans charge.
fn charges_alone_under_compressed_pricing(lists: &dyn Fn(usize, usize) -> Vec<Vec<AggSpec>>) {
    let schema = Schema::new(&[
        ("s", ColumnType::Str),
        ("c", ColumnType::Char),
        ("b", ColumnType::Bool),
        ("x", ColumnType::Int),
        ("y", ColumnType::Int),
    ]);
    let mut rng = Rng(0x51075);
    let rows: Vec<Tuple> = (0..3000)
        .map(|i| {
            vec![
                Value::str(format!("s{}", rng.below(5))),
                Value::Char(rng.pick(&['A', 'N', 'R'])),
                Value::Bool(rng.below(2) == 0),
                Value::Int(i / 60 - 20),
                Value::Int(rng.below(11) as i64),
            ]
        })
        .collect();
    let data = DataChunk::from_rows(&schema, &rows);
    assert!(matches!(
        EncodedColumn::encode(&data.column(3).data),
        EncodedColumn::RleInt { .. }
    ));
    assert!(dict_encoded(&schema, &rows, 0));
    let mut cat = Catalog::new(1 << 20);
    cat.add_memory_table("t", HeapTable::from_tuples(schema, rows));
    let plan = |groups: &[usize], aggs: Vec<AggSpec>| -> BoxedOp {
        let scan = Box::new(SeqScan::new(cat.expect("t")));
        Box::new(HashAggregate::new(scan, groups.to_vec(), aggs))
    };

    let groupings: [&[usize]; 3] = [&[], &[1, 2], &[0]];
    for aggs in lists(3, 4) {
        for groups in groupings {
            let mut sctx = ExecCtx::new();
            let want = ExecEngine::Scalar.execute(plan(groups, aggs.clone()).as_mut(), &mut sctx);
            for (chunk, workers) in [1, 7, 1024]
                .into_iter()
                .flat_map(|c| [(c, 1), (c, 2), (c, 4)])
            {
                let what = format!("{aggs:?} by {groups:?}, chunk {chunk}, workers {workers}");
                let run = |aggs: Vec<AggSpec>| {
                    let mut ctx = compressed_ctx(chunk, workers);
                    let rows = execute(plan(groups, aggs).as_mut(), &mut ctx);
                    (rows, ctx.ledger)
                };
                let (rows, mut together) = run(aggs.clone());
                assert_eq!(rows, want, "{what}");
                let (_, none) = run(Vec::new());
                let mut alone = Ledger::new();
                for a in &aggs {
                    alone.merge(&run(vec![a.clone()]).1);
                    together.merge(&none);
                }
                alone.merge(&none);
                alone.assert_same(&together, &what);
            }
        }
    }
}

/// `l op r` shorthand for the lists below.
fn ar(op: ArithOp, l: Expr, r: Expr) -> Expr {
    Expr::arith(op, l, r)
}

/// Aggregate lists whose inputs share a proper subexpression but differ
/// as wholes, over columns `x`, `y` and `z`:
/// - Q1's `x * (100 - y) / 100` beside `x * (100 - y) * (100 + z) / 10000`,
///   and `COUNT`;
/// - `p = x * (100 - y)` under `SUM(p / 100)`, `AVG(p)`, `MIN(p)` and
///   `MAX(p * (100 + z))`;
/// - inputs that differ in a literal only: `x - 1` and `x - 2`,
///   `x / 100` and `x / 10000`.
fn subexpr_aggs(x: usize, y: usize, z: usize) -> Vec<Vec<AggSpec>> {
    use AggFunc::{Avg, Count, Max, Min, Sum};
    use ArithOp::{Add, Div, Mul, Sub};
    let (col, int) = (Expr::col, Expr::int);
    let p = ar(Mul, col(x), ar(Sub, int(100), col(y)));
    let taxed = ar(Mul, p.clone(), ar(Add, int(100), col(z)));
    let sets = [
        vec![
            (Sum, discounted(x, y)),
            (Sum, ar(Div, taxed.clone(), int(10_000))),
            (Count, col(x)),
        ],
        vec![
            (Sum, ar(Div, p.clone(), int(100))),
            (Avg, p.clone()),
            (Min, p),
            (Max, taxed),
        ],
        vec![
            (Sum, ar(Sub, col(x), int(1))),
            (Sum, ar(Sub, col(x), int(2))),
            (Avg, ar(Div, col(x), int(100))),
            (Avg, ar(Div, col(x), int(10_000))),
        ],
    ];
    let spec = |(j, (func, input)): (usize, (AggFunc, Expr))| AggSpec {
        func,
        input,
        name: format!("a{j}"),
    };
    (sets.into_iter())
        .map(|set| set.into_iter().enumerate().map(spec).collect())
        .collect()
}

/// Aggregates whose inputs share subexpressions, evaluated once a chunk
/// for all of them, against the oracle: every list of [`subexpr_aggs`]
/// over TPC-H `lineitem` (`x` the extended price, `y` the discount, `z`
/// the tax), global, by Q1's packed `Char` keys and by a hashed `Str`
/// key, dense and filtered, on both storage engines, at chunks of 1, 7
/// and 1024 rows and 1, 2 and 4 workers.
#[test]
fn subexpressions_shared_across_inputs_match_the_oracle() {
    const SCALE: f64 = 0.001;
    let axes = Axes {
        storage: vec![Storage::Memory(SCALE), Storage::Disk(SCALE)],
        engines: vec![ExecEngine::Scalar, ExecEngine::Columnar],
        chunks: vec![1, 7, 1024],
        workers: vec![1, 2, 4],
        morsel_rows: vec![1024],
        ..Axes::default()
    };
    let groupings: [&[&str]; 3] = [&[], &["l_returnflag", "l_linestatus"], &["l_shipmode"]];
    for set in 0..subexpr_aggs(0, 1, 2).len() {
        for grouping in groupings {
            for filtered in [false, true] {
                let plan = |cat: &Catalog| -> BoxedOp {
                    let lineitem = cat.expect("lineitem");
                    let col = |name| lineitem.schema().expect_index(name);
                    let (qty, price) = (col("l_quantity"), col("l_extendedprice"));
                    let aggs =
                        subexpr_aggs(price, col("l_discount"), col("l_tax")).swap_remove(set);
                    let groups = grouping.iter().map(|&g| col(g)).collect();
                    let scan = Box::new(SeqScan::new(Arc::clone(&lineitem)));
                    let src: BoxedOp = match filtered {
                        true => Box::new(Filter::new(
                            scan,
                            Expr::cmp(CmpOp::Lt, Expr::col(qty), Expr::int(30)),
                        )),
                        false => scan,
                    };
                    Box::new(HashAggregate::new(src, groups, aggs))
                };
                let name =
                    format!("subexpressions: set {set}, groups {grouping:?}, filtered {filtered}");
                check(&name, &plan, &axes);
            }
        }
    }
}

/// A shared subexpression that divides by a column holding zeros fails
/// the statement as the oracle does: `q = a / b` under `SUM(q)`,
/// `AVG(q + 1)`, `SUM(q * 100 / 100)` and `MIN(q)`, over rows whose `b`
/// is zero about one in seven, records the oracle's one
/// `DivisionByZero` (the first error wins), with the oracle's rows and
/// ledger — global, by a packed key and by a hashed `Str` key, dense
/// and filtered, at chunks of 1, 7 and 1024 rows and 1, 2 and 4
/// workers. The rows come from their own source, which reads every row
/// whatever is recorded, so every run does the same work.
#[test]
fn a_shared_subexpression_dividing_by_zero_fails_once_like_the_oracle() {
    use ArithOp::{Add, Div, Mul};
    let schema = Schema::new(&[
        ("g", ColumnType::Int),
        ("s", ColumnType::Str),
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
    ]);
    let mut rng = Rng(0xD1_0000);
    let rows: Vec<Tuple> = (0..3000)
        .map(|_| {
            vec![
                Value::Int(rng.below(4) as i64),
                Value::str(format!("s{}", rng.below(3))),
                Value::Int(rng.below(2000) as i64 - 1000),
                Value::Int(rng.below(7) as i64 - 3),
            ]
        })
        .collect();
    let q = ar(Div, Expr::col(2), Expr::col(3));
    let spec = |func, input| AggSpec {
        func,
        input,
        name: String::new(),
    };
    let aggs = vec![
        spec(AggFunc::Sum, q.clone()),
        spec(AggFunc::Avg, ar(Add, q.clone(), Expr::int(1))),
        spec(
            AggFunc::Sum,
            ar(Div, ar(Mul, q.clone(), Expr::int(100)), Expr::int(100)),
        ),
        spec(AggFunc::Min, q),
    ];
    let axes = Axes {
        engines: vec![ExecEngine::Scalar, ExecEngine::Columnar],
        chunks: vec![1, 7, 1024],
        workers: vec![1, 2, 4],
        morsel_rows: vec![16],
        ..Axes::default()
    };
    for groups in [vec![], vec![0], vec![1]] {
        for filtered in [false, true] {
            let plan = |_: &Catalog| -> BoxedOp {
                let src: BoxedOp = Box::new(VecSource::new(schema.clone(), rows.clone()));
                let src: BoxedOp = match filtered {
                    true => Box::new(Filter::new(
                        src,
                        Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::int(-500)),
                    )),
                    false => src,
                };
                Box::new(HashAggregate::new(src, groups.clone(), aggs.clone()))
            };
            let name = format!("zero divisor: groups {groups:?}, filtered {filtered}");
            let (_, oracle) = &check(&name, &plan, &axes)[0];
            assert_eq!(oracle.error(), Some(&ExecError::DivisionByZero), "{name}");
        }
    }
}

/// [`subexpr_aggs`] under compressed pricing, over a memory table whose
/// `x` is run-length encoded: rows equal the oracle's, and the
/// aggregates together charge what each charges alone (a plan of all
/// of them plus `k - 1` plans of none equals the `k` plans of one), at
/// every chunk size and worker count.
#[test]
fn subexpressions_shared_across_inputs_charge_alone_under_compressed_pricing() {
    charges_alone_under_compressed_pricing(&|x, y| subexpr_aggs(x, y, x));
}
