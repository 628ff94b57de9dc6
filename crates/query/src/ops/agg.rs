//! Hash aggregation: GROUP BY with SUM / COUNT / MIN / MAX / AVG.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use eco_simhw::trace::OpClass;
use eco_storage::{
    Column, ColumnChunk, ColumnData, ColumnType, DataChunk, EncodedChunk, EncodedColumn, Schema,
    Tuple, Value,
};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::expr::{AggFunc, Expr, Subexprs};
use crate::ops::hashkey::{hash_keys, hash_row, keys_eq, pack_keys, KeyTable, PackedMemo, NO_ROW};
use crate::ops::{drain_chunks, mark_read, BoxedOp, Operator};
use crate::parallel::run_morsels;

/// One aggregate output: function, input expression, output name.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression (ignored by `Count`).
    pub input: Expr,
    /// Output column name.
    pub name: String,
}

#[derive(Debug, Clone)]
enum AggState {
    Sum(i64),
    Count(i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: i64, count: i64 },
}

impl AggState {
    fn new(f: AggFunc) -> Self {
        match f {
            AggFunc::Sum => AggState::Sum(0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0, count: 0 },
        }
    }

    fn update(&mut self, v: Option<Value>) {
        match self {
            AggState::Sum(acc) => {
                let v = v.expect("SUM input").as_int().expect("SUM over Int");
                *acc = acc.wrapping_add(v);
            }
            AggState::Count(acc) => *acc += 1,
            AggState::Min(acc) => {
                let v = v.expect("MIN input");
                let replace = match acc {
                    None => true,
                    Some(cur) => {
                        v.partial_cmp_typed(cur).expect("comparable MIN")
                            == std::cmp::Ordering::Less
                    }
                };
                if replace {
                    *acc = Some(v);
                }
            }
            AggState::Max(acc) => {
                let v = v.expect("MAX input");
                let replace = match acc {
                    None => true,
                    Some(cur) => {
                        v.partial_cmp_typed(cur).expect("comparable MAX")
                            == std::cmp::Ordering::Greater
                    }
                };
                if replace {
                    *acc = Some(v);
                }
            }
            AggState::Avg { sum, count } => {
                let v = v.expect("AVG input").as_int().expect("AVG over Int");
                *sum = sum.wrapping_add(v);
                *count += 1;
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Sum(v) | AggState::Count(v) => Value::Int(v),
            AggState::Min(v) => v.expect("MIN of empty group is unreachable"),
            AggState::Max(v) => v.expect("MAX of empty group is unreachable"),
            AggState::Avg { sum, count } => Value::Int(if count == 0 { 0 } else { sum / count }),
        }
    }
}

/// The scalar engine's grouping hash table (the differential-test
/// oracle; the columnar engine's [`ColumnarGroups`] assigns group ids
/// through the key kernel instead and shares nothing with this):
/// first-seen-ordered accumulators plus the key → slot index. Keys are
/// looked up through a reused scratch vector (via
/// `Vec<Value>: Borrow<[Value]>`), so only a group's first row
/// allocates its key.
struct GroupTable {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    entries: Vec<(Tuple, Vec<AggState>)>,
    index: HashMap<Vec<Value>, usize>,
    scratch_key: Vec<Value>,
}

impl GroupTable {
    fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        Self {
            scratch_key: Vec::with_capacity(group_cols.len()),
            group_cols,
            aggs,
            entries: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Slot for `t`'s group key, inserting a fresh accumulator row on
    /// first sight. Charges nothing (the per-row probe charge is made
    /// by [`Self::absorb`]).
    fn slot(&mut self, t: &Tuple) -> usize {
        self.scratch_key.clear();
        self.scratch_key
            .extend(self.group_cols.iter().map(|&i| t[i].clone()));
        if let Some(&slot) = self.index.get(self.scratch_key.as_slice()) {
            return slot;
        }
        let slot = self.entries.len();
        self.index.insert(self.scratch_key.clone(), slot);
        let states = self.aggs.iter().map(|a| AggState::new(a.func)).collect();
        self.entries.push((self.scratch_key.clone(), states));
        slot
    }

    /// Absorb one input row: one probe + one latency-bound access, and
    /// one accumulator update per aggregate.
    fn absorb(&mut self, ctx: &mut ExecCtx, t: &Tuple) {
        ctx.charge(OpClass::HashProbe, 1);
        ctx.charge_mem_random(1);
        ctx.charge(OpClass::AggUpdate, self.aggs.len() as u64);
        let slot = self.slot(t);
        let states = &mut self.entries[slot].1;
        for (state, spec) in states.iter_mut().zip(&self.aggs) {
            let v = match spec.func {
                AggFunc::Count => None,
                _ => Some(spec.input.eval(t, ctx)),
            };
            state.update(v);
        }
    }
}

/// `MIN`/`MAX` step: keep `v` when the slot is empty or `v` compares
/// `wins` against the value held (ties keep the earlier value, like the
/// row path).
fn keep_extreme(acc: &mut Option<Value>, v: Value, wins: Ordering) {
    let replace = match acc {
        None => true,
        Some(cur) => v.partial_cmp_typed(cur).expect("comparable MIN/MAX") == wins,
    };
    if replace {
        *acc = Some(v);
    }
}

/// The columnar grouping table: group ids come from the shared key
/// kernel (`ops/hashkey.rs`) — the group columns of a chunk are hashed
/// a column at a time, each live row finds or claims its group in a
/// [`KeyTable`] whose rows *are* the group ids, and the first-seen key
/// of every group is kept as columns (one key tuple is materialized per
/// *group*, at the end). A global aggregate (no group columns) skips
/// the per-row hash and probe: the chunk's first live row finds or
/// claims group 0, and no row needs an id.
///
/// Group keys that pack into one `u64` (fixed-width columns of at most
/// 64 bits in all, [`pack_keys`]; Q1's two `Char`s) skip the hash and
/// the table too, in two passes: the first looks every live row's
/// packed key up in a [`PackedMemo`] and marks the misses; the second,
/// only when something missed, resolves the marked rows in row order,
/// each asking the memo again (an earlier miss may have recorded its
/// key) and else the table (hashing that one row), recording the
/// answer. Packed equality is key equality, and the memo never mints an
/// id, so ids, first-seen order and stored keys are the table's
/// whichever way a row came; the morsel-partial [`Self::merge`] goes
/// through the table alone. The general path stays for what does not
/// pack: a `Str` column, or keys over 64 bits (Q3's `Int`, `Date`,
/// `Int`). The precedence is dictionary ids (below), then the memo,
/// then the table.
///
/// The accumulators are row-major per group: one cell per `cells`, the
/// row count first (`COUNT`'s value and every `AVG`'s divisor), then
/// one wrapping sum per distinct `SUM`/`AVG` input expression (Q1's
/// `SUM(l_quantity)` and `AVG(l_quantity)` share one); `MIN`/`MAX` keep
/// one extreme array each. Each chunk first computes the distinct `Int`
/// subexpressions of all `SUM`/`AVG` inputs once ([`Subexprs`]: Q1's
/// eight arithmetic nodes a row are six), then fills every cell of a
/// row's group in one loop over the group ids; a global aggregate sums
/// each input in one fold instead. Sums wrap, like the row path's, so
/// their order does not matter. Group order is first-seen order, as on
/// the row path, and the charges are counts taken from the aggregates,
/// identical to [`GroupTable::absorb`]: one `HashProbe` and one random
/// access per row (global aggregate included), one `AggUpdate` per
/// (row, aggregate), and per `SUM`/`AVG` one `Arith` per row and
/// arithmetic node of its input — an aggregate whose cell or
/// subexpressions another fills still charges its own.
struct ColumnarGroups {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// Per aggregate: its cell (`COUNT`, `SUM`, `AVG`) or its extreme
    /// array (`MIN`/`MAX`).
    slots: Vec<usize>,
    /// The `SUM`/`AVG` inputs' distinct subexpressions, and the count's
    /// literal 1.
    exprs: Subexprs,
    /// Per accumulator cell: the node of `exprs` it sums. Cell 0 sums
    /// the literal 1: it is the row count.
    cells: Vec<usize>,
    /// First-seen group keys: row `g` is group `g`'s key, column `j`
    /// its `group_cols[j]` value. Typed by the first chunk absorbed.
    keys: Option<DataChunk>,
    /// `0..group_cols.len()`: the key columns of `keys`.
    key_cols: Vec<usize>,
    /// Key → group id; holds exactly one row per group.
    table: KeyTable,
    /// Group `g`'s cells are `accs[g * w..][..w]`, `w` = `cells.len()`.
    accs: Vec<i64>,
    /// Per `MIN`/`MAX`: its extreme per group.
    extremes: Vec<Vec<Option<Value>>>,
    /// Per cell, this chunk: the `AggUpdate`s each aggregate reading it
    /// charges (live rows, or run fragments).
    updates: Vec<u64>,
    /// This chunk's (cell, node) pairs filled by the accumulator pass.
    fused: Vec<(usize, usize)>,
    /// Packed key → group id, made on the first chunk whose keys pack.
    memo: Option<PackedMemo>,
    /// Reused per-chunk buffers: group ids, and one key hash or packed
    /// key per live row.
    gids: Vec<u32>,
    words: Vec<u64>,
    /// The encoded chunk the dict-id memo below is keyed against
    /// (compressed pricing, single dictionary-encoded group column).
    dict_enc: Option<Arc<EncodedChunk>>,
    /// Dictionary id → group slot memo (`u32::MAX` = not yet seen).
    /// Lets repeat keys skip re-hashing the string payload entirely:
    /// the id *is* the hash.
    dict_gids: Vec<u32>,
}

/// Which way a `MIN`/`MAX` step wins.
fn wins(func: AggFunc) -> Ordering {
    match func {
        AggFunc::Min => Ordering::Less,
        _ => Ordering::Greater,
    }
}

impl ColumnarGroups {
    fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        let mut exprs = Subexprs::new();
        let mut cells = vec![exprs.root(&Expr::int(1))];
        let mut extremes = 0;
        let slots = (aggs.iter())
            .map(|a| match a.func {
                AggFunc::Count => 0,
                AggFunc::Sum | AggFunc::Avg => {
                    let node = exprs.root(&a.input);
                    cells.iter().position(|&c| c == node).unwrap_or_else(|| {
                        cells.push(node);
                        cells.len() - 1
                    })
                }
                AggFunc::Min | AggFunc::Max => {
                    extremes += 1;
                    extremes - 1
                }
            })
            .collect();
        Self {
            key_cols: (0..group_cols.len()).collect(),
            group_cols,
            slots,
            exprs,
            keys: None,
            table: KeyTable::with_capacity(0),
            accs: Vec::new(),
            extremes: vec![Vec::new(); extremes],
            updates: vec![0; cells.len()],
            fused: Vec::new(),
            cells,
            aggs,
            memo: None,
            gids: Vec::new(),
            words: Vec::new(),
            dict_enc: None,
            dict_gids: Vec::new(),
        }
    }

    /// Number of groups seen so far.
    fn len(&self) -> usize {
        self.table.len()
    }

    /// Group id of the key in row `i` of `data` (key columns `cols`,
    /// hash `h`), claiming the next id — and growing every accumulator
    /// — on first sight.
    fn gid_of(&mut self, h: u64, data: &DataChunk, cols: &[usize], i: usize) -> u32 {
        let keys = self.keys.get_or_insert_with(|| {
            let typed = cols
                .iter()
                .map(|&c| ColumnChunk::new(ColumnData::empty(data.column(c).data.column_type())));
            DataChunk::new(typed.collect())
        });
        let key_cols = &self.key_cols;
        let (gid, new) = self
            .table
            .find_or_insert(h, |g| keys_eq(keys, key_cols, g as usize, data, cols, i));
        if new {
            keys.append_rows(data, cols, std::iter::once(i));
            self.accs.resize(self.accs.len() + self.cells.len(), 0);
            self.extremes.iter_mut().for_each(|e| e.push(None));
        }
        gid
    }

    /// Absorb one chunk (see type docs for the charge contract). Under
    /// compressed pricing (the chunk carries an encoded mirror) two
    /// direct-on-compressed paths replace their raw equivalents:
    /// dictionary-id group keys ([`Self::gids_from_dict`]) and
    /// run-at-a-time `SUM`/`AVG` over run-length-encoded inputs (one
    /// `AggUpdate` per gid-constant run fragment, weighted by its
    /// length, instead of one per row).
    fn absorb(&mut self, ctx: &mut ExecCtx, chunk: &Chunk) {
        let n = chunk.len();
        if n == 0 {
            return;
        }

        let mut gids = std::mem::take(&mut self.gids);
        gids.clear();
        gids.reserve(n);
        let dict_keyed = match (&chunk.enc, self.group_cols.len()) {
            (Some(enc), 1) => {
                let enc = Arc::clone(enc);
                self.gids_from_dict(ctx, chunk, &enc, &mut gids)
            }
            _ => false,
        };
        // The global aggregate's one group, which every row takes.
        let mut global = None;
        if !dict_keyed {
            ctx.charge(OpClass::HashProbe, n as u64);
            ctx.charge_mem_random(n as u64);
            let group_cols = std::mem::take(&mut self.group_cols);
            if group_cols.is_empty() {
                // Every row's key is the empty key, so the chunk's first
                // live row finds (or claims) the group for all of them.
                let i = chunk.rows().at(0);
                let h = hash_row(&chunk.data, &[], i);
                global = Some(self.gid_of(h, &chunk.data, &[], i) as usize);
            } else {
                let mut words = std::mem::take(&mut self.words);
                if pack_keys(&chunk.data, &group_cols, chunk.rows(), &mut words) {
                    let mut memo = self.memo.take().unwrap_or_else(PackedMemo::new);
                    // Hits first, a miss marked `NO_ROW`.
                    gids.extend(words.iter().map(|&w| memo.find(w).unwrap_or(NO_ROW)));
                    let missed = gids.contains(&NO_ROW);
                    // Misses second, in row order, so that ids are
                    // claimed in first-seen order.
                    if missed {
                        chunk.rows().for_each(|k, i| {
                            if gids[k] == NO_ROW {
                                gids[k] = memo.find(words[k]).unwrap_or_else(|s| {
                                    let h = hash_row(&chunk.data, &group_cols, i);
                                    let gid = self.gid_of(h, &chunk.data, &group_cols, i);
                                    memo.insert_at(s, words[k], gid);
                                    gid
                                });
                            }
                        });
                    }
                    self.memo = Some(memo);
                } else {
                    words.clear();
                    hash_keys(&chunk.data, &group_cols, chunk.rows(), &mut words);
                    chunk.rows().for_each(|k, i| {
                        gids.push(self.gid_of(words[k], &chunk.data, &group_cols, i));
                    });
                }
                self.words = words;
            }
            self.group_cols = group_cols;
        }
        let gid = |k: usize| global.unwrap_or_else(|| gids[k] as usize);

        // Every distinct subexpression once, then every cell: a
        // run-length input under compressed pricing accumulates run
        // fragments, not rows; the others fill in one pass.
        let (rows, width, data) = (chunk.rows(), self.cells.len(), &*chunk.data);
        self.exprs.eval(data, rows, ctx);
        self.fused.clear();
        for (cell, &node) in self.cells.iter().enumerate() {
            let rle = match (&chunk.enc, self.exprs.column(node)) {
                (Some(enc), Some(c)) => match enc.column(c) {
                    EncodedColumn::RleInt { values, ends } => Some((values, ends)),
                    _ => None,
                },
                _ => None,
            };
            let accs = &mut self.accs;
            self.updates[cell] = match rle {
                Some((values, ends)) => rle_accumulate(values, ends, rows, gid, |g, v, w| {
                    let acc = &mut accs[g * width + cell];
                    *acc = acc.wrapping_add(v.wrapping_mul(w));
                }),
                None => {
                    self.fused.push((cell, node));
                    n as u64
                }
            };
        }
        let values = |node| self.exprs.values(node, data, rows);
        match global {
            Some(g) => {
                let cells = &mut self.accs[g * width..][..width];
                for &(c, node) in &self.fused {
                    let sum = values(node).iter().fold(0, |s: i64, &v| s.wrapping_add(v));
                    cells[c] = cells[c].wrapping_add(sum);
                }
            }
            None => accumulate(&mut self.accs, width, &gids, &self.fused, values),
        }

        for (spec, &slot) in self.aggs.iter().zip(&self.slots) {
            match spec.func {
                AggFunc::Count => ctx.charge(OpClass::AggUpdate, n as u64),
                AggFunc::Sum | AggFunc::Avg => {
                    ctx.charge(OpClass::AggUpdate, self.updates[slot]);
                    ctx.charge(OpClass::Arith, spec.input.arith_nodes() * n as u64);
                }
                AggFunc::Min | AggFunc::Max => {
                    ctx.charge(OpClass::AggUpdate, n as u64);
                    let (accs, wins) = (&mut self.extremes[slot], wins(spec.func));
                    // Each cell is compared where it lies; only a new
                    // extreme becomes a `Value`.
                    let col = spec.input.eval_column(&chunk.data, rows, ctx);
                    rows.for_each(|k, _| {
                        let acc = &mut accs[gid(k)];
                        let replace = match acc {
                            None => true,
                            Some(cur) => {
                                col.data.cmp_value(k, cur).expect("comparable MIN/MAX") == wins
                            }
                        };
                        if replace {
                            *acc = Some(col.data.value(k));
                        }
                    });
                }
            }
        }
        self.gids = gids;
    }

    /// Dictionary-id group keys: translate each live row's bit-packed
    /// id and serve its group slot from a per-dictionary memo — the id
    /// *is* the hash, so repeat keys never re-hash the string payload.
    /// Memo hits charge one `DictLookup` (an L1 array index); only the
    /// first sight of each id pays the `HashProbe` + random access the
    /// raw path pays on every row (and hashes the payload, read from
    /// the row's raw mirror). Group ids still come from
    /// [`Self::gid_of`], so group order (and rows) are identical to
    /// the raw path by construction. Returns `false` when the single
    /// group column is not dictionary-encoded.
    fn gids_from_dict(
        &mut self,
        ctx: &mut ExecCtx,
        chunk: &Chunk,
        enc: &Arc<EncodedChunk>,
        gids: &mut Vec<u32>,
    ) -> bool {
        let col = [self.group_cols[0]];
        let (ids, dict_len) = match enc.column(col[0]) {
            EncodedColumn::DictStr { dict, ids } => (ids, dict.len()),
            EncodedColumn::DictChar { dict, ids } => (ids, dict.len()),
            _ => return false,
        };
        // The memo is keyed by dictionary id, so it is only valid for
        // the encoded chunk that minted those ids.
        if !self.dict_enc.as_ref().is_some_and(|e| Arc::ptr_eq(e, enc)) {
            self.dict_enc = Some(Arc::clone(enc));
            self.dict_gids.clear();
        }
        self.dict_gids.resize(dict_len, u32::MAX);
        let mut misses = 0u64;
        chunk.rows().for_each(|_, i| {
            let d = ids.get(i) as usize;
            if self.dict_gids[d] == u32::MAX {
                misses += 1;
                let h = hash_row(&chunk.data, &col, i);
                self.dict_gids[d] = self.gid_of(h, &chunk.data, &col, i);
            }
            gids.push(self.dict_gids[d]);
        });
        ctx.charge(OpClass::DictLookup, chunk.len() as u64);
        ctx.charge(OpClass::HashProbe, misses);
        ctx.charge_mem_random(misses);
        true
    }

    /// Fold in a partial built from a *later* morsel of the input: each
    /// of its groups finds or claims its id here (first-seen order is
    /// preserved because `other`'s first sight of any shared group came
    /// later in stream order) and its cells and extremes fold in. Free
    /// in the ledger — like the hash table's own bookkeeping, merging is
    /// not one of the paper's metered op classes, and every row was
    /// charged where it was absorbed — so per-morsel partial aggregation
    /// merges to exactly the serial ledger.
    fn merge(&mut self, other: ColumnarGroups) {
        let Some(their_keys) = &other.keys else {
            return;
        };
        let width = self.cells.len();
        for theirs in 0..other.len() {
            let h = other.table.hash_of(theirs as u32);
            let mine = self.gid_of(h, their_keys, &other.key_cols, theirs) as usize;
            let cells = &mut self.accs[mine * width..][..width];
            for (cell, their) in cells.iter_mut().zip(&other.accs[theirs * width..]) {
                *cell = cell.wrapping_add(*their);
            }
            for (spec, &e) in self.aggs.iter().zip(&self.slots) {
                if let AggFunc::Min | AggFunc::Max = spec.func {
                    if let Some(v) = &other.extremes[e][theirs] {
                        keep_extreme(&mut self.extremes[e][mine], v.clone(), wins(spec.func));
                    }
                }
            }
        }
    }

    /// The output rows, in first-seen group order: one key tuple per
    /// group, followed by its finished aggregates.
    fn into_rows(self) -> Vec<Tuple> {
        let Some(keys) = &self.keys else {
            return Vec::new();
        };
        let state = |spec: &AggSpec, slot: usize, g: usize| {
            let width = self.cells.len();
            let cells = &self.accs[g * width..][..width];
            match spec.func {
                AggFunc::Count => AggState::Count(cells[0]),
                AggFunc::Sum => AggState::Sum(cells[slot]),
                AggFunc::Avg => AggState::Avg {
                    sum: cells[slot],
                    count: cells[0],
                },
                AggFunc::Min => AggState::Min(self.extremes[slot][g].clone()),
                AggFunc::Max => AggState::Max(self.extremes[slot][g].clone()),
            }
        };
        (0..self.len())
            .map(|g| {
                let mut row = keys.row(g);
                let aggs = self.aggs.iter().zip(&self.slots);
                row.extend(aggs.map(|(spec, &slot)| state(spec, slot, g).finish()));
                row
            })
            .collect()
    }
}

/// The accumulator pass: each live row adds its value in every lane
/// to its group's cell for that lane (`lanes` holds (cell, node)
/// pairs, `values` a node's values by live-row ordinal), the cells of
/// a group lying together, `width` a group. One loop over the group
/// ids fills up to eight cells; the lane count is a constant in each
/// loop, so its lanes sit in registers and its inner loop unrolls.
fn accumulate<'a>(
    accs: &mut [i64],
    width: usize,
    gids: &[u32],
    lanes: &[(usize, usize)],
    values: impl Fn(usize) -> &'a [i64] + Copy,
) {
    for block in lanes.chunks(8) {
        match block.len() {
            1 => pass::<1>(accs, width, gids, block, values),
            2 => pass::<2>(accs, width, gids, block, values),
            3 => pass::<3>(accs, width, gids, block, values),
            4 => pass::<4>(accs, width, gids, block, values),
            5 => pass::<5>(accs, width, gids, block, values),
            6 => pass::<6>(accs, width, gids, block, values),
            7 => pass::<7>(accs, width, gids, block, values),
            _ => pass::<8>(accs, width, gids, block, values),
        }
    }
}

/// One loop of [`accumulate`] over `L` lanes.
fn pass<'a, const L: usize>(
    accs: &mut [i64],
    width: usize,
    gids: &[u32],
    block: &[(usize, usize)],
    values: impl Fn(usize) -> &'a [i64],
) {
    let n = gids.len();
    let lanes: [(usize, &[i64]); L] =
        std::array::from_fn(|j| (block[j].0, &values(block[j].1)[..n]));
    for (k, &g) in gids.iter().enumerate() {
        let cells = &mut accs[g as usize * width..][..width];
        for &(c, v) in &lanes {
            cells[c] = cells[c].wrapping_add(v[k]);
        }
    }
}

/// Run-at-a-time accumulation over a run-length-encoded input column:
/// `f(gid, run value, weight)` once per maximal fragment of live rows
/// sharing one run *and* one group id (`gid(k)` of live-row ordinal
/// `k`) — the weight is the fragment length, so the result is exactly
/// the per-row accumulation's. Returns the fragment count (the
/// `AggUpdate` charge). Relies on live rows being ascending, so runs
/// advance monotonically.
fn rle_accumulate(
    values: &[i64],
    ends: &[u32],
    rows: crate::chunk::Rows<'_>,
    gid: impl Fn(usize) -> usize,
    mut f: impl FnMut(usize, i64, i64),
) -> u64 {
    let mut run = 0usize;
    let mut cur_run = usize::MAX;
    let mut cur_gid = 0usize;
    let mut weight = 0i64;
    let mut frags = 0u64;
    rows.for_each(|k, i| {
        while ends[run] as usize <= i {
            run += 1;
        }
        let g = gid(k);
        if run == cur_run && g == cur_gid {
            weight += 1;
        } else {
            if cur_run != usize::MAX {
                f(cur_gid, values[cur_run], weight);
                frags += 1;
            }
            cur_run = run;
            cur_gid = g;
            weight = 1;
        }
    });
    if cur_run != usize::MAX {
        f(cur_gid, values[cur_run], weight);
        frags += 1;
    }
    frags
}

/// Hash-based GROUP BY aggregation. `MIN`/`MAX` output their input's
/// type, every other aggregate `Int`. With no group columns, produces
/// a single global row (0 rows in ⇒ 1 output row: zero for
/// `Sum`/`Count`/`Avg`, the type's zero — `0`, `""`, day 0, `'\0'`,
/// `false` — for `Min`/`Max`).
///
/// The input is drained at `open`; per-row charges (`HashProbe`, one
/// random access, one `AggUpdate` per aggregate) are aggregated per
/// chunk and are bit-identical to scalar execution. The scalar engine
/// (the differential-test oracle) absorbs tuples into a `Value`-keyed
/// `GroupTable`; the columnar engine
/// absorbs chunks into `ColumnarGroups`: group ids from the shared
/// key kernel (`ops/hashkey.rs`), first-seen keys kept as columns, and
/// accumulators row-major per group: a row count (`COUNT`, and every
/// `AVG`'s divisor) and one sum per distinct `SUM`/`AVG` input, side by
/// side (Q1's eight aggregates fill six cells a group). Each chunk
/// computes the inputs' distinct subexpressions once into reused lanes
/// (Q1's `l_extendedprice * (100 - l_discount)` serves both revenue
/// inputs: six arithmetic nodes a row, not eight), then fills every
/// cell of a row's group in one pass over the group ids. Group keys of
/// fixed-width columns that fit in 64 bits (Q1's `l_returnflag`,
/// `l_linestatus`) are packed into one word per row and their ids
/// served from a memo in front of the key table, which alone mints ids;
/// `Str` keys and wider ones (Q3's) hash every row into the table. The
/// charges are the same either way, and an aggregate whose cell or
/// subexpressions another fills still charges its own `AggUpdate`s and
/// its input's `Arith`s.
/// Under the columnar engine `open` first
/// tells its child ([`Operator::prune`]) that only the group columns
/// and the aggregate inputs are read, so a join below gathers nothing
/// else.
///
/// With a parallel columnar context and a partitionable child, `open`
/// runs morsel-parallel *partial aggregation*: each worker absorbs its
/// morsels into private tables (charging each row exactly as the
/// serial drain would), and the coordinator folds the partials
/// together in morsel order — a ledger-free merge that reproduces both
/// the serial group values and the serial first-seen output order. The
/// scalar engine (the oracle) aggregates serially.
pub struct HashAggregate {
    child: BoxedOp,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    schema: Schema,
    results: std::vec::IntoIter<Tuple>,
}

impl HashAggregate {
    /// Aggregate `child` grouped by `group_cols` (indexes into the
    /// child schema).
    pub fn new(child: BoxedOp, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        let child_schema = child.schema();
        let mut cols: Vec<(String, ColumnType)> = group_cols
            .iter()
            .map(|&i| {
                let c = &child_schema.columns()[i];
                (c.name.clone(), c.ty)
            })
            .collect();
        for a in &aggs {
            // MIN/MAX keep their input's type; every other aggregate
            // produces Int.
            let ty = match a.func {
                AggFunc::Min | AggFunc::Max => a.input.value_type(child_schema),
                _ => ColumnType::Int,
            };
            cols.push((a.name.clone(), ty));
        }
        let refs: Vec<(&str, ColumnType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Self {
            child,
            group_cols,
            aggs,
            schema: Schema::new(&refs),
            results: Vec::new().into_iter(),
        }
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        let group_cols = &self.group_cols;
        let aggs = &self.aggs;
        let mut out = if ctx.columnar {
            // The aggregate reads its group columns and its inputs
            // (`COUNT` reads none), nothing else of its child's chunks.
            let mut needed = vec![false; self.child.schema().arity()];
            group_cols.iter().for_each(|&c| needed[c] = true);
            (aggs.iter().filter(|a| a.func != AggFunc::Count))
                .for_each(|a| mark_read(&a.input, &mut needed));
            self.child.prune(&needed);
            // Aggregation drains its input fully, so a surrounding
            // Limit's streaming-exactness constraint does not apply
            // below it.
            let saved_exact = ctx.streaming_exact;
            ctx.streaming_exact = 0;
            let partials = run_morsels(self.child.as_ref(), ctx, |wctx, pipe| {
                let mut part = ColumnarGroups::new(group_cols.clone(), aggs.clone());
                drain_chunks(pipe, wctx, |wctx, chunk| part.absorb(wctx, chunk));
                part
            });
            ctx.streaming_exact = saved_exact;
            let mut groups = ColumnarGroups::new(group_cols.clone(), aggs.clone());
            match partials {
                // Fold morsel partials in order: serial first-seen
                // group order, serial values, no extra charges.
                Some(parts) => parts.into_iter().for_each(|part| groups.merge(part)),
                None => {
                    self.child.open(ctx);
                    drain_chunks(self.child.as_mut(), ctx, |ctx, chunk| {
                        groups.absorb(ctx, chunk);
                    });
                }
            }
            groups.into_rows()
        } else {
            let mut table = GroupTable::new(group_cols.clone(), aggs.clone());
            self.child.open(ctx);
            while let Some(t) = self.child.next(ctx) {
                table.absorb(ctx, &t);
            }
            let finish = |(mut row, states): (Tuple, Vec<AggState>)| {
                row.extend(states.into_iter().map(AggState::finish));
                row
            };
            table.entries.into_iter().map(finish).collect()
        };

        if out.is_empty() && self.group_cols.is_empty() {
            // Global aggregate over empty input: MIN/MAX read their
            // type's zero.
            let zero = |(a, col): (&AggSpec, &Column)| match AggState::new(a.func) {
                AggState::Min(None) | AggState::Max(None) => match col.ty {
                    ColumnType::Int => Value::Int(0),
                    ColumnType::Str => Value::str(""),
                    ColumnType::Date => Value::Date(0),
                    ColumnType::Char => Value::Char('\0'),
                    ColumnType::Bool => Value::Bool(false),
                },
                other => other.finish(),
            };
            let row = self.aggs.iter().zip(self.schema.columns()).map(zero);
            out.push(row.collect());
        }
        self.results = out.into_iter();
    }

    fn next(&mut self, _ctx: &mut ExecCtx) -> Option<Tuple> {
        self.results.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecSource;

    fn source() -> VecSource {
        let schema = Schema::new(&[("g", ColumnType::Str), ("v", ColumnType::Int)]);
        VecSource::new(
            schema,
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("b"), Value::Int(10)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(20)],
                vec![Value::str("a"), Value::Int(3)],
            ],
        )
    }

    fn run(agg: &mut HashAggregate) -> Vec<Tuple> {
        let mut ctx = ExecCtx::new();
        agg.open(&mut ctx);
        std::iter::from_fn(|| agg.next(&mut ctx)).collect()
    }

    #[test]
    fn grouped_sum_count() {
        let mut agg = HashAggregate::new(
            Box::new(source()),
            vec![0],
            vec![
                AggSpec {
                    func: AggFunc::Sum,
                    input: Expr::col(1),
                    name: "s".into(),
                },
                AggSpec {
                    func: AggFunc::Count,
                    input: Expr::col(1),
                    name: "c".into(),
                },
            ],
        );
        let out = run(&mut agg);
        assert_eq!(out.len(), 2);
        // First-seen order: a then b.
        assert_eq!(out[0], vec![Value::str("a"), Value::Int(6), Value::Int(3)]);
        assert_eq!(out[1], vec![Value::str("b"), Value::Int(30), Value::Int(2)]);
        assert_eq!(agg.schema().names(), vec!["g", "s", "c"]);
    }

    #[test]
    fn min_max_avg() {
        let mut agg = HashAggregate::new(
            Box::new(source()),
            vec![],
            vec![
                AggSpec {
                    func: AggFunc::Min,
                    input: Expr::col(1),
                    name: "mn".into(),
                },
                AggSpec {
                    func: AggFunc::Max,
                    input: Expr::col(1),
                    name: "mx".into(),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    input: Expr::col(1),
                    name: "av".into(),
                },
            ],
        );
        let out = run(&mut agg);
        assert_eq!(
            out,
            vec![vec![Value::Int(1), Value::Int(20), Value::Int(7)]]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, vec![]);
        let mut agg = HashAggregate::new(
            Box::new(src),
            vec![],
            vec![AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(0),
                name: "s".into(),
            }],
        );
        let out = run(&mut agg);
        assert_eq!(out, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn grouped_over_empty_input_yields_nothing() {
        let schema = Schema::new(&[("g", ColumnType::Int), ("v", ColumnType::Int)]);
        let src = VecSource::new(schema, vec![]);
        let mut agg = HashAggregate::new(
            Box::new(src),
            vec![0],
            vec![AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(1),
                name: "s".into(),
            }],
        );
        assert!(run(&mut agg).is_empty());
    }

    /// Micro-assertion for the multi-column group-key path: composite
    /// keys produce identical groups, values and ledgers under scalar
    /// and columnar execution.
    #[test]
    fn multi_key_groups_and_ledgers_identical_across_engines() {
        use crate::exec::ExecEngine;
        let schema = Schema::new(&[
            ("g1", ColumnType::Str),
            ("g2", ColumnType::Int),
            ("v", ColumnType::Int),
        ]);
        let mk = || {
            let src = VecSource::new(
                schema.clone(),
                (0..50)
                    .map(|i| {
                        vec![
                            Value::str(format!("s{}", i % 3)),
                            Value::Int(i % 4),
                            Value::Int(i),
                        ]
                    })
                    .collect(),
            );
            HashAggregate::new(
                Box::new(src),
                vec![0, 1],
                vec![
                    AggSpec {
                        func: AggFunc::Sum,
                        input: Expr::col(2),
                        name: "s".into(),
                    },
                    AggSpec {
                        func: AggFunc::Min,
                        input: Expr::col(2),
                        name: "mn".into(),
                    },
                ],
            )
        };

        let mut sctx = ExecCtx::new();
        let scalar_rows = ExecEngine::Scalar.execute(&mut mk(), &mut sctx);
        assert_eq!(scalar_rows.len(), 12, "3 × 4 composite groups");

        let mut ctx = ExecCtx::new();
        let rows = ExecEngine::Columnar.execute(&mut mk(), &mut ctx);
        assert_eq!(rows, scalar_rows, "groups differ");
        sctx.ledger.assert_same(&ctx.ledger, "multi-key group-by");
    }

    /// Micro-assertion for the compressed aggregate kernels: under
    /// compressed pricing the dictionary-id group path and the RLE
    /// run-at-a-time path must produce exactly the raw path's rows —
    /// while charging per distinct id / per run fragment instead of
    /// per row.
    #[test]
    fn compressed_dict_keys_and_rle_runs_match_raw_path() {
        use crate::ops::SeqScan;
        use eco_simhw::trace::PricingMode;
        use eco_storage::{Catalog, HeapTable};

        let schema = Schema::new(&[("g", ColumnType::Str), ("v", ColumnType::Int)]);
        // g: 5 distinct strings → dict-str; v: 10 runs of 60 → rle-int.
        let tuples: Vec<Tuple> = (0..600)
            .map(|i| vec![Value::str(format!("g{}", i % 5)), Value::Int(i / 60)])
            .collect();
        let mut cat = Catalog::new(1 << 20);
        cat.add_memory_table("t", HeapTable::from_tuples(schema, tuples));

        let mk = |group: Vec<usize>| {
            HashAggregate::new(
                Box::new(SeqScan::new(cat.expect("t"))),
                group,
                vec![
                    AggSpec {
                        func: AggFunc::Sum,
                        input: Expr::col(1),
                        name: "s".into(),
                    },
                    AggSpec {
                        func: AggFunc::Avg,
                        input: Expr::col(1),
                        name: "a".into(),
                    },
                    AggSpec {
                        func: AggFunc::Count,
                        input: Expr::col(1),
                        name: "c".into(),
                    },
                ],
            )
        };

        let run = |agg: &mut HashAggregate, pricing: PricingMode| {
            let mut ctx = ExecCtx::new().with_columnar(true).with_pricing(pricing);
            agg.open(&mut ctx);
            let rows: Vec<Tuple> = std::iter::from_fn(|| agg.next(&mut ctx)).collect();
            (rows, ctx)
        };

        // Grouped by the dictionary column.
        let (raw_rows, raw_ctx) = run(&mut mk(vec![0]), PricingMode::Raw);
        let (comp_rows, comp_ctx) = run(&mut mk(vec![0]), PricingMode::Compressed);
        assert_eq!(comp_rows, raw_rows, "dict-keyed groups must match raw");
        assert_eq!(raw_ctx.ledger.cpu.count(OpClass::HashProbe), 600);
        assert_eq!(
            comp_ctx.ledger.cpu.count(OpClass::HashProbe),
            5,
            "only first sight of each dictionary id probes the hash table"
        );
        assert_eq!(comp_ctx.ledger.cpu.count(OpClass::DictLookup), 600);
        assert_eq!(comp_ctx.ledger.mem_random_accesses, 5);

        // Global aggregate over the RLE column: one AggUpdate per run
        // fragment for SUM and AVG (10 runs, one chunk), per row for
        // COUNT.
        let (raw_rows, raw_ctx) = run(&mut mk(vec![]), PricingMode::Raw);
        let (comp_rows, comp_ctx) = run(&mut mk(vec![]), PricingMode::Compressed);
        assert_eq!(comp_rows, raw_rows, "run-at-a-time totals must match raw");
        assert_eq!(raw_ctx.ledger.cpu.count(OpClass::AggUpdate), 1800);
        assert_eq!(
            comp_ctx.ledger.cpu.count(OpClass::AggUpdate),
            10 + 10 + 600,
            "SUM and AVG touch runs, COUNT touches rows"
        );
    }

    /// The global aggregate claims its one group once per chunk instead
    /// of probing for it per row, yet charges what the row path charges:
    /// `HashProbe` and a random access per live row and `AggUpdate` per
    /// (live row, aggregate), over several chunks — a window, a
    /// selection and an all-filtered selection among them — and yields
    /// the row path's single group: an empty key and its aggregates.
    #[test]
    fn global_aggregate_charges_per_row_without_probing() {
        use crate::expr::ArithOp;
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let tuples: Vec<Tuple> = (0..12).map(|i| vec![Value::Int(i * 10 + 1)]).collect();
        let data = Arc::new(DataChunk::from_rows(&schema, &tuples));
        let with_sel = |sel: Vec<u32>| Chunk {
            sel: Some(sel),
            ..Chunk::dense(Arc::clone(&data))
        };
        let chunks = [
            Chunk::window(Arc::clone(&data), 0..4),
            with_sel(vec![5, 7]),
            with_sel(vec![]),
            Chunk::window(Arc::clone(&data), 8..12),
        ];
        let spec = |func, input| AggSpec {
            func,
            input,
            name: String::new(),
        };
        let aggs = vec![
            spec(AggFunc::Sum, Expr::col(0)),
            spec(AggFunc::Count, Expr::col(0)),
            spec(
                AggFunc::Avg,
                Expr::arith(ArithOp::Mul, Expr::col(0), Expr::int(2)),
            ),
            spec(AggFunc::Min, Expr::col(0)),
        ];

        let mut ctx = ExecCtx::new();
        let mut groups = ColumnarGroups::new(vec![], aggs.clone());
        chunks.iter().for_each(|c| groups.absorb(&mut ctx, c));
        let live = 10;
        assert_eq!(ctx.ledger.cpu.count(OpClass::HashProbe), live);
        assert_eq!(ctx.ledger.mem_random_accesses, live);
        assert_eq!(ctx.ledger.cpu.count(OpClass::AggUpdate), live * 4);
        assert_eq!(ctx.ledger.cpu.count(OpClass::Arith), live);
        assert_eq!(groups.len(), 1, "one group, claimed once");

        let mut row_ctx = ExecCtx::new();
        let mut table = GroupTable::new(vec![], aggs);
        (chunks.iter())
            .flat_map(|c| c.rows().to_indices())
            .for_each(|i| table.absorb(&mut row_ctx, &tuples[i as usize]));
        let want: Vec<Tuple> = (table.entries.into_iter())
            .map(|(mut key, states)| {
                key.extend(states.into_iter().map(AggState::finish));
                key
            })
            .collect();
        assert_eq!(groups.into_rows(), want);
        assert_eq!(want[0][..2], [Value::Int(570), Value::Int(10)]);
        row_ctx.ledger.assert_same(&ctx.ledger, "global aggregate");
    }

    /// Per-slot loops, the model of [`accumulate`]: each lane adds into
    /// its cell of every row's group, one lane after another.
    fn per_slot(
        width: usize,
        groups: usize,
        gids: &[u32],
        lanes: &[(usize, Vec<i64>)],
    ) -> Vec<i64> {
        let mut accs = vec![0i64; groups * width];
        for (c, v) in lanes {
            for (&g, &x) in gids.iter().zip(v) {
                let cell = &mut accs[g as usize * width + c];
                *cell = cell.wrapping_add(x);
            }
        }
        accs
    }

    /// The accumulator pass fills every cell as per-slot loops would, on
    /// group ids that stress it: one group (each row adds where the last
    /// one did), alternating groups, short runs, more than 2^16 groups
    /// (every row its own), and no rows; with 1 to 10 lanes (one pass of
    /// up to eight, then another) filling cells in reverse order, one
    /// cell filled by none, and values at the `i64` extremes, so the
    /// sums wrap.
    #[test]
    fn the_accumulator_pass_equals_per_slot_loops() {
        let mut state = 0x5EED_u64;
        let mut random = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 31)) as i64
        };
        const N: usize = 70_000;
        let patterns: [(&str, usize, Vec<u32>); 5] = [
            ("one group", 1, vec![0; N]),
            ("alternating", 2, (0..N as u32).map(|k| k % 2).collect()),
            ("runs", 4, (0..N as u32).map(|k| (k / 3) % 4).collect()),
            ("past 2^16 groups", N, (0..N as u32).rev().collect()),
            ("no rows", 3, Vec::new()),
        ];
        for (what, groups, gids) in &patterns {
            for count in 1..=10 {
                let width = count + 1;
                let lanes: Vec<(usize, Vec<i64>)> = (0..count)
                    .map(|j| {
                        let edge = [i64::MAX, i64::MIN, -1][j % 3];
                        let v = (0..gids.len()).map(|k| if k % 5 == 0 { edge } else { random() });
                        (width - 1 - j, v.collect())
                    })
                    .collect();
                let want = per_slot(width, *groups, gids, &lanes);
                let mut accs = vec![0i64; groups * width];
                let cells: Vec<(usize, usize)> = (lanes.iter().enumerate())
                    .map(|(node, (c, _))| (*c, node))
                    .collect();
                accumulate(&mut accs, width, gids, &cells, |node| &lanes[node].1[..]);
                assert_eq!(accs, want, "{what}, {count} lanes");
            }
        }
    }

    /// A chunk's lanes hold only its own live rows: chunks of 1000
    /// rows, then a selection of 3, an empty selection, a dense window
    /// of 1, then 1000 again, grouped (packed and hashed keys) and
    /// global, give the row path's rows and ledger. The inputs share
    /// subexpressions (`x * y` inside two sums and a `MIN`), and `x`
    /// holds the `i64` extremes, so the sums wrap.
    #[test]
    fn a_short_chunk_after_a_long_one_reads_only_its_rows() {
        use crate::expr::ArithOp;
        let schema = Schema::new(&[
            ("g", ColumnType::Int),
            ("s", ColumnType::Str),
            ("x", ColumnType::Int),
            ("y", ColumnType::Int),
        ]);
        let edges = [i64::MAX, i64::MIN, 7, -3];
        let tuples: Vec<Tuple> = (0..2000)
            .map(|i| {
                vec![
                    Value::Int(i % 7),
                    Value::str(format!("s{}", i % 3)),
                    Value::Int(edges[i as usize % 4].wrapping_add(i)),
                    Value::Int(i % 11 - 5),
                ]
            })
            .collect();
        let data = Arc::new(DataChunk::from_rows(&schema, &tuples));
        let with_sel = |sel: Vec<u32>| Chunk {
            sel: Some(sel),
            ..Chunk::dense(Arc::clone(&data))
        };
        let chunks = [
            Chunk::window(Arc::clone(&data), 0..1000),
            with_sel(vec![1003, 1500, 1999]),
            with_sel(vec![]),
            Chunk::window(Arc::clone(&data), 1200..1201),
            Chunk::window(Arc::clone(&data), 1000..2000),
        ];
        let spec = |func, input| AggSpec {
            func,
            input,
            name: String::new(),
        };
        let xy = Expr::arith(ArithOp::Mul, Expr::col(2), Expr::col(3));
        let aggs = vec![
            spec(AggFunc::Sum, Expr::col(2)),
            spec(AggFunc::Sum, xy.clone()),
            spec(
                AggFunc::Avg,
                Expr::arith(ArithOp::Sub, xy.clone(), Expr::col(2)),
            ),
            spec(AggFunc::Min, xy),
            spec(AggFunc::Count, Expr::col(2)),
            spec(AggFunc::Avg, Expr::col(2)),
        ];
        for group_cols in [vec![], vec![0], vec![1]] {
            let mut ctx = ExecCtx::new();
            let mut groups = ColumnarGroups::new(group_cols.clone(), aggs.clone());
            chunks.iter().for_each(|c| groups.absorb(&mut ctx, c));

            let mut row_ctx = ExecCtx::new();
            let mut table = GroupTable::new(group_cols.clone(), aggs.clone());
            (chunks.iter())
                .flat_map(|c| c.rows().to_indices())
                .for_each(|i| table.absorb(&mut row_ctx, &tuples[i as usize]));
            let want: Vec<Tuple> = (table.entries.into_iter())
                .map(|(mut key, states)| {
                    key.extend(states.into_iter().map(AggState::finish));
                    key
                })
                .collect();
            assert_eq!(groups.into_rows(), want, "grouped by {group_cols:?}");
            row_ctx.ledger.assert_same(&ctx.ledger, "short chunks");
        }
    }

    #[test]
    fn charges_agg_updates() {
        let mut agg = HashAggregate::new(
            Box::new(source()),
            vec![0],
            vec![AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(1),
                name: "s".into(),
            }],
        );
        let mut ctx = ExecCtx::new();
        agg.open(&mut ctx);
        assert_eq!(ctx.ledger.cpu.count(OpClass::AggUpdate), 5);
        assert_eq!(ctx.ledger.cpu.count(OpClass::HashProbe), 5);
    }
}
