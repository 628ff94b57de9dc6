//! Hash join (equi-join, possibly multi-column keys).
//!
//! The columnar engine's build side is indexed by what its keys hold:
//! when some key column is `Int` and its values span at most
//! `max(8 × build rows, 65 536)`, a [`DirectIndex`] addresses each
//! value's chain by `value − min` and the probe hashes nothing; any
//! other build is hashed into a [`KeyTable`]. The choice moves no
//! charge — the simulated machine runs a hash join either way.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use eco_simhw::trace::OpClass;
use eco_storage::{
    tuple_width, BitPacked, ColumnChunk, ColumnData, ColumnType, DataChunk, EncodedColumn, Schema,
    Tuple, Value,
};

use crate::chunk::{Chunk, Rows};
use crate::context::ExecCtx;
use crate::ops::hashkey::{hash_keys, hash_row, keys_eq, DirectIndex, KeyTable, NO_ROW};
use crate::ops::{drain_chunks, BoxedOp, Operator};
use crate::parallel::run_morsels;

/// The scalar engine's build-side hash table (the differential-test
/// oracle; the columnar engine builds a [`BuildSide`] instead and
/// shares nothing with this): each key's build rows in insertion order.
/// Keys are looked up through a reused scratch vector
/// (`Vec<Value>: Borrow<[Value]>`), so a probe allocates no key and a
/// build allocates one per distinct key.
#[derive(Default)]
struct JoinTable {
    rows: HashMap<Vec<Value>, Vec<Tuple>>,
    scratch: Vec<Value>,
}

impl JoinTable {
    /// Fill the scratch key with `t`'s `keys` columns (cheap value
    /// clones: a string is an `Arc` bump).
    fn load_key(&mut self, t: &Tuple, keys: &[usize]) {
        self.scratch.clear();
        self.scratch.extend(keys.iter().map(|&i| t[i].clone()));
    }

    /// Insert one build row, charged as every engine charges a build
    /// row: one `HashBuild` plus its width.
    fn insert(&mut self, tuple: Tuple, keys: &[usize], ctx: &mut ExecCtx) {
        ctx.charge(OpClass::HashBuild, 1);
        ctx.charge_mem_bytes(tuple_width(&tuple));
        self.load_key(&tuple, keys);
        match self.rows.get_mut(self.scratch.as_slice()) {
            Some(rows) => rows.push(tuple),
            None => {
                self.rows.insert(self.scratch.clone(), vec![tuple]);
            }
        }
    }

    /// Join one probe row, handing `emit` its output rows in
    /// build-insertion order. Charges one `HashProbe` + one random
    /// access, and each output row's width.
    fn probe(
        &mut self,
        probe: &Tuple,
        keys: &[usize],
        ctx: &mut ExecCtx,
        mut emit: impl FnMut(Tuple),
    ) {
        ctx.charge(OpClass::HashProbe, 1);
        ctx.charge_mem_random(1);
        self.load_key(probe, keys);
        for build in self.rows.get(self.scratch.as_slice()).into_iter().flatten() {
            let mut out = Vec::with_capacity(build.len() + probe.len());
            out.extend(build.iter().cloned());
            out.extend(probe.iter().cloned());
            ctx.charge_mem_bytes(tuple_width(&out));
            emit(out);
        }
    }
}

/// The columnar engine's build side: the live build rows kept as
/// columns — only the ones a parent reads, plus the keys — one stored
/// width per row, and a [`KeyIndex`] over the key columns. No `Tuple`
/// and no `Value` is built on the way in, at the probe, or on the way
/// out.
struct BuildSide {
    /// Which of the join's output columns (build columns, then probe
    /// columns) a parent reads ([`Operator::prune`]); the probe leaves
    /// the others empty.
    needed: Vec<bool>,
    /// The build input's column types.
    types: Vec<ColumnType>,
    /// The build input's columns kept in `rows`, ascending: the needed
    /// ones and the keys.
    cols: Vec<usize>,
    /// Key column positions in `rows`.
    keys: Vec<usize>,
    /// The live build rows' kept columns, in build-stream order.
    rows: DataChunk,
    /// `tuple_width` of each whole build row, kept columns or not.
    widths: Vec<u32>,
    index: KeyIndex,
}

/// How a [`BuildSide`] finds the build rows whose key equals a probe
/// row's, chosen by [`BuildSide::index`] from the keys it holds.
enum KeyIndex {
    /// By the value of the `Int` key column `keys[key]`, whose range is
    /// dense (see [`DirectIndex::build`]). With more than one key
    /// column, each row of a value's chain is checked against the
    /// others.
    Direct { key: usize, index: DirectIndex },
    /// By the hash of every key column.
    Hashed(KeyTable),
}

/// Per-probe-chunk buffers, kept by whoever probes (the operator, or a
/// morsel worker) so a chunk allocates nothing but its output columns.
#[derive(Default)]
struct ProbeScratch {
    hashes: Vec<u64>,
    /// Output pairs, probe order × chain order: build row …
    build_idx: Vec<u32>,
    /// … and the probe row (absolute index into the chunk) it matched.
    probe_idx: Vec<u32>,
    /// Dictionary id → chain head ([`NO_ROW`] = no match) for the
    /// current chunk; see [`BuildSide::pairs_by_dict_id`].
    memo: Vec<u32>,
}

/// [`ProbeScratch::memo`]: id not yet looked up in this chunk.
const UNSEEN: u32 = NO_ROW - 1;

impl BuildSide {
    /// An empty build side over build input `schema`, keyed on `keys`,
    /// for a join whose parent reads output columns `needed`.
    fn new(schema: &Schema, keys: &[usize], needed: &[bool]) -> Self {
        let cols: Vec<usize> = (0..schema.arity())
            .filter(|c| needed[*c] || keys.contains(c))
            .collect();
        let keys = keys.iter().map(|k| cols.partition_point(|c| c < k));
        Self {
            needed: needed.to_vec(),
            types: schema.columns().iter().map(|c| c.ty).collect(),
            keys: keys.collect(),
            rows: DataChunk::with_capacity(&schema.project(&cols), 0),
            cols,
            widths: Vec::new(),
            index: KeyIndex::Hashed(KeyTable::with_capacity(0)),
        }
    }

    /// Keep the live rows of one build chunk, charged as every engine
    /// charges a build row: one `HashBuild` plus its stored width.
    fn append(&mut self, chunk: &Chunk, ctx: &mut ExecCtx) {
        let first = self.widths.len();
        match chunk.rows() {
            Rows::Range(s, e) => self.append_live(&chunk.data, s..e),
            Rows::Sel(sel) => self.append_live(&chunk.data, sel.iter().map(|&i| i as usize)),
        }
        let bytes: u64 = self.widths[first..].iter().map(|&w| u64::from(w)).sum();
        ctx.charge(OpClass::HashBuild, chunk.len() as u64);
        ctx.charge_mem_bytes(bytes);
    }

    fn append_live(&mut self, data: &DataChunk, live: impl Iterator<Item = usize> + Clone) {
        self.rows.append_rows(data, &self.cols, live.clone());
        data.row_widths(live, &mut self.widths);
    }

    /// Append a partition built from a *later* morsel of the build
    /// stream (already charged by its worker). Concatenating in morsel
    /// order numbers the rows exactly as the serial build does, so the
    /// per-key chains — and the join's output order — come out the same.
    fn concat(&mut self, part: BuildSide) {
        let all: Vec<usize> = (0..self.cols.len()).collect();
        self.rows.append_rows(&part.rows, &all, 0..part.rows.len());
        self.widths.extend(part.widths);
    }

    /// Index the collected rows by key, in row order: by direct address
    /// on the first `Int` key column whose values are dense enough
    /// ([`DirectIndex::build`]), else by hashing every key column into a
    /// [`KeyTable`] — the only case that hashes the build keys.
    fn index(&mut self) {
        let (rows, keys) = (&self.rows, &self.keys);
        let direct = keys.iter().enumerate().find_map(|(key, &k)| {
            let ColumnData::Int(v) = &rows.column(k).data else {
                return None;
            };
            DirectIndex::build(v).map(|index| KeyIndex::Direct { key, index })
        });
        self.index = direct.unwrap_or_else(|| {
            let mut hashes = Vec::with_capacity(rows.len());
            hash_keys(rows, keys, Rows::Range(0, rows.len()), &mut hashes);
            let mut table = KeyTable::with_capacity(hashes.len());
            for (r, &h) in hashes.iter().enumerate() {
                table.insert(h, |head| keys_eq(rows, keys, head as usize, rows, keys, r));
            }
            KeyIndex::Hashed(table)
        });
    }

    /// The chain head of the build rows whose key equals row `i` of
    /// `data` (key columns `probe_keys`, hash `h`) in a hashed index.
    #[inline]
    fn find(
        &self,
        table: &KeyTable,
        h: u64,
        data: &DataChunk,
        probe_keys: &[usize],
        i: usize,
    ) -> Option<u32> {
        let (rows, keys) = (&self.rows, &self.keys);
        table.find(h, |b| keys_eq(rows, keys, b as usize, data, probe_keys, i))
    }

    /// The chain head for row `i` of `data` alone, through whichever
    /// index was chosen; [`NO_ROW`] when no build row can match.
    fn head_of_row(&self, data: &DataChunk, probe_keys: &[usize], i: usize) -> u32 {
        match &self.index {
            KeyIndex::Hashed(table) => {
                let h = hash_row(data, probe_keys, i);
                (self.find(table, h, data, probe_keys, i)).unwrap_or(NO_ROW)
            }
            KeyIndex::Direct { key, index } => match &data.column(probe_keys[*key]).data {
                ColumnData::Int(v) => index.head(v[i]),
                _ => NO_ROW,
            },
        }
    }

    /// Record `(build row, probe row i)` for every build row on `head`'s
    /// chain whose key equals probe row `i`'s, in build-insertion order.
    #[inline]
    fn push_matches(
        &self,
        head: u32,
        data: &DataChunk,
        probe_keys: &[usize],
        i: usize,
        s: &mut ProbeScratch,
    ) {
        let push = |b: u32| {
            s.build_idx.push(b);
            s.probe_idx.push(i as u32);
        };
        match &self.index {
            KeyIndex::Hashed(table) => table.chain(head).for_each(push),
            // A chain holds one value of one key column: a composite key
            // checks the others.
            KeyIndex::Direct { index, .. } => (index.chain(head))
                .filter(|&b| {
                    self.keys.len() == 1
                        || keys_eq(&self.rows, &self.keys, b as usize, data, probe_keys, i)
                })
                .for_each(push),
        }
    }

    /// Join one probe chunk. Matches are collected as `(build row, probe
    /// row)` pairs in probe order × chain order — a direct index reads
    /// each probe row's chain off its key value, a hashed one hashes the
    /// key columns a chunk at a time and looks each row up — and the
    /// output is
    /// `gather(build columns) ++ gather(probe columns)` over the columns
    /// a parent reads, the others left empty — a string costs an `Arc`
    /// bump, nothing is materialized and re-decomposed. Each output
    /// row carries its stored width, `width(build) + width(probe) − 2`
    /// (one row header, not two): what a row engine's concatenated
    /// tuple measures, so a parent join charges the same from it.
    /// Charges one `HashProbe` + one random access per live probe row
    /// and each output row's stored width, exactly like the row paths.
    ///
    /// Under compressed pricing a single dictionary-encoded probe key
    /// goes through [`Self::pairs_by_dict_id`] instead.
    fn probe(
        &self,
        chunk: &Chunk,
        probe_keys: &[usize],
        s: &mut ProbeScratch,
        ctx: &mut ExecCtx,
    ) -> Chunk {
        s.build_idx.clear();
        s.probe_idx.clear();
        let dict = match (&chunk.enc, probe_keys) {
            (Some(enc), [key]) => match enc.column(*key) {
                EncodedColumn::DictStr { dict, ids } => Some((ids, dict.len())),
                EncodedColumn::DictChar { dict, ids } => Some((ids, dict.len())),
                _ => None,
            },
            _ => None,
        };
        if let Some((ids, dict_len)) = dict {
            self.pairs_by_dict_id(ids, dict_len, chunk, probe_keys, s, ctx);
        } else {
            let data = &chunk.data;
            match &self.index {
                KeyIndex::Direct { key, index } => {
                    // A probe key column of another type matches nothing.
                    if let ColumnData::Int(v) = &data.column(probe_keys[*key]).data {
                        chunk.rows().for_each(|_, i| {
                            let head = index.head(v[i]);
                            if head != NO_ROW {
                                self.push_matches(head, data, probe_keys, i, s);
                            }
                        });
                    }
                }
                KeyIndex::Hashed(table) => {
                    s.hashes.clear();
                    hash_keys(data, probe_keys, chunk.rows(), &mut s.hashes);
                    chunk.rows().for_each(|k, i| {
                        if let Some(head) = self.find(table, s.hashes[k], data, probe_keys, i) {
                            self.push_matches(head, data, probe_keys, i, s);
                        }
                    });
                }
            }
            let n = chunk.len() as u64;
            ctx.charge(OpClass::HashProbe, n);
            ctx.charge_mem_random(n);
        }

        let (build_read, probe_read) = self.needed.split_at(self.types.len());
        let build = (self.types.iter().zip(build_read).enumerate()).map(|(c, (&ty, &read))| {
            if read {
                let kept = self.cols.partition_point(|&k| k < c);
                self.rows.column(kept).data.gather(&s.build_idx)
            } else {
                ColumnData::empty(ty)
            }
        });
        let probe = (chunk.data.columns().iter().zip(probe_read)).map(|(c, &read)| {
            if read {
                c.data.gather(&s.probe_idx)
            } else {
                ColumnData::empty(c.data.column_type())
            }
        });
        let columns = build.chain(probe).map(ColumnChunk::new).collect();

        let mut widths = Vec::with_capacity(s.probe_idx.len());
        chunk
            .data
            .row_widths(s.probe_idx.iter().map(|&i| i as usize), &mut widths);
        for (w, &b) in widths.iter_mut().zip(&s.build_idx) {
            *w += self.widths[b as usize] - 2;
        }
        ctx.charge_mem_bytes(widths.iter().map(|&w| u64::from(w)).sum());
        Chunk::dense(Arc::new(DataChunk::with_widths(columns, widths)))
    }

    /// Dictionary-id pair collection (compressed pricing, single key):
    /// the id *is* the hash key, so the string/char payload is hashed
    /// and looked up only on the first sight of each id in this chunk
    /// (against an `Int` build key's direct index it never matches);
    /// repeats serve their chain head from a per-id memo. Every live
    /// row charges one `DictLookup` (the id translation); only memo
    /// misses charge the `HashProbe` + random access the raw kernel
    /// charges per row. The pairs are identical to the raw kernel's.
    /// The memo's *allocation* outlives the chunk; its contents must
    /// not, or the per-chunk miss count — a ledger charge — would move.
    fn pairs_by_dict_id(
        &self,
        ids: &BitPacked,
        dict_len: usize,
        chunk: &Chunk,
        probe_keys: &[usize],
        s: &mut ProbeScratch,
        ctx: &mut ExecCtx,
    ) {
        s.memo.clear();
        s.memo.resize(dict_len, UNSEEN);
        let mut misses = 0u64;
        chunk.rows().for_each(|_, i| {
            let d = ids.get(i) as usize;
            if s.memo[d] == UNSEEN {
                misses += 1;
                // Row `i` carries id `d`'s payload in the raw mirror.
                s.memo[d] = self.head_of_row(&chunk.data, probe_keys, i);
            }
            if s.memo[d] != NO_ROW {
                self.push_matches(s.memo[d], &chunk.data, probe_keys, i, s);
            }
        });
        ctx.charge(OpClass::DictLookup, chunk.len() as u64);
        ctx.charge(OpClass::HashProbe, misses);
        ctx.charge_mem_random(misses);
    }
}

/// In-memory hash join: materializes the build side at `open`, then
/// streams the probe side.
///
/// Work accounting: one `HashBuild` plus the tuple's width in memory
/// bytes per build row; one `HashProbe` plus one random memory access
/// per probe row (the table exceeds cache for any interesting input);
/// output concatenation charges its width in memory bytes. These are
/// the simulated machine's costs of a hash join, so they stay the same
/// when the columnar engine indexes a dense `Int` key by direct address
/// instead of hashing it: only the host's index changes, not the
/// priced work.
///
/// Multi-match rows are emitted in build-insertion (FIFO) order, in
/// every mode, so execution order is deterministic and
/// path-independent.
///
/// Two engines, one contract. The scalar engine keeps build tuples in
/// a `Value`-keyed hash map — it is the oracle the differential tests
/// compare against. The columnar engine
/// ([`ExecCtx::columnar`]) never builds a row: the build side stays in
/// columns with one stored width per row, keys are indexed by the
/// shared key kernel (`ops/hashkey.rs`: a direct-address index on a
/// dense `Int` key column, else a row-id hash table; per-key FIFO
/// chains; typed column-vs-column equality), and a probe chunk's
/// output is gathered from the build
/// and probe columns — only those a parent reads ([`Operator::prune`]);
/// the build keeps no other column but its keys, the output leaves the
/// others empty and carries each row's stored width. All charges are
/// computed from the width vectors and are bit-identical to the row
/// engines'.
///
/// With a parallel columnar context (`ExecCtx::workers > 1`) and
/// partitionable children, `open` runs both sides morsel-parallel:
/// workers build per-morsel partitions that are concatenated in morsel
/// order and then indexed — so per-key FIFO order, and therefore output
/// order, is exactly the serial build's — and the probe pipeline is
/// pre-materialized by probing the shared, read-only build side from
/// every worker, gathered in morsel order. All charges are per-row and
/// additive, so the merged ledger is bit-identical to serial execution.
/// Probe pre-materialization is suppressed under a `Limit`
/// ([`ExecCtx::streaming_exact`]) so early termination keeps consuming
/// exactly what scalar execution would. The scalar engine (the oracle)
/// builds and probes serially.
pub struct HashJoin {
    build: BoxedOp,
    probe: BoxedOp,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    schema: Schema,
    /// Columnar engine: the output columns a parent reads (all of them
    /// unless [`Operator::prune`] says otherwise).
    needed: Vec<bool>,
    /// Scalar engine: the build table.
    table: JoinTable,
    /// Columnar engine: the build side, `Some` after a columnar `open`.
    columns: Option<BuildSide>,
    pending: VecDeque<Tuple>,
    probe_scratch: ProbeScratch,
    /// Columnar engine: parallel-probed output chunks, morsel order.
    probed_chunks: Option<VecDeque<Chunk>>,
}

impl HashJoin {
    /// Join `build ⋈ probe` on `build_keys = probe_keys` (positional,
    /// same length). Output schema is build columns followed by probe
    /// columns.
    pub fn new(
        build: BoxedOp,
        probe: BoxedOp,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
    ) -> Self {
        assert_eq!(
            build_keys.len(),
            probe_keys.len(),
            "key arity mismatch: {build_keys:?} vs {probe_keys:?}"
        );
        assert!(!build_keys.is_empty(), "join needs at least one key");
        let schema = build.schema().join(probe.schema());
        Self {
            build,
            probe,
            build_keys,
            probe_keys,
            needed: vec![true; schema.arity()],
            schema,
            table: JoinTable::default(),
            columns: None,
            pending: VecDeque::new(),
            probe_scratch: ProbeScratch::default(),
            probed_chunks: None,
        }
    }

    /// `open` under the columnar engine: build a [`BuildSide`]
    /// (morsel-parallel when possible), then pre-probe it (likewise).
    fn open_columnar(&mut self, ctx: &mut ExecCtx) {
        // The build side is fully consumed in every mode, so a
        // surrounding Limit's streaming-exactness constraint does not
        // apply below the build.
        let saved_exact = ctx.streaming_exact;
        ctx.streaming_exact = 0;
        let (keys, needed) = (&self.build_keys, &self.needed);
        let partitions = run_morsels(self.build.as_ref(), ctx, |wctx, pipe| {
            let mut part = BuildSide::new(pipe.schema(), keys, needed);
            drain_chunks(pipe, wctx, |wctx, chunk| part.append(chunk, wctx));
            part
        });
        let mut side = BuildSide::new(self.build.schema(), keys, needed);
        match partitions {
            Some(parts) => parts.into_iter().for_each(|part| side.concat(part)),
            None => {
                self.build.open(ctx);
                drain_chunks(self.build.as_mut(), ctx, |ctx, chunk| {
                    side.append(chunk, ctx);
                });
            }
        }
        side.index();
        ctx.streaming_exact = saved_exact;

        // Probe side: pre-materialize morsel-parallel when allowed
        // (run_morsels declines under streaming_exact / serial ctx).
        // Workers share the finished table read-only.
        let (side_ref, probe_keys) = (&side, &self.probe_keys);
        let probed = run_morsels(self.probe.as_ref(), ctx, |wctx, pipe| {
            let mut scratch = ProbeScratch::default();
            let mut out = Vec::new();
            drain_chunks(pipe, wctx, |wctx, chunk| {
                let joined = side_ref.probe(chunk, probe_keys, &mut scratch, wctx);
                if !joined.is_empty() {
                    out.push(joined);
                }
            });
            out
        });
        match probed {
            Some(parts) => self.probed_chunks = Some(parts.into_iter().flatten().collect()),
            None => self.probe.open(ctx),
        }
        self.columns = Some(side);
    }

    /// Join one probe *row* against the columnar build side — for a
    /// parent that pulls rows from a join the columnar engine opened (a
    /// `Limit`, an index or merge join above it): the row is decomposed
    /// into a chunk and probed like any other, so the charges are the
    /// chunk path's. Pulling one row at a time consumes the probe
    /// stream exactly as scalar execution does.
    fn probe_row(&mut self, probe_t: Tuple, ctx: &mut ExecCtx) -> Chunk {
        let side = self.columns.as_ref().expect("columnar open");
        let data = DataChunk::from_rows(self.probe.schema(), &[probe_t]);
        let chunk = Chunk::dense(Arc::new(data));
        side.probe(&chunk, &self.probe_keys, &mut self.probe_scratch, ctx)
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.table = JoinTable::default();
        self.columns = None;
        self.pending.clear();
        self.probed_chunks = None;
        if ctx.columnar {
            return self.open_columnar(ctx);
        }
        self.build.open(ctx);
        while let Some(t) = self.build.next(ctx) {
            self.table.insert(t, &self.build_keys, ctx);
        }
        self.probe.open(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(t);
            }
            if self.columns.is_some() {
                let joined = match &mut self.probed_chunks {
                    Some(chunks) => chunks.pop_front()?,
                    None => {
                        let probe_t = self.probe.next(ctx)?;
                        self.probe_row(probe_t, ctx)
                    }
                };
                self.pending
                    .extend((0..joined.len()).map(|i| joined.data.row(i)));
            } else {
                let probe_t = self.probe.next(ctx)?;
                let pending = &mut self.pending;
                self.table
                    .probe(&probe_t, &self.probe_keys, ctx, |t| pending.push_back(t));
            }
        }
    }

    /// Columnar probe: the probe chunk's keys are looked up (by value
    /// or by hash), the matches collected as row-id pairs, and the
    /// output gathered from the build and probe columns
    /// (`BuildSide::probe`) — no row is built on either side. Chunks
    /// are only pulled from a join the columnar engine opened.
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        let side = self.columns.as_ref().expect("columnar open");
        if let Some(chunks) = &mut self.probed_chunks {
            return chunks.pop_front();
        }
        let chunk = self.probe.next_chunk(ctx)?;
        Some(side.probe(&chunk, &self.probe_keys, &mut self.probe_scratch, ctx))
    }

    /// The build keeps, and the probe gathers, only the output columns
    /// `needed`; each side's child is asked for its share plus its keys.
    fn prune(&mut self, needed: &[bool]) {
        let (build, probe) = needed.split_at(self.build.schema().arity());
        let (mut build, mut probe) = (build.to_vec(), probe.to_vec());
        self.build_keys.iter().for_each(|&k| build[k] = true);
        self.probe_keys.iter().for_each(|&k| probe[k] = true);
        self.build.prune(&build);
        self.probe.prune(&probe);
        self.needed = needed.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecSource;
    use eco_storage::ColumnType;

    fn src(name: &str, vals: &[(i64, &str)]) -> VecSource {
        let schema = Schema::new(&[
            (&format!("{name}_k"), ColumnType::Int),
            (&format!("{name}_v"), ColumnType::Str),
        ]);
        VecSource::new(
            schema,
            vals.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::str(*v)])
                .collect(),
        )
    }

    fn run(j: &mut HashJoin) -> Vec<Tuple> {
        let mut ctx = ExecCtx::new();
        j.open(&mut ctx);
        std::iter::from_fn(|| j.next(&mut ctx)).collect()
    }

    #[test]
    fn inner_join_matches() {
        let build = src("a", &[(1, "x"), (2, "y")]);
        let probe = src("b", &[(2, "p"), (3, "q"), (2, "r")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        let out = run(&mut j);
        assert_eq!(out.len(), 2, "key 2 matches twice on the probe side");
        for t in &out {
            assert_eq!(t[0], Value::Int(2));
            assert_eq!(t[1], Value::str("y"));
        }
        assert_eq!(j.schema().names(), vec!["a_k", "a_v", "b_k", "b_v"]);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let build = src("a", &[(1, "x"), (1, "y")]);
        let probe = src("b", &[(1, "p")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        assert_eq!(run(&mut j).len(), 2);
    }

    #[test]
    fn multi_match_rows_emit_in_build_order() {
        // Regression: `pending` used to drain LIFO, emitting multi-match
        // rows in reverse build order.
        let build = src("a", &[(7, "first"), (7, "second"), (7, "third")]);
        let probe = src("b", &[(7, "p"), (7, "q")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        let out = run(&mut j);
        let order: Vec<&str> = out.iter().map(|t| t[1].as_str().unwrap()).collect();
        assert_eq!(
            order,
            vec!["first", "second", "third", "first", "second", "third"],
            "multi-match rows must stream FIFO in build-insertion order"
        );
        // And the probe side advances in stream order.
        let probes: Vec<&str> = out.iter().map(|t| t[3].as_str().unwrap()).collect();
        assert_eq!(probes, vec!["p", "p", "p", "q", "q", "q"]);
    }

    #[test]
    fn no_matches_empty_output() {
        let build = src("a", &[(1, "x")]);
        let probe = src("b", &[(9, "p")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        assert!(run(&mut j).is_empty());
    }

    #[test]
    fn multi_column_keys() {
        let schema = Schema::new(&[("k1", ColumnType::Int), ("k2", ColumnType::Int)]);
        let build = VecSource::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
            ],
        );
        let probe = VecSource::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(99)],
            ],
        );
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0, 1], vec![0, 1]);
        let out = run(&mut j);
        assert_eq!(out.len(), 1, "only the (1,10) pair joins");
    }

    #[test]
    fn charges_build_and_probe() {
        let build = src("a", &[(1, "x"), (2, "y"), (3, "z")]);
        let probe = src("b", &[(1, "p"), (2, "q")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        let mut ctx = ExecCtx::new();
        j.open(&mut ctx);
        assert_eq!(ctx.ledger.cpu.count(OpClass::HashBuild), 3);
        while j.next(&mut ctx).is_some() {}
        assert_eq!(ctx.ledger.cpu.count(OpClass::HashProbe), 2);
        assert_eq!(ctx.ledger.mem_random_accesses, 2);
    }

    /// Morsel partitions concatenated in morsel order index exactly
    /// like the serial build: every key's chain lists its rows in
    /// build-stream order, and the stored widths are the rows' widths —
    /// whether the build keeps every column, some, or only its key.
    #[test]
    fn concatenated_partitions_chain_in_build_stream_order() {
        let schema = Schema::new(&[
            ("v", ColumnType::Str),
            ("k", ColumnType::Int),
            ("n", ColumnType::Int),
        ]);
        let stream: Vec<Tuple> = (0..60)
            .map(|i| {
                let v = Value::str("x".repeat(i as usize % 5));
                vec![v, Value::Int(i % 7), Value::Int(i)]
            })
            .collect();
        // Uneven morsels; the last keeps only a selection of its chunk.
        let keep: Vec<u32> = (0..20).filter(|i| i % 3 != 0).collect();
        let live: Vec<&Tuple> = (stream[..40].iter())
            .chain(keep.iter().map(|&i| &stream[40 + i as usize]))
            .collect();
        let subsets: [(&[bool], &[usize]); 3] = [
            (&[true, true, true], &[0, 1, 2]),
            (&[false, false, true], &[1, 2]),
            (&[false, false, false], &[1]),
        ];
        for (needed, kept) in subsets {
            let mut ctx = ExecCtx::new();
            let mut part_of = |rows: &[Tuple], sel: Option<Vec<u32>>| {
                let mut chunk = Chunk::dense(Arc::new(DataChunk::from_rows(&schema, rows)));
                chunk.sel = sel;
                let mut part = BuildSide::new(&schema, &[1], needed);
                part.append(&chunk, &mut ctx);
                part
            };
            let parts = [
                part_of(&stream[..7], None),
                part_of(&stream[7..40], None),
                part_of(&stream[40..], Some(keep.clone())),
            ];
            assert_eq!(ctx.ledger.cpu.count(OpClass::HashBuild), live.len() as u64);
            assert_eq!(
                ctx.ledger.mem_stream_bytes,
                live.iter().map(|t| tuple_width(t)).sum::<u64>(),
                "a build row is charged its whole width, {kept:?} kept"
            );

            let mut side = BuildSide::new(&schema, &[1], needed);
            parts.into_iter().for_each(|part| side.concat(part));
            side.index();
            assert_eq!(side.cols, kept);
            assert_eq!(side.rows.len(), live.len());
            for (r, t) in live.iter().enumerate() {
                let want: Tuple = kept.iter().map(|&c| t[c].clone()).collect();
                assert_eq!(side.rows.row(r), want, "row {r}, {kept:?} kept");
                assert_eq!(u64::from(side.widths[r]), tuple_width(t), "width {r}");
            }
            let keys = side.keys.clone();
            for key in 0..7 {
                let want: Vec<u32> = (0..live.len() as u32)
                    .filter(|&r| live[r as usize][1] == Value::Int(key))
                    .collect();
                let first = want[0] as usize;
                let head = side.head_of_row(&side.rows, &keys, first);
                assert_ne!(head, NO_ROW, "key {key} present");
                let mut s = ProbeScratch::default();
                side.push_matches(head, &side.rows, &keys, first, &mut s);
                assert_eq!(s.build_idx, want, "key {key}, {kept:?} kept");
            }
        }
    }

    /// The index follows the build keys: a dense `Int` key column is
    /// addressed directly (also when it is not the first key column);
    /// a sparse or extreme range, like an empty build, is hashed — and
    /// every choice finds exactly the rows with the probe's key.
    #[test]
    fn the_build_keys_choose_the_index() {
        let schema = Schema::new(&[("s", ColumnType::Str), ("k", ColumnType::Int)]);
        let row = |s: &str, k: i64| vec![Value::str(s), Value::Int(k)];
        // `(build keys, direct key column or None, probe, wanted pairs)`.
        type Case = (
            Vec<Tuple>,
            &'static [usize],
            Option<usize>,
            Vec<Tuple>,
            Vec<(u32, u32)>,
        );
        let cases: Vec<Case> = vec![
            (
                (0..100).map(|k| row("a", k % 40 - 20)).collect(),
                &[1],
                Some(0),
                vec![row("", -20), row("", 19), row("", 20), row("", -21)],
                vec![(0, 0), (40, 0), (80, 0), (39, 1), (79, 1)],
            ),
            (
                vec![row("a", 7), row("b", 7), row("a", 7), row("c", 8)],
                &[0, 1],
                Some(1),
                vec![row("a", 7), row("c", 7), row("c", 8)],
                vec![(0, 0), (2, 0), (3, 2)],
            ),
            (
                vec![row("a", 0), row("b", 1 << 40), row("c", 0)],
                &[1],
                None,
                vec![row("", 1 << 40), row("", 0), row("", 1)],
                vec![(1, 0), (0, 1), (2, 1)],
            ),
            (
                vec![row("a", i64::MAX), row("b", i64::MIN), row("c", -1)],
                &[1],
                None,
                vec![row("", i64::MIN), row("", i64::MAX), row("", 0)],
                vec![(1, 0), (0, 1)],
            ),
            (
                vec![],
                &[1],
                None,
                vec![row("", 0), row("", i64::MIN)],
                vec![],
            ),
        ];
        for (build, keys, direct, probe, want) in cases {
            let mut side = BuildSide::new(&schema, keys, &[true; 4]);
            let mut ctx = ExecCtx::new().with_columnar(true);
            let data = Arc::new(DataChunk::from_rows(&schema, &build));
            side.append(&Chunk::dense(data), &mut ctx);
            side.index();
            let chosen = match &side.index {
                KeyIndex::Direct { key, .. } => Some(*key),
                KeyIndex::Hashed(_) => None,
            };
            assert_eq!(chosen, direct, "index of {build:?}");
            let probe = Chunk::dense(Arc::new(DataChunk::from_rows(&schema, &probe)));
            let mut s = ProbeScratch::default();
            let out = side.probe(&probe, keys, &mut s, &mut ctx);
            let pairs: Vec<(u32, u32)> = (s.build_idx.iter().copied())
                .zip(s.probe_idx.iter().copied())
                .collect();
            assert_eq!(pairs, want, "pairs of {build:?}");
            assert_eq!(out.len(), want.len());
        }
    }

    /// A parent that pulls rows (`next`) from a join the columnar engine
    /// opened gets the chunk path's rows and charges — serial, and over
    /// morsel-parallel pre-probed chunks.
    #[test]
    fn row_pulls_after_a_columnar_open_match_the_chunk_path() {
        let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Str)]);
        let side = |n: i64, keys: i64, tag: &str| -> BoxedOp {
            let rows = (0..n).map(|i| vec![Value::Int(i % keys), Value::str(format!("{tag}{i}"))]);
            Box::new(VecSource::new(schema.clone(), rows.collect()))
        };
        let mk = || HashJoin::new(side(50, 9, "b"), side(200, 13, "p"), vec![0], vec![0]);
        for workers in [1, 4] {
            let ctx = || {
                ExecCtx::new()
                    .with_columnar(true)
                    .with_batch_size(16)
                    .with_workers(workers)
                    .with_morsel_rows(32)
            };
            let (mut j, mut cctx, mut want) = (mk(), ctx(), Vec::new());
            j.open(&mut cctx);
            while let Some(c) = j.next_chunk(&mut cctx) {
                c.to_tuples(&mut want);
            }
            assert!(want.len() > 200, "the join fans out");

            let (mut j, mut nctx) = (mk(), ctx());
            j.open(&mut nctx);
            let by_next: Vec<Tuple> = std::iter::from_fn(|| j.next(&mut nctx)).collect();
            assert_eq!(by_next, want, "workers={workers}");
            cctx.ledger
                .assert_same(&nctx.ledger, format_args!("workers={workers}"));
        }
    }

    #[test]
    #[should_panic(expected = "key arity mismatch")]
    fn mismatched_keys_rejected() {
        let build = src("a", &[]);
        let probe = src("b", &[]);
        let _ = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0, 1]);
    }

    /// Micro-assertion for the dictionary-id probe path: under
    /// compressed pricing a dict-encoded probe key must produce exactly
    /// the raw kernel's rows while hashing the string payload once per
    /// distinct id per chunk instead of once per row.
    #[test]
    fn dict_id_probe_matches_raw_rows_and_skips_rehashing() {
        use crate::ops::SeqScan;
        use eco_simhw::trace::PricingMode;
        use eco_storage::{Catalog, HeapTable};

        // Probe side: 600 rows over 5 distinct string keys → dict-str.
        let pschema = Schema::new(&[("pk", ColumnType::Str), ("pv", ColumnType::Int)]);
        let ptuples: Vec<Tuple> = (0..600)
            .map(|i| vec![Value::str(format!("key-{}", i % 5)), Value::Int(i)])
            .collect();
        let mut cat = Catalog::new(1 << 20);
        cat.add_memory_table("p", HeapTable::from_tuples(pschema, ptuples));

        // Build side: 3 of the 5 keys (and one absent key) match.
        let bschema = Schema::new(&[("bk", ColumnType::Str), ("bv", ColumnType::Int)]);
        let mk = |pricing: PricingMode| {
            let build = VecSource::new(
                bschema.clone(),
                vec![
                    vec![Value::str("key-1"), Value::Int(100)],
                    vec![Value::str("key-3"), Value::Int(300)],
                    vec![Value::str("key-4"), Value::Int(400)],
                    vec![Value::str("absent"), Value::Int(999)],
                ],
            );
            let probe = SeqScan::new(cat.expect("p"));
            let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
            let mut ctx = ExecCtx::new().with_columnar(true).with_pricing(pricing);
            j.open(&mut ctx);
            let mut rows = Vec::new();
            while let Some(c) = j.next_chunk(&mut ctx) {
                c.to_tuples(&mut rows);
            }
            (rows, ctx)
        };

        let (raw_rows, raw_ctx) = mk(PricingMode::Raw);
        let (comp_rows, comp_ctx) = mk(PricingMode::Compressed);
        assert_eq!(comp_rows, raw_rows, "dict-id probe must match raw rows");
        assert_eq!(raw_rows.len(), 360, "3 of 5 keys × 120 rows each");
        assert_eq!(raw_ctx.ledger.cpu.count(OpClass::HashProbe), 600);
        assert_eq!(
            comp_ctx.ledger.cpu.count(OpClass::HashProbe),
            5,
            "payload hashed once per distinct id per chunk"
        );
        assert_eq!(comp_ctx.ledger.cpu.count(OpClass::DictLookup), 600);
        assert!(
            comp_ctx.ledger.mem_stream_bytes < raw_ctx.ledger.mem_stream_bytes,
            "scan prices encoded bytes"
        );
    }

    /// Micro-assertion for the borrowed multi-key probe path: composite
    /// keys (including string components, the allocation-heavy case the
    /// scratch buffer eliminates) produce identical rows and identical
    /// ledgers under scalar and columnar execution.
    #[test]
    fn multi_key_rows_and_ledgers_identical_across_engines() {
        use crate::exec::ExecEngine;
        let schema = Schema::new(&[("k1", ColumnType::Int), ("k2", ColumnType::Str)]);
        let mk = || {
            let build = VecSource::new(
                schema.clone(),
                (0..40)
                    .map(|i| vec![Value::Int(i % 5), Value::str(format!("g{}", i % 3))])
                    .collect(),
            );
            let probe = VecSource::new(
                schema.clone(),
                (0..60)
                    .map(|i| vec![Value::Int(i % 7), Value::str(format!("g{}", i % 4))])
                    .collect(),
            );
            HashJoin::new(Box::new(build), Box::new(probe), vec![0, 1], vec![0, 1])
        };

        let mut sctx = ExecCtx::new();
        let scalar_rows = ExecEngine::Scalar.execute(&mut mk(), &mut sctx);
        assert!(!scalar_rows.is_empty(), "the workload must join something");

        let mut ctx = ExecCtx::new();
        let rows = ExecEngine::Columnar.execute(&mut mk(), &mut ctx);
        assert_eq!(rows, scalar_rows, "rows differ");
        sctx.ledger.assert_same(&ctx.ledger, "multi-key join");
    }
}
