//! Columnar storage: typed column vectors and data chunks.
//!
//! A [`DataChunk`] holds one contiguous typed array per column
//! ([`ColumnData`]) plus an optional per-column validity mask
//! ([`ColumnChunk`]) — the decomposed (DSM) mirror of a run of row
//! tuples. The columnar execution path in `eco-query` streams these
//! chunks through operators instead of `Vec<Tuple>` rows, so hot loops
//! run over `&[i64]` / `&[i32]` slices with no per-value enum dispatch
//! and no per-row allocation.
//!
//! On the memory engine the chunk *is* the table ([`crate::heap`]
//! mutates it in place through [`DataChunk::push_row`] /
//! [`DataChunk::set_row`] / [`DataChunk::remove_row`]); on the disk
//! engine chunks mirror the pages, one per extent. Either way
//! [`DataChunk::row`] materializes the exact `Tuple` the row path
//! produces, and the energy ledger never charges for the
//! representation — the columnar executor charges the same per-tuple op
//! classes as the row executor (see `eco-query::ops` docs), which is
//! what keeps scalar/columnar ledgers bit-identical.
//!
//! Validity masks exist for forward compatibility with NULL-bearing
//! sources: no TPC-H loader produces NULLs, so end-to-end executions
//! always see fully-valid chunks, and the masks are exercised by the
//! selection-vector unit tests (an invalid value fails every
//! comparison, like SQL `NULL`).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use crate::page::try_append_to_columns;
use crate::value::{ColumnType, Schema, Tuple, Value};

/// A string column: every value's UTF-8 bytes end to end in one
/// buffer plus each value's end offset (Apache Arrow's variable-size
/// binary layout, less its leading zero): two allocations whatever the
/// length, each value read in place. [`Self::set`] and [`Self::remove`]
/// splice, so the offsets cover the buffer exactly and equality and
/// clones go by content. `u32` offsets cap a column at 4 GiB of string
/// bytes (≈ 25 × TPC-H `l_comment` at scale 10); a write past it panics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrColumn {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl StrColumn {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where value `i` lies in the buffer.
    #[inline]
    fn span(&self, i: usize) -> Range<usize> {
        // `ends[i]` first: then `ends[i - 1]` needs no bounds check.
        let end = self.ends[i] as usize;
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        start..end
    }

    /// The UTF-8 bytes of value `i`, in place. Byte order is `str`
    /// order, so comparisons and hashes need no more than this.
    #[inline]
    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.span(i)]
    }

    /// Value `i` in bytes.
    #[inline]
    pub fn byte_len(&self, i: usize) -> usize {
        let span = self.span(i);
        span.end - span.start
    }

    /// Value `i`.
    pub fn get(&self, i: usize) -> &str {
        match std::str::from_utf8(self.bytes(i)) {
            Ok(s) => s,
            Err(_) => unreachable!("a string column holds whole UTF-8 values"),
        }
    }

    /// Every value, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The offset `len` bytes of values end at; panics past 4 GiB.
    fn end_at(len: usize) -> u32 {
        match u32::try_from(len) {
            Ok(end) => end,
            Err(_) => panic!("a string column holds at most 4 GiB of bytes"),
        }
    }

    /// Append `s`.
    #[inline]
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.ends.push(Self::end_at(self.bytes.len()));
    }

    /// Overwrite value `i` with `s`, moving the later values' bytes
    /// when the length changes.
    pub fn set(&mut self, i: usize, s: &str) {
        let span = self.span(i);
        let (old, new) = (span.len() as u32, Self::end_at(s.len()));
        // The 4 GiB limit, checked before anything moves.
        Self::end_at(self.bytes.len() - span.len() + s.len());
        self.bytes.splice(span, s.bytes());
        for end in &mut self.ends[i..] {
            *end = *end - old + new;
        }
    }

    /// Remove value `i`, shifting the later values down by one.
    pub fn remove(&mut self, i: usize) {
        let span = self.span(i);
        let gone = span.len() as u32;
        self.bytes.drain(span);
        self.ends.remove(i);
        for end in &mut self.ends[i..] {
            *end -= gone;
        }
    }

    /// Append `src`'s values at `rows`, in iteration order (rows may
    /// repeat): room for all of their bytes is made once, then the
    /// bytes are copied — nothing is allocated per value.
    pub fn append_rows(&mut self, src: &StrColumn, rows: impl Iterator<Item = usize> + Clone) {
        self.bytes
            .reserve(rows.clone().map(|i| src.byte_len(i)).sum());
        self.ends.reserve(rows.size_hint().0);
        for i in rows {
            self.bytes.extend_from_slice(src.bytes(i));
            self.ends.push(Self::end_at(self.bytes.len()));
        }
    }

    /// Make room for `rows` more values, and for their bytes at the
    /// mean length of the values so far plus one byte in eight (none
    /// while there are none).
    pub fn reserve(&mut self, rows: usize) {
        self.ends.reserve(rows);
        let bytes = rows * self.bytes.len().div_ceil(self.len().max(1));
        self.bytes.reserve(bytes + bytes / 8);
    }

    /// Drop every value, keeping both allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrColumn {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut out = StrColumn::default();
        for s in iter {
            out.push(s.as_ref());
        }
        out
    }
}

/// One typed column vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers (also fixed-point money in cents).
    Int(Vec<i64>),
    /// Strings, in one arena per column.
    Str(StrColumn),
    /// Dates as day offsets.
    Date(Vec<i32>),
    /// Single characters.
    Char(Vec<char>),
    /// Booleans (predicate results).
    Bool(Vec<bool>),
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn empty(ty: ColumnType) -> Self {
        Self::with_capacity(ty, 0)
    }

    /// An empty column of the given type with reserved capacity.
    pub fn with_capacity(ty: ColumnType, cap: usize) -> Self {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            ColumnType::Str => ColumnData::Str(StrColumn {
                bytes: Vec::new(),
                ends: Vec::with_capacity(cap),
            }),
            ColumnType::Date => ColumnData::Date(Vec::with_capacity(cap)),
            ColumnType::Char => ColumnData::Char(Vec::with_capacity(cap)),
            ColumnType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Char(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Int(_) => ColumnType::Int,
            ColumnData::Str(_) => ColumnType::Str,
            ColumnData::Date(_) => ColumnType::Date,
            ColumnData::Char(_) => ColumnType::Char,
            ColumnData::Bool(_) => ColumnType::Bool,
        }
    }

    /// Append one `Value`; panics on a type mismatch.
    pub fn push(&mut self, v: &Value) {
        match (self, v) {
            (ColumnData::Int(c), Value::Int(x)) => c.push(*x),
            (ColumnData::Str(c), Value::Str(x)) => c.push(x),
            (ColumnData::Date(c), Value::Date(x)) => c.push(*x),
            (ColumnData::Char(c), Value::Char(x)) => c.push(*x),
            (ColumnData::Bool(c), Value::Bool(x)) => c.push(*x),
            (c, v) => panic!("cannot push {v:?} into a {:?} column", c.column_type()),
        }
    }

    /// Overwrite the value at `i`; panics on a type mismatch.
    pub fn set(&mut self, i: usize, v: &Value) {
        match (self, v) {
            (ColumnData::Int(c), Value::Int(x)) => c[i] = *x,
            (ColumnData::Str(c), Value::Str(x)) => c.set(i, x),
            (ColumnData::Date(c), Value::Date(x)) => c[i] = *x,
            (ColumnData::Char(c), Value::Char(x)) => c[i] = *x,
            (ColumnData::Bool(c), Value::Bool(x)) => c[i] = *x,
            (c, v) => panic!("cannot store {v:?} in a {:?} column", c.column_type()),
        }
    }

    /// Remove the value at `i`, shifting later values down by one.
    pub fn remove(&mut self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v.remove(i)),
            ColumnData::Str(v) => {
                let s = Value::str(v.get(i));
                v.remove(i);
                s
            }
            ColumnData::Date(v) => Value::Date(v.remove(i)),
            ColumnData::Char(v) => Value::Char(v.remove(i)),
            ColumnData::Bool(v) => Value::Bool(v.remove(i)),
        }
    }

    /// The value at `i` as a row-engine [`Value`] (materialization).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Str(v) => Value::str(v.get(i)),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Char(v) => Value::Char(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// How the value at `i` orders against `v` — what
    /// `self.value(i).partial_cmp_typed(v)` answers, read in place.
    /// `None` for a value of another type.
    pub fn cmp_value(&self, i: usize, v: &Value) -> Option<Ordering> {
        Some(match (self, v) {
            (ColumnData::Int(c), Value::Int(x)) => c[i].cmp(x),
            (ColumnData::Str(c), Value::Str(x)) => c.bytes(i).cmp(x.as_bytes()),
            (ColumnData::Date(c), Value::Date(x)) => c[i].cmp(x),
            (ColumnData::Char(c), Value::Char(x)) => c[i].cmp(x),
            (ColumnData::Bool(c), Value::Bool(x)) => c[i].cmp(x),
            _ => return None,
        })
    }

    /// Whether the value at `i` equals `other`'s at `j`, both read in
    /// place. Columns of different types are unequal.
    pub(crate) fn cell_eq(&self, i: usize, other: &ColumnData, j: usize) -> bool {
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Str(a), ColumnData::Str(b)) => a.bytes(i) == b.bytes(j),
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i] == b[j],
            (ColumnData::Char(a), ColumnData::Char(b)) => a[i] == b[j],
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            _ => false,
        }
    }

    /// Typed access: `&[i64]` when this is an `Int` column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Typed access: `&[bool]` when this is a `Bool` column.
    pub fn as_bools(&self) -> Option<&[bool]> {
        match self {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Gather the values at `indices` into a fresh column (a string's
    /// bytes are copied into the new column's arena). Indices may
    /// repeat (join fan-out).
    pub fn gather(&self, indices: &[u32]) -> ColumnData {
        let mut out = ColumnData::empty(self.column_type());
        self.gather_into(indices, &mut out);
        out
    }

    /// Gather the values at `indices` into `out`, reusing `out`'s
    /// allocation when its type already matches (the per-chunk scratch
    /// discipline: callers that gather in a loop keep one scratch
    /// column per output column instead of allocating per call).
    /// Replaces `out` with a fresh column on a type mismatch.
    pub fn gather_into(&self, indices: &[u32], out: &mut ColumnData) {
        if out.column_type() == self.column_type() {
            out.clear();
        } else {
            *out = ColumnData::empty(self.column_type());
        }
        out.append_rows(self, indices.iter().map(|&i| i as usize));
    }

    /// Append `src`'s values at `rows`, in iteration order (a string's
    /// bytes are copied, nothing is allocated per value; rows may
    /// repeat). This is how a pipeline breaker keeps the live rows of
    /// the chunks it drains — a dense window passes its range, a
    /// selection vector its indices — without building a tuple. Validity is not consulted,
    /// exactly like [`DataChunk::row`]. Panics on a type mismatch.
    pub fn append_rows(&mut self, src: &ColumnData, rows: impl Iterator<Item = usize> + Clone) {
        match (self, src) {
            (ColumnData::Int(o), ColumnData::Int(v)) => o.extend(rows.map(|i| v[i])),
            (ColumnData::Str(o), ColumnData::Str(v)) => o.append_rows(v, rows),
            (ColumnData::Date(o), ColumnData::Date(v)) => o.extend(rows.map(|i| v[i])),
            (ColumnData::Char(o), ColumnData::Char(v)) => o.extend(rows.map(|i| v[i])),
            (ColumnData::Bool(o), ColumnData::Bool(v)) => o.extend(rows.map(|i| v[i])),
            (o, v) => panic!(
                "cannot append {:?} values to a {:?} column",
                v.column_type(),
                o.column_type()
            ),
        }
    }

    /// Make room for `n` more values.
    pub(crate) fn reserve(&mut self, n: usize) {
        match self {
            ColumnData::Int(v) => v.reserve(n),
            ColumnData::Str(v) => v.reserve(n),
            ColumnData::Date(v) => v.reserve(n),
            ColumnData::Char(v) => v.reserve(n),
            ColumnData::Bool(v) => v.reserve(n),
        }
    }

    /// Drop every value, keeping the allocation.
    pub fn clear(&mut self) {
        match self {
            ColumnData::Int(v) => v.clear(),
            ColumnData::Str(v) => v.clear(),
            ColumnData::Date(v) => v.clear(),
            ColumnData::Char(v) => v.clear(),
            ColumnData::Bool(v) => v.clear(),
        }
    }
}

/// One column of a chunk: data plus an optional validity mask
/// (`None` = every value valid; the common case everywhere).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunk {
    /// The typed values.
    pub data: ColumnData,
    /// Per-row validity: `false` marks a NULL. Must match `data.len()`
    /// when present.
    pub validity: Option<Vec<bool>>,
    /// The strings row reads have handed out.
    read: ReadStrs,
}

impl ColumnChunk {
    /// A fully-valid column.
    pub fn new(data: ColumnData) -> Self {
        Self {
            data,
            validity: None,
            read: ReadStrs::default(),
        }
    }

    /// A column with a validity mask; panics if the lengths differ.
    pub fn with_validity(data: ColumnData, validity: Vec<bool>) -> Self {
        assert_eq!(data.len(), validity.len(), "validity mask length mismatch");
        Self {
            validity: Some(validity),
            ..Self::new(data)
        }
    }

    /// Gather rows `indices` into a fresh column, carrying validity.
    pub fn gather(&self, indices: &[u32]) -> ColumnChunk {
        ColumnChunk {
            validity: (self.validity.as_ref())
                .map(|v| indices.iter().map(|&i| v[i as usize]).collect()),
            ..Self::new(self.data.gather(indices))
        }
    }

    /// The value at `i`, a string shared with every earlier read of it
    /// (see [`ReadStrs`]).
    #[inline]
    fn value(&self, i: usize) -> Value {
        match &self.data {
            ColumnData::Str(c) => Value::Str(self.read.get(c, i)),
            data => data.value(i),
        }
    }
}

/// Most distinct values row reads share by value (as `u8` ids; TPC-H's
/// widest enumerated column, `p_type`, has 150).
const MAX_DISTINCT: usize = 256;

/// The `Arc<str>`s row reads ([`DataChunk::row`], [`DataChunk::value`])
/// hand out for a string column, built in one pass once reads reach a
/// sixteenth of its rows, so rows read again (by many statements over
/// one table version) share them. A row change drops it, an appended
/// row is read without it; clones start empty, equality ignores it.
#[derive(Debug, Default)]
struct ReadStrs(OnceLock<SharedStrs>, AtomicUsize);

#[derive(Debug)]
enum SharedStrs {
    /// At most [`MAX_DISTINCT`] values: each once, and each row's id.
    Dict(Box<[Arc<str>]>, Box<[u8]>),
    /// One string per row.
    Cells(Box<[Arc<str>]>),
}

impl ReadStrs {
    #[inline]
    fn get(&self, col: &StrColumn, i: usize) -> Arc<str> {
        if self.0.get().is_none() && self.1.fetch_add(1, Relaxed) < col.len() / 16 {
            return Arc::from(col.get(i));
        }
        let shared = match self.0.get_or_init(|| share(col)) {
            SharedStrs::Dict(strs, ids) => ids.get(i).map(|&id| &strs[id as usize]),
            SharedStrs::Cells(strs) => strs.get(i),
        };
        shared.map_or_else(|| Arc::from(col.get(i)), Arc::clone)
    }
}

/// `col` as a dictionary while it has at most [`MAX_DISTINCT`] values.
fn share(col: &StrColumn) -> SharedStrs {
    let mut strs: Vec<Arc<str>> = Vec::new();
    let mut ids: HashMap<&str, u8> = HashMap::new();
    let mut rows = Vec::with_capacity(col.len());
    for s in col.iter() {
        let id = match ids.get(s) {
            Some(&id) => id,
            None if strs.len() < MAX_DISTINCT => {
                strs.push(Arc::from(s));
                *ids.entry(s).or_insert((strs.len() - 1) as u8)
            }
            None => return SharedStrs::Cells(col.iter().map(Arc::from).collect()),
        };
        rows.push(id);
    }
    SharedStrs::Dict(strs.into(), rows.into())
}

impl Clone for ReadStrs {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for ReadStrs {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A run of rows in decomposed (columnar) form: one [`ColumnChunk`] per
/// schema column, all the same length — or, in a chunk built by
/// [`DataChunk::with_widths`], each either that length or empty.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataChunk {
    columns: Vec<ColumnChunk>,
    len: usize,
    /// The stored width of each row, carried instead of computed from
    /// the columns (see [`DataChunk::with_widths`]).
    widths: Option<Vec<u32>>,
}

impl DataChunk {
    /// Build from columns; panics if lengths disagree.
    pub fn new(columns: Vec<ColumnChunk>) -> Self {
        let len = columns.first().map_or(0, |c| c.data.len());
        for c in &columns {
            assert_eq!(c.data.len(), len, "ragged chunk");
        }
        Self {
            columns,
            len,
            widths: None,
        }
    }

    /// `widths.len()` rows whose stored widths are `widths`, not what
    /// their columns add up to: a column nobody downstream reads may be
    /// left empty (a pruned join output keeps its type, not its values),
    /// and [`Self::row_widths`] still reports the full row's width, so
    /// whatever is charged from it does not move. Reading a value of an
    /// empty column panics. Panics if a column is neither empty nor
    /// `widths.len()` long.
    pub fn with_widths(columns: Vec<ColumnChunk>, widths: Vec<u32>) -> Self {
        let len = widths.len();
        for c in &columns {
            assert!(c.data.len() == len || c.data.is_empty(), "ragged chunk");
        }
        Self {
            columns,
            len,
            widths: Some(widths),
        }
    }

    /// An empty chunk with `schema`'s column types (so empty runs still
    /// carry typed columns) and room for `rows` rows.
    pub fn with_capacity(schema: &Schema, rows: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnChunk::new(ColumnData::with_capacity(c.ty, rows)))
            .collect();
        Self {
            columns,
            len: 0,
            widths: None,
        }
    }

    /// Decompose row tuples into a chunk with `schema`'s column types.
    /// A row read hands back the rows' own strings.
    pub fn from_rows(schema: &Schema, rows: &[Tuple]) -> Self {
        let mut chunk = Self::with_capacity(schema, rows.len());
        for (j, col) in chunk.columns.iter_mut().enumerate() {
            if let ColumnData::Str(c) = &mut col.data {
                let strs: Box<[Arc<str>]> = (rows.iter())
                    .filter_map(|r| match r.get(j) {
                        Some(Value::Str(s)) => Some(Arc::clone(s)),
                        _ => None,
                    })
                    .collect();
                c.bytes.reserve(strs.iter().map(|s| s.len()).sum());
                col.read = ReadStrs(OnceLock::from(SharedStrs::Cells(strs)), AtomicUsize::new(0));
            }
        }
        for row in rows {
            assert_eq!(row.len(), chunk.columns.len(), "row arity mismatch");
            for (col, v) in chunk.columns.iter_mut().zip(row) {
                col.data.push(v);
            }
        }
        chunk.len = rows.len();
        chunk
    }

    /// Append one row (a string's bytes are copied onto its column's
    /// arena); panics on an arity or type mismatch. The three row
    /// mutators keep a validity mask, where a column has one, in step
    /// (a stored value is valid).
    pub fn push_row(&mut self, row: Tuple) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(&row) {
            col.data.push(v);
            if let Some(mask) = &mut col.validity {
                mask.push(true);
            }
        }
        self.len += 1;
    }

    /// Append columns `wanted` (ascending, distinct, one per column of
    /// this chunk; `0..arity` for all of them) of the `arity`-column
    /// row serialized in `payload` (a page slot), decoded straight into
    /// the columns; the row's other values are skipped in place.
    /// `None` on a payload that is not such a row with this chunk's
    /// column types at `wanted`; the chunk is then left part-way
    /// through the row, fit only to be dropped.
    pub(crate) fn push_serialized(
        &mut self,
        payload: &[u8],
        arity: usize,
        wanted: impl IntoIterator<Item = usize>,
    ) -> Option<()> {
        try_append_to_columns(payload, arity, wanted, &mut self.columns)?;
        self.len += 1;
        Some(())
    }

    /// Overwrite row `i`; panics on an out-of-range row or an arity or
    /// type mismatch.
    pub fn set_row(&mut self, i: usize, row: &Tuple) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.data.set(i, v);
            col.read = ReadStrs::default();
            if let Some(mask) = &mut col.validity {
                mask[i] = true;
            }
        }
    }

    /// Remove row `i`, shifting later rows down by one, and return it.
    /// Panics on an out-of-range row.
    pub fn remove_row(&mut self, i: usize) -> Tuple {
        assert!(i < self.len, "row {i} out of range {}", self.len);
        self.len -= 1;
        self.columns
            .iter_mut()
            .map(|col| {
                if let Some(mask) = &mut col.validity {
                    mask.remove(i);
                }
                col.read = ReadStrs::default();
                col.data.remove(i)
            })
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All columns in order.
    pub fn columns(&self) -> &[ColumnChunk] {
        &self.columns
    }

    /// One column.
    pub fn column(&self, i: usize) -> &ColumnChunk {
        &self.columns[i]
    }

    /// Append rows `rows` of `src`, column `j` of this chunk taking
    /// `src`'s column `src_cols[j]` (see [`ColumnData::append_rows`];
    /// an appended value is valid, as with the row mutators). Panics
    /// on an arity or type mismatch.
    pub fn append_rows(
        &mut self,
        src: &DataChunk,
        src_cols: &[usize],
        rows: impl Iterator<Item = usize> + Clone,
    ) {
        assert_eq!(src_cols.len(), self.columns.len(), "row arity mismatch");
        let before = self.columns.first().map_or(0, |c| c.data.len());
        for (col, &s) in self.columns.iter_mut().zip(src_cols) {
            col.data.append_rows(&src.columns[s].data, rows.clone());
            if let Some(mask) = &mut col.validity {
                mask.resize(col.data.len(), true);
            }
        }
        self.len += match self.columns.first() {
            Some(c) => c.data.len() - before,
            None => rows.count(),
        };
    }

    /// Materialize row `i` back into the row-engine tuple it mirrors.
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Whether row `i` equals `row` — what `self.row(i) == *row`
    /// answers, compared cell by cell where the values lie: no tuple
    /// is built and no reference count touched.
    pub fn row_eq(&self, i: usize, row: &Tuple) -> bool {
        row.len() == self.columns.len()
            && self
                .columns
                .iter()
                .zip(row)
                .all(|(c, v)| c.data.cmp_value(i, v) == Some(Ordering::Equal))
    }

    /// Whether row `i` equals `other`'s row `j` — what
    /// `self.row(i) == other.row(j)` answers, compared cell by cell in
    /// place.
    pub(crate) fn row_eq_at(&self, i: usize, other: &DataChunk, j: usize) -> bool {
        self.columns.len() == other.columns.len()
            && (self.columns.iter())
                .zip(&other.columns)
                .all(|(a, b)| a.data.cell_eq(i, &b.data, j))
    }

    /// The columns and, for a chunk built by [`Self::with_widths`], the
    /// widths it carries.
    pub(crate) fn into_parts(self) -> (Vec<ColumnChunk>, Option<Vec<u32>>) {
        (self.columns, self.widths)
    }

    /// Append the stored width of each of `rows` to `out`: exactly
    /// [`crate::value::tuple_width`]`(&self.row(i))`, computed from the column types
    /// plus the strings' byte lengths — no row is built. A chunk built
    /// by [`Self::with_widths`] returns the widths it carries.
    pub fn row_widths(&self, rows: impl Iterator<Item = usize> + Clone, out: &mut Vec<u32>) {
        if let Some(widths) = &self.widths {
            out.extend(rows.map(|i| widths[i]));
            return;
        }
        let fixed = self.fixed_width();
        let start = out.len();
        out.extend(rows.clone().map(|_| fixed));
        for c in &self.columns {
            if let ColumnData::Str(v) = &c.data {
                for (w, i) in out[start..].iter_mut().zip(rows.clone()) {
                    *w += v.byte_len(i) as u32;
                }
            }
        }
    }

    /// The summed stored widths of `rows`: what [`Self::row_widths`]
    /// appends, added up without a vector — one pass over each string
    /// column, the fixed part once. A chunk built by
    /// [`Self::with_widths`] sums the widths it carries.
    pub fn width_sum(&self, rows: impl Iterator<Item = usize> + Clone) -> u64 {
        if let Some(widths) = &self.widths {
            return rows.map(|i| u64::from(widths[i])).sum();
        }
        let mut sum = u64::from(self.fixed_width()) * rows.clone().count() as u64;
        for c in &self.columns {
            if let ColumnData::Str(v) = &c.data {
                sum += rows.clone().map(|i| v.byte_len(i) as u64).sum::<u64>();
            }
        }
        sum
    }

    /// The part of every row's stored width that does not depend on its
    /// values: the row header plus each column's fixed bytes.
    fn fixed_width(&self) -> u32 {
        2 + self
            .columns
            .iter()
            .map(|c| match c.data {
                ColumnData::Int(_) => 8,
                ColumnData::Date(_) => 4,
                ColumnData::Char(_) | ColumnData::Bool(_) => 1,
                // The length prefix; the payload is added per row.
                ColumnData::Str(_) => 2,
            })
            .sum::<u32>()
    }

    /// The value at (`col`, `row`).
    pub fn value(&self, col: usize, row: usize) -> Value {
        self.columns[col].value(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType as T;

    fn schema() -> Schema {
        Schema::new(&[("k", T::Int), ("s", T::Str), ("d", T::Date), ("c", T::Char)])
    }

    fn rows() -> Vec<Tuple> {
        (0..5)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("s{i}")),
                    Value::Date(i as i32 * 10),
                    Value::Char(char::from(b'a' + i as u8)),
                ]
            })
            .collect()
    }

    #[test]
    fn from_rows_roundtrips() {
        let rows = rows();
        let chunk = DataChunk::from_rows(&schema(), &rows);
        assert_eq!(chunk.len(), 5);
        assert_eq!(chunk.arity(), 4);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&chunk.row(i), r, "row {i}");
        }
        assert_eq!(chunk.column(0).data.as_ints().unwrap(), &[0, 1, 2, 3, 4]);
        assert_eq!(
            chunk.column(2).data,
            ColumnData::Date(vec![0, 10, 20, 30, 40])
        );
    }

    #[test]
    fn empty_chunk_keeps_types() {
        let chunk = DataChunk::from_rows(&schema(), &[]);
        assert!(chunk.is_empty());
        assert_eq!(chunk.arity(), 4);
        assert_eq!(chunk.column(1).data.column_type(), T::Str);
    }

    #[test]
    fn row_mutators_track_a_row_model_and_the_validity_mask() {
        let mut model = rows();
        let mut chunk = DataChunk::from_rows(&schema(), &model);
        chunk.columns[0].validity = Some(vec![true, false, true, true, true]);
        let new = |k: i64| {
            vec![
                Value::Int(k),
                Value::str("n"),
                Value::Date(7),
                Value::Char('z'),
            ]
        };
        chunk.set_row(1, &new(10));
        model[1] = new(10);
        let valid = chunk.column(0).validity.as_ref().map(|v| v[1]);
        assert_eq!(valid, Some(true), "a stored value is valid");
        assert_eq!(chunk.remove_row(0), model.remove(0));
        chunk.push_row(new(11));
        model.push(new(11));
        assert_eq!(chunk.len(), model.len());
        for (i, r) in model.iter().enumerate() {
            assert_eq!(&chunk.row(i), r, "row {i}");
        }
        assert_eq!(chunk.column(0).validity.as_ref().map(Vec::len), Some(5));
    }

    #[test]
    fn gather_into_reuses_scratch_across_calls() {
        let col = ColumnData::Int((0..100).collect());
        let mut scratch = ColumnData::empty(T::Int);
        col.gather_into(&[5, 5, 99, 0], &mut scratch);
        assert_eq!(scratch.as_ints().unwrap(), &[5, 5, 99, 0]);
        // Second gather reuses the same buffer and fully replaces it.
        col.gather_into(&[1, 2], &mut scratch);
        assert_eq!(scratch.as_ints().unwrap(), &[1, 2]);
        // A type mismatch replaces the scratch instead of panicking.
        let strs = ColumnData::Str(["a", "b"].into_iter().collect());
        strs.gather_into(&[1, 0], &mut scratch);
        assert_eq!(scratch, ColumnData::Str(["b", "a"].into_iter().collect()));
        assert_eq!(strs.gather(&[1, 0]), scratch, "gather matches gather_into");
    }

    /// One column of every type; strings include the empty string and
    /// multi-byte UTF-8 (stored width counts bytes, not chars).
    fn every_type() -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(&[
            ("i", T::Int),
            ("s", T::Str),
            ("d", T::Date),
            ("c", T::Char),
            ("b", T::Bool),
            ("s2", T::Str),
        ]);
        let strs = ["", "a", "żółć", "日本語テキスト", "plain ascii", "🦀"];
        let rows = (0..6usize)
            .map(|i| {
                vec![
                    Value::Int(i as i64 - 3),
                    Value::str(strs[i]),
                    Value::Date(i as i32),
                    Value::Char(['x', 'é', '日'][i % 3]),
                    Value::Bool(i % 2 == 0),
                    Value::str(strs[5 - i]),
                ]
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn row_widths_equal_tuple_width_over_windows_and_selections() {
        use crate::value::tuple_width;
        let (schema, rows) = every_type();
        let chunk = DataChunk::from_rows(&schema, &rows);
        let want = |i: usize| tuple_width(&chunk.row(i)) as u32;
        assert_eq!(want(0), 2 + 8 + 2 + 4 + 1 + 1 + (2 + 4), "bytes, not chars");
        // `width_sum` is Σ `row_widths` over the same rows.
        let assert_width_sum = |c: &DataChunk, rows: &[usize]| {
            let mut widths = Vec::new();
            c.row_widths(rows.iter().copied(), &mut widths);
            let sum: u64 = widths.iter().map(|&w| u64::from(w)).sum();
            assert_eq!(c.width_sum(rows.iter().copied()), sum, "over {rows:?}");
        };
        let window: Vec<usize> = (2..5).collect();
        let sel_rows = [5, 0, 0, 3];
        for rows in [&(0..6).collect::<Vec<_>>()[..], &window, &sel_rows, &[]] {
            assert_width_sum(&chunk, rows);
        }
        assert_eq!(DataChunk::default().width_sum(0..3), 6, "row headers only");

        let mut out = vec![7]; // appended to, never cleared
        chunk.row_widths(0..6, &mut out);
        assert_eq!(out[0], 7);
        assert_eq!(out[1..], (0..6).map(want).collect::<Vec<_>>());

        out.clear();
        chunk.row_widths(2..5, &mut out);
        assert_eq!(out, (2..5).map(want).collect::<Vec<_>>(), "dense window");

        let sel: [u32; 4] = [5, 0, 0, 3]; // any order, repeats allowed
        out.clear();
        chunk.row_widths(sel.iter().map(|&i| i as usize), &mut out);
        let picked: Vec<u32> = sel.iter().map(|&i| want(i as usize)).collect();
        assert_eq!(out, picked, "selection vector");

        out.clear();
        chunk.row_widths(0..0, &mut out);
        assert!(out.is_empty());
        // A chunk with no columns still has its 2-byte row header.
        DataChunk::default().row_widths(0..3, &mut out);
        assert_eq!(out, vec![2, 2, 2]);

        // A chunk that carries its widths reports them, over windows
        // and selections, not what its half-emptied columns add up to.
        let carried: Vec<u32> = (0..6).map(|i| want(i) + 100 * i as u32).collect();
        let half = (chunk.columns().iter().enumerate())
            .map(|(j, c)| match j % 2 {
                0 => c.clone(),
                _ => ColumnChunk::new(ColumnData::empty(c.data.column_type())),
            })
            .collect();
        let pruned = DataChunk::with_widths(half, carried.clone());
        assert_eq!(pruned.len(), 6);
        out.clear();
        pruned.row_widths(2..5, &mut out);
        assert_eq!(out, carried[2..5], "dense window");
        out.clear();
        pruned.row_widths(sel.iter().map(|&i| i as usize), &mut out);
        let picked: Vec<u32> = sel.iter().map(|&i| carried[i as usize]).collect();
        assert_eq!(out, picked, "selection vector");
        for rows in [&window[..], &sel_rows] {
            assert_width_sum(&pruned, rows);
        }
        let carried_sum: u64 = window.iter().map(|&i| u64::from(carried[i])).sum();
        assert_eq!(pruned.width_sum(2..5), carried_sum, "the carried widths");
        assert_eq!(
            pruned.value(2, 3),
            chunk.value(2, 3),
            "kept columns read as before"
        );
    }

    #[test]
    #[should_panic(expected = "ragged chunk")]
    fn carried_widths_reject_a_column_of_another_length() {
        DataChunk::with_widths(vec![ColumnChunk::new(ColumnData::Int(vec![1]))], vec![2, 2]);
    }

    #[test]
    fn append_rows_keeps_order_and_reads_values_like_row() {
        let (schema, rows) = every_type();
        let mut src = DataChunk::from_rows(&schema, &rows);
        // `row` reads the stored value whatever the mask says; so does
        // an append (and what it stores is valid).
        src.columns[0].validity = Some(vec![true, false, true, true, false, true]);

        let all: Vec<usize> = (0..schema.arity()).collect();
        let mut dst = DataChunk::with_capacity(&schema, 0);
        dst.columns[0].validity = Some(Vec::new());
        dst.append_rows(&src, &all, 1..4);
        let sel: [u32; 3] = [4, 0, 4];
        dst.append_rows(&src, &all, sel.iter().map(|&i| i as usize));
        let want: Vec<Tuple> = [1, 2, 3, 4, 0, 4].iter().map(|&i| src.row(i)).collect();
        assert_eq!(dst.len(), want.len());
        for (i, r) in want.iter().enumerate() {
            assert_eq!(&dst.row(i), r, "row {i}");
        }
        assert_eq!(dst.column(0).validity, Some(vec![true; 6]));

        // A projection: destination column j takes source column cols[j].
        let mut keys = DataChunk::new(vec![
            ColumnChunk::new(ColumnData::empty(T::Char)),
            ColumnChunk::new(ColumnData::empty(T::Str)),
        ]);
        keys.append_rows(&src, &[3, 1], std::iter::once(2));
        assert_eq!(keys.row(0), vec![rows[2][3].clone(), rows[2][1].clone()]);
        // No columns at all: the rows still count.
        let mut none = DataChunk::default();
        none.append_rows(&src, &[], 0..2);
        assert_eq!(none.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn append_rows_rejects_a_type_mismatch() {
        let mut c = ColumnData::Int(vec![]);
        c.append_rows(&ColumnData::Date(vec![1]), 0..1);
    }

    #[test]
    #[should_panic(expected = "ragged chunk")]
    fn ragged_chunk_rejected() {
        DataChunk::new(vec![
            ColumnChunk::new(ColumnData::Int(vec![1])),
            ColumnChunk::new(ColumnData::Int(vec![1, 2])),
        ]);
    }

    #[test]
    #[should_panic(expected = "cannot push")]
    fn typed_push_rejects_mismatch() {
        let mut c = ColumnData::Int(vec![]);
        c.push(&Value::str("nope"));
    }
}
