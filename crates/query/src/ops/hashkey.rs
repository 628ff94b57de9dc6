//! The key kernel shared by the columnar [`super::HashJoin`] and
//! [`super::HashAggregate`]: hash key columns a chunk at a time, index
//! rows by key, compare keys column against column.
//!
//! Five pieces, none of which ever builds a `Value`:
//!
//! * [`hash_keys`] folds the key columns of a chunk into one `u64` per
//!   live row, a column at a time, in typed loops over `&[i64]` /
//!   `&[i32]` / `&[char]` / `&[bool]` slices (strings by their bytes).
//!   The mix is one multiply and a fold — the tables below compare keys
//!   on every hash hit, so the hash only has to spread, not to resist an
//!   adversary (the keys come out of the engine's own tables).
//! * [`KeyTable`] is a row-id table: open-addressed slots hold the
//!   *first* row of each distinct key, and `next` links every later row
//!   with an equal key behind it in insertion order — a per-key FIFO
//!   chain, which is what makes a multi-match probe emit build rows in
//!   build-insertion order. The table never sees a key: callers pass an
//!   equality closure over their own columns.
//! * [`keys_eq`] is that equality: typed column-versus-column compares
//!   with exactly `Value`'s semantics — key columns of different types
//!   never match (`Int(1) ≠ Date(1)`), strings compare by content. The
//!   SQL planner only ever pairs columns of one type, so the type rule
//!   is a defensive invariant for hand-built plans.
//! * [`DirectIndex`] is the join's index for a dense `Int` key: when a
//!   key column's value range (`max − min + 1`) is at most
//!   `max(8 × rows, 65 536)`, `heads[v − min]` holds the first row with
//!   value `v` and `next` the same FIFO chains — no hash is computed on
//!   either side, a probe is a subtraction and a bound check, and
//!   [`keys_eq`] checks a composite key's other columns. The join picks
//!   it from the build keys it holds (no knob) and falls back to a
//!   [`KeyTable`] for any other input. Charges do not depend on the
//!   choice: the simulated machine runs a hash join either way.
//! * [`pack_keys`] and [`PackedMemo`] are the aggregate's shortcut to a
//!   group id when its key columns are fixed-width and their widths
//!   (`Int` 64 bits, `Date` 32, `Char` 21, `Bool` 1) sum to at most 64:
//!   each live row's key is packed into one `u64`, a typed pass per
//!   column, each column in a bit field of its own, and looked up in a
//!   small open-addressed `u64 → group id` memo. For one list of key
//!   types, packed equality ⇔ [`keys_eq`]: every field holds its value's
//!   bits exactly (`Date`s as `u32`, so a negative one sets no bit of
//!   another field) and the fields are disjoint. The memo never mints a
//!   group id: a miss asks the aggregate's [`KeyTable`] (hashed with
//!   [`hash_row`], like the morsel-partial merge) and records its
//!   answer, so the table stays the one source of ids, first-seen order
//!   and stored keys — a packed hash inside the table would split a key
//!   into two groups. A `Str` column, or a key wider than 64 bits, has
//!   no packing and takes the table on every row.

use eco_storage::{ColumnData, DataChunk};

use crate::chunk::Rows;

/// "No row": an empty slot, the end of a chain, a probe miss.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// The value range a [`DirectIndex`] accepts whatever the row count:
/// 65 536 heads, 256 KiB.
const DIRECT_SPAN_FLOOR: usize = 65_536;

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One multiply, then fold the high half down so the low bits — the
/// ones a table's mask keeps — depend on every input bit.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let x = (h ^ v).wrapping_mul(SEED);
    x ^ (x >> 32)
}

#[inline]
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    // The length keeps "a" and "a\0" apart.
    mix(mix(h, u64::from_le_bytes(tail)), bytes.len() as u64)
}

/// Fold column `keys[j]` of `data` into `out[k]` for every live row,
/// `k` being the row's ordinal in `rows`.
fn hash_into(data: &DataChunk, keys: &[usize], rows: Rows<'_>, out: &mut [u64]) {
    debug_assert_eq!(out.len(), rows.len());
    for &key in keys {
        match &data.column(key).data {
            ColumnData::Int(v) => rows.for_each(|k, i| out[k] = mix(out[k], v[i] as u64)),
            ColumnData::Date(v) => rows.for_each(|k, i| out[k] = mix(out[k], v[i] as u64)),
            ColumnData::Char(v) => rows.for_each(|k, i| out[k] = mix(out[k], v[i] as u64)),
            ColumnData::Bool(v) => rows.for_each(|k, i| out[k] = mix(out[k], v[i] as u64)),
            ColumnData::Str(v) => {
                rows.for_each(|k, i| out[k] = mix_bytes(out[k], v.bytes(i)));
            }
        }
    }
}

/// Append one hash per live row of `rows` to `out`, over the key
/// columns `keys` of `data` (in `rows` order). Equal keys hash equal
/// whichever chunk, window or selection they arrive in; rows with no
/// key columns all hash alike (the global aggregate's single group).
///
/// Public so that tests outside the crate can construct keys whose
/// hashes collide in a table's low bits.
pub fn hash_keys(data: &DataChunk, keys: &[usize], rows: Rows<'_>, out: &mut Vec<u64>) {
    let start = out.len();
    out.resize(start + rows.len(), SEED);
    hash_into(data, keys, rows, &mut out[start..]);
}

/// [`hash_keys`] for the single row `i`.
pub(crate) fn hash_row(data: &DataChunk, keys: &[usize], i: usize) -> u64 {
    let mut h = [SEED];
    hash_into(data, keys, Rows::Range(i, i + 1), &mut h);
    h[0]
}

/// Whether row `ai` of `a` and row `bi` of `b` hold the same key, key
/// column `a_keys[j]` against `b_keys[j]`.
#[inline]
pub(crate) fn keys_eq(
    a: &DataChunk,
    a_keys: &[usize],
    ai: usize,
    b: &DataChunk,
    b_keys: &[usize],
    bi: usize,
) -> bool {
    a_keys.iter().zip(b_keys).all(
        |(&ka, &kb)| match (&a.column(ka).data, &b.column(kb).data) {
            (ColumnData::Int(x), ColumnData::Int(y)) => x[ai] == y[bi],
            (ColumnData::Date(x), ColumnData::Date(y)) => x[ai] == y[bi],
            (ColumnData::Char(x), ColumnData::Char(y)) => x[ai] == y[bi],
            (ColumnData::Bool(x), ColumnData::Bool(y)) => x[ai] == y[bi],
            (ColumnData::Str(x), ColumnData::Str(y)) => x.bytes(ai) == y.bytes(bi),
            _ => false,
        },
    )
}

/// Bits a key column's values take in a packed key: the widest
/// value's — `char::MAX` is U+10FFFF, 21 bits. `Str` has no fixed
/// width.
fn packed_bits(data: &ColumnData) -> Option<u32> {
    match data {
        ColumnData::Int(_) => Some(64),
        ColumnData::Date(_) => Some(32),
        ColumnData::Char(_) => Some(21),
        ColumnData::Bool(_) => Some(1),
        ColumnData::Str(_) => None,
    }
}

/// Replace `out` with one packed key per live row of `rows` (in `rows`
/// order) over the key columns `keys` of `data`: key column `j` holds
/// the bit field above those of columns `0..j`. Returns `false`, and
/// leaves `out` alone, when the columns do not pack — a `Str` among
/// them, or more than 64 bits in all.
pub(crate) fn pack_keys(
    data: &DataChunk,
    keys: &[usize],
    rows: Rows<'_>,
    out: &mut Vec<u64>,
) -> bool {
    let bits: Option<u32> = keys
        .iter()
        .map(|&k| packed_bits(&data.column(k).data))
        .sum();
    if bits.is_none_or(|b| b > 64) {
        return false;
    }
    out.clear();
    // Every field has at least one bit and all of them fit in 64, so a
    // field's offset is at most 63, and only the first field's is 0.
    let mut at = 0;
    for &key in keys {
        let data = &data.column(key).data;
        match data {
            ColumnData::Int(v) => pack_field(out, rows, at, |i| v[i] as u64),
            ColumnData::Date(v) => pack_field(out, rows, at, |i| u64::from(v[i] as u32)),
            ColumnData::Char(v) => pack_field(out, rows, at, |i| u64::from(v[i])),
            ColumnData::Bool(v) => pack_field(out, rows, at, |i| u64::from(v[i])),
            // Has no packing: ruled out above.
            ColumnData::Str(_) => {}
        }
        at += packed_bits(data).unwrap_or_default();
    }
    true
}

/// Put each live row's field `f(row id)` at bit `at` of its packed key:
/// the first field (`at` 0) writes the keys, the others or in.
#[inline(always)]
fn pack_field(out: &mut Vec<u64>, rows: Rows<'_>, at: u32, f: impl Fn(usize) -> u64) {
    match (at, rows) {
        (0, Rows::Range(s, e)) => out.extend((s..e).map(f)),
        (0, Rows::Sel(sel)) => out.extend(sel.iter().map(|&i| f(i as usize))),
        _ => rows.for_each(|k, i| out[k] |= f(i) << at),
    }
}

/// Packed key → group id: open-addressed, linear probing, power-of-two
/// sized, at most half full. A cache in front of the aggregate's
/// [`KeyTable`], never a source of ids (see the module docs).
pub(crate) struct PackedMemo {
    keys: Vec<u64>,
    /// Per slot: the group id of `keys[slot]`, or [`NO_ROW`] (vacant).
    gids: Vec<u32>,
    len: usize,
}

impl PackedMemo {
    pub(crate) fn new() -> Self {
        Self {
            keys: vec![0; 16],
            gids: vec![NO_ROW; 16],
            len: 0,
        }
    }

    /// `Ok(gid)` of `key`, or the vacant slot where it belongs.
    #[inline]
    pub(crate) fn find(&self, key: u64) -> Result<u32, usize> {
        let mask = self.keys.len() - 1;
        let mut s = mix(SEED, key) as usize & mask;
        loop {
            let gid = self.gids[s];
            if gid == NO_ROW {
                return Err(s);
            }
            if self.keys[s] == key {
                return Ok(gid);
            }
            s = (s + 1) & mask;
        }
    }

    /// Record `key → gid` in vacant slot `s`, as [`Self::find`] just
    /// returned it.
    pub(crate) fn insert_at(&mut self, s: usize, key: u64, gid: u32) {
        (self.keys[s], self.gids[s]) = (key, gid);
        self.len += 1;
        if self.len * 2 > self.keys.len() {
            let cap = self.keys.len() * 2;
            let keys = std::mem::replace(&mut self.keys, vec![0; cap]);
            let gids = std::mem::replace(&mut self.gids, vec![NO_ROW; cap]);
            for (key, gid) in keys.into_iter().zip(gids).filter(|&(_, g)| g != NO_ROW) {
                if let Err(s) = self.find(key) {
                    (self.keys[s], self.gids[s]) = (key, gid);
                }
            }
        }
    }
}

/// Rows indexed by key: rows are numbered in insertion order from 0,
/// each distinct key owns one slot holding its first row (its *head*),
/// and rows with equal keys chain behind the head in insertion order.
pub(crate) struct KeyTable {
    /// Open-addressed, linear probing, power-of-two sized, at most half
    /// full: head row ids, or [`NO_ROW`].
    slots: Vec<u32>,
    /// Hash of every inserted row.
    hashes: Vec<u64>,
    /// Per row: the next row with an equal key, or [`NO_ROW`].
    next: Vec<u32>,
    /// Per head row: the last row of its chain.
    tail: Vec<u32>,
    /// Distinct keys (occupied slots).
    heads: usize,
}

impl KeyTable {
    /// An empty table sized for `rows` insertions without growing.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        Self {
            slots: vec![NO_ROW; (rows * 2).next_power_of_two().max(16)],
            hashes: Vec::with_capacity(rows),
            next: Vec::with_capacity(rows),
            tail: Vec::with_capacity(rows),
            heads: 0,
        }
    }

    /// Rows inserted so far (the id the next inserted row gets).
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The slot of the key with hash `h` for which `eq(head)` holds —
    /// `Ok(head)` — or the vacant slot where it belongs.
    #[inline]
    fn slot_of(&self, h: u64, eq: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut s = h as usize & mask;
        loop {
            let head = self.slots[s];
            if head == NO_ROW {
                return Err(s);
            }
            if self.hashes[head as usize] == h && eq(head) {
                return Ok(head);
            }
            s = (s + 1) & mask;
        }
    }

    /// The head row of the key with hash `h`; `eq(head)` decides
    /// whether a stored row with that hash really holds the key.
    #[inline]
    pub(crate) fn find(&self, h: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        self.slot_of(h, eq).ok()
    }

    /// Number the next row as a new head in vacant slot `s`.
    fn push_head(&mut self, s: usize, h: u64) -> u32 {
        let row = self.push_row(h);
        self.slots[s] = row;
        self.heads += 1;
        if self.heads * 2 > self.slots.len() {
            self.grow();
        }
        row
    }

    fn push_row(&mut self, h: u64) -> u32 {
        let row = u32::try_from(self.hashes.len()).expect("fewer than 2^32 rows");
        assert_ne!(row, NO_ROW, "row id collides with the sentinel");
        self.hashes.push(h);
        self.next.push(NO_ROW);
        self.tail.push(row);
        row
    }

    /// Double the slot array. Heads are distinct keys, so they re-seat
    /// by hash alone.
    fn grow(&mut self) {
        let doubled = vec![NO_ROW; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for head in old.into_iter().filter(|&r| r != NO_ROW) {
            let mut s = self.hashes[head as usize] as usize & mask;
            while self.slots[s] != NO_ROW {
                s = (s + 1) & mask;
            }
            self.slots[s] = head;
        }
    }

    /// Insert the next row — hash `h`, key equal to stored row `r`'s
    /// iff `eq(r)` — at the back of its key's chain (join build).
    pub(crate) fn insert(&mut self, h: u64, eq: impl Fn(u32) -> bool) {
        match self.slot_of(h, eq) {
            Ok(head) => {
                let row = self.push_row(h);
                let last = std::mem::replace(&mut self.tail[head as usize], row);
                self.next[last as usize] = row;
            }
            Err(s) => {
                self.push_head(s, h);
            }
        }
    }

    /// The head row of the key, inserting the next row as its head when
    /// the key is new (`true`) — rows are then exactly the distinct
    /// keys in first-seen order (group ids).
    #[inline]
    pub(crate) fn find_or_insert(&mut self, h: u64, eq: impl Fn(u32) -> bool) -> (u32, bool) {
        match self.slot_of(h, eq) {
            Ok(head) => (head, false),
            Err(s) => (self.push_head(s, h), true),
        }
    }

    /// The rows holding `head`'s key, in insertion order.
    #[inline]
    pub(crate) fn chain(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        chain(&self.next, head)
    }

    /// The hash row `r` was inserted with.
    pub(crate) fn hash_of(&self, r: u32) -> u64 {
        self.hashes[r as usize]
    }
}

/// `head` and the rows `next` links behind it; nothing for [`NO_ROW`].
#[inline]
fn chain(next: &[u32], head: u32) -> impl Iterator<Item = u32> + '_ {
    let first = (head != NO_ROW).then_some(head);
    std::iter::successors(first, |&r| {
        let n = next[r as usize];
        (n != NO_ROW).then_some(n)
    })
}

/// Rows indexed by the value of one `Int` column, by direct address:
/// rows are numbered in insertion order from 0, value `v` owns
/// `heads[v − min]` (its first row), and rows with equal values chain
/// behind it in insertion order, as in a [`KeyTable`].
pub(crate) struct DirectIndex {
    /// The smallest value.
    min: i64,
    /// Per value `min + d`: its first row, or [`NO_ROW`].
    heads: Vec<u32>,
    /// Per row: the next row with an equal value, or [`NO_ROW`].
    next: Vec<u32>,
}

impl DirectIndex {
    /// The index of `values` (row `r` holding `values[r]`) when their
    /// range, `max − min + 1`, is at most `max(8 × rows, 65 536)`;
    /// `None` for a wider range, or for no rows.
    pub(crate) fn build(values: &[i64]) -> Option<Self> {
        let (&first, rest) = values.split_first()?;
        let (min, max) = (rest.iter()).fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let span = i128::from(max) - i128::from(min) + 1;
        if span > (8 * values.len()).max(DIRECT_SPAN_FLOOR) as i128 {
            return None;
        }
        // Row ids stay below `rows`, so none is the sentinel.
        let rows = u32::try_from(values.len()).expect("fewer than 2^32 rows");
        let mut heads = vec![NO_ROW; span as usize];
        let mut next = vec![NO_ROW; values.len()];
        // Backwards, so that each chain lists its rows in order.
        for (r, &v) in (0..rows).zip(values).rev() {
            let d = v.wrapping_sub(min) as usize;
            next[r as usize] = std::mem::replace(&mut heads[d], r);
        }
        Some(Self { min, heads, next })
    }

    /// The first row holding `v`, or [`NO_ROW`].
    #[inline]
    pub(crate) fn head(&self, v: i64) -> u32 {
        // Below `min` wraps past every head.
        let d = v.wrapping_sub(self.min) as u64;
        if d < self.heads.len() as u64 {
            self.heads[d as usize]
        } else {
            NO_ROW
        }
    }

    /// The rows holding `head`'s value, in insertion order; nothing for
    /// [`NO_ROW`].
    #[inline]
    pub(crate) fn chain(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        chain(&self.next, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_storage::{ColumnType as T, Schema, Tuple, Value};

    fn chunk(schema: &Schema, rows: &[Tuple]) -> DataChunk {
        DataChunk::from_rows(schema, rows)
    }

    /// Index every row of `data` by `keys`, the way the join does.
    fn index(data: &DataChunk, keys: &[usize]) -> KeyTable {
        let mut hashes = Vec::new();
        hash_keys(data, keys, Rows::Range(0, data.len()), &mut hashes);
        let mut table = KeyTable::with_capacity(0);
        for (r, &h) in hashes.iter().enumerate() {
            table.insert(h, |head| keys_eq(data, keys, head as usize, data, keys, r));
        }
        table
    }

    #[test]
    fn hashes_do_not_depend_on_window_or_selection() {
        let schema = Schema::new(&[("k", T::Int), ("s", T::Str), ("c", T::Char)]);
        let rows: Vec<Tuple> = (0..40)
            .map(|i| {
                vec![
                    Value::Int(i % 7),
                    Value::str(format!("payload-{}", i % 5)),
                    Value::Char(char::from(b'a' + (i % 7) as u8)),
                ]
            })
            .collect();
        let data = chunk(&schema, &rows);
        let keys = [1, 0, 2];
        let mut dense = Vec::new();
        hash_keys(&data, &keys, Rows::Range(0, 40), &mut dense);
        let sel: Vec<u32> = vec![3, 4, 17, 39];
        let mut picked = Vec::new();
        hash_keys(&data, &keys, Rows::Sel(&sel), &mut picked);
        for (k, &i) in sel.iter().enumerate() {
            assert_eq!(picked[k], dense[i as usize]);
            assert_eq!(hash_row(&data, &keys, i as usize), dense[i as usize]);
        }
        // Appending: a second call leaves the first call's hashes alone.
        hash_keys(&data, &keys, Rows::Range(0, 2), &mut picked);
        assert_eq!(picked.len(), 6);
        assert_eq!(picked[4..], dense[..2]);
        // Equal keys hash equal, and a 35-row period means rows 0 and
        // 35 carry the same key.
        assert_eq!(dense[0], dense[35]);
        assert_ne!(dense[0], dense[1]);
    }

    #[test]
    fn strings_hash_and_compare_by_content() {
        let schema = Schema::new(&[("s", T::Str)]);
        let data = chunk(
            &schema,
            &[
                vec![Value::str("")],
                vec![Value::str("a")],
                vec![Value::str("a\0")],
                vec![Value::str("exactly8")],
                vec![Value::str("exactly8+")],
                vec![Value::str(String::from("a"))],
            ],
        );
        let mut h = Vec::new();
        hash_keys(&data, &[0], Rows::Range(0, 6), &mut h);
        assert_eq!(h[1], h[5], "distinct allocations, same content");
        assert!(keys_eq(&data, &[0], 1, &data, &[0], 5));
        for (a, b) in [(0, 1), (1, 2), (3, 4)] {
            assert_ne!(h[a], h[b], "rows {a} and {b}");
            assert!(!keys_eq(&data, &[0], a, &data, &[0], b));
        }
    }

    /// The defensive half of `Value`'s equality: `Int(1) ≠ Date(1)`,
    /// `Char('1') ≠ Str("1")` — key columns of different types never
    /// match, even where the payload bits (and so the hashes) agree.
    #[test]
    fn key_columns_of_different_types_never_match() {
        let a = chunk(
            &Schema::new(&[("i", T::Int), ("c", T::Char), ("b", T::Bool)]),
            &[vec![Value::Int(1), Value::Char('1'), Value::Bool(true)]],
        );
        let b = chunk(
            &Schema::new(&[("d", T::Date), ("s", T::Str), ("i", T::Int)]),
            &[vec![Value::Date(1), Value::str("1"), Value::Int(1)]],
        );
        assert_eq!(hash_row(&a, &[0], 0), hash_row(&b, &[0], 0));
        for k in 0..3 {
            assert!(keys_eq(&a, &[k], 0, &a, &[k], 0));
            assert!(!keys_eq(&a, &[k], 0, &b, &[k], 0), "key column {k}");
        }
        // One mismatched column sinks a composite key.
        assert!(!keys_eq(&a, &[0, 1], 0, &b, &[2, 1], 0));
        assert!(keys_eq(&a, &[0], 0, &b, &[2], 0));
    }

    #[test]
    fn chains_are_fifo_and_survive_growth() {
        let schema = Schema::new(&[("k", T::Int), ("seq", T::Int)]);
        // 300 keys × 3 rows, interleaved, through a table that starts
        // at 16 slots and has to grow several times.
        let rows: Vec<Tuple> = (0..900)
            .map(|i| vec![Value::Int(i % 300), Value::Int(i)])
            .collect();
        let data = chunk(&schema, &rows);
        let table = index(&data, &[0]);
        assert_eq!(table.len(), 900);
        for key in 0..300u32 {
            let h = hash_row(&data, &[0], key as usize);
            let head = table
                .find(h, |r| {
                    keys_eq(&data, &[0], r as usize, &data, &[0], key as usize)
                })
                .expect("every key is present");
            assert_eq!(head, key, "the head is the key's first row");
            assert_eq!(table.hash_of(head), h);
            let chain: Vec<u32> = table.chain(head).collect();
            assert_eq!(chain, vec![key, key + 300, key + 600]);
        }
        let probe = chunk(&schema, &[vec![Value::Int(300), Value::Int(0)]]);
        let h = hash_row(&probe, &[0], 0);
        assert!(table
            .find(h, |r| keys_eq(&data, &[0], r as usize, &probe, &[0], 0))
            .is_none());
    }

    /// Keys forced into one probe sequence (equal low hash bits) stay
    /// distinct keys: lookups compare keys, not just hashes or slots.
    #[test]
    fn colliding_keys_stay_distinct() {
        let schema = Schema::new(&[("k", T::Int)]);
        let mut colliding = Vec::new();
        let mut v = 0i64;
        while colliding.len() < 6 {
            let c = chunk(&schema, &[vec![Value::Int(v)]]);
            if hash_row(&c, &[0], 0) & 15 == 3 {
                colliding.push(v);
            }
            v += 1;
        }
        // Insert each key twice so chains form inside the cluster.
        let rows: Vec<Tuple> = colliding
            .iter()
            .chain(&colliding)
            .map(|&k| vec![Value::Int(k)])
            .collect();
        let data = chunk(&schema, &rows);
        let table = index(&data, &[0]);
        for (j, _) in colliding.iter().enumerate() {
            let h = hash_row(&data, &[0], j);
            let head = table
                .find(h, |r| keys_eq(&data, &[0], r as usize, &data, &[0], j))
                .expect("present");
            let chain: Vec<u32> = table.chain(head).collect();
            assert_eq!(chain, vec![j as u32, (j + 6) as u32]);
        }
    }

    #[test]
    fn find_or_insert_numbers_distinct_keys_in_first_seen_order() {
        let schema = Schema::new(&[("g", T::Str)]);
        let rows: Vec<Tuple> = ["b", "a", "b", "c", "a", "b"]
            .iter()
            .map(|s| vec![Value::str(s)])
            .collect();
        let data = chunk(&schema, &rows);
        // The aggregate's shape: first-seen keys live in their own chunk.
        let mut seen = DataChunk::with_capacity(&schema, 0);
        let mut table = KeyTable::with_capacity(0);
        let mut gids = Vec::new();
        for i in 0..data.len() {
            let h = hash_row(&data, &[0], i);
            let (gid, new) =
                table.find_or_insert(h, |g| keys_eq(&seen, &[0], g as usize, &data, &[0], i));
            if new {
                seen.append_rows(&data, &[0], std::iter::once(i));
            }
            gids.push(gid);
        }
        assert_eq!(gids, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(table.len(), 3);
        assert_eq!(seen.row(2), vec![Value::str("c")]);
    }

    /// Which key-type lists pack: fixed widths summing to at most 64.
    #[test]
    fn keys_pack_up_to_64_bits() {
        use T::{Bool, Char, Date, Int, Str};
        let schema = Schema::new(&[
            ("i", Int),
            ("d", Date),
            ("c", Char),
            ("b", Bool),
            ("s", Str),
        ]);
        let row = vec![
            Value::Int(-1),
            Value::Date(-1),
            Value::Char(char::MAX),
            Value::Bool(true),
            Value::str("s"),
        ];
        let data = chunk(&schema, &[row]);
        let (i, d, c, b, s) = (0, 1, 2, 3, 4);
        let packs = |keys: &[usize]| pack_keys(&data, keys, Rows::Range(0, 1), &mut Vec::new());
        // 64, 64, 63, 64 and 54 bits.
        for keys in [&[i][..], &[d, d], &[c, c, c], &[c, c, c, b], &[b, c, d]] {
            assert!(packs(keys), "{keys:?}");
        }
        // 65 bits, or a string.
        for keys in [
            &[i, b][..],
            &[b, i],
            &[d, d, b],
            &[c, c, c, b, b],
            &[s],
            &[b, s],
        ] {
            assert!(!packs(keys), "{keys:?}");
        }
        // Each column in its own field, a negative `Date` as 32 bits.
        let mut out = vec![7];
        assert!(pack_keys(&data, &[b, d, c], Rows::Range(0, 1), &mut out));
        assert_eq!(out, vec![1 | 0xFFFF_FFFF << 1 | 0x10_FFFF << 33]);
        assert!(pack_keys(&data, &[i], Rows::Range(0, 1), &mut out));
        assert_eq!(out, vec![u64::MAX]);
    }

    #[test]
    fn the_memo_finds_what_it_recorded_across_growth() {
        let mut memo = PackedMemo::new();
        // Keys differing only in their top or bottom bits, 0 included.
        let key = |g: u64| (g << 40) ^ g.rotate_right(1);
        for g in 0..1000u32 {
            let s = memo.find(key(g.into())).expect_err("not recorded yet");
            memo.insert_at(s, key(g.into()), g);
        }
        assert_eq!(memo.keys.len(), 2048, "grown from 16, half full at most");
        for g in 0..1000u32 {
            assert_eq!(memo.find(key(g.into())), Ok(g));
        }
        assert!(memo.find(key(1000)).is_err());
    }

    #[test]
    fn no_key_columns_is_one_key() {
        let schema = Schema::new(&[("v", T::Int)]);
        let data = chunk(&schema, &[vec![Value::Int(1)], vec![Value::Int(2)]]);
        let mut h = Vec::new();
        hash_keys(&data, &[], Rows::Range(0, 2), &mut h);
        assert_eq!(h[0], h[1]);
        assert!(keys_eq(&data, &[], 0, &data, &[], 1));
    }
}
