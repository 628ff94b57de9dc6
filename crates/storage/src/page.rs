//! Slotted pages: the on-"disk" representation of tuples.
//!
//! Classic layout: a header (slot count), a slot directory growing from
//! the front, and tuple payloads packed from the back. Values use a
//! compact tagged serialization. Pages are fixed at 8 KB — a tuple that
//! cannot fit an empty page (`tuple_fits_page`) is rejected before it
//! is logged or applied (TPC-H's widest rows are far below that).
//!
//! A page image is a pure function of the payload sequence inserted
//! into a fresh page, which is what lets the write path repack raw
//! slot payloads ([`Page::payload`] → `Page::insert_raw`) and land on
//! exactly the bytes a bulk load of the decoded tuples would produce.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::{ColumnChunk, ColumnData};
use crate::value::{Tuple, Value};

/// Page size in bytes.
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 4; // u16 slot_count + u16 free_end
const SLOT: usize = 4; // u16 offset + u16 len

/// Independent lanes of [`Page::checksum`].
const CHECKSUM_LANES: usize = 4;

/// Widest serialized tuple the write path admits: what an empty page
/// can take, less a tagged row id — so that `[key, row_id]`, the B-tree
/// entry of any one of the tuple's columns, fits an empty page too.
const MAX_TUPLE_PAYLOAD: usize = PAGE_SIZE - HEADER - SLOT - (1 + 8);

/// A fixed-size slotted page of serialized tuples. The image is shared:
/// a clone (a buffer-pool frame, a table snapshot) costs a reference
/// count, and a write copies the image only while a clone still reads
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    buf: Arc<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        let mut buf = [0u8; PAGE_SIZE];
        buf[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Self { buf: Arc::new(buf) }
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.buf[0], self.buf[1]])
    }
    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.buf[2], self.buf[3]])
    }

    /// Number of tuples stored.
    pub fn len(&self) -> usize {
        self.slot_count() as usize
    }

    /// True when the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of free space remaining.
    pub(crate) fn free_space(&self) -> usize {
        let used_front = HEADER + self.len() * SLOT;
        (self.free_end() as usize).saturating_sub(used_front)
    }

    /// Try to append a tuple; returns `false` when it does not fit.
    pub fn insert(&mut self, tuple: &Tuple) -> bool {
        self.insert_raw(&serialize_tuple(tuple))
    }

    /// Try to append an already-serialized tuple (a [`Self::payload`]
    /// of another page, or [`serialize_tuple`] output); returns `false`
    /// when it does not fit.
    pub(crate) fn insert_raw(&mut self, payload: &[u8]) -> bool {
        if payload.len() + SLOT > self.free_space() {
            return false;
        }
        let end = self.free_end() as usize;
        let start = end - payload.len();
        let slot = self.slot_count() as usize;
        let off = HEADER + slot * SLOT;
        let buf = Arc::make_mut(&mut self.buf);
        buf[start..end].copy_from_slice(payload);
        buf[off..off + 2].copy_from_slice(&(start as u16).to_le_bytes());
        buf[off + 2..off + 4].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        buf[0..2].copy_from_slice(&((slot + 1) as u16).to_le_bytes());
        buf[2..4].copy_from_slice(&(start as u16).to_le_bytes());
        true
    }

    /// Read the tuple in a slot. Panics on an out-of-range slot.
    pub fn get(&self, slot: usize) -> Tuple {
        deserialize_tuple(self.payload(slot))
    }

    /// The serialized bytes of the tuple in a slot. Panics on an
    /// out-of-range slot.
    pub fn payload(&self, slot: usize) -> &[u8] {
        assert!(slot < self.len(), "slot {slot} out of range {}", self.len());
        let off = HEADER + slot * SLOT;
        let start = u16::from_le_bytes([self.buf[off], self.buf[off + 1]]) as usize;
        let len = u16::from_le_bytes([self.buf[off + 2], self.buf[off + 3]]) as usize;
        &self.buf[start..start + len]
    }

    /// The raw page image.
    pub fn image(&self) -> &[u8] {
        &self.buf[..]
    }

    /// Decode every tuple on the page.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Bytes occupied (header + slots + payloads); the I/O cost of
    /// reading this page is nevertheless always the full `PAGE_SIZE`.
    pub(crate) fn used_bytes(&self) -> usize {
        HEADER + self.len() * SLOT + (PAGE_SIZE - self.free_end() as usize)
    }

    /// 64-bit checksum over the full raw page image. Computed when a
    /// page is written and verified on every checked buffer-pool miss,
    /// so a corrupted page is detected before anything is read from it.
    ///
    /// The image is consumed as little-endian 64-bit words dealt round
    /// robin onto four independent multiply-xor-rotate lanes (the
    /// multiplies of different lanes overlap, which is what makes this
    /// several times faster than a byte-serial hash), folded in lane
    /// order and avalanched. Every step is a bijection of the lane
    /// state for a fixed word and of the word for a fixed state, so
    /// changing any one word — any single bit or byte flip — is
    /// guaranteed to change the checksum; the rotate carries a word's
    /// high bits down where the next multiply spreads them, so moving a
    /// word within a lane or across lanes changes it too (up to 64-bit
    /// chance). Checksums live only in memory beside the pages they
    /// cover; the WAL has its own record checksum.
    pub fn checksum(&self) -> u64 {
        const WORD: usize = std::mem::size_of::<u64>();
        const _: () = assert!(
            PAGE_SIZE.is_multiple_of(CHECKSUM_LANES * WORD),
            "no tail to hash"
        );
        const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
        let (words, _) = self.buf.as_chunks::<WORD>();
        let mut lanes = [0x243f_6a88_85a3_08d3u64; CHECKSUM_LANES];
        for block in words.chunks_exact(CHECKSUM_LANES) {
            for (lane, word) in lanes.iter_mut().zip(block) {
                *lane = (*lane ^ u64::from_le_bytes(*word))
                    .wrapping_mul(MUL)
                    .rotate_left(29);
            }
        }
        let mut h = PAGE_SIZE as u64;
        for lane in lanes {
            h = (h ^ lane).wrapping_mul(MUL).rotate_left(29);
        }
        h ^= h >> 32;
        h = h.wrapping_mul(MUL);
        h ^ (h >> 29)
    }

    /// Corrupt one byte of the raw page image (a fault-injection /
    /// test hook: the next checksum verification must detect it).
    pub(crate) fn flip_byte(&mut self, offset: usize) {
        Arc::make_mut(&mut self.buf)[offset % PAGE_SIZE] ^= 0xFF;
    }
}

// --- value serialization --------------------------------------------------

const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_CHAR: u8 = 4;
const TAG_BOOL: u8 = 5;

fn serialize_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => put_int(out, *i),
        Value::Str(s) => put_str(out, s),
        Value::Date(d) => put_date(out, *d),
        Value::Char(c) => put_char(out, *c),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
    }
}

// The serialized form of one value of each type, appended to `out` —
// what `serialize_value` writes, and all a loader that has no `Value`
// needs to write the same bytes.

pub(crate) fn put_int(out: &mut Vec<u8>, i: i64) {
    out.push(TAG_INT);
    out.extend_from_slice(&i.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.push(TAG_STR);
    let b = s.as_bytes();
    assert!(b.len() <= u16::MAX as usize, "string too long for page");
    out.extend_from_slice(&(b.len() as u16).to_le_bytes());
    out.extend_from_slice(b);
}

pub(crate) fn put_date(out: &mut Vec<u8>, d: i32) {
    out.push(TAG_DATE);
    out.extend_from_slice(&d.to_le_bytes());
}

pub(crate) fn put_char(out: &mut Vec<u8>, c: char) {
    out.push(TAG_CHAR);
    let mut b = [0u8; 4];
    let s = c.encode_utf8(&mut b);
    out.push(s.len() as u8);
    out.extend_from_slice(s.as_bytes());
}

/// Serialize a tuple to bytes (u16 arity + tagged values).
pub fn serialize_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + t.len() * 10);
    serialize_tuple_into(t, &mut out);
    out
}

/// [`serialize_tuple`] into `out` (cleared first), so a bulk load
/// reuses one buffer for all its rows.
pub(crate) fn serialize_tuple_into(t: &Tuple, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(t.len() as u16).to_le_bytes());
    for v in t {
        serialize_value(v, out);
    }
}

/// [`serialize_tuple`] of the two-value tuple `[a, b]` into `out`
/// (cleared first) — lets the B-tree emit its `[key, row_id]` entries
/// without building a tuple or allocating per entry.
pub(crate) fn serialize_pair(a: &Value, b: &Value, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&2u16.to_le_bytes());
    serialize_value(a, out);
    serialize_value(b, out);
}

/// Whether `t`, serialized, fits an empty page (with room to spare for
/// indexing any of its columns). Computed from the value widths without
/// serializing, so an over-long string is rejected here rather than
/// tripping [`serialize_tuple`]'s length assertion.
pub(crate) fn tuple_fits_page(t: &Tuple) -> bool {
    let len: usize = t
        .iter()
        .map(|v| match v {
            Value::Int(_) => 1 + 8,
            Value::Str(s) => 1 + 2 + s.len(),
            Value::Date(_) => 1 + 4,
            Value::Char(c) => 1 + 1 + c.len_utf8(),
            Value::Bool(_) => 1 + 1,
        })
        .sum();
    2 + len <= MAX_TUPLE_PAYLOAD
}

/// One serialized value read in place: scalars by value, a string as
/// the bytes it occupies in the slot payload (nothing is allocated, and
/// UTF-8 is checked only when a [`Value`] is made of it — `str`
/// ordering is byte ordering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ValueRef<'a> {
    Int(i64),
    Str(&'a [u8]),
    Date(i32),
    Char(char),
    Bool(bool),
}

impl ValueRef<'_> {
    /// [`Value::partial_cmp_typed`] against an owned value: a total
    /// order within a type, `None` across types.
    #[inline]
    pub(crate) fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (ValueRef::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (ValueRef::Str(a), Value::Str(b)) => Some((*a).cmp(b.as_bytes())),
            (ValueRef::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (ValueRef::Char(a), Value::Char(b)) => Some(a.cmp(b)),
            (ValueRef::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// The owned value; `None` for a string that is not UTF-8.
    fn to_value(self) -> Option<Value> {
        Some(match self {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Str(s) => Value::str(std::str::from_utf8(s).ok()?),
            ValueRef::Date(d) => Value::Date(d),
            ValueRef::Char(c) => Value::Char(c),
            ValueRef::Bool(b) => Value::Bool(b),
        })
    }
}

/// Split `n` bytes off the front of `buf`; `None` when it is shorter.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n)?;
    *buf = rest;
    Some(head)
}

fn take_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    take(buf, N)?.try_into().ok()
}

/// Read one tagged value off the front of `buf`. Never panics and never
/// reads past `buf`: a truncated value, an unknown tag or a malformed
/// char all read as `None`. Inlined into its callers so the cursor and
/// the value stay in registers — it runs once per B-tree search step.
#[inline]
fn read_value<'a>(buf: &mut &'a [u8]) -> Option<ValueRef<'a>> {
    let [tag] = take_array(buf)?;
    Some(match tag {
        TAG_INT => ValueRef::Int(i64::from_le_bytes(take_array(buf)?)),
        TAG_STR => {
            let len = u16::from_le_bytes(take_array(buf)?) as usize;
            ValueRef::Str(take(buf, len)?)
        }
        TAG_DATE => ValueRef::Date(i32::from_le_bytes(take_array(buf)?)),
        TAG_CHAR => {
            let [len] = take_array(buf)?;
            let s = std::str::from_utf8(take(buf, len as usize)?).ok()?;
            ValueRef::Char(s.chars().next()?)
        }
        TAG_BOOL => {
            let [b] = take_array(buf)?;
            ValueRef::Bool(b != 0)
        }
        _ => return None,
    })
}

/// The first value of a serialized tuple, read in place — the key of a
/// B-tree node entry. `None` on an empty or malformed payload.
#[inline]
pub(crate) fn read_key(mut payload: &[u8]) -> Option<ValueRef<'_>> {
    let arity = u16::from_le_bytes(take_array(&mut payload)?);
    if arity == 0 {
        return None;
    }
    read_value(&mut payload)
}

/// A B-tree node entry `[key, n]` ([`serialize_pair`] output) read in
/// place: the key and the integer beside it (a row id on a leaf, a
/// child page above). `None` on anything else — a short slot, an
/// unknown tag, a non-`Int` second value.
#[inline]
pub(crate) fn read_pair(mut payload: &[u8]) -> Option<(ValueRef<'_>, i64)> {
    if u16::from_le_bytes(take_array(&mut payload)?) != 2 {
        return None;
    }
    let key = read_value(&mut payload)?;
    let [tag, n @ ..] = take_array::<9>(&mut payload)?;
    (tag == TAG_INT).then(|| (key, i64::from_le_bytes(n)))
}

/// Deserialize a tuple from bytes produced by [`serialize_tuple`];
/// `None` when `buf` is not such bytes.
fn try_deserialize_tuple(mut buf: &[u8]) -> Option<Tuple> {
    let arity = u16::from_le_bytes(take_array(&mut buf)?) as usize;
    // Every value takes at least two bytes: bounds the allocation.
    let mut out = Vec::with_capacity(arity.min(buf.len() / 2));
    for _ in 0..arity {
        out.push(read_value(&mut buf)?.to_value()?);
    }
    Some(out)
}

/// Decode values `wanted` (ascending and distinct, one per entry of
/// `columns`) of the `arity`-value tuple serialized in `buf` straight
/// onto the ends of `columns` — one typed push per wanted value, a
/// string's bytes copied into its column's arena; no [`Tuple`] or
/// [`Value`] is built. The values in between are stepped over where
/// they lie (`read_value` allocates nothing) and nothing past the last
/// wanted one is read, so a projection costs what it keeps; `0..arity`
/// decodes the whole tuple. `None` when `buf` is not a serialized tuple
/// of that arity with these column types at `wanted` (the columns may
/// then be left ragged: the caller has a corrupt page and panics).
/// Never panics itself, whatever `buf` holds.
pub fn try_append_to_columns(
    mut buf: &[u8],
    arity: usize,
    wanted: impl IntoIterator<Item = usize>,
    columns: &mut [ColumnChunk],
) -> Option<()> {
    if u16::from_le_bytes(take_array(&mut buf)?) as usize != arity {
        return None;
    }
    // Position in the tuple of the value at the front of `buf`.
    let mut at = 0;
    for (col, want) in columns.iter_mut().zip(wanted) {
        while at < want {
            read_value(&mut buf)?;
            at += 1;
        }
        at += 1;
        match (&mut col.data, read_value(&mut buf)?) {
            (ColumnData::Int(c), ValueRef::Int(x)) => c.push(x),
            (ColumnData::Str(c), ValueRef::Str(s)) => c.push(std::str::from_utf8(s).ok()?),
            (ColumnData::Date(c), ValueRef::Date(x)) => c.push(x),
            (ColumnData::Char(c), ValueRef::Char(x)) => c.push(x),
            (ColumnData::Bool(c), ValueRef::Bool(x)) => c.push(x),
            _ => return None,
        }
        if let Some(mask) = &mut col.validity {
            mask.push(true);
        }
    }
    Some(())
}

/// The stored width ([`crate::value::tuple_width`]) of the tuple
/// serialized in `buf`, read without decoding it. Every value is
/// serialized as a tag byte plus its stored bytes, except a char, whose
/// one stored byte becomes a length byte plus its UTF-8 bytes; so the
/// width is the payload's length less one tag per value and less the
/// UTF-8 bytes of every char. Values `0..walk` are stepped over to find
/// those chars: `walk` is one past the schema's last char column, 0
/// when it has none. `None` on a malformed payload.
pub(crate) fn stored_width(mut buf: &[u8], walk: usize) -> Option<u32> {
    let total = buf.len();
    let arity = u16::from_le_bytes(take_array(&mut buf)?) as usize;
    let mut char_bytes = 0;
    for _ in 0..walk.min(arity) {
        if let ValueRef::Char(c) = read_value(&mut buf)? {
            char_bytes += c.len_utf8();
        }
    }
    u32::try_from(total.checked_sub(arity + char_bytes)?).ok()
}

/// Deserialize a tuple from bytes produced by [`serialize_tuple`].
/// Panics on anything else (page images are checksummed before they
/// are decoded).
pub fn deserialize_tuple(buf: &[u8]) -> Tuple {
    match try_deserialize_tuple(buf) {
        Some(t) => t,
        None => panic!("corrupt page: malformed tuple payload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        vec![
            Value::Int(-42),
            Value::str("hello world"),
            Value::Date(1234),
            Value::Char('Z'),
        ]
    }

    #[test]
    fn tuple_roundtrip() {
        let t = sample();
        assert_eq!(deserialize_tuple(&serialize_tuple(&t)), t);
    }

    #[test]
    fn unicode_roundtrip() {
        let t: Tuple = vec![Value::str("naïve — 日本"), Value::Char('é')];
        assert_eq!(deserialize_tuple(&serialize_tuple(&t)), t);
    }

    #[test]
    fn stored_width_reads_the_tuple_width_off_the_payload() {
        use crate::value::tuple_width;
        let rows: [Tuple; 3] = [
            sample(),
            vec![Value::Char('é'), Value::str("日本"), Value::Char('Z')],
            vec![Value::Bool(true), Value::Int(1), Value::Char('日')],
        ];
        for (t, walk) in rows.iter().zip([4, 3, 3]) {
            let width = stored_width(&serialize_tuple(t), walk);
            assert_eq!(width, Some(tuple_width(t) as u32), "{t:?}");
        }
        // No char column: nothing is walked.
        let t: Tuple = vec![Value::Int(7), Value::str("abc"), Value::Date(3)];
        assert_eq!(
            stored_width(&serialize_tuple(&t), 0),
            Some(tuple_width(&t) as u32)
        );
        assert_eq!(stored_width(&[1], 0), None, "a short payload");
    }

    #[test]
    fn page_insert_and_get() {
        let mut p = Page::new();
        assert!(p.is_empty());
        for i in 0..10 {
            let mut t = sample();
            t[0] = Value::Int(i);
            assert!(p.insert(&t));
        }
        assert_eq!(p.len(), 10);
        for i in 0..10 {
            assert_eq!(p.get(i)[0], Value::Int(i as i64));
        }
        assert_eq!(p.all_tuples().len(), 10);
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let mut p = Page::new();
        let t = sample();
        let mut n = 0;
        while p.insert(&t) {
            n += 1;
            assert!(n < 10_000, "page never filled");
        }
        // A reasonable number of ~40-byte tuples fit an 8 KB page.
        assert!(n > 100, "only {n} tuples fit");
        assert!(!p.insert(&t));
        // Everything already stored is still readable.
        assert_eq!(p.len(), n);
        assert_eq!(p.get(n - 1), t);
    }

    #[test]
    fn raw_repack_reproduces_the_page_image() {
        let mut p = Page::new();
        for i in 0..10 {
            let mut t = sample();
            t[0] = Value::Int(i);
            assert!(p.insert(&t));
        }
        let mut q = Page::new();
        for slot in 0..p.len() {
            assert!(q.insert_raw(p.payload(slot)));
        }
        assert_eq!(q.image(), p.image());
        assert_eq!(q.checksum(), p.checksum());
    }

    #[test]
    fn admitted_tuples_and_their_index_entries_fit_an_empty_page() {
        // Widest admitted string: arity + tag + len prefix + bytes.
        let widest = MAX_TUPLE_PAYLOAD - 2 - 3;
        for (len, fits) in [
            (10, true),
            (widest, true),
            (widest + 1, false),
            (70_000, false),
        ] {
            let t: Tuple = vec![Value::str("x".repeat(len))];
            assert_eq!(tuple_fits_page(&t), fits, "len {len}");
            if fits {
                assert!(Page::new().insert(&t), "len {len}");
                let mut entry = Vec::new();
                serialize_pair(&t[0], &Value::Int(i64::MAX), &mut entry);
                assert!(Page::new().insert_raw(&entry), "index entry, len {len}");
            }
        }
        assert!(tuple_fits_page(&sample()));
    }

    #[test]
    fn free_space_decreases_monotonically() {
        let mut p = Page::new();
        let mut prev = p.free_space();
        for _ in 0..20 {
            p.insert(&sample());
            let now = p.free_space();
            assert!(now < prev);
            prev = now;
        }
        assert!(p.used_bytes() + p.free_space() <= PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        Page::new().get(0);
    }

    #[test]
    fn checksum_detects_any_flipped_byte() {
        let mut p = Page::new();
        for i in 0..10 {
            let mut t = sample();
            t[0] = Value::Int(i);
            assert!(p.insert(&t));
        }
        let clean = p.checksum();
        for offset in [0usize, 3, 17, PAGE_SIZE / 2, PAGE_SIZE - 1] {
            p.flip_byte(offset);
            assert_ne!(p.checksum(), clean, "flip at {offset} went undetected");
            p.flip_byte(offset); // restore
            assert_eq!(p.checksum(), clean);
        }
    }

    /// Ten rows plus free space: every region of the layout (header,
    /// slot directory, zeroed gap, payloads) is populated as in a real
    /// page.
    fn populated() -> Page {
        let mut p = Page::new();
        for i in 0..10 {
            let mut t = sample();
            t[0] = Value::Int(i);
            assert!(p.insert(&t));
        }
        p
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        // Exhaustive over all 65 536 bit positions: a kernel that
        // skipped a lane, a word or the end of the image would let some
        // of them through.
        let mut p = populated();
        let clean = p.checksum();
        for bit in 0..PAGE_SIZE * 8 {
            let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
            Arc::make_mut(&mut p.buf)[byte] ^= mask;
            assert_ne!(p.checksum(), clean, "flipped bit {bit} went undetected");
            Arc::make_mut(&mut p.buf)[byte] ^= mask;
        }
        assert_eq!(p.checksum(), clean);
    }

    #[test]
    fn checksum_detects_swapped_words() {
        let p = populated();
        let clean = p.checksum();
        let word = |p: &Page, w: usize| -> [u8; 8] {
            let mut out = [0u8; 8];
            out.copy_from_slice(&p.buf[w * 8..w * 8 + 8]);
            out
        };
        let words = PAGE_SIZE / 8;
        let mut swapped = 0;
        // Neighbouring words sit on different lanes; words a lane count
        // apart sit on the same one.
        for distance in [1, 2, 3, CHECKSUM_LANES, 2 * CHECKSUM_LANES, words / 2] {
            for a in 0..words - distance {
                let b = a + distance;
                let (wa, wb) = (word(&p, a), word(&p, b));
                if wa == wb {
                    continue;
                }
                let mut q = p.clone();
                let buf = Arc::make_mut(&mut q.buf);
                buf[a * 8..a * 8 + 8].copy_from_slice(&wb);
                buf[b * 8..b * 8 + 8].copy_from_slice(&wa);
                assert_ne!(q.checksum(), clean, "swap of words {a} and {b}");
                swapped += 1;
            }
        }
        assert!(swapped > 100, "only {swapped} distinct pairs tried");
    }

    /// One value of every type, as a key beside a row id and as a
    /// five-column tuple.
    fn every_type() -> Tuple {
        vec![
            Value::Int(-7),
            Value::str("naïve key"),
            Value::Date(9131),
            Value::Char('é'),
            Value::Bool(true),
        ]
    }

    #[test]
    fn in_place_reads_agree_with_the_decoder() {
        let values = every_type();
        let mut entry = Vec::new();
        for key in &values {
            serialize_pair(key, &Value::Int(42), &mut entry);
            let (k, n) = read_pair(&entry).expect("well-formed entry");
            assert_eq!(n, 42);
            assert_eq!(read_key(&entry), Some(k));
            assert_eq!(k.to_value().as_ref(), Some(key));
            // Ordering is `Value::partial_cmp_typed`'s, type for type.
            for other in values.iter().chain(&[
                Value::Int(3),
                Value::str("naïve"),
                Value::str("zebra"),
                Value::Date(-1),
                Value::Char('a'),
                Value::Bool(false),
            ]) {
                assert_eq!(
                    k.partial_cmp_value(other),
                    key.partial_cmp_typed(other),
                    "{key:?} vs {other:?}"
                );
            }
        }
        // The key of a wider tuple is its first value.
        assert_eq!(read_key(&serialize_tuple(&values)), Some(ValueRef::Int(-7)));
    }

    #[test]
    fn malformed_payloads_read_as_none_and_never_panic() {
        // Named cases first: short slot, unknown tag, non-Int row id,
        // wrong arity.
        let mut entry = Vec::new();
        serialize_pair(&Value::Int(5), &Value::Int(9), &mut entry);
        assert_eq!(read_pair(&entry), Some((ValueRef::Int(5), 9)));
        assert_eq!(read_pair(&entry[..entry.len() - 1]), None, "short slot");
        assert_eq!(read_pair(&[]), None);
        assert_eq!(read_key(&[]), None);
        assert_eq!(read_key(&0u16.to_le_bytes()), None, "no first value");
        let mut bad_tag = entry.clone();
        bad_tag[2] = 0xEE;
        assert_eq!((read_key(&bad_tag), read_pair(&bad_tag)), (None, None));
        serialize_pair(&Value::Int(5), &Value::Date(9), &mut entry);
        assert_eq!(read_pair(&entry), None, "row id must be an Int");
        assert_eq!(read_pair(&serialize_tuple(&every_type())), None, "arity");
        let overlong = [&2u16.to_le_bytes()[..], &[TAG_STR, 0xFF, 0xFF, b'x']].concat();
        assert_eq!(read_key(&overlong), None, "string longer than the slot");
        assert_eq!(
            try_deserialize_tuple(&[0xFF, 0xFF]),
            None,
            "arity past the end"
        );

        // Then every truncation and every single-byte garbling of every
        // kind of payload: whatever comes back, nothing panics or reads
        // out of bounds, and a tuple that does decode re-serializes.
        let mut payloads = vec![serialize_tuple(&every_type()), serialize_tuple(&sample())];
        for key in every_type() {
            serialize_pair(&key, &Value::Int(i64::MIN), &mut entry);
            payloads.push(entry.clone());
        }
        for good in &payloads {
            for len in 0..good.len() {
                let cut = &good[..len];
                let _ = (read_key(cut), read_pair(cut));
                assert_eq!(try_deserialize_tuple(cut), None, "truncated to {len}");
            }
            let mut garbled = good.clone();
            for at in 0..good.len() {
                for byte in 0..=u8::MAX {
                    garbled[at] = byte;
                    let _ = (read_key(&garbled), read_pair(&garbled));
                    if let Some(t) = try_deserialize_tuple(&garbled) {
                        assert_eq!(try_deserialize_tuple(&serialize_tuple(&t)), Some(t));
                    }
                }
                garbled[at] = good[at];
            }
        }
    }
}
