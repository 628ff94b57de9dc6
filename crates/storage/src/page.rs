//! Slotted pages: the on-"disk" representation of tuples.
//!
//! Classic layout: a header (slot count), a slot directory growing from
//! the front, and tuple payloads packed from the back. Values use a
//! compact tagged serialization. Pages are fixed at 8 KB — a tuple that
//! cannot fit an empty page ([`tuple_fits_page`]) is rejected before it
//! is logged or applied (TPC-H's widest rows are far below that).
//!
//! A page image is a pure function of the payload sequence inserted
//! into a fresh page, which is what lets the write path repack raw
//! slot payloads ([`Page::payload`] → [`Page::insert_raw`]) and land on
//! exactly the bytes a bulk load of the decoded tuples would produce.

use std::sync::Arc;

use crate::value::{Tuple, Value};

/// Page size in bytes.
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 4; // u16 slot_count + u16 free_end
const SLOT: usize = 4; // u16 offset + u16 len

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
    pub fn free_space(&self) -> usize {
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
    pub fn insert_raw(&mut self, payload: &[u8]) -> bool {
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
    pub fn used_bytes(&self) -> usize {
        HEADER + self.len() * SLOT + (PAGE_SIZE - self.free_end() as usize)
    }

    /// FNV-1a 64-bit checksum over the raw page image. Computed once
    /// at load time and verified on every buffer-pool read so a
    /// corrupted page is detected before its tuples are decoded.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.buf.iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Corrupt one byte of the raw page image (a fault-injection /
    /// test hook: the next checksum verification must detect it).
    pub fn flip_byte(&mut self, offset: usize) {
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
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            let b = s.as_bytes();
            assert!(b.len() <= u16::MAX as usize, "string too long for page");
            out.extend_from_slice(&(b.len() as u16).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Char(c) => {
            out.push(TAG_CHAR);
            let mut b = [0u8; 4];
            let s = c.encode_utf8(&mut b);
            out.push(s.len() as u8);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
    }
}

/// Serialize a tuple to bytes (u16 arity + tagged values).
pub fn serialize_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + t.len() * 10);
    out.extend_from_slice(&(t.len() as u16).to_le_bytes());
    for v in t {
        serialize_value(v, &mut out);
    }
    out
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
pub fn tuple_fits_page(t: &Tuple) -> bool {
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

/// Deserialize a tuple from bytes produced by [`serialize_tuple`].
pub fn deserialize_tuple(buf: &[u8]) -> Tuple {
    let arity = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    let mut pos = 2;
    let mut out = Vec::with_capacity(arity);
    for _ in 0..arity {
        let tag = buf[pos];
        pos += 1;
        let v = match tag {
            TAG_INT => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&buf[pos..pos + 8]);
                pos += 8;
                Value::Int(i64::from_le_bytes(b))
            }
            TAG_STR => {
                let len = u16::from_le_bytes([buf[pos], buf[pos + 1]]) as usize;
                pos += 2;
                let s = match std::str::from_utf8(&buf[pos..pos + len]) {
                    Ok(s) => s,
                    Err(e) => panic!("corrupt page: bad utf8 ({e})"),
                };
                pos += len;
                Value::str(s)
            }
            TAG_DATE => {
                let mut b = [0u8; 4];
                b.copy_from_slice(&buf[pos..pos + 4]);
                pos += 4;
                Value::Date(i32::from_le_bytes(b))
            }
            TAG_CHAR => {
                let len = buf[pos] as usize;
                pos += 1;
                let s = match std::str::from_utf8(&buf[pos..pos + len]) {
                    Ok(s) => s,
                    Err(e) => panic!("corrupt page: bad utf8 ({e})"),
                };
                pos += len;
                let c = match s.chars().next() {
                    Some(c) => c,
                    None => panic!("corrupt page: empty char payload"),
                };
                Value::Char(c)
            }
            TAG_BOOL => {
                let b = buf[pos] != 0;
                pos += 1;
                Value::Bool(b)
            }
            other => panic!("corrupt page: unknown value tag {other}"),
        };
        out.push(v);
    }
    out
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
}
