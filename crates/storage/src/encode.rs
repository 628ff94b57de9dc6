//! Lightweight column compression: per-column encodings auto-selected
//! from simple build-time stats, consumed *directly* by the execution
//! kernels in `eco-query` (ledger schema v3's compressed pricing mode).
//!
//! # Encodings
//!
//! * **Dictionary** ([`EncodedColumn::DictStr`] / [`EncodedColumn::DictChar`])
//!   — distinct values stored once in a **sorted** dictionary, rows as
//!   bit-packed dictionary ids. Sorting makes every comparison operator
//!   evaluable on ids alone (`value < lit` ⇔ `id < lower_bound(lit)`),
//!   so predicates compare once per *distinct* value and then match ids.
//! * **Run-length** ([`EncodedColumn::RleInt`] / [`EncodedColumn::RleDate`])
//!   — `(value, cumulative end)` pairs; filters and aggregates touch one
//!   entry per *run*, weighting by run length.
//! * **Bit-packing** ([`EncodedColumn::PackInt`] / [`EncodedColumn::PackDate`])
//!   — frame-of-reference: `min` plus `ceil(log2(max-min+1))` bits per
//!   row. Comparisons translate the literal into the packed domain once
//!   and evaluate on packed words; payloads decompress only at late
//!   materialization.
//! * **Bool bitmap** ([`EncodedColumn::Bool`]) — one bit per row.
//! * **Plain** ([`EncodedColumn::Plain`]) — the raw vector, chosen when
//!   no encoding wins (e.g. high-cardinality `l_comment`), so encoding
//!   never inflates a column.
//!
//! Selection is deterministic: each candidate's exact encoded byte size
//! is computed from the column stats (distinct count, run count, value
//! range) and the smallest wins, with ties broken in a fixed order.
//!
//! # Pricing (ledger schema v3)
//!
//! Encoded mirrors never replace the raw mirrors — execution remains
//! correct in either pricing mode and raw-mode ledgers stay
//! bit-identical. Under `PricingMode::Compressed`, scans charge
//! [`EncodedChunk::avg_tuple_bytes`] (a deterministic integer, so the
//! charge is split-stable across batch sizes and morsel boundaries)
//! instead of the raw average, and kernels that read through a
//! dictionary charge one `DictLookup` per id translation. Disk I/O is
//! unchanged: pages store raw tuples, only the in-memory columnar
//! mirror is encoded.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::column::{ColumnData, DataChunk, StrColumn};

/// A vector of `len` unsigned values stored in `bits` bits each,
/// little-endian within packed 64-bit words.
#[derive(Debug, Clone, PartialEq)]
pub struct BitPacked {
    bits: u32,
    len: usize,
    words: Vec<u64>,
}

impl BitPacked {
    /// Pack `vals` (each `< 2^bits`) into `bits`-bit slots.
    pub fn pack(bits: u32, vals: impl ExactSizeIterator<Item = u64>) -> Self {
        let bits = bits.clamp(1, 64);
        let len = vals.len();
        let total_bits = len as u64 * bits as u64;
        let mut words = vec![0u64; total_bits.div_ceil(64) as usize];
        for (i, v) in vals.enumerate() {
            debug_assert!(bits == 64 || v < (1u64 << bits), "value out of range");
            let bit = i as u64 * bits as u64;
            let (w, off) = ((bit / 64) as usize, (bit % 64) as u32);
            words[w] |= v << off;
            if off + bits > 64 {
                words[w + 1] |= v >> (64 - off);
            }
        }
        Self { bits, len, words }
    }

    /// The value at slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let bit = i as u64 * self.bits as u64;
        let (w, off) = ((bit / 64) as usize, (bit % 64) as u32);
        let mut v = self.words[w] >> off;
        if off + self.bits > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        if self.bits == 64 {
            v
        } else {
            v & ((1u64 << self.bits) - 1)
        }
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Encoded size in bytes (the priced footprint of the id array).
    pub fn bytes(&self) -> u64 {
        (self.len as u64 * self.bits as u64).div_ceil(8)
    }
}

/// Bits needed to store values in `0..=max` (at least 1).
fn bits_for(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

/// Byte size of one stored string (same accounting as
/// [`crate::value::Value::width_bytes`]).
fn str_bytes(s: &str) -> u64 {
    2 + s.len() as u64
}

/// One column in encoded form. Every variant can reproduce the exact
/// raw column ([`EncodedColumn::decode`]); kernels read the compressed
/// representation directly instead.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedColumn {
    /// Sorted string dictionary + bit-packed ids.
    DictStr {
        /// Distinct values, ascending.
        dict: Vec<Arc<str>>,
        /// Per-row index into `dict`.
        ids: BitPacked,
    },
    /// Sorted char dictionary + bit-packed ids.
    DictChar {
        /// Distinct values, ascending.
        dict: Vec<char>,
        /// Per-row index into `dict`.
        ids: BitPacked,
    },
    /// Run-length encoded integers: `values[k]` repeats for rows
    /// `ends[k-1]..ends[k]` (with `ends[-1] == 0`).
    RleInt {
        /// One value per run.
        values: Vec<i64>,
        /// Cumulative (exclusive) end row of each run, strictly ascending.
        ends: Vec<u32>,
    },
    /// Run-length encoded dates (same layout as [`EncodedColumn::RleInt`]).
    RleDate {
        /// One value per run.
        values: Vec<i32>,
        /// Cumulative (exclusive) end row of each run, strictly ascending.
        ends: Vec<u32>,
    },
    /// Frame-of-reference bit-packed integers: row value = `min + packed[i]`.
    PackInt {
        /// Frame of reference.
        min: i64,
        /// Per-row offsets from `min`.
        packed: BitPacked,
    },
    /// Frame-of-reference bit-packed dates.
    PackDate {
        /// Frame of reference.
        min: i32,
        /// Per-row offsets from `min`.
        packed: BitPacked,
    },
    /// One bit per row.
    Bool(BitPacked),
    /// Raw column — chosen when no encoding wins.
    Plain(ColumnData),
}

impl EncodedColumn {
    /// Encode a column, auto-selecting the smallest representation from
    /// its stats. Deterministic: exact candidate byte sizes, fixed tie
    /// order (dictionary/RLE preferred over bit-packing over plain).
    pub fn encode(col: &ColumnData) -> EncodedColumn {
        match col {
            ColumnData::Int(v) => encode_int(v),
            ColumnData::Date(v) => encode_date(v),
            ColumnData::Str(v) => encode_str(v),
            ColumnData::Char(v) => encode_char(v),
            ColumnData::Bool(v) => {
                EncodedColumn::Bool(BitPacked::pack(1, v.iter().map(|&b| b as u64)))
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::DictStr { ids, .. } | EncodedColumn::DictChar { ids, .. } => ids.len(),
            EncodedColumn::RleInt { ends, .. } | EncodedColumn::RleDate { ends, .. } => {
                ends.last().map_or(0, |&e| e as usize)
            }
            EncodedColumn::PackInt { packed, .. } | EncodedColumn::PackDate { packed, .. } => {
                packed.len()
            }
            EncodedColumn::Bool(b) => b.len(),
            EncodedColumn::Plain(c) => c.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded size in bytes — the priced footprint of this column
    /// under the compressed pricing mode.
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            EncodedColumn::DictStr { dict, ids } => {
                dict.iter().map(|s| str_bytes(s)).sum::<u64>() + ids.bytes()
            }
            EncodedColumn::DictChar { dict, ids } => dict.len() as u64 + ids.bytes(),
            EncodedColumn::RleInt { values, .. } => values.len() as u64 * (8 + 4),
            EncodedColumn::RleDate { values, .. } => values.len() as u64 * (4 + 4),
            EncodedColumn::PackInt { packed, .. } => 8 + packed.bytes(),
            EncodedColumn::PackDate { packed, .. } => 4 + packed.bytes(),
            EncodedColumn::Bool(b) => b.bytes(),
            EncodedColumn::Plain(c) => plain_bytes(c),
        }
    }

    /// Short name of the chosen encoding, for reports.
    pub fn encoding_name(&self) -> &'static str {
        match self {
            EncodedColumn::DictStr { .. } => "dict-str",
            EncodedColumn::DictChar { .. } => "dict-char",
            EncodedColumn::RleInt { .. } => "rle-int",
            EncodedColumn::RleDate { .. } => "rle-date",
            EncodedColumn::PackInt { .. } => "pack-int",
            EncodedColumn::PackDate { .. } => "pack-date",
            EncodedColumn::Bool(_) => "bitmap",
            EncodedColumn::Plain(_) => "plain",
        }
    }

    /// Decode back to the exact raw column (tests and roundtrip checks;
    /// execution never needs this — kernels read the encoded form and
    /// late materialization goes through the raw mirror).
    pub fn decode(&self) -> ColumnData {
        match self {
            EncodedColumn::DictStr { dict, ids } => {
                ColumnData::Str((0..ids.len()).map(|i| &dict[ids.get(i) as usize]).collect())
            }
            EncodedColumn::DictChar { dict, ids } => {
                ColumnData::Char((0..ids.len()).map(|i| dict[ids.get(i) as usize]).collect())
            }
            EncodedColumn::RleInt { values, ends } => {
                let mut out = Vec::with_capacity(self.len());
                let mut start = 0u32;
                for (v, &end) in values.iter().zip(ends) {
                    out.extend(std::iter::repeat_n(*v, (end - start) as usize));
                    start = end;
                }
                ColumnData::Int(out)
            }
            EncodedColumn::RleDate { values, ends } => {
                let mut out = Vec::with_capacity(self.len());
                let mut start = 0u32;
                for (v, &end) in values.iter().zip(ends) {
                    out.extend(std::iter::repeat_n(*v, (end - start) as usize));
                    start = end;
                }
                ColumnData::Date(out)
            }
            EncodedColumn::PackInt { min, packed } => ColumnData::Int(
                (0..packed.len())
                    .map(|i| min + packed.get(i) as i64)
                    .collect(),
            ),
            EncodedColumn::PackDate { min, packed } => ColumnData::Date(
                (0..packed.len())
                    .map(|i| min + packed.get(i) as i32)
                    .collect(),
            ),
            EncodedColumn::Bool(b) => {
                ColumnData::Bool((0..b.len()).map(|i| b.get(i) != 0).collect())
            }
            EncodedColumn::Plain(c) => c.clone(),
        }
    }
}

/// Raw byte footprint of a column (mirrors `Value::width_bytes` row
/// accounting, which is what raw-mode scans price).
fn plain_bytes(col: &ColumnData) -> u64 {
    match col {
        ColumnData::Int(v) => v.len() as u64 * 8,
        ColumnData::Str(v) => v.iter().map(str_bytes).sum(),
        ColumnData::Date(v) => v.len() as u64 * 4,
        ColumnData::Char(v) => v.len() as u64,
        ColumnData::Bool(v) => v.len() as u64,
    }
}

/// Run boundaries of `v` as cumulative exclusive ends.
fn run_ends<T: PartialEq>(v: &[T]) -> Vec<u32> {
    let mut ends = Vec::new();
    for i in 1..v.len() {
        if v[i] != v[i - 1] {
            ends.push(i as u32);
        }
    }
    if !v.is_empty() {
        ends.push(v.len() as u32);
    }
    ends
}

fn encode_int(v: &[i64]) -> EncodedColumn {
    if v.is_empty() {
        return EncodedColumn::Plain(ColumnData::Int(Vec::new()));
    }
    let ends = run_ends(v);
    let (min, max) = v
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let bits = bits_for(max.wrapping_sub(min) as u64);
    let rle_bytes = ends.len() as u64 * (8 + 4);
    let pack_bytes = 8 + (v.len() as u64 * bits as u64).div_ceil(8);
    let plain = v.len() as u64 * 8;
    if rle_bytes <= pack_bytes && rle_bytes < plain {
        let mut values = Vec::with_capacity(ends.len());
        let mut start = 0usize;
        for &end in &ends {
            values.push(v[start]);
            start = end as usize;
        }
        EncodedColumn::RleInt { values, ends }
    } else if pack_bytes < plain && bits < 64 {
        EncodedColumn::PackInt {
            min,
            packed: BitPacked::pack(bits, v.iter().map(|&x| x.wrapping_sub(min) as u64)),
        }
    } else {
        EncodedColumn::Plain(ColumnData::Int(v.to_vec()))
    }
}

fn encode_date(v: &[i32]) -> EncodedColumn {
    if v.is_empty() {
        return EncodedColumn::Plain(ColumnData::Date(Vec::new()));
    }
    let ends = run_ends(v);
    let (min, max) = v
        .iter()
        .fold((i32::MAX, i32::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let bits = bits_for(max.wrapping_sub(min) as u32 as u64);
    let rle_bytes = ends.len() as u64 * (4 + 4);
    let pack_bytes = 4 + (v.len() as u64 * bits as u64).div_ceil(8);
    let plain = v.len() as u64 * 4;
    if rle_bytes <= pack_bytes && rle_bytes < plain {
        let mut values = Vec::with_capacity(ends.len());
        let mut start = 0usize;
        for &end in &ends {
            values.push(v[start]);
            start = end as usize;
        }
        EncodedColumn::RleDate { values, ends }
    } else if pack_bytes < plain && bits < 32 {
        EncodedColumn::PackDate {
            min,
            packed: BitPacked::pack(bits, v.iter().map(|&x| x.wrapping_sub(min) as u32 as u64)),
        }
    } else {
        EncodedColumn::Plain(ColumnData::Date(v.to_vec()))
    }
}

fn encode_str(v: &StrColumn) -> EncodedColumn {
    if v.is_empty() {
        return EncodedColumn::Plain(ColumnData::Str(StrColumn::default()));
    }
    let distinct: BTreeSet<&str> = v.iter().collect();
    let bits = bits_for(distinct.len() as u64 - 1);
    let dict_bytes = distinct.iter().map(|s| str_bytes(s)).sum::<u64>()
        + (v.len() as u64 * bits as u64).div_ceil(8);
    let plain = v.iter().map(str_bytes).sum::<u64>();
    if dict_bytes < plain {
        let dict: Vec<Arc<str>> = distinct.iter().map(|&s| Arc::from(s)).collect();
        let ids = BitPacked::pack(
            bits,
            v.iter().map(|s| {
                dict.binary_search_by(|d| d.as_ref().cmp(s))
                    .unwrap_or(usize::MAX) as u64
            }),
        );
        EncodedColumn::DictStr { dict, ids }
    } else {
        EncodedColumn::Plain(ColumnData::Str(v.clone()))
    }
}

fn encode_char(v: &[char]) -> EncodedColumn {
    if v.is_empty() {
        return EncodedColumn::Plain(ColumnData::Char(Vec::new()));
    }
    let distinct: BTreeSet<char> = v.iter().copied().collect();
    let bits = bits_for(distinct.len() as u64 - 1);
    let dict_bytes = distinct.len() as u64 + (v.len() as u64 * bits as u64).div_ceil(8);
    let plain = v.len() as u64;
    if dict_bytes < plain {
        let dict: Vec<char> = distinct.into_iter().collect();
        let ids = BitPacked::pack(
            bits,
            v.iter()
                .map(|c| dict.binary_search(c).unwrap_or(usize::MAX) as u64),
        );
        EncodedColumn::DictChar { dict, ids }
    } else {
        EncodedColumn::Plain(ColumnData::Char(v.to_vec()))
    }
}

/// The encoded mirror of one [`DataChunk`]: per-column encodings plus
/// the deterministic per-row priced byte count the compressed pricing
/// mode charges for scans.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedChunk {
    columns: Vec<EncodedColumn>,
    rows: usize,
    avg_tuple_bytes: u64,
}

impl EncodedChunk {
    /// Encode every column of `chunk` (auto-selected per column).
    pub fn encode(chunk: &DataChunk) -> Self {
        let columns: Vec<EncodedColumn> = chunk
            .columns()
            .iter()
            .map(|c| EncodedColumn::encode(&c.data))
            .collect();
        let rows = chunk.len();
        let total: u64 = columns.iter().map(EncodedColumn::encoded_bytes).sum();
        // Integer per-row charge (like the raw engines' avg_tuple_bytes)
        // so scan charges are split-stable: any batching of n rows
        // charges exactly n * avg, independent of chunk geometry. The +2
        // mirrors the raw row-header accounting in `tuple_width`.
        let avg_tuple_bytes = if rows == 0 {
            1
        } else {
            (total / rows as u64).max(1) + 2
        };
        Self {
            columns,
            rows,
            avg_tuple_bytes,
        }
    }

    /// Per-column encodings, in schema order.
    pub fn columns(&self) -> &[EncodedColumn] {
        &self.columns
    }

    /// One column's encoding.
    pub fn column(&self, i: usize) -> &EncodedColumn {
        &self.columns[i]
    }

    /// Number of rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total encoded bytes across all columns.
    pub fn encoded_bytes(&self) -> u64 {
        self.columns.iter().map(EncodedColumn::encoded_bytes).sum()
    }

    /// The deterministic integer per-row byte charge compressed-mode
    /// scans price as memory traffic.
    pub fn avg_tuple_bytes(&self) -> u64 {
        self.avg_tuple_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitpack_roundtrips_all_widths() {
        for bits in [1u32, 3, 7, 12, 31, 33, 63, 64] {
            let vals: Vec<u64> = (0..100u64)
                .map(|i| {
                    if bits == 64 {
                        i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    } else {
                        i.wrapping_mul(2654435761) % (1u64 << bits)
                    }
                })
                .collect();
            let packed = BitPacked::pack(bits, vals.iter().copied());
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(packed.get(i), v, "bits={bits} i={i}");
            }
            assert_eq!(packed.bytes(), (100 * bits as u64).div_ceil(8));
        }
    }

    #[test]
    fn int_encodings_roundtrip_and_shrink() {
        // Long runs → RLE wins.
        let runs: Vec<i64> = (0..50).flat_map(|k| std::iter::repeat_n(k, 40)).collect();
        let enc = EncodedColumn::encode(&ColumnData::Int(runs.clone()));
        assert!(matches!(enc, EncodedColumn::RleInt { .. }), "{enc:?}");
        assert_eq!(enc.decode(), ColumnData::Int(runs));
        assert!(enc.encoded_bytes() < 2000 * 8 / 2);

        // Narrow range, no runs → bit-packing wins.
        let narrow: Vec<i64> = (0..2000).map(|i| 100 + (i * 7919) % 50).collect();
        let enc = EncodedColumn::encode(&ColumnData::Int(narrow.clone()));
        assert!(matches!(enc, EncodedColumn::PackInt { .. }), "{enc:?}");
        assert_eq!(enc.decode(), ColumnData::Int(narrow));
        assert!(enc.encoded_bytes() < 2000 * 8 / 2);

        // Full-range values → plain.
        let wide: Vec<i64> = (0..100)
            .map(|i| (i as i64).wrapping_mul(0x7E37_79B9_7F4A_7C15))
            .collect();
        let enc = EncodedColumn::encode(&ColumnData::Int(wide.clone()));
        assert!(matches!(enc, EncodedColumn::Plain(_)), "{enc:?}");
        assert_eq!(enc.decode(), ColumnData::Int(wide));
    }

    #[test]
    fn dict_is_sorted_and_roundtrips() {
        let vals: StrColumn = (0..300).map(|i| format!("mode-{}", i % 7)).collect();
        let enc = EncodedColumn::encode(&ColumnData::Str(vals.clone()));
        match &enc {
            EncodedColumn::DictStr { dict, .. } => {
                assert_eq!(dict.len(), 7);
                for w in dict.windows(2) {
                    assert!(w[0] < w[1], "dictionary must be sorted");
                }
            }
            other => panic!("expected DictStr, got {other:?}"),
        }
        assert_eq!(enc.decode(), ColumnData::Str(vals));
    }

    #[test]
    fn high_cardinality_strings_stay_plain() {
        let vals: StrColumn = (0..50)
            .map(|i| format!("unique comment text {i}"))
            .collect();
        let enc = EncodedColumn::encode(&ColumnData::Str(vals.clone()));
        assert!(matches!(enc, EncodedColumn::Plain(_)), "{enc:?}");
        assert_eq!(enc.encoded_bytes(), plain_bytes(&ColumnData::Str(vals)));
    }

    #[test]
    fn char_and_bool_and_date_roundtrip() {
        let chars: Vec<char> = (0..100).map(|i| ['A', 'N', 'R'][i % 3]).collect();
        let enc = EncodedColumn::encode(&ColumnData::Char(chars.clone()));
        assert!(matches!(enc, EncodedColumn::DictChar { .. }));
        assert_eq!(enc.decode(), ColumnData::Char(chars));

        let bools: Vec<bool> = (0..77).map(|i| i % 3 == 0).collect();
        let enc = EncodedColumn::encode(&ColumnData::Bool(bools.clone()));
        assert!(matches!(enc, EncodedColumn::Bool(_)));
        assert_eq!(enc.decode(), ColumnData::Bool(bools));
        assert_eq!(enc.encoded_bytes(), 10);

        let dates: Vec<i32> = (0..500).map(|i| 8000 + (i * 31) % 2500).collect();
        let enc = EncodedColumn::encode(&ColumnData::Date(dates.clone()));
        assert!(matches!(enc, EncodedColumn::PackDate { .. }));
        assert_eq!(enc.decode(), ColumnData::Date(dates));
    }

    #[test]
    fn empty_columns_encode_plain() {
        for ty in [
            crate::value::ColumnType::Int,
            crate::value::ColumnType::Str,
            crate::value::ColumnType::Date,
            crate::value::ColumnType::Char,
        ] {
            let enc = EncodedColumn::encode(&ColumnData::empty(ty));
            assert_eq!(enc.len(), 0);
            assert!(enc.is_empty());
            assert_eq!(enc.decode(), ColumnData::empty(ty));
        }
    }

    #[test]
    fn chunk_avg_bytes_is_deterministic_and_smaller() {
        use crate::value::{Schema, Value};
        let schema = Schema::new(&[
            ("k", crate::value::ColumnType::Int),
            ("flag", crate::value::ColumnType::Char),
            ("s", crate::value::ColumnType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| {
                vec![
                    Value::Int(i % 100),
                    Value::Char(if i % 2 == 0 { 'A' } else { 'B' }),
                    Value::str(format!("status-{}", i % 4)),
                ]
            })
            .collect();
        let chunk = DataChunk::from_rows(&schema, &rows);
        let enc = EncodedChunk::encode(&chunk);
        assert_eq!(enc.rows(), 1000);
        assert_eq!(enc.columns().len(), 3);
        // Raw: 8 + 1 + ~11 bytes/row ≈ 20; encoded must be far below.
        assert!(
            enc.avg_tuple_bytes() < 10,
            "avg {} bytes/row",
            enc.avg_tuple_bytes()
        );
        let again = EncodedChunk::encode(&chunk);
        assert_eq!(enc, again, "encoding is deterministic");
    }
}
