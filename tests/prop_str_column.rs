//! Properties of string columns and of the page decoder that fills
//! them.
//!
//! * A [`StrColumn`] (one byte arena plus end offsets per column) runs
//!   random `push`/`set`/`remove`/`append_rows`/`gather_into`/`clear`
//!   sequences in step with a `Vec<String>` model — empty strings and
//!   multi-byte UTF-8 included — and after every step reads back the
//!   model's values, clones equal, and equals a column built fresh
//!   from the model (the offsets carry no garbage). The stored widths
//!   a chunk computes from it equal `tuple_width` of the rows it
//!   materialises.
//! * `page::try_append_to_columns` never panics: arbitrary bytes,
//!   every truncation of a valid payload, and invalid UTF-8 inside a
//!   `Str` field all come back as `None` or `Some(())`.

use proptest::prelude::*;

use ecodb::storage::page::{serialize_tuple, try_append_to_columns};
use ecodb::storage::{
    tuple_width, ColumnChunk, ColumnData, ColumnType, DataChunk, StrColumn, Tuple, Value,
};

/// Strings: empty, ASCII, and multi-byte UTF-8 of 2 to 4 bytes a char.
fn arb_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        ".{0,12}",
        "[a-z]{1,6}",
        Just("żółć".to_string()),
        Just("日本語テキスト".to_string()),
        Just("🦀 crab".to_string()),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        arb_string().prop_map(Value::str),
        any::<i32>().prop_map(Value::Date),
        any::<char>().prop_map(Value::Char),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// What `col` must equal after a step: `model`'s values, read one by
/// one, in bulk, and as a freshly built column; its clone too.
fn assert_matches(col: &StrColumn, model: &[String], step: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(col.len(), model.len(), "{}: len", step);
    prop_assert_eq!(col.is_empty(), model.is_empty(), "{}: is_empty", step);
    for (i, want) in model.iter().enumerate() {
        prop_assert_eq!(col.get(i), want.as_str(), "{}: value {}", step, i);
        prop_assert_eq!(col.bytes(i), want.as_bytes(), "{}: bytes {}", step, i);
        prop_assert_eq!(col.byte_len(i), want.len(), "{}: byte_len {}", step, i);
    }
    prop_assert!(
        col.iter().eq(model.iter().map(String::as_str)),
        "{step}: iter"
    );
    let fresh: StrColumn = model.iter().collect();
    prop_assert_eq!(col, &fresh, "{}: equals a fresh column of the model", step);
    prop_assert_eq!(&col.clone(), col, "{}: clone", step);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every mutator keeps the arena in step with a `Vec<String>`, and
    /// a chunk's row mutators keep the rows it reads back in step too
    /// (rows are read after every step, so the strings a row read
    /// shares must follow every change); the row widths and width sums
    /// of a chunk holding the column equal `tuple_width` of the rows
    /// it materialises.
    #[test]
    fn a_string_column_tracks_a_vec_of_strings(
        strs in proptest::collection::vec(arb_string(), 1..24),
        ops in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let pick = |x: u64| strs[(x % strs.len() as u64) as usize].as_str();
        let mut model: Vec<String> = Vec::new();
        let mut col = StrColumn::default();
        // A second column to append from, and a gather scratch reused
        // across steps.
        let other: StrColumn = strs.iter().rev().collect();
        let other_model: Vec<String> = strs.iter().rev().cloned().collect();
        let mut scratch = ColumnData::Int(vec![1, 2, 3]);
        let empty = || DataChunk::new(vec![ColumnChunk::new(ColumnData::Str(StrColumn::default()))]);
        let others = DataChunk::new(vec![ColumnChunk::new(ColumnData::Str(other.clone()))]);
        let mut chunk = empty();
        let row = |s: &str| vec![Value::str(s)];
        for (n, &op) in ops.iter().enumerate() {
            let (kind, a, b) = (op % 7, (op >> 8) as usize, op >> 32);
            let step = format!("step {n} (op {kind})");
            match kind {
                0 | 1 => {
                    col.push(pick(b));
                    chunk.push_row(row(pick(b)));
                    model.push(pick(b).to_string());
                }
                2 if !model.is_empty() => {
                    let i = a % model.len();
                    col.set(i, pick(b));
                    chunk.set_row(i, &row(pick(b)));
                    model[i] = pick(b).to_string();
                }
                3 if !model.is_empty() => {
                    let i = a % model.len();
                    col.remove(i);
                    prop_assert_eq!(chunk.remove_row(i), row(&model[i]), "{}: removed row", step);
                    model.remove(i);
                }
                4 => {
                    // Rows may repeat and come in any order.
                    let rows: Vec<usize> =
                        (0..a % 5).map(|k| (b as usize + 3 * k) % other.len()).collect();
                    col.append_rows(&other, rows.iter().copied());
                    chunk.append_rows(&others, &[0], rows.iter().copied());
                    model.extend(rows.iter().map(|&i| other_model[i].clone()));
                }
                5 if !model.is_empty() => {
                    let idx: Vec<u32> =
                        (0..a % 6).map(|k| ((b as usize + k * 7) % model.len()) as u32).collect();
                    ColumnData::Str(col.clone()).gather_into(&idx, &mut scratch);
                    let want: Vec<String> = idx.iter().map(|&i| model[i as usize].clone()).collect();
                    match &scratch {
                        ColumnData::Str(g) => assert_matches(g, &want, &step)?,
                        other => prop_assert!(false, "{step}: gathered {other:?}"),
                    }
                }
                6 if a % 4 == 0 => {
                    col.clear();
                    chunk = empty();
                    model.clear();
                }
                _ => {}
            }
            assert_matches(&col, &model, &step)?;
            prop_assert_eq!(chunk.len(), model.len(), "{}: chunk rows", step);
            for (i, want) in model.iter().enumerate() {
                prop_assert_eq!(chunk.row(i), row(want), "{}: chunk row {}", step, i);
            }
        }

        // Widths: an Int, the column, a Char and the column reversed.
        let n = model.len();
        let reversed: StrColumn = model.iter().rev().collect();
        let chunk = DataChunk::new(vec![
            ColumnChunk::new(ColumnData::Int((0..n as i64).collect())),
            ColumnChunk::new(ColumnData::Str(col.clone())),
            ColumnChunk::new(ColumnData::Char(vec!['é'; n])),
            ColumnChunk::new(ColumnData::Str(reversed)),
        ]);
        let mut widths = Vec::new();
        chunk.row_widths(0..n, &mut widths);
        for (i, &w) in widths.iter().enumerate() {
            let row = chunk.row(i);
            prop_assert_eq!(&row[1], &Value::str(&model[i]), "row {}", i);
            prop_assert_eq!(u64::from(w), tuple_width(&row), "row {} width", i);
        }
        let sel: Vec<usize> = match n {
            0 => Vec::new(),
            _ => ops.iter().map(|&x| x as usize % n).collect(),
        };
        let want: u64 = sel.iter().map(|&i| tuple_width(&chunk.row(i))).sum();
        prop_assert_eq!(chunk.width_sum(sel.iter().copied()), want, "width_sum");
        let all: u64 = (0..n).map(|i| tuple_width(&chunk.row(i))).sum();
        prop_assert_eq!(chunk.width_sum(0..n), all, "width_sum over the window");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes under arbitrary column types: `None` or
    /// `Some(())`, never a panic; on `Some` every column took exactly
    /// one value.
    #[test]
    fn the_column_decoder_never_panics_on_arbitrary_bytes(
        // Small bytes make valid tags and short lengths common.
        bytes in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec(0u8..6, 0..64),
        ],
        arity in 0usize..6,
        types in proptest::collection::vec(0u8..5, 0..6),
    ) {
        let types: Vec<ColumnType> = types.iter().take(arity).map(|&t| ty(t)).collect();
        // The header claims `arity`, sometimes.
        let mut buf = bytes.clone();
        if bytes.first().is_some_and(|b| b % 2 == 0) && buf.len() >= 2 {
            buf[..2].copy_from_slice(&(arity as u16).to_le_bytes());
        }
        let mut cols = columns(&types);
        let out = try_append_to_columns(&buf, arity, 0..types.len(), &mut cols);
        if out.is_some() {
            prop_assert!(cols.iter().all(|c| c.data.len() == 1), "one value per column");
        }
    }

    /// Every prefix of a valid payload, and the payload with one byte of
    /// a string field made invalid UTF-8: never a panic. A prefix that
    /// decodes decodes the tuple's own values; a corrupted string that
    /// is read is `None`.
    #[test]
    fn truncated_or_corrupted_payloads_never_panic(
        tuple in proptest::collection::vec(arb_value(), 0..7),
        mask in any::<u8>(),
        at in any::<u16>(),
    ) {
        let payload = serialize_tuple(&tuple);
        let wanted: Vec<usize> = (0..tuple.len()).filter(|&j| mask >> j & 1 == 1).collect();
        let types: Vec<ColumnType> = wanted.iter().map(|&j| tuple[j].column_type()).collect();
        let want: Tuple = wanted.iter().map(|&j| tuple[j].clone()).collect();
        let decode = |buf: &[u8]| {
            let mut cols = columns(&types);
            let out = try_append_to_columns(buf, tuple.len(), wanted.iter().copied(), &mut cols);
            out.map(|()| DataChunk::new(cols).row(0))
        };
        prop_assert_eq!(decode(&payload), Some(want.clone()), "the whole payload");
        for len in 0..payload.len() {
            if let Some(row) = decode(&payload[..len]) {
                prop_assert_eq!(&row, &want, "prefix of {} bytes", len);
            }
        }

        // 0xFF is never valid UTF-8; put it inside a non-empty string.
        let strings: Vec<(usize, usize, usize)> = field_spans(&tuple)
            .into_iter()
            .filter(|&(j, _, len)| matches!(tuple[j], Value::Str(_)) && len > 0)
            .collect();
        if let Some(&(j, start, len)) = strings.get(at as usize % strings.len().max(1)) {
            let mut bad = payload.clone();
            bad[start + (at as usize % len)] = 0xFF;
            let got = decode(&bad);
            if wanted.contains(&j) {
                prop_assert_eq!(got, None, "invalid UTF-8 in column {}", j);
            } else if wanted.iter().all(|&w| w < j) {
                prop_assert_eq!(got, Some(want), "column {} is never read", j);
            }
        }
    }
}

fn ty(t: u8) -> ColumnType {
    [
        ColumnType::Int,
        ColumnType::Str,
        ColumnType::Date,
        ColumnType::Char,
        ColumnType::Bool,
    ][t as usize % 5]
}

fn columns(types: &[ColumnType]) -> Vec<ColumnChunk> {
    types
        .iter()
        .map(|&t| ColumnChunk::new(ColumnData::empty(t)))
        .collect()
}

/// `(column, first byte, length)` of each value's data in
/// [`serialize_tuple`]'s output: a 2-byte arity, then per value a tag
/// byte, a 2-byte length before a string's bytes and a 1-byte length
/// before a char's.
fn field_spans(t: &Tuple) -> Vec<(usize, usize, usize)> {
    let mut at = 2;
    let mut out = Vec::new();
    for (j, v) in t.iter().enumerate() {
        let (head, len) = match v {
            Value::Int(_) => (1, 8),
            Value::Str(s) => (3, s.len()),
            Value::Date(_) => (1, 4),
            Value::Char(c) => (2, c.len_utf8()),
            Value::Bool(_) => (1, 1),
        };
        out.push((j, at + head, len));
        at += head + len;
    }
    out
}
