//! Write-ahead log for the mutating write path (ledger schema v5).
//!
//! The log is a flat byte image of length-prefixed, checksummed
//! records:
//!
//! ```text
//! [payload len: u32 LE][FNV-1a 64 of payload: u64 LE][payload]
//! ```
//!
//! Records are **redo-only**: each DML statement appends its mutation
//! records followed by a [`WalRecord::Commit`] marker, and a
//! transaction is durable exactly when the fsync covering its commit
//! marker returns. Recovery ([`WriteAheadLog::recover`]) replays the
//! committed prefix and discards everything else:
//!
//! * a **torn tail** — a final record cut short mid-header or
//!   mid-payload by a crash — is detected by the length prefix and
//!   trimmed cleanly (it is the expected shape of a crash, not an
//!   error);
//! * a checksum mismatch or undecodable payload *before* the tail is
//!   genuine corruption and surfaces as a typed [`WalError`];
//! * intact records whose commit marker never made it to the log are
//!   counted and dropped.
//!
//! Crash injection is data, not control flow: a
//! [`WalCrash`] installed via
//! [`WriteAheadLog::set_crash`] deterministically kills the log after N
//! appends (optionally leaving a torn tail) or fails the Nth fsync, so
//! the crash-replay equivalence property can sweep crash points.
//!
//! Pricing: the log itself charges nothing — callers charge
//! [`OpClass::LogRecord`](eco_simhw::trace::OpClass) per append and one
//! `log_ios`/`log_bytes` sequential I/O per fsync using the byte count
//! [`WriteAheadLog::fsync`] returns. That count is the pending tail
//! rounded **up to whole [`PAGE_SIZE`] blocks**, which is exactly why
//! group commit wins: one fsync covering ten commits pays one block
//! where ten per-statement fsyncs pay ten.

use std::borrow::Cow;
use std::sync::Arc;

use eco_simhw::fault::{TornTail, WalCrash};

use crate::page::PAGE_SIZE;
use crate::value::{Tuple, Value};

/// Framing header size: payload length (u32) + payload checksum (u64).
pub(crate) const RECORD_HEADER: usize = 12;

/// Sanity ceiling on a single record's payload — anything larger is
/// corruption, not data.
const MAX_RECORD_LEN: u32 = 1 << 24;

// Value tags shared with the page serializer (`crate::page`), so a log
// record's tuple encoding matches the on-page one byte for byte.
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_CHAR: u8 = 4;
const TAG_BOOL: u8 = 5;

// Record tags.
const REC_INSERT: u8 = 1;
const REC_UPDATE: u8 = 2;
const REC_DELETE: u8 = 3;
const REC_COMMIT: u8 = 4;

/// A typed write-path failure: log corruption, a crash point firing,
/// or a recovery replay that does not fit the catalog it lands in.
/// Every variant is a clean error — the write path never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The log hit its installed crash point; no further appends or
    /// fsyncs are possible until recovery.
    Crashed,
    /// The Nth fsync call failed (injected [`WalCrash::FsyncFailure`]).
    /// The unsynced tail is discarded — its transactions were never
    /// acknowledged and recovery will not see them.
    FsyncFailed {
        /// Zero-based index of the failing fsync call.
        fsync: u64,
    },
    /// A record *before* the log tail is undecodable: bad checksum,
    /// absurd length, unknown tag, or truncated payload fields. Torn
    /// final records are **not** corruption — they are trimmed.
    Corrupt {
        /// Byte offset of the offending record's header.
        offset: usize,
    },
    /// A commit marker for a transaction id that does not advance the
    /// committed sequence (ids must be strictly increasing; a repeat is
    /// a double commit).
    DuplicateCommit {
        /// The offending transaction id.
        txn: u64,
    },
    /// A replayed record names a table the catalog does not have.
    NoSuchTable {
        /// The missing table's name.
        table: String,
    },
    /// A replayed update/delete addresses a row past the end of its
    /// table.
    RowOutOfRange {
        /// Target table.
        table: String,
        /// Out-of-range row id.
        row: usize,
        /// The table's actual length.
        len: usize,
    },
    /// A replayed tuple does not match the target table's schema.
    SchemaMismatch {
        /// Target table.
        table: String,
    },
    /// A replayed tuple is wider than the target paged table can store
    /// (it would not fit an empty page).
    TupleTooWide {
        /// Target table.
        table: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Crashed => write!(f, "write-ahead log crashed at its injected crash point"),
            WalError::FsyncFailed { fsync } => {
                write!(f, "fsync #{fsync} failed; unsynced log tail discarded")
            }
            WalError::Corrupt { offset } => {
                write!(f, "write-ahead log corrupt at byte offset {offset}")
            }
            WalError::DuplicateCommit { txn } => {
                write!(f, "duplicate commit record for transaction {txn}")
            }
            WalError::NoSuchTable { table } => {
                write!(f, "log record references unknown table {table:?}")
            }
            WalError::RowOutOfRange { table, row, len } => write!(
                f,
                "log record addresses row {row} of table {table:?} (len {len})"
            ),
            WalError::SchemaMismatch { table } => {
                write!(
                    f,
                    "log record tuple does not match schema of table {table:?}"
                )
            }
            WalError::TupleTooWide { table } => write!(
                f,
                "log record tuple does not fit a {}-byte page of table {table:?}",
                crate::page::PAGE_SIZE
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// One redo record. `Insert`/`Update`/`Delete` describe a single-row
/// mutation against the table state *at apply time*; `Commit` makes
/// every record since the previous commit durable as one transaction.
///
/// Multi-row deletes are logged in **descending row order** so each
/// removal leaves earlier row ids stable — replaying the records in log
/// order reproduces the exact same states.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Append `tuple` to `table`.
    Insert {
        /// Target table name.
        table: String,
        /// The new tuple.
        tuple: Tuple,
    },
    /// Overwrite row `row` of `table` with `tuple`.
    Update {
        /// Target table name.
        table: String,
        /// Row id at apply time.
        row: usize,
        /// The replacement tuple.
        tuple: Tuple,
    },
    /// Remove row `row` of `table`.
    Delete {
        /// Target table name.
        table: String,
        /// Row id at apply time.
        row: usize,
    },
    /// Commit marker: every record since the previous commit belongs to
    /// transaction `txn`. Ids are strictly increasing.
    Commit {
        /// Transaction id.
        txn: u64,
    },
}

impl WalRecord {
    /// Serialize the record payload (framing is the log's job).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Insert { table, tuple } => {
                out.push(REC_INSERT);
                encode_name(&mut out, table);
                encode_tuple(&mut out, tuple);
            }
            WalRecord::Update { table, row, tuple } => {
                out.push(REC_UPDATE);
                encode_name(&mut out, table);
                out.extend_from_slice(&(*row as u64).to_le_bytes());
                encode_tuple(&mut out, tuple);
            }
            WalRecord::Delete { table, row } => {
                out.push(REC_DELETE);
                encode_name(&mut out, table);
                out.extend_from_slice(&(*row as u64).to_le_bytes());
            }
            WalRecord::Commit { txn } => {
                out.push(REC_COMMIT);
                out.extend_from_slice(&txn.to_le_bytes());
            }
        }
        out
    }

    /// Decode one record payload. Any structural problem — unknown
    /// tag, truncated field, invalid UTF-8, trailing garbage — is a
    /// `None`; the caller maps it to [`WalError::Corrupt`] with the
    /// record's log offset.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let rec = match r.u8()? {
            REC_INSERT => WalRecord::Insert {
                table: r.name()?,
                tuple: r.tuple()?,
            },
            REC_UPDATE => WalRecord::Update {
                table: r.name()?,
                row: usize::try_from(r.u64()?).ok()?,
                tuple: r.tuple()?,
            },
            REC_DELETE => WalRecord::Delete {
                table: r.name()?,
                row: usize::try_from(r.u64()?).ok()?,
            },
            REC_COMMIT => WalRecord::Commit { txn: r.u64()? },
            _ => return None,
        };
        if r.pos != payload.len() {
            return None; // trailing garbage
        }
        Some(rec)
    }
}

fn encode_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "table name too long");
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn encode_tuple(out: &mut Vec<u8>, tuple: &Tuple) {
    out.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
    for v in tuple {
        match v {
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Str(s) => {
                let b = s.as_bytes();
                debug_assert!(b.len() <= u16::MAX as usize, "string too long");
                out.push(TAG_STR);
                out.extend_from_slice(&(b.len() as u16).to_le_bytes());
                out.extend_from_slice(b);
            }
            Value::Date(d) => {
                out.push(TAG_DATE);
                out.extend_from_slice(&d.to_le_bytes());
            }
            Value::Char(c) => {
                let mut buf = [0u8; 4];
                let enc = c.encode_utf8(&mut buf);
                out.push(TAG_CHAR);
                out.push(enc.len() as u8);
                out.extend_from_slice(enc.as_bytes());
            }
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
        }
    }
}

/// A bounds-checked little-endian reader over untrusted log bytes —
/// the fallible twin of the page serializer's decoder (which may panic
/// because page images are checksummed before decode; log payloads are
/// decoded *as part of* validation, so every read must be checked).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .and_then(|b| b.try_into().ok())
            .map(u16::from_le_bytes)
    }

    fn i32(&mut self) -> Option<i32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(i32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(i64::from_le_bytes)
    }

    fn name(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn tuple(&mut self) -> Option<Tuple> {
        let arity = self.u16()? as usize;
        let mut t = Vec::with_capacity(arity);
        for _ in 0..arity {
            let v = match self.u8()? {
                TAG_INT => Value::Int(self.i64()?),
                TAG_STR => {
                    let len = self.u16()? as usize;
                    let bytes = self.take(len)?;
                    Value::Str(Arc::from(std::str::from_utf8(bytes).ok()?))
                }
                TAG_DATE => Value::Date(self.i32()?),
                TAG_CHAR => {
                    let len = self.u8()? as usize;
                    if len == 0 || len > 4 {
                        return None;
                    }
                    let bytes = self.take(len)?;
                    let s = std::str::from_utf8(bytes).ok()?;
                    let mut chars = s.chars();
                    let c = chars.next()?;
                    if chars.next().is_some() {
                        return None;
                    }
                    Value::Char(c)
                }
                TAG_BOOL => Value::Bool(self.u8()? != 0),
                _ => return None,
            };
            t.push(v);
        }
        Some(t)
    }
}

/// FNV-1a 64, the log's record checksum — part of the log format. (The
/// page layer's in-memory `Page::checksum` is a different function.)
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What [`WriteAheadLog::recover`] found in a log image: the committed
/// redo records in log order, plus the forensic counters the crash
/// tests and the recovery example report.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Redo records of committed transactions, in log order.
    pub records: Vec<WalRecord>,
    /// Committed transaction ids, in commit order.
    pub txns: Vec<u64>,
    /// True when a torn final record was trimmed from the image.
    pub torn_tail: bool,
    /// Intact records discarded because their commit marker never made
    /// it into the log.
    pub uncommitted_records: usize,
}

/// How a scanned log image ended (see [`WriteAheadLog::scan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogTail {
    /// True when a torn final record was trimmed from the image.
    pub torn_tail: bool,
    /// Intact records discarded because their commit marker never made
    /// it into the log.
    pub uncommitted_records: usize,
}

/// The simulated log device: an append-only byte image with an fsync
/// horizon and an optional injected crash point.
///
/// The write protocol is *log → fsync → apply*: mutations are staged
/// as records, made durable by [`WriteAheadLog::fsync`], and only then
/// applied to table state — so a crash at any point leaves the tables
/// reconstructible from the durable image.
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    /// Every successfully appended byte (the simulated file contents).
    buf: Vec<u8>,
    /// Bytes made durable by fsync. On an injected fsync failure the
    /// tail past this point is discarded.
    durable_len: usize,
    /// Successful appends so far (the crash point counts these).
    records_appended: u64,
    /// Successful fsync calls so far.
    fsyncs: u64,
    /// Installed crash point, if any.
    crash: Option<WalCrash>,
    /// Torn fragment left behind by a `KillAfterRecords` crash.
    torn_fragment: Vec<u8>,
    /// Set once a crash point fires; all further operations return
    /// [`WalError::Crashed`].
    crashed: bool,
}

impl WriteAheadLog {
    /// A fresh, empty log with no crash point.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or clear) the injected crash point. Crash points are
    /// consulted on every append and fsync; installing one does not by
    /// itself crash anything.
    pub fn set_crash(&mut self, crash: Option<WalCrash>) {
        self.crash = crash;
    }

    /// True once a crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Successful fsync calls so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Bytes appended but not yet fsynced.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.durable_len
    }

    /// Append one record. Fails with [`WalError::Crashed`] when the
    /// installed [`WalCrash::KillAfterRecords`] point fires — the
    /// record is *not* appended, but per the crash's
    /// [`TornTail`] mode a fragment of it may still reach the image,
    /// which is exactly the torn tail recovery must trim.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        if let Some(WalCrash::KillAfterRecords { records, torn }) = self.crash {
            if self.records_appended >= records {
                self.crashed = true;
                self.torn_fragment = torn_fragment(rec, torn);
                return Err(WalError::Crashed);
            }
        }
        let payload = rec.encode();
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.records_appended += 1;
        Ok(())
    }

    /// Make every appended byte durable. Returns the number of bytes
    /// this sync charges — the pending tail rounded **up to whole
    /// [`PAGE_SIZE`] blocks** (zero when nothing is pending, in which
    /// case the call is free and does not count as an fsync).
    ///
    /// An injected [`WalCrash::FsyncFailure`] fails the Nth *counted*
    /// fsync: the unsynced tail is discarded (those transactions were
    /// never acknowledged) and the log is crashed.
    pub fn fsync(&mut self) -> Result<u64, WalError> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        if self.buf.len() == self.durable_len {
            return Ok(0);
        }
        if let Some(WalCrash::FsyncFailure { fsync }) = self.crash {
            if self.fsyncs >= fsync {
                self.crashed = true;
                self.buf.truncate(self.durable_len);
                return Err(WalError::FsyncFailed { fsync: self.fsyncs });
            }
        }
        let pending = (self.buf.len() - self.durable_len) as u64;
        self.durable_len = self.buf.len();
        self.fsyncs += 1;
        Ok(pending.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64)
    }

    /// The byte image a restart would read back. After a clean run this
    /// is every appended byte; after a `KillAfterRecords` crash it also
    /// carries the torn fragment of the record whose append died;
    /// after an fsync failure the unsynced tail is already gone. Only
    /// an image with a torn fragment to attach is a copy.
    pub fn image(&self) -> Cow<'_, [u8]> {
        if self.torn_fragment.is_empty() {
            Cow::Borrowed(&self.buf)
        } else {
            Cow::Owned([&self.buf[..], &self.torn_fragment].concat())
        }
    }

    /// Scan a log image in log order, handing each committed
    /// transaction — its id and its redo records — to `commit` when the
    /// scan reaches its commit marker, so a replay holds one
    /// transaction's records at a time, never the whole log's (see the
    /// module docs for the torn-tail / corruption distinction). The
    /// scan stops at the first error, `commit`'s own included, and by
    /// then earlier transactions have been handed out: a caller that
    /// must not act on a log with a bad record further on scans it once
    /// with a `commit` that does nothing first.
    pub fn scan<E: From<WalError>>(
        image: &[u8],
        mut commit: impl FnMut(u64, Vec<WalRecord>) -> Result<(), E>,
    ) -> Result<LogTail, E> {
        let mut pos = 0usize;
        let mut staged: Vec<WalRecord> = Vec::new();
        let mut torn_tail = false;
        let mut last_txn: Option<u64> = None;
        while pos < image.len() {
            let corrupt = WalError::Corrupt { offset: pos };
            let Some((len, rest)) = image[pos..].split_first_chunk::<4>() else {
                torn_tail = true; // mid-header tear
                break;
            };
            let Some((sum, body)) = rest.split_first_chunk::<8>() else {
                torn_tail = true; // mid-header tear
                break;
            };
            let len = u32::from_le_bytes(*len);
            if len == 0 || len > MAX_RECORD_LEN {
                return Err(corrupt.into());
            }
            let Some(payload) = body.get(..len as usize) else {
                torn_tail = true; // mid-payload tear
                break;
            };
            if fnv1a(payload) != u64::from_le_bytes(*sum) {
                return Err(corrupt.into());
            }
            match WalRecord::decode(payload).ok_or(corrupt)? {
                WalRecord::Commit { txn } => {
                    if last_txn.is_some_and(|t| txn <= t) {
                        return Err(WalError::DuplicateCommit { txn }.into());
                    }
                    last_txn = Some(txn);
                    commit(txn, std::mem::take(&mut staged))?;
                }
                other => staged.push(other),
            }
            pos += RECORD_HEADER + payload.len();
        }
        Ok(LogTail {
            torn_tail,
            uncommitted_records: staged.len(),
        })
    }

    /// Scan a log image and return the committed prefix — every
    /// transaction [`Self::scan`] hands out, collected.
    pub fn recover(image: &[u8]) -> Result<Recovery, WalError> {
        let (mut records, mut txns) = (Vec::new(), Vec::new());
        let tail = Self::scan(image, |txn, mut staged| {
            records.append(&mut staged);
            txns.push(txn);
            Ok::<(), WalError>(())
        })?;
        Ok(Recovery {
            records,
            txns,
            torn_tail: tail.torn_tail,
            uncommitted_records: tail.uncommitted_records,
        })
    }
}

/// The bytes a torn append leaves in the image: nothing, a partial
/// header, or a full header with a truncated payload.
fn torn_fragment(rec: &WalRecord, torn: TornTail) -> Vec<u8> {
    match torn {
        TornTail::None => Vec::new(),
        TornTail::MidHeader => {
            let payload = rec.encode();
            let mut frag = Vec::with_capacity(6);
            frag.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frag.extend_from_slice(&fnv1a(&payload).to_le_bytes()[..2]);
            frag
        }
        TornTail::MidPayload => {
            let payload = rec.encode();
            let mut frag = Vec::with_capacity(RECORD_HEADER + payload.len() / 2);
            frag.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frag.extend_from_slice(&fnv1a(&payload).to_le_bytes());
            frag.extend_from_slice(&payload[..payload.len() / 2]);
            frag
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(table: &str, k: i64) -> WalRecord {
        WalRecord::Insert {
            table: table.to_string(),
            tuple: vec![
                Value::Int(k),
                Value::str(format!("row-{k}")),
                Value::Date(9000 + k as i32),
                Value::Char('x'),
                Value::Bool(k % 2 == 0),
            ],
        }
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        let recs = vec![
            ins("orders", 7),
            WalRecord::Update {
                table: "orders".into(),
                row: 3,
                tuple: vec![Value::Int(9), Value::str("updated")],
            },
            WalRecord::Delete {
                table: "orders".into(),
                row: 12,
            },
            WalRecord::Commit { txn: 42 },
        ];
        for r in &recs {
            let enc = r.encode();
            assert_eq!(WalRecord::decode(&enc).as_ref(), Some(r));
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_tags() {
        let mut enc = WalRecord::Commit { txn: 1 }.encode();
        enc.push(0xff);
        assert_eq!(WalRecord::decode(&enc), None, "trailing garbage");
        assert_eq!(WalRecord::decode(&[0x77]), None, "unknown tag");
        assert_eq!(WalRecord::decode(&[]), None, "empty payload");
        let truncated = &ins("t", 1).encode()[..5];
        assert_eq!(WalRecord::decode(truncated), None, "truncated fields");
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let rec = WriteAheadLog::recover(&[]).expect("empty log is valid");
        assert!(rec.records.is_empty());
        assert!(rec.txns.is_empty());
        assert!(!rec.torn_tail);
        assert_eq!(rec.uncommitted_records, 0);
    }

    #[test]
    fn committed_prefix_survives_uncommitted_tail() {
        let mut wal = WriteAheadLog::new();
        wal.append(&ins("t", 1)).expect("append");
        wal.append(&ins("t", 2)).expect("append");
        wal.append(&WalRecord::Commit { txn: 1 }).expect("append");
        wal.append(&ins("t", 3)).expect("append"); // never committed
        wal.fsync().expect("fsync");
        let rec = WriteAheadLog::recover(&wal.image()).expect("recover");
        assert_eq!(rec.records, vec![ins("t", 1), ins("t", 2)]);
        assert_eq!(rec.txns, vec![1]);
        assert_eq!(rec.uncommitted_records, 1);
        assert!(!rec.torn_tail);
    }

    #[test]
    fn fsync_rounds_up_to_whole_blocks_and_is_free_when_clean() {
        let mut wal = WriteAheadLog::new();
        assert_eq!(wal.fsync().expect("empty fsync"), 0);
        assert_eq!(wal.fsyncs(), 0, "a no-op sync is not counted");
        wal.append(&ins("t", 1)).expect("append");
        let bytes = wal.fsync().expect("fsync");
        assert_eq!(bytes, PAGE_SIZE as u64, "one small record = one block");
        assert_eq!(wal.fsyncs(), 1);
        assert_eq!(wal.pending_bytes(), 0);
        // Many records under one sync still round to blocks of the
        // *batched* tail — the group-commit economics in one assert.
        for k in 0..100 {
            wal.append(&ins("t", k)).expect("append");
        }
        let batched = wal.fsync().expect("fsync");
        assert_eq!(batched % PAGE_SIZE as u64, 0);
        assert!(
            batched < 100 * PAGE_SIZE as u64,
            "batched sync must beat 100 per-record syncs"
        );
    }

    #[test]
    fn kill_after_records_crashes_append_deterministically() {
        let mut wal = WriteAheadLog::new();
        wal.set_crash(Some(WalCrash::KillAfterRecords {
            records: 2,
            torn: TornTail::None,
        }));
        wal.append(&ins("t", 1)).expect("append 1");
        wal.append(&ins("t", 2)).expect("append 2");
        assert_eq!(wal.append(&ins("t", 3)), Err(WalError::Crashed));
        assert!(wal.crashed());
        assert_eq!(wal.fsync(), Err(WalError::Crashed));
        let rec = WriteAheadLog::recover(&wal.image()).expect("recover");
        assert!(!rec.torn_tail, "TornTail::None leaves a clean image");
        assert_eq!(rec.uncommitted_records, 2);
        assert!(rec.records.is_empty(), "nothing committed");
    }

    #[test]
    fn torn_tail_mid_header_is_trimmed_cleanly() {
        let mut wal = WriteAheadLog::new();
        wal.append(&ins("t", 1)).expect("append");
        wal.append(&WalRecord::Commit { txn: 1 }).expect("append");
        wal.set_crash(Some(WalCrash::KillAfterRecords {
            records: 2,
            torn: TornTail::MidHeader,
        }));
        assert_eq!(wal.append(&ins("t", 2)), Err(WalError::Crashed));
        let img = wal.image();
        let rec = WriteAheadLog::recover(&img).expect("torn tail is not corruption");
        assert!(rec.torn_tail);
        assert_eq!(rec.records, vec![ins("t", 1)]);
        assert_eq!(rec.txns, vec![1]);
    }

    #[test]
    fn torn_tail_mid_payload_is_trimmed_cleanly() {
        let mut wal = WriteAheadLog::new();
        wal.append(&ins("t", 1)).expect("append");
        wal.append(&WalRecord::Commit { txn: 1 }).expect("append");
        wal.set_crash(Some(WalCrash::KillAfterRecords {
            records: 2,
            torn: TornTail::MidPayload,
        }));
        assert_eq!(wal.append(&ins("t", 2)), Err(WalError::Crashed));
        let img = wal.image();
        assert!(img.len() > RECORD_HEADER, "fragment carries a full header");
        let rec = WriteAheadLog::recover(&img).expect("torn tail is not corruption");
        assert!(rec.torn_tail);
        assert_eq!(rec.records, vec![ins("t", 1)]);
    }

    #[test]
    fn mid_stream_corruption_is_a_typed_error() {
        let mut wal = WriteAheadLog::new();
        wal.append(&ins("t", 1)).expect("append");
        wal.append(&WalRecord::Commit { txn: 1 }).expect("append");
        let mut img = wal.image().into_owned();
        img[RECORD_HEADER + 2] ^= 0x40; // flip a byte inside record 1's payload
        let err = WriteAheadLog::recover(&img).expect_err("corrupt");
        assert_eq!(err, WalError::Corrupt { offset: 0 });
        assert!(err.to_string().contains("corrupt"));
    }

    #[test]
    fn a_scan_hands_out_transactions_until_it_meets_a_bad_record() {
        // Why a replay validates the whole image first: the scan is a
        // stream, and what precedes a corrupt record has been handed
        // out by the time it is found.
        let mut wal = WriteAheadLog::new();
        for txn in 1..=3u64 {
            wal.append(&ins("t", txn as i64)).expect("append");
            wal.append(&WalRecord::Commit { txn }).expect("append");
        }
        let mut img = wal.image().into_owned();
        let last = img.len() - 1;
        img[last] ^= 0x40; // inside transaction 3's commit marker
        let mut seen = Vec::new();
        let err = WriteAheadLog::scan(&img, |txn, records| {
            seen.push((txn, records));
            Ok::<(), WalError>(())
        })
        .expect_err("corrupt");
        assert!(matches!(err, WalError::Corrupt { .. }));
        assert_eq!(seen, vec![(1, vec![ins("t", 1)]), (2, vec![ins("t", 2)])]);
        // A failing `commit` stops the scan the same way.
        let stop = WriteAheadLog::scan(&wal.image(), |txn, _| {
            if txn == 2 {
                Err(WalError::Crashed)
            } else {
                Ok(())
            }
        });
        assert_eq!(stop, Err(WalError::Crashed));
    }

    #[test]
    fn duplicate_commit_record_is_a_typed_error() {
        let mut wal = WriteAheadLog::new();
        wal.append(&ins("t", 1)).expect("append");
        wal.append(&WalRecord::Commit { txn: 5 }).expect("append");
        wal.append(&ins("t", 2)).expect("append");
        wal.append(&WalRecord::Commit { txn: 5 }).expect("append");
        let err = WriteAheadLog::recover(&wal.image()).expect_err("duplicate commit");
        assert_eq!(err, WalError::DuplicateCommit { txn: 5 });
    }

    #[test]
    fn fsync_failure_discards_the_unsynced_tail() {
        let mut wal = WriteAheadLog::new();
        wal.append(&ins("t", 1)).expect("append");
        wal.append(&WalRecord::Commit { txn: 1 }).expect("append");
        wal.fsync().expect("first fsync");
        wal.set_crash(Some(WalCrash::FsyncFailure { fsync: 1 }));
        wal.append(&ins("t", 2)).expect("append");
        wal.append(&WalRecord::Commit { txn: 2 }).expect("append");
        assert_eq!(wal.fsync(), Err(WalError::FsyncFailed { fsync: 1 }));
        assert!(wal.crashed());
        let rec = WriteAheadLog::recover(&wal.image()).expect("recover");
        assert_eq!(rec.txns, vec![1], "only the fsynced transaction survives");
        assert_eq!(rec.records, vec![ins("t", 1)]);
    }

    #[test]
    fn clean_image_roundtrips_many_transactions() {
        let mut wal = WriteAheadLog::new();
        let mut expect = Vec::new();
        for txn in 1..=50u64 {
            let r = ins("lineitem", txn as i64);
            wal.append(&r).expect("append");
            expect.push(r);
            if txn % 2 == 0 {
                let d = WalRecord::Delete {
                    table: "lineitem".into(),
                    row: txn as usize,
                };
                wal.append(&d).expect("append");
                expect.push(d);
            }
            wal.append(&WalRecord::Commit { txn }).expect("append");
        }
        wal.fsync().expect("fsync");
        let rec = WriteAheadLog::recover(&wal.image()).expect("recover");
        assert_eq!(rec.records, expect);
        assert_eq!(rec.txns, (1..=50).collect::<Vec<_>>());
        assert_eq!(rec.uncommitted_records, 0);
    }
}
