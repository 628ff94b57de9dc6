//! Crash-replay equivalence for the mutating write path (ledger
//! schema v5).
//!
//! The property: for any random DML workload prefix × any injected
//! crash point × both storage profiles, crash recovery yields exactly
//! the committed-prefix table state, and the committed statements'
//! energy ledgers are bit-identical to a clean replay of the same
//! prefix on a fresh database. Crashes never panic; every write-path
//! failure is a typed `ServerError::Wal`.
//!
//! And it holds across *repeated* crashes: recovery restarts from the
//! checkpoint the previous recovery left (the log restarts empty each
//! time), so after k crash/recover epochs, with DML in every one, the
//! database holds every statement ever acknowledged —
//! `every_epochs_acknowledged_statements_survive_repeated_crashes`,
//! with group commits whose unsynced members are visible when the
//! crash hits and a secondary index on the paged profile.
//!
//! And the log decoders never panic: `WalRecord::decode` and
//! `WriteAheadLog::recover` take arbitrary bytes, well-framed arbitrary
//! payloads, every truncation of a valid multi-record image and every
//! single-bit flip of it, and answer `None` / a typed `WalError` or a
//! committed prefix of the image — while the valid image round-trips.
//!
//! The vendored proptest runner derives its RNG seed from the test
//! name, so every crash case is pinned: CI replays the exact same
//! workloads and crash points on every run.

mod support;

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::core::ServerError;
use ecodb::simhw::fault::{FaultPlan, TornTail, WalCrash};
use ecodb::storage::{Value, WalRecord, WriteAheadLog};
use support::Rng;

/// TPC-H scale and generator seed shared by the crashing database and
/// its clean-replay twin — equivalence only means anything when both
/// start from the same bytes.
const SCALE: f64 = 0.002;
const DB_SEED: u64 = 17;

/// A deterministic DML workload over `region` — the `n` statements
/// from `first` on of a longer history: inserts with fresh keys (100,
/// 101, …), single-row updates of the five base regions, and deletes,
/// of any key the history may have inserted so far, that may or may not
/// find their target (an empty delete is still a committed transaction:
/// just a lone commit marker).
fn dml_workload(first: usize, n: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng(seed ^ 0xD6E8_FEB8_6659_FD93 ^ first as u64);
    (first..first + n)
        .map(|i| match rng.below(3) {
            0 => {
                let key = 100 + i;
                format!("INSERT INTO region VALUES ({key}, 'R{key}', 'crash-test')")
            }
            1 => {
                let key = rng.below(5);
                format!("UPDATE region SET r_name = 'U{i}' WHERE r_regionkey = {key}")
            }
            _ => {
                let key = 100 + rng.index(i + 1);
                format!("DELETE FROM region WHERE r_regionkey = {key}")
            }
        })
        .collect()
}

/// Decode the test's integer crash parameters into a crash point.
/// `kind` 0–2 kills the log after `at` appends with each torn-tail
/// shape; anything else fails the `at`-th fsync. `at` ranges past the
/// workload's append count on purpose: a crash point that never fires
/// must leave a fully committed, fully recoverable log.
fn crash_point(kind: u8, at: u64) -> WalCrash {
    match kind {
        0 => WalCrash::KillAfterRecords {
            records: at,
            torn: TornTail::None,
        },
        1 => WalCrash::KillAfterRecords {
            records: at,
            torn: TornTail::MidHeader,
        },
        2 => WalCrash::KillAfterRecords {
            records: at,
            torn: TornTail::MidPayload,
        },
        _ => WalCrash::FsyncFailure { fsync: at / 2 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Run a random DML prefix into an injected crash, recover, and
    /// check the recovered database against a clean replay of exactly
    /// the committed prefix on a fresh twin: same table state, same
    /// per-statement ledgers bit for bit, write path fully restored.
    #[test]
    fn crash_replay_recovers_exactly_the_committed_prefix(
        seed in 0u64..1_000_000,
        n in 3usize..10,
        crash_kind in 0u8..5,
        crash_at in 0u64..16,
    ) {
        let crash = crash_point(crash_kind, crash_at);
        let stmts = dml_workload(0, n, seed);
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let mut db = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            db.set_fault_plan(FaultPlan::none().with_wal_crash(crash));

            // Drive the workload into the crash. Acknowledged (Ok)
            // statements are the committed prefix; once the crash
            // fires, every later write fails with a typed Wal error.
            let mut committed = Vec::new();
            let mut crashed = false;
            for sql in &stmts {
                match db.try_trace_sql(sql) {
                    Ok((rows, trace)) => {
                        prop_assert!(!crashed, "a statement succeeded after the crash fired");
                        committed.push((sql.clone(), rows, trace));
                    }
                    Err(e) => {
                        prop_assert!(
                            matches!(e, ServerError::Wal(_)),
                            "write-path failure must be a typed Wal error, got: {}", e
                        );
                        crashed = true;
                    }
                }
            }
            prop_assert_eq!(crashed, db.wal_crashed());

            // Reads survive the crashed log untouched.
            let probe = "SELECT r_regionkey, r_name, r_comment FROM region";
            db.try_trace_sql(probe).expect("reads survive a crashed log");

            // Recover: the committed transactions are exactly the
            // acknowledged prefix, 1..=k in commit order.
            let report = db.recover().expect("recovery handles every injected crash image");
            let want_txns: Vec<u64> = (1..=committed.len() as u64).collect();
            prop_assert_eq!(&report.committed_txns, &want_txns);
            if let WalCrash::KillAfterRecords { torn, .. } = crash {
                // A torn tail exists iff the kill fired with a
                // fragment-leaving shape; fsync failures discard the
                // unsynced tail whole.
                prop_assert_eq!(report.torn_tail, crashed && torn != TornTail::None);
            } else {
                prop_assert!(!report.torn_tail);
            }

            // Clean replay of the committed prefix on a fresh twin:
            // every acknowledged statement's rows and energy ledger
            // must match bit for bit.
            let clean = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            for (sql, rows, trace) in &committed {
                let (crows, ctrace) = clean.try_trace_sql(sql).expect("clean replay");
                prop_assert_eq!(rows, &crows);
                prop_assert_eq!(trace, &ctrace, "committed ledgers diverge on {}", sql);
            }

            // Table-state equivalence: the recovered database and the
            // clean replay agree row for row.
            let (rec_rows, _) = db.try_trace_sql(probe).expect("probe after recovery");
            let (clean_rows, _) = clean.try_trace_sql(probe).expect("probe on clean twin");
            prop_assert_eq!(rec_rows, clean_rows);

            // The write path is fully restored after recovery — and
            // stays equivalent to the twin.
            let post = "INSERT INTO region VALUES (9000, 'POSTCRASH', 'recovered')";
            let (rows, _) = db.try_trace_sql(post).expect("write path restored");
            prop_assert_eq!(rows[0][0].as_int(), Some(1));
            clean.try_trace_sql(post).expect("twin insert");
            let (rec_rows, _) = db.try_trace_sql(probe).expect("probe");
            let (clean_rows, _) = clean.try_trace_sql(probe).expect("probe");
            prop_assert_eq!(rec_rows, clean_rows);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// k crash/recover epochs, DML in every one: the final state is a
    /// clean replay of every acknowledged statement of every epoch on a
    /// fresh twin. Epochs that end in an fsync failure stage their
    /// statements in group commits of two — so when the crash hits, the
    /// live tables hold transactions the log never made durable, and
    /// recovery has to start from the checkpoint, not from them; the
    /// others fsync per statement and die mid-append.
    #[test]
    fn every_epochs_acknowledged_statements_survive_repeated_crashes(
        seed in 0u64..1_000_000,
        epochs in 1usize..4,
        n in 2usize..7,
        crash_kinds in 0u64..625,
        crash_ats in 0u64..4096,
    ) {
        let probe = "SELECT r_regionkey, r_name, r_comment FROM region";
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let indexed = profile == EngineProfile::CommercialDisk;
            let mut db = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            if indexed {
                db.create_index("ix_region", "region", "r_regionkey").expect("index");
            }
            let mut acknowledged: Vec<String> = Vec::new();
            let mut next_txn = 1;
            for epoch in 0..epochs {
                // Base-5 / base-16 digit `epoch` of the two parameters.
                let kind = (crash_kinds / 5u64.pow(epoch as u32) % 5) as u8;
                let at = crash_ats / 16u64.pow(epoch as u32) % 16;
                db.set_fault_plan(FaultPlan::none().with_wal_crash(crash_point(kind, at)));
                let grouped = kind >= 3;
                let mut staged: Vec<String> = Vec::new();
                let mut epoch_acks = 0u64;
                for (i, sql) in dml_workload(epoch * n, n, seed).into_iter().enumerate() {
                    let done = if grouped {
                        db.try_trace_sql_deferred(&sql).map(|_| ())
                    } else {
                        db.try_trace_sql(&sql).map(|_| ())
                    };
                    match done {
                        Ok(()) if grouped => staged.push(sql),
                        Ok(()) => {
                            acknowledged.push(sql);
                            epoch_acks += 1;
                        }
                        Err(e) => prop_assert!(
                            matches!(e, ServerError::Wal(_)),
                            "write-path failure must be a typed Wal error, got: {}", e
                        ),
                    }
                    // A group is acknowledged when its fsync returns
                    // (a crashed log has nothing pending to refuse).
                    let last = i + 1 == n;
                    if (staged.len() == 2 || last) && !db.wal_crashed() && db.commit_wal().is_ok() {
                        epoch_acks += staged.len() as u64;
                        acknowledged.append(&mut staged);
                    }
                }

                let report = db.recover().expect("recovery handles every injected crash image");
                // Exactly this epoch's acknowledged transactions, their
                // ids carrying on from the epochs before.
                let want_txns: Vec<u64> = (next_txn..next_txn + epoch_acks).collect();
                prop_assert_eq!(&report.committed_txns, &want_txns, "epoch {}", epoch);
                next_txn += epoch_acks;
                prop_assert_eq!(report.indexes_rebuilt, usize::from(indexed));
                prop_assert!(!db.wal_crashed(), "recovery clears the spent crash point");
            }

            let clean = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            if indexed {
                clean.create_index("ix_region", "region", "r_regionkey").expect("index");
            }
            for sql in &acknowledged {
                clean.try_trace_sql(sql).expect("clean replay");
            }
            let (rec_rows, _) = db.try_trace_sql(probe).expect("probe after the last recovery");
            let (clean_rows, _) = clean.try_trace_sql(probe).expect("probe on the clean twin");
            prop_assert_eq!(rec_rows, clean_rows, "{} epochs, {:?}", epochs, acknowledged);
            // Through the re-created index too, when there is one.
            for key in [0, 3, 100, 101 + n] {
                let point = format!("{probe} WHERE r_regionkey = {key}");
                let (rec_rows, _) = db.try_trace_sql(&point).expect("point read");
                let (clean_rows, _) = clean.try_trace_sql(&point).expect("twin point read");
                prop_assert_eq!(rec_rows, clean_rows, "{}", point);
            }
        }
    }
}

/// FNV-1a 64, the log format's record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One log record as the log frames it: length, checksum, payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    [&len[..], &fnv1a(payload).to_le_bytes(), payload].concat()
}

/// Three committed transactions over every value type, then one
/// record whose commit never came.
fn valid_records() -> Vec<WalRecord> {
    let tuple = vec![
        Value::Int(-7),
        Value::str("żółć"),
        Value::Date(9_000),
        Value::Char('R'),
        Value::Bool(true),
    ];
    let table = || "region".to_string();
    vec![
        WalRecord::Insert {
            table: table(),
            tuple: tuple.clone(),
        },
        WalRecord::Commit { txn: 1 },
        WalRecord::Update {
            table: table(),
            row: 3,
            tuple,
        },
        WalRecord::Delete {
            table: table(),
            row: 2,
        },
        WalRecord::Commit { txn: 2 },
        WalRecord::Commit { txn: 5 },
        WalRecord::Delete {
            table: table(),
            row: 0,
        },
    ]
}

/// The valid image round-trips; none of its truncations or single-bit
/// flips panics a decoder. A truncation is a torn tail, never
/// corruption, so it recovers a committed prefix; a flip is caught as
/// corruption or, in a length field, read as a tear.
#[test]
fn wal_decoders_never_panic_on_truncated_or_flipped_images() {
    let records = valid_records();
    let mut log = WriteAheadLog::new();
    for r in &records {
        assert_eq!(WalRecord::decode(&r.encode()).as_ref(), Some(r));
        log.append(r).expect("no crash point");
    }
    log.fsync().expect("no crash point");
    let image = log.image().into_owned();
    let full = WriteAheadLog::recover(&image).expect("a valid image");
    assert_eq!(
        full.records,
        records[..1]
            .iter()
            .chain(&records[2..4])
            .cloned()
            .collect::<Vec<_>>()
    );
    assert_eq!(
        (
            full.txns.as_slice(),
            full.torn_tail,
            full.uncommitted_records
        ),
        (&[1, 2, 5][..], false, 1)
    );

    let is_prefix = |txns: &[u64]| full.txns.starts_with(txns);
    for len in 0..image.len() {
        let cut = WriteAheadLog::recover(&image[..len]).expect("a truncation is a torn tail");
        assert!(is_prefix(&cut.txns), "cut at {len}: {:?}", cut.txns);
        let _ = WalRecord::decode(&image[..len]);
    }
    for bit in 0..image.len() * 8 {
        let mut flipped = image.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(r) = WriteAheadLog::recover(&flipped) {
            assert!(is_prefix(&r.txns), "bit {bit}: {:?}", r.txns);
        }
        let _ = WalRecord::decode(&flipped[12..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare and framed as a record with a valid
    /// checksum (so `recover` reaches the payload decoder): `None`, a
    /// typed `WalError` or a recovery — never a panic.
    #[test]
    fn wal_decoders_never_panic_on_arbitrary_bytes(
        // Small bytes make valid tags and short lengths common.
        bytes in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec(0u8..8, 0..64),
        ],
    ) {
        let _ = WalRecord::decode(&bytes);
        let _ = WriteAheadLog::recover(&bytes);
        let framed = frame(&bytes);
        let decoded = WalRecord::decode(&bytes);
        match WriteAheadLog::recover(&framed) {
            Ok(r) => prop_assert!(decoded.is_some() && r.txns.len() + r.uncommitted_records == 1),
            Err(_) => prop_assert!(decoded.is_none() || bytes.is_empty()),
        }
    }
}
