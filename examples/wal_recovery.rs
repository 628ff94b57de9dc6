//! The durable write path end to end: WAL-logged DML, the group-commit
//! energy win, a deterministic crash, and recovery back to exactly the
//! committed prefix.
//!
//! Shows the schema-v5 write-path contract:
//!
//! * every `INSERT`/`UPDATE`/`DELETE` logs redo records
//!   (`OpClass::LogRecord`) and pays one block-rounded sequential
//!   `log_ios`/`log_bytes` charge per fsync — so ten statements under
//!   one group commit pay one block where ten per-statement fsyncs pay
//!   ten, and the joules follow;
//! * an injected `WalCrash` kills the log mid-workload: later writers
//!   fail with a typed `ServerError::Wal`, reads keep working, nothing
//!   panics;
//! * `EcoDb::recover` trims the torn tail, discards uncommitted
//!   records, replays the committed prefix, and restores the write
//!   path — the recovered table state matches a clean replay of the
//!   acknowledged statements row for row;
//! * recovery restarts from the checkpoint the previous recovery left,
//!   not from the generated data: a second crash epoch — more DML,
//!   another crash, another `recover` — keeps the first epoch's
//!   transactions and replays only its own log.
//!
//! ```text
//! cargo run --example wal_recovery --release
//! ```

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::core::ServerError;
use ecodb::simhw::fault::{FaultPlan, TornTail, WalCrash};
use ecodb::simhw::MachineConfig;

fn main() {
    let config = MachineConfig::stock();

    // --- 1. Group commit vs per-statement durability ----------------
    let statements: Vec<String> = (0..10)
        .map(|k| format!("INSERT INTO region VALUES ({}, 'R{k}', 'durable')", 100 + k))
        .collect();

    // Per-statement durability: every insert fsyncs its own tail.
    let solo = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
    let mut solo_joules = 0.0;
    let mut solo_log = (0u64, 0u64);
    for sql in &statements {
        let (_, trace) = solo.try_trace_sql(sql).expect("durable insert");
        let m = solo.machine().measure(&trace, &config);
        solo_joules += m.wall_joules;
        let disk = trace.total_disk();
        solo_log.0 += disk.log_ios;
        solo_log.1 += disk.log_bytes;
    }

    // Group commit: the same ten inserts stage their records, one
    // fsync covers them all.
    let grouped = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
    let mut grouped_joules = 0.0;
    for sql in &statements {
        let (_, trace, pending) = grouped.try_trace_sql_deferred(sql).expect("staged insert");
        assert!(pending, "DML leaves log bytes pending");
        grouped_joules += grouped.machine().measure(&trace, &config).wall_joules;
    }
    let (commit_bytes, commit_trace) = grouped.commit_wal().expect("group commit");
    grouped_joules += grouped
        .machine()
        .measure(&commit_trace, &config)
        .wall_joules;
    let commit_disk = commit_trace.total_disk();
    let grouped_log = (commit_disk.log_ios, commit_disk.log_bytes);

    println!(
        "10 inserts, per-statement fsync: {:>2} log_ios, {:>6} log_bytes, {:.4} mJ/txn",
        solo_log.0,
        solo_log.1,
        solo_joules / 10.0 * 1e3
    );
    println!(
        "10 inserts, one group commit:   {:>2} log_ios, {:>6} log_bytes, {:.4} mJ/txn",
        grouped_log.0,
        grouped_log.1,
        grouped_joules / 10.0 * 1e3
    );
    assert_eq!(solo_log.0, 10);
    assert_eq!(grouped_log.0, 1, "one fsync covers the whole group");
    assert!(grouped_log.1 < solo_log.1, "block rounding is the win");
    assert_eq!(commit_bytes, grouped_log.1);

    // --- 2. Crash mid-workload --------------------------------------
    let mut db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
    db.set_fault_plan(
        FaultPlan::none().with_wal_crash(WalCrash::KillAfterRecords {
            records: 4, // two committed inserts (record + commit marker each)
            torn: TornTail::MidPayload,
        }),
    );
    let mut acknowledged = Vec::new();
    for sql in &statements {
        match db.try_trace_sql(sql) {
            Ok(_) => acknowledged.push(sql.clone()),
            Err(e) => {
                assert!(matches!(e, ServerError::Wal(_)), "typed write-path failure");
            }
        }
    }
    println!(
        "\ncrash after 4 log records: {} of {} inserts acknowledged",
        acknowledged.len(),
        statements.len()
    );

    // Reads survive the crashed log; only writers fail.
    let probe = "SELECT r_regionkey, r_name FROM region";
    let (rows_before, _) = db.try_trace_sql(probe).expect("reads survive");
    println!(
        "reads still serve: region has {} rows pre-recovery",
        rows_before.len()
    );

    // --- 3. Recovery ------------------------------------------------
    let report = db.recover().expect("recovery");
    println!(
        "recovered: {} committed txns, {} records replayed, torn_tail={}, \
         {} uncommitted records discarded, {} indexes rebuilt",
        report.committed_txns.len(),
        report.records_replayed,
        report.torn_tail,
        report.uncommitted_records,
        report.indexes_rebuilt,
    );
    assert_eq!(report.committed_txns.len(), acknowledged.len());
    assert!(
        report.torn_tail,
        "MidPayload kill leaves a torn tail to trim"
    );

    // Equivalence: a clean replay of exactly the acknowledged
    // statements on a fresh twin lands on the same table state.
    let twin = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
    for sql in &acknowledged {
        twin.try_trace_sql(sql).expect("clean replay");
    }
    let (recovered_rows, _) = db.try_trace_sql(probe).expect("probe");
    let (twin_rows, _) = twin.try_trace_sql(probe).expect("probe");
    assert_eq!(recovered_rows, twin_rows, "committed prefix, nothing more");

    // --- 4. A second crash epoch ------------------------------------
    // The write path is back; the log restarted empty at the recovery,
    // which left a checkpoint of the recovered tables. Two more
    // inserts, the second lost to a failed fsync.
    db.set_fault_plan(FaultPlan::none().with_wal_crash(WalCrash::FsyncFailure { fsync: 1 }));
    let second_epoch = [
        "INSERT INTO region VALUES (900, 'POSTCRASH', 'acknowledged')",
        "INSERT INTO region VALUES (901, 'POSTCRASH', 'fsync fails')",
    ];
    for sql in second_epoch {
        match db.try_trace_sql(sql) {
            Ok(_) => acknowledged.push(sql.to_string()),
            Err(e) => assert!(matches!(e, ServerError::Wal(_)), "typed write-path failure"),
        }
    }
    let report = db.recover().expect("second recovery");
    println!(
        "\nsecond crash: {} txn replayed (id {:?}) over the first recovery's checkpoint",
        report.committed_txns.len(),
        report.committed_txns,
    );
    assert_eq!(report.records_replayed, 1, "only the second epoch's log");

    twin.try_trace_sql(second_epoch[0]).expect("clean replay");
    let (recovered_rows, _) = db.try_trace_sql(probe).expect("probe");
    let (twin_rows, _) = twin.try_trace_sql(probe).expect("probe");
    assert_eq!(
        recovered_rows, twin_rows,
        "every acknowledged statement of both epochs, nothing more"
    );
    println!(
        "region has {} rows: 5 generated + {} acknowledged across two crashes — \
         the first epoch survived the second recovery",
        recovered_rows.len(),
        acknowledged.len()
    );
    assert_eq!(recovered_rows.len(), 5 + acknowledged.len());

    println!("\ncommitted prefix recovered exactly, twice; write path restored ✓");
}
