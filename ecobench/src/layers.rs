//! The one adapter between the benchmark and ecoDB's *inner* layers:
//! every call below the public end-to-end surface lives here, so a
//! later change to an inner API touches this file only.
//!
//! Nothing inside ecoDB is instrumented yet. The traced run therefore
//! times the inner layers with *shadow calls*: right after an
//! end-to-end call (`core.try_trace_sql`, `server.serve`,
//! `core.recover`, a figure) it repeats that call's steps on the same
//! input through the layers' own public functions, each under a span
//! whose parent is the end-to-end call. Shadows run only with tracing
//! on and never inside a timed region.

use eco_core::pvc::PvcSweep;
use eco_core::qed::run_qed;
use eco_core::{EcoDb, EngineProfile};
use eco_query::context::ExecCtx;
use eco_query::sql::{self, execute_dml, Statement};
use eco_server::{Dispatch, DispatchKind};
use eco_simhw::cpu::VoltageSetting;
use eco_simhw::machine::MachineConfig;
use eco_simhw::opensys::OpenSystemRun;
use eco_simhw::trace::WorkTrace;
use eco_storage::{
    load_tpch, Catalog, EngineKind, KeyBound, TableData, Value, WalRecord, WriteAheadLog,
};
use eco_tpch::{TpchDb, TpchGenerator};

use crate::gen::KeyProbe;
use crate::trace::{SpanId, Tracer};

/// Pool size `EcoDb::tpch` uses ("sized to hold everything").
const POOL_PAGES: usize = 1 << 22;

/// Generate the source rows and load them the way `EcoDb::tpch` does,
/// each step under its own span, as children of `parent`.
pub fn shadow_open(
    profile: EngineProfile,
    scale: f64,
    parent: SpanId,
    t: &mut Tracer,
) -> (TpchDb, Catalog) {
    t.adopt(parent);
    let source = t.span("tpch.generate", || TpchGenerator::new(scale).generate());
    let span = match profile {
        EngineProfile::MemoryEngine => "storage.load_memory",
        EngineProfile::CommercialDisk => "storage.load_disk",
    };
    let catalog = t.span(span, || {
        load_tpch(&source, profile.engine_kind(), POOL_PAGES)
    });
    t.release(parent);
    (source, catalog)
}

/// Lex, parse, plan and execute one `SELECT` again, as children of the
/// `core.try_trace_sql` span `parent`. Returns the execution's span.
pub fn shadow_select(
    db: &EcoDb,
    sql_text: &str,
    exec_span: &'static str,
    parent: SpanId,
    t: &mut Tracer,
) -> SpanId {
    t.adopt(parent);
    let exec = select_steps(db.catalog(), db, sql_text, exec_span, t);
    t.release(parent);
    // The scan's page misses were charged to the pool's own ledger;
    // drop them so the next real statement is not billed for them.
    db.catalog().pool().take_io();
    exec
}

fn select_steps(
    catalog: &Catalog,
    db: &EcoDb,
    sql_text: &str,
    exec_span: &'static str,
    t: &mut Tracer,
) -> SpanId {
    let parse = t.begin("query.parse");
    t.span("query.lex", || {
        sql::tokenize(sql_text).map_or(0, |tokens| tokens.len())
    });
    let stmt = sql::parse_statement(sql_text);
    t.end(parse);
    let Ok(Statement::Select(select)) = stmt else {
        return None;
    };
    let Ok(mut plan) = t.span("query.plan", || sql::plan_select(catalog, &select)) else {
        return None;
    };
    let exec = t.begin(exec_span);
    let mut ctx = ExecCtx::new();
    std::hint::black_box(db.engine().execute(plan.as_mut(), &mut ctx).len());
    t.end(exec);
    exec
}

/// Descend the B-tree on `table.column` for one probe, as a child of
/// the statement's execution span `parent` (the `IxScan` made the same
/// descent) — warm, because the real statement just loaded the pages.
pub fn shadow_index_probe(
    db: &EcoDb,
    table: &str,
    column: &str,
    probe: &KeyProbe,
    parent: SpanId,
    t: &mut Tracer,
) {
    let Some(entry) = db.catalog().index_on(table, column) else {
        return;
    };
    let (lo, hi) = (Value::Int(probe.lo), Value::Int(probe.hi));
    let span = if probe.is_point() {
        "storage.btree_point_probe"
    } else {
        "storage.btree_range_probe"
    };
    t.adopt(parent);
    t.span(span, || {
        std::hint::black_box(
            entry
                .index
                .probe_range(KeyBound::Inclusive(&lo), KeyBound::Inclusive(&hi))
                .map_or(0, |p| p.row_ids.len()),
        )
    });
    t.release(parent);
    db.catalog().pool().take_io();
}

/// Read the first `pages` pages of `table`, one span each: the miss
/// path (page decode and checksum verify) when the caller picks a
/// table nothing has touched since the last flush. It must not flush
/// here: dropping a full pool is real work the next round's own flush
/// would then be spared.
pub fn shadow_cold_page_reads(db: &EcoDb, table: &str, pages: usize, t: &mut Tracer) {
    let stored = db.catalog().expect(table);
    let TableData::Disk(disk) = &stored.data else {
        return;
    };
    let holder = t.begin_aside("shadow.cold_pages");
    for page in 0..pages.min(disk.num_pages()) {
        t.span("storage.cold_page_read", || {
            std::hint::black_box(
                disk.read_page_checked(page)
                    .map_or(0, |(tuples, _)| tuples.len()),
            )
        });
    }
    t.end(holder);
    db.catalog().pool().take_io();
}

/// Buffer-pool `(hits, misses)` so far.
pub fn pool_counts(db: &EcoDb) -> (u64, u64) {
    let s = db.catalog().pool().stats();
    (s.hits, s.misses)
}

/// `(bytes on disk, raw tuple bytes)` of a disk table and its indexes.
pub fn space(db: &EcoDb, table: &str) -> (u64, u64) {
    let stored = db.catalog().expect(table);
    let TableData::Disk(disk) = &stored.data else {
        return (0, 0);
    };
    let index_bytes: u64 = db
        .catalog()
        .index_entries()
        .iter()
        .filter(|e| e.table == table)
        .map(|e| e.index.bytes_on_disk())
        .sum();
    let raw: u64 = disk.all_tuples().iter().map(eco_storage::tuple_width).sum();
    db.catalog().pool().take_io();
    (disk.bytes_on_disk() + index_bytes, raw)
}

/// Exact ledger counts of one statement's trace.
pub fn count_ledger(trace: &WorkTrace, t: &mut Tracer) {
    t.count("ledger_ops", trace.total_cpu().total_ops() as f64);
    t.count("mem_stream_bytes", trace.total_mem_stream_bytes() as f64);
    t.count("index_ios", trace.total_disk().index_ios as f64);
}

/// Re-run the merged scans of a serve transcript and price each burst,
/// as children of the `server.serve` span `parent`. Read-only, so it
/// runs on the live database.
pub fn shadow_merged(
    db: &EcoDb,
    dispatches: &[Dispatch],
    workers: usize,
    parent: SpanId,
    t: &mut Tracer,
) {
    let machine = db.multicore(workers);
    let mut run = OpenSystemRun::new(&machine, MachineConfig::stock());
    t.adopt(parent);
    for d in dispatches {
        if let DispatchKind::Merged(queries) = &d.kind {
            let traced = t.span("query.merged_selection", || {
                db.try_trace_merged_selection_cores(queries, true, workers)
            });
            if let Ok((_, core_traces)) = traced {
                t.span("simhw.opensys_burst", || run.burst(&core_traces).elapsed_s);
            }
        }
    }
    t.release(parent);
}

/// A second copy of the disk database that the traced mixed workload
/// keeps in lockstep with the live one by replaying every dispatched
/// SQL statement through the layers' own functions: bind, log append,
/// fsync and apply each get a span the live `serve` call hides.
pub struct ScratchDb {
    catalog: Catalog,
    wal: WriteAheadLog,
    next_txn: u64,
}

impl ScratchDb {
    /// Load `source` on the disk engine and index `table.column`.
    pub fn open(db: &EcoDb, index: &str, table: &str, column: &str, t: &mut Tracer) -> Self {
        let catalog = t.span("storage.load_disk", || {
            load_tpch(db.source(), EngineKind::Disk, POOL_PAGES)
        });
        t.span("storage.index_build", || {
            catalog.create_index(index, table, column).is_ok()
        });
        Self {
            catalog,
            wal: WriteAheadLog::new(),
            next_txn: 1,
        }
    }

    /// Replay the SQL dispatches of one serve transcript, as children
    /// of the `server.serve` span `parent`.
    pub fn shadow_sql(
        &mut self,
        db: &EcoDb,
        dispatches: &[Dispatch],
        parent: SpanId,
        t: &mut Tracer,
    ) {
        t.adopt(parent);
        for d in dispatches {
            match &d.kind {
                DispatchKind::Merged(_) => {}
                DispatchKind::Commit => {
                    t.span("storage.wal_fsync", || self.wal.fsync().is_ok());
                }
                DispatchKind::Sql(text) | DispatchKind::StagedSql(text) => {
                    self.statement(db, text, t)
                }
            }
        }
        t.release(parent);
    }

    fn statement(&mut self, db: &EcoDb, text: &str, t: &mut Tracer) {
        let Ok(stmt) = sql::parse_statement(text) else {
            return;
        };
        if matches!(stmt, Statement::Select(_)) {
            select_steps(&self.catalog, db, text, "query.exec_selection", t);
            self.catalog.pool().take_io();
            return;
        }
        let bound = t.span("query.dml_bind", || {
            execute_dml(&self.catalog, &stmt, &mut ExecCtx::new())
        });
        let Ok(outcome) = bound else { return };
        let commit = WalRecord::Commit { txn: self.next_txn };
        self.next_txn += 1;
        for rec in outcome.records.iter().chain([&commit]) {
            t.span("storage.wal_append", || self.wal.append(rec).is_ok());
        }
        for rec in &outcome.records {
            apply_record(&self.catalog, rec, t);
        }
    }
}

fn apply_record(catalog: &Catalog, rec: &WalRecord, t: &mut Tracer) {
    let span = match rec {
        WalRecord::Insert { .. } => "storage.apply_insert",
        WalRecord::Update { .. } => "storage.apply_update",
        WalRecord::Delete { .. } => "storage.apply_delete",
        WalRecord::Commit { .. } => return,
    };
    t.span(span, || catalog.apply_wal_record(rec).is_ok());
}

/// Repeat the steps of `EcoDb::recover` over the log image taken just
/// before it, as children of the `core.recover` span `parent`.
pub fn shadow_recover(
    db: &EcoDb,
    image: &[u8],
    index: (&str, &str, &str),
    parent: SpanId,
    t: &mut Tracer,
) {
    t.adopt(parent);
    let scanned = t.span("storage.wal_recover_scan", || WriteAheadLog::recover(image));
    let catalog = t.span("storage.load_disk", || {
        load_tpch(db.source(), EngineKind::Disk, POOL_PAGES)
    });
    if let Ok(recovery) = scanned {
        for rec in &recovery.records {
            apply_record(&catalog, rec, t);
        }
    }
    t.span("storage.index_build", || {
        catalog.create_index(index.0, index.1, index.2).is_ok()
    });
    t.release(parent);
}

/// The inner steps of fig1/fig3 (`profile` picks which): open the
/// database, trace the ten-query Q5 workload, sweep the PVC grid.
pub fn shadow_pvc_figure(profile: EngineProfile, scale: f64, parent: SpanId, t: &mut Tracer) {
    shadow_open(profile, scale, parent, t);
    let db = EcoDb::tpch(profile, scale);
    if profile == EngineProfile::CommercialDisk {
        db.warm_up();
    }
    t.adopt(parent);
    let (_, trace) = t.span("core.trace_q5_workload", || db.trace_q5_workload());
    t.span("core.pvc_sweep", || {
        PvcSweep::run(
            db.machine(),
            &trace,
            &[0.05, 0.10, 0.15],
            &[VoltageSetting::Small, VoltageSetting::Medium],
        )
        .points
        .len()
    });
    t.release(parent);
}

/// The inner steps of fig6: open the memory database, run the offline
/// QED experiment at the paper's four batch sizes.
pub fn shadow_qed_figure(scale: f64, parent: SpanId, t: &mut Tracer) {
    shadow_open(EngineProfile::MemoryEngine, scale, parent, t);
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    t.adopt(parent);
    for k in [35, 40, 45, 50] {
        t.span("core.run_qed", || {
            run_qed(&db, k, MachineConfig::stock(), true).results_match
        });
    }
    t.release(parent);
}
