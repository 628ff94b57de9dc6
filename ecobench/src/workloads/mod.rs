//! The five workloads. Each drives ecoDB only through its public
//! end-to-end surface (listed in the README as the pinned API) from one
//! load-generating thread; everything below that surface goes through
//! `layers.rs` and runs only in the traced run.

mod disk_cold_probe;
mod olap_warm;
mod paper_repro;
mod serve_mixed_wal;
mod serve_qed;

use eco_core::{EcoDb, EngineProfile};
use eco_server::{plan_admission, AdmissionConfig, ServeReport, ServerConfig, SessionOutcome};
use eco_simhw::machine::MachineConfig;
use eco_simhw::trace::WorkTrace;
use eco_storage::Tuple;

use crate::layers;
use crate::runner::{OpSim, RoundOut, Sizes, Workload};
use crate::trace::{SpanId, Tracer};

/// Engine worker count of the two serving workloads. One, not the two
/// cores of the reference box: with two workers anything else that
/// wakes up on the box stretches a round (`serve_qed`'s round time
/// spread by 28 % against 17 % with one worker, with no probe able to
/// follow it; see "Noise" in the README), and on the disk profile a
/// two-worker scan makes the simulated cost depend on host scheduling
/// (see "Found while building it").
pub const WORKERS: usize = 1;

/// How big a run is: the real thing, or a seconds-long miniature for
/// the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Size {
    /// TPC-H scale factor: 0.01 is the `BENCH_SCALE` of every existing
    /// gate in the repository.
    fn scale(self) -> f64 {
        match self {
            Size::Full => 0.01,
            Size::Tiny => 0.002,
        }
    }

    /// `full` for a real run; two epochs of one round for a tiny one
    /// (two, so the cross-epoch determinism check still runs).
    fn sizes(self, full: Sizes) -> Sizes {
        match self {
            Size::Full => full,
            Size::Tiny => Sizes {
                epochs: 2,
                warmup_rounds: 0,
                sim_rounds: 1,
            },
        }
    }
}

/// Build the workload called `name`.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "olap_warm" => Box::new(olap_warm::OlapWarm::new(seed, size)),
        "disk_cold_probe" => Box::new(disk_cold_probe::DiskColdProbe::new(seed, size)),
        "serve_qed" => Box::new(serve_qed::ServeQed::new(seed, size)),
        "serve_mixed_wal" => Box::new(serve_mixed_wal::ServeMixedWal::new(seed, size)),
        "paper_repro" => Box::new(paper_repro::PaperRepro::new(seed, size)),
        _ => return None,
    })
}

/// Open the database a quickstart user gets: defaults, no `with_*`.
/// The traced run first repeats the generate and load steps under
/// spans of their own.
fn open_db(profile: EngineProfile, scale: f64, t: &mut Tracer) -> EcoDb {
    if t.enabled() {
        layers::shadow_open(profile, scale, None, t);
    }
    EcoDb::tpch(profile, scale)
}

/// Plan admission for `db` the way the server's own example does and
/// turn the plan into a server configuration.
fn planned_config(db: &EcoDb, workers: usize, t: &mut Tracer) -> ServerConfig {
    let plan = t.span("server.plan_admission", || {
        plan_admission(db, &AdmissionConfig::default())
    });
    ServerConfig::batched(workers, 1).with_admission(&plan)
}

/// One SQL statement, end to end.
struct SqlDone {
    rows: Vec<Tuple>,
    trace: WorkTrace,
    sim: OpSim,
    span: SpanId,
}

/// Trace one statement through `EcoDb::try_trace_sql` and price it at
/// stock settings — the op of the SQL workloads.
fn sql_op(db: &EcoDb, sql: &str, t: &mut Tracer) -> Result<SqlDone, String> {
    let span = t.begin("core.try_trace_sql");
    let traced = db.try_trace_sql(sql);
    t.end(span);
    let (rows, trace) = traced.map_err(|e| format!("{sql}: {e}"))?;
    let m = t.span("simhw.price", || db.price(&trace, MachineConfig::stock()));
    if t.enabled() {
        layers::count_ledger(&trace, t);
        t.count("ops", 1.0);
    }
    Ok(SqlDone {
        rows,
        trace,
        sim: OpSim {
            joules: m.wall_joules,
            response_s: m.elapsed_s,
        },
        span,
    })
}

/// Fold one serve report into the round: one op per request, each
/// completed request carrying its share of the run's wall joules and
/// its own simulated response time; counters for the traced run.
fn absorb_report(report: &ServeReport, out: &mut RoundOut, t: &mut Tracer) {
    let joules = report.measurement.wall_joules / report.served.max(1) as f64;
    out.attempted += report.outcomes.len() as u64;
    out.failed += (report.shed + report.failed) as u64;
    for o in &report.outcomes {
        if let SessionOutcome::Completed {
            rows,
            response_s,
            queue_delay_s,
            ..
        } = o
        {
            out.sims.push(OpSim {
                joules,
                response_s: *response_s,
            });
            t.count("rows_out", rows.len() as f64);
            t.count("queue_delay_s", *queue_delay_s);
        }
    }
    t.count("ops", report.outcomes.len() as f64);
    t.count("served", report.served as f64);
    t.count("shed", report.shed as f64);
    t.count("ledger_ops", report.ledger.cpu.total_ops() as f64);
    t.count("mem_stream_bytes", report.ledger.mem_stream_bytes as f64);
    t.count("log_ios", report.ledger.disk.log_ios as f64);
    t.count("log_bytes", report.ledger.disk.log_bytes as f64);
    for d in &report.dispatches {
        if let eco_server::DispatchKind::Merged(queries) = &d.kind {
            t.count("dispatches", 1.0);
            t.count("members", d.members.len() as f64);
            t.count("distinct", queries.len() as f64);
        }
    }
}
