//! The reproduction harness: one typed experiment per table/figure in
//! the paper's evaluation, each returning structured rows and printing
//! the same series the paper reports, plus the extensions and ablations
//! built on them. [`report`] renders any of them by `repro` target name
//! (`cargo run --release --bin repro -- 0.01 all`);
//! `tests/golden/repro_0.01_all.txt` holds `all` at scale 0.01 and
//! `tests/repro_golden.rs` compares it byte for byte.
//!
//! | target | experiment | paper artifact |
//! |--------|------------|----------------|
//! | `table1` | `table1` | Table 1 — system power breakdown |
//! | `fig1` | [`fig1`] | Fig 1 — Q5 joules vs seconds, commercial DBMS |
//! | `fig2` | `fig2` | Fig 2 — energy/time ratios + iso-EDP, commercial |
//! | `fig3` | [`fig3`] | Fig 3 — energy/time ratios, MySQL memory engine |
//! | `fig4` | `fig4` | Fig 4 — observed vs theoretical (`V²/F`) EDP |
//! | `warmcold` | [`warm_cold`] | §3.5 — CPU vs disk joules, warm vs cold |
//! | `fig5` | [`fig5`] | Fig 5 — disk throughput & energy/KB by pattern |
//! | `fig6` | [`fig6`] | Fig 6 — QED energy vs average response time |
//! | `openergy` | `operator_energy` | extension — join-algorithm energy (§2) |
//! | `parallel` | `parallel_scaling` | extension — morsel-driven Q5 across 1–8 cores |
//! | `index` | [`index_crossover`] | extension — B-tree probe vs scan energy (Fig 5's random-vs-sequential axis applied to access paths) |
//! | `pstate` | `pstate_cap` | ablation — p-state capping vs FSB underclocking (§3) |
//! | `droop` | `voltage_droop` | ablation — load-dependent voltage droop |
//! | `sampling` | [`sampling`] | ablation — 1 Hz EPU sampling vs exact integration (§3.1) |
//! | `shortcircuit` | `qed_short_circuit` | ablation — QED's merged disjunction, short-circuit vs exhaustive |
//! | `reread` | `warm_reread` | ablation — residual warm-run disk re-reads (§3.5) |
//! | `joinorder` | `join_order` | ablation — Q5 join order ranked by energy (§2) |
//!
//! Scale factors are configurable (the paper used SF 1.0 / 0.125 / 0.5
//! on real hardware; simulation shapes are scale-free, so tests and
//! the golden use smaller SFs for runtime sanity).

use eco_query::plans;
use eco_simhw::cpu::{CpuConfig, VoltageSetting};
use eco_simhw::disk::{AccessPattern, DiskSpec};
use eco_simhw::machine::MachineConfig;
use eco_simhw::power::{table1_breakdown, CpuPowerModel};
use eco_simhw::psu::PsuSpec;
use eco_simhw::trace::WorkTrace;
use eco_simhw::CpuSpec;
use eco_tpch::{q5_workload, Q5Params};

use crate::advisor::{rank_plans_by_energy, PlanEnergy};
use crate::metrics::iso_edp_curve;
use crate::pvc::{theoretical_edp_ratio, PvcSweep};
use crate::qed::{run_qed, run_qed_sweep, QedOutcome};
use crate::server::{EcoDb, EngineProfile, Query};

/// Default scale factor for quick experiment runs.
pub const DEFAULT_SCALE: f64 = 0.02;

/// Render an aligned text table.
pub(crate) fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&line(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of the Table-1 reproduction.
#[derive(Debug, Clone)]
pub(crate) struct Table1Row {
    /// Build stage label.
    pub label: String,
    /// Modeled wall watts.
    pub modeled_w: f64,
    /// The paper's measured watts.
    pub paper_w: f64,
}

/// Reproduce Table 1: wall power as the machine is built up.
pub(crate) fn table1() -> Vec<Table1Row> {
    let paper = [9.2, 20.1, 49.7, 54.0, 55.7, 69.3];
    let model = CpuPowerModel::new(CpuSpec::e8500());
    table1_breakdown(&model, &PsuSpec::default())
        .into_iter()
        .zip(paper)
        .map(|(row, paper_w)| Table1Row {
            label: row.label,
            modeled_w: row.wall_w,
            paper_w,
        })
        .collect()
}

/// Format the Table-1 reproduction.
pub fn table1_report() -> String {
    let rows: Vec<Vec<String>> = table1()
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.1}", r.modeled_w),
                format!("{:.1}", r.paper_w),
            ]
        })
        .collect();
    render_table(
        "Table 1: system power breakdown (watts at the wall)",
        &["build stage", "modeled W", "paper W"],
        &rows,
    )
}

// ---------------------------------------------------------------------------
// Figures 1-3: PVC
// ---------------------------------------------------------------------------

/// One PVC operating point for the figure reports.
#[derive(Debug, Clone)]
pub struct PvcFigPoint {
    /// Setting label.
    pub label: String,
    /// Underclock fraction.
    pub underclock: f64,
    /// Voltage setting name.
    pub voltage: String,
    /// Absolute seconds.
    pub seconds: f64,
    /// Absolute CPU joules.
    pub cpu_joules: f64,
    /// Ratios vs stock.
    pub energy_ratio: f64,
    /// Time ratio vs stock.
    pub time_ratio: f64,
    /// EDP ratio vs stock.
    pub edp_ratio: f64,
}

/// PVC figure data: stock + grid points for one engine profile.
#[derive(Debug, Clone)]
pub struct PvcFigure {
    /// Which engine profile was measured.
    pub profile: &'static str,
    /// Stock seconds.
    pub stock_seconds: f64,
    /// Stock CPU joules.
    pub stock_joules: f64,
    /// Grid points.
    pub points: Vec<PvcFigPoint>,
}

fn pvc_figure(profile: EngineProfile, scale: f64, voltages: &[VoltageSetting]) -> PvcFigure {
    let db = EcoDb::tpch(profile, scale);
    if profile == EngineProfile::CommercialDisk {
        db.warm_up(); // the paper's Figs 1-3 are warm runs
    }
    let (_, trace) = db.trace_q5_workload();
    let sweep = PvcSweep::run(db.machine(), &trace, &[0.05, 0.10, 0.15], voltages);
    PvcFigure {
        profile: profile.name(),
        stock_seconds: sweep.stock.seconds,
        stock_joules: sweep.stock.cpu_joules,
        points: sweep
            .points
            .iter()
            .map(|p| PvcFigPoint {
                label: p.point.label.clone(),
                underclock: p.underclock,
                voltage: p.voltage.name().to_string(),
                seconds: p.point.seconds,
                cpu_joules: p.point.cpu_joules,
                energy_ratio: p.energy_ratio,
                time_ratio: p.time_ratio,
                edp_ratio: p.edp_ratio,
            })
            .collect(),
    }
}

/// Fig 1: Q5 workload on the commercial profile — absolute CPU joules
/// vs seconds for stock and the medium-voltage settings A/B/C.
pub fn fig1(scale: f64) -> PvcFigure {
    pvc_figure(
        EngineProfile::CommercialDisk,
        scale,
        &[VoltageSetting::Medium],
    )
}

/// Fig 2: commercial profile, small + medium voltage, ratio axes.
pub(crate) fn fig2(scale: f64) -> PvcFigure {
    pvc_figure(
        EngineProfile::CommercialDisk,
        scale,
        &[VoltageSetting::Small, VoltageSetting::Medium],
    )
}

/// Fig 3: MySQL memory-engine profile, small + medium voltage.
pub fn fig3(scale: f64) -> PvcFigure {
    pvc_figure(
        EngineProfile::MemoryEngine,
        scale,
        &[VoltageSetting::Small, VoltageSetting::Medium],
    )
}

/// Format a PVC figure as a table.
pub fn pvc_report(title: &str, fig: &PvcFigure) -> String {
    let mut rows = vec![vec![
        "stock".to_string(),
        format!("{:.2}", fig.stock_seconds),
        format!("{:.1}", fig.stock_joules),
        "1.000".into(),
        "1.000".into(),
        "1.000".into(),
    ]];
    for p in &fig.points {
        rows.push(vec![
            p.label.clone(),
            format!("{:.2}", p.seconds),
            format!("{:.1}", p.cpu_joules),
            format!("{:.3}", p.energy_ratio),
            format!("{:.3}", p.time_ratio),
            format!("{:.3}", p.edp_ratio),
        ]);
    }
    render_table(
        title,
        &[
            "setting",
            "seconds",
            "CPU J",
            "E ratio",
            "T ratio",
            "EDP ratio",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------------
// Figure 4: observed vs theoretical EDP
// ---------------------------------------------------------------------------

/// One Fig-4 point: observed EDP ratio vs the `V²/F` model.
#[derive(Debug, Clone)]
pub(crate) struct Fig4Point {
    /// Voltage setting name.
    pub voltage: String,
    /// Underclock fraction.
    pub underclock: f64,
    /// Observed EDP ratio vs stock.
    pub observed_edp_ratio: f64,
    /// Theoretical `V²/F` ratio vs stock.
    pub theoretical_ratio: f64,
}

/// Fig 4: on the MySQL profile (as in the paper), compare observed EDP
/// with the theoretical model for small (a) and medium (b) settings.
pub(crate) fn fig4(scale: f64) -> Vec<Fig4Point> {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    let (_, trace) = db.trace_q5_workload();
    let sweep = PvcSweep::paper_grid(db.machine(), &trace);
    let util = db.price(&trace, MachineConfig::stock()).utilization;
    let mut out = Vec::new();
    for v in [VoltageSetting::Small, VoltageSetting::Medium] {
        for p in sweep.points_for(v) {
            out.push(Fig4Point {
                voltage: v.name().to_string(),
                underclock: p.underclock,
                observed_edp_ratio: p.edp_ratio,
                theoretical_ratio: theoretical_edp_ratio(db.machine(), &p.point.config.cpu, util),
            });
        }
    }
    out
}

/// Format Fig 4.
pub(crate) fn fig4_report(points: &[Fig4Point]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.voltage.clone(),
                format!("{:.0}%", p.underclock * 100.0),
                format!("{:.3}", p.observed_edp_ratio),
                format!("{:.3}", p.theoretical_ratio),
            ]
        })
        .collect();
    render_table(
        "Fig 4: observed EDP vs theoretical V²/F (ratios vs stock)",
        &["voltage", "underclock", "observed EDP", "V²/F model"],
        &rows,
    )
}

// ---------------------------------------------------------------------------
// §3.5: warm vs cold
// ---------------------------------------------------------------------------

/// Warm/cold run measurements (paper §3.5's CPU-vs-disk split).
#[derive(Debug, Clone, Copy)]
pub struct WarmColdRun {
    /// Workload seconds.
    pub seconds: f64,
    /// CPU joules.
    pub cpu_joules: f64,
    /// Disk joules.
    pub disk_joules: f64,
}

/// Warm vs cold comparison.
#[derive(Debug, Clone, Copy)]
pub struct WarmCold {
    /// Warm-database run.
    pub warm: WarmColdRun,
    /// Cold (post-"reboot") run.
    pub cold: WarmColdRun,
}

/// §3.5: run the Q5 workload on the commercial profile cold (flushed
/// buffer pool) and warm.
pub fn warm_cold(scale: f64) -> WarmCold {
    let db = EcoDb::tpch(EngineProfile::CommercialDisk, scale);
    db.flush_cache();
    let cold_run = db.price(&db.trace_q5_workload().1, MachineConfig::stock());
    let warm_run = db.price(&db.trace_q5_workload().1, MachineConfig::stock());
    let to = |m: &eco_simhw::machine::Measurement| WarmColdRun {
        seconds: m.elapsed_s,
        cpu_joules: m.cpu_joules,
        disk_joules: m.disk_joules,
    };
    WarmCold {
        warm: to(&warm_run),
        cold: to(&cold_run),
    }
}

/// Format the warm/cold comparison.
pub fn warm_cold_report(wc: &WarmCold) -> String {
    let rows = vec![
        vec![
            "warm".to_string(),
            format!("{:.2}", wc.warm.seconds),
            format!("{:.1}", wc.warm.cpu_joules),
            format!("{:.1}", wc.warm.disk_joules),
            format!("{:.2}", wc.warm.disk_joules / wc.warm.cpu_joules),
        ],
        vec![
            "cold".to_string(),
            format!("{:.2}", wc.cold.seconds),
            format!("{:.1}", wc.cold.cpu_joules),
            format!("{:.1}", wc.cold.disk_joules),
            format!("{:.2}", wc.cold.disk_joules / wc.cold.cpu_joules),
        ],
    ];
    render_table(
        "§3.5: warm vs cold Q5 workload (commercial profile)",
        &["run", "seconds", "CPU J", "disk J", "disk/CPU"],
        &rows,
    )
}

// ---------------------------------------------------------------------------
// Figure 5: disk access patterns
// ---------------------------------------------------------------------------

/// One Fig-5 row.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Access pattern name.
    pub pattern: String,
    /// Read block size, bytes.
    pub block: u64,
    /// Throughput, MB/s.
    pub throughput_mb_s: f64,
    /// Energy per KB retrieved, millijoules.
    pub mj_per_kb: f64,
}

/// Fig 5: read 1.6 GB of a 4 GB file sequentially and randomly at
/// 4/8/16/32 KB blocks; report throughput and energy per KB.
pub fn fig5() -> Vec<Fig5Row> {
    let disk = DiskSpec::default();
    let total: u64 = (16u64 << 30) / 10; // 1.6 GB
    let mut out = Vec::new();
    for pattern in [AccessPattern::Sequential, AccessPattern::Random] {
        for block in [4u64 << 10, 8 << 10, 16 << 10, 32 << 10] {
            out.push(Fig5Row {
                pattern: pattern.name().to_string(),
                block,
                throughput_mb_s: disk.throughput(pattern, total, block) / 1e6,
                mj_per_kb: disk.energy_per_kb(pattern, total, block) * 1e3,
            });
        }
    }
    out
}

/// Format Fig 5.
pub fn fig5_report(rows: &[Fig5Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pattern.clone(),
                format!("{}K", r.block >> 10),
                format!("{:.2}", r.throughput_mb_s),
                format!("{:.3}", r.mj_per_kb),
            ]
        })
        .collect();
    render_table(
        "Fig 5: disk throughput and energy per KB (1.6 GB of a 4 GB file)",
        &["pattern", "block", "MB/s", "mJ/KB"],
        &table,
    )
}

// ---------------------------------------------------------------------------
// Figure 6: QED
// ---------------------------------------------------------------------------

/// Fig 6: QED vs sequential for the paper's batch sizes 35/40/45/50 on
/// the MySQL memory-engine profile at stock settings (one sweep: the
/// sequential baseline runs once, see [`run_qed_sweep`]).
pub fn fig6(scale: f64) -> Vec<QedOutcome> {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    run_qed_sweep(&db, &[35, 40, 45, 50], MachineConfig::stock(), true)
}

/// Format Fig 6.
pub(crate) fn fig6_report(outcomes: &[QedOutcome]) -> String {
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.batch_size.to_string(),
                format!("{:.3}", o.energy_ratio),
                format!("{:.3}", o.response_ratio),
                format!("{:.3}", o.edp_ratio),
                o.results_match.to_string(),
            ]
        })
        .collect();
    render_table(
        "Fig 6: QED vs sequential (MySQL memory-engine profile, stock)",
        &[
            "batch",
            "E ratio",
            "avg-resp ratio",
            "EDP ratio",
            "results ok",
        ],
        &rows,
    )
}

// ---------------------------------------------------------------------------
// Parallel scaling (extension; ROADMAP's production-scale axis): the
// morsel-driven executor across 1..8 simulated cores.
// ---------------------------------------------------------------------------

/// One core count's measured outcome for the Q5 PVC workload.
#[derive(Debug, Clone)]
pub(crate) struct ParallelScalingRow {
    /// Worker/core count.
    pub workers: usize,
    /// Simulated makespan, seconds.
    pub elapsed_s: f64,
    /// Makespan speedup vs 1 worker.
    pub speedup: f64,
    /// Total CPU joules (all cores, incl. idle tails).
    pub cpu_joules: f64,
    /// Wall joules through the shared PSU.
    pub wall_joules: f64,
    /// Whether the merged parallel ledger is bit-identical to serial.
    pub ledger_identical: bool,
}

/// The parallel-scaling experiment: the ten-query Q5 workload on the
/// memory-engine profile at stock settings, across 1/2/4/8 cores. The
/// merged energy ledger is asserted bit-identical to serial execution
/// at every core count — the property that keeps every other figure in
/// this file reproducible on parallel hardware.
pub(crate) fn parallel_scaling(scale: f64) -> Vec<ParallelScalingRow> {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    let (_, serial_trace) = db.trace_q5_workload();
    let totals = |traces: &[WorkTrace]| {
        traces
            .iter()
            .map(WorkTrace::total)
            .sum::<eco_simhw::trace::Ledger>()
    };
    let serial_totals = totals(std::slice::from_ref(&serial_trace));

    let mut base = 0.0;
    [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            let core_traces = q5_workload_cores(&db, workers);
            let m = db
                .multicore(workers)
                .measure_uniform(&core_traces, &MachineConfig::stock());
            if workers == 1 {
                base = m.elapsed_s;
            }
            ParallelScalingRow {
                workers,
                elapsed_s: m.elapsed_s,
                speedup: base / m.elapsed_s,
                cpu_joules: m.cpu_joules,
                wall_joules: m.wall_joules,
                ledger_identical: totals(&core_traces) == serial_totals,
            }
        })
        .collect()
}

/// The ten-query Q5 workload on `workers` cores, each core's trace the
/// concatenation of its per-statement traces.
fn q5_workload_cores(db: &EcoDb, workers: usize) -> Vec<WorkTrace> {
    let mut cores = vec![WorkTrace::new(); workers];
    for params in q5_workload() {
        let (_, traces) = db
            .trace(&Query::Q5(&params), workers)
            .unwrap_or_else(|e| panic!("the Q5 workload hit a fault: {e}"));
        for (core, t) in cores.iter_mut().zip(traces) {
            core.extend(t);
        }
    }
    cores
}

/// Format the parallel-scaling study.
pub(crate) fn parallel_scaling_report(rows: &[ParallelScalingRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                format!("{:.4}", r.elapsed_s),
                format!("{:.2}x", r.speedup),
                format!("{:.2}", r.cpu_joules),
                format!("{:.2}", r.wall_joules),
                r.ledger_identical.to_string(),
            ]
        })
        .collect();
    render_table(
        "Parallel scaling: Q5 workload, morsel-driven, per-core DVFS ledgers",
        &[
            "cores",
            "makespan s",
            "speedup",
            "CPU J",
            "wall J",
            "ledger==serial",
        ],
        &table,
    )
}

// ---------------------------------------------------------------------------
// Operator-level energy (extension; paper §2: "rethinking join
// algorithms in this context")
// ---------------------------------------------------------------------------

/// One join algorithm's measured cost on the same input.
#[derive(Debug, Clone)]
pub(crate) struct JoinAlgoRow {
    /// Algorithm name.
    pub algo: String,
    /// Execution seconds.
    pub seconds: f64,
    /// CPU joules.
    pub cpu_joules: f64,
    /// Average package watts while executing.
    pub avg_watts: f64,
    /// Output rows.
    pub rows: usize,
}

/// Hash vs sort-merge join on `lineitem ⋈ orders`: same answer,
/// different cycle mix, different watts — the operator-level trade an
/// energy-aware optimizer must weigh.
pub(crate) fn operator_energy(scale: f64) -> Vec<JoinAlgoRow> {
    use eco_query::context::ExecCtx;
    use eco_query::expr::{AggFunc, Expr};
    use eco_query::ops::{AggSpec, BoxedOp, HashAggregate, HashJoin, SeqScan, SortMergeJoin};
    use eco_simhw::trace::{PhaseKind, WorkTrace};

    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    let cat = db.catalog();
    let orders = cat.expect("orders");
    let lineitem = cat.expect("lineitem");
    let o_orderkey = orders.schema().expect_index("o_orderkey");
    let l_orderkey = lineitem.schema().expect_index("l_orderkey");

    let mk_scan = |t: &std::sync::Arc<eco_storage::StoredTable>| -> BoxedOp {
        Box::new(SeqScan::new(std::sync::Arc::clone(t)))
    };

    let candidates: Vec<(&str, BoxedOp)> = vec![
        (
            "hash join",
            Box::new(HashJoin::new(
                mk_scan(&orders),
                mk_scan(&lineitem),
                vec![o_orderkey],
                vec![l_orderkey],
            )),
        ),
        (
            "sort-merge join",
            Box::new(SortMergeJoin::new(
                mk_scan(&orders),
                mk_scan(&lineitem),
                vec![o_orderkey],
                vec![l_orderkey],
            )),
        ),
    ];

    candidates
        .into_iter()
        .map(|(name, plan)| {
            // COUNT on top keeps the (identical) result path out of the
            // comparison — the join itself is what's being priced.
            let mut counted = Box::new(HashAggregate::new(
                plan,
                vec![],
                vec![AggSpec {
                    func: AggFunc::Count,
                    input: Expr::int(1),
                    name: "n".to_string(),
                }],
            )) as BoxedOp;
            let mut ctx = ExecCtx::new();
            let rows = db.engine().execute(counted.as_mut(), &mut ctx);
            let joined = rows[0][0].as_int().expect("count") as usize;
            let mut trace = WorkTrace::new();
            trace.push(ctx.take_phase(PhaseKind::Execute, name));
            let m = db.machine().measure(&trace, &MachineConfig::stock());
            JoinAlgoRow {
                algo: name.to_string(),
                seconds: m.elapsed_s,
                cpu_joules: m.cpu_joules,
                avg_watts: m.avg_cpu_w,
                rows: joined,
            }
        })
        .collect()
}

/// Format the operator-level study.
pub(crate) fn operator_energy_report(rows: &[JoinAlgoRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                format!("{:.4}", r.seconds),
                format!("{:.3}", r.cpu_joules),
                format!("{:.1}", r.avg_watts),
                r.rows.to_string(),
            ]
        })
        .collect();
    render_table(
        "Operator-level energy: lineitem ⋈ orders by join algorithm",
        &["algorithm", "seconds", "CPU J", "avg W", "rows"],
        &table,
    )
}

// ---------------------------------------------------------------------------
// Index crossover (extension; ledger schema v4): where does a B-tree
// probe beat a sequential scan in *joules*? Fig 5 prices random I/O far
// above sequential per KB; this experiment applies that axis to access
// paths.
// ---------------------------------------------------------------------------

/// One selectivity point of the scan-vs-index energy study.
#[derive(Debug, Clone)]
pub struct IndexCrossoverRow {
    /// Fraction of the `l_orderkey` keyspace covered by the `BETWEEN`
    /// (lineitem is clustered by orderkey, so this is also roughly the
    /// fraction of pages the index path must touch).
    pub key_fraction: f64,
    /// Fraction of lineitem selected.
    pub selectivity: f64,
    /// Rows returned (identical on both paths).
    pub rows: usize,
    /// Cold sequential-scan seconds.
    pub scan_seconds: f64,
    /// Cold sequential-scan joules (CPU + disk).
    pub scan_joules: f64,
    /// Cold index-probe seconds.
    pub index_seconds: f64,
    /// Cold index-probe joules (CPU + disk).
    pub index_joules: f64,
    /// index/scan energy ratio (< 1 means the index wins).
    pub energy_ratio: f64,
    /// Whether both access paths returned identical rows.
    pub results_match: bool,
}

/// The crossover experiment: `l_orderkey BETWEEN lo AND lo+w` on the
/// commercial-disk profile, cold (flushed pool) so the disk pattern
/// dominates, comparing the sequential-scan plan against the B-tree
/// index plan as the key range widens. Lineitem is clustered by
/// orderkey, so the covered key fraction is roughly the fraction of
/// pages the index path touches. Narrow ranges favor the index (a few
/// random-priced page fetches beat streaming everything); wide ranges
/// favor the scan (random pricing makes touching every page through
/// the index strictly worse than streaming it).
pub fn index_crossover(scale: f64) -> Vec<IndexCrossoverRow> {
    use eco_query::context::ExecCtx;
    use eco_query::ops::BoxedOp;
    use eco_simhw::trace::{PhaseKind, WorkTrace};
    use eco_storage::{TableData, Tuple};

    let db = EcoDb::tpch(EngineProfile::CommercialDisk, scale);
    db.create_index("ix_lineitem_orderkey", "lineitem", "l_orderkey")
        .expect("disk profile indexes l_orderkey");
    let lineitem = db.catalog().expect("lineitem");
    let lineitem_rows = lineitem.len() as f64;
    // Lines are stored in orderkey order: the first and last rows span
    // the keys (read off their pages, no I/O charged).
    let TableData::Disk(disk) = &lineitem.data else {
        unreachable!("the disk profile pages its tables")
    };
    let key = |row: usize| disk.tuple_at(row)[0].as_int().unwrap_or(1);
    let (min_key, max_key) = (key(0), key(disk.len() - 1));
    let span = (max_key - min_key).max(1) as f64;

    // Cold-run a plan: flush the pool, execute, price at stock.
    let measure = |mut plan: BoxedOp, label: &str| -> (Vec<Tuple>, f64, f64) {
        db.flush_cache();
        let mut ctx = ExecCtx::new();
        let rows = db.engine().execute(plan.as_mut(), &mut ctx);
        let mut trace = WorkTrace::new();
        trace.push(ctx.take_phase(PhaseKind::Execute, label));
        let m = db.machine().measure(&trace, &MachineConfig::stock());
        (rows, m.elapsed_s, m.cpu_joules + m.disk_joules)
    };

    [0.001f64, 0.01, 0.05, 0.2, 0.5, 1.0]
        .iter()
        .map(|&key_fraction| {
            let hi = min_key + (span * key_fraction).ceil() as i64;
            let scan = plans::orderkey_range_plan(db.catalog(), min_key, hi);
            let (scan_rows, scan_seconds, scan_joules) = measure(scan, "range scan");
            let ix = plans::orderkey_range_plan_indexed(db.catalog(), min_key, hi)
                .expect("index registered above");
            let (ix_rows, index_seconds, index_joules) = measure(ix, "range probe");
            IndexCrossoverRow {
                key_fraction,
                selectivity: scan_rows.len() as f64 / lineitem_rows,
                rows: scan_rows.len(),
                scan_seconds,
                scan_joules,
                index_seconds,
                index_joules,
                energy_ratio: index_joules / scan_joules,
                results_match: scan_rows == ix_rows,
            }
        })
        .collect()
}

/// Format the index-crossover study.
pub fn index_crossover_report(rows: &[IndexCrossoverRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}%", r.key_fraction * 100.0),
                format!("{:.1}%", r.selectivity * 100.0),
                r.rows.to_string(),
                format!("{:.4}", r.scan_seconds),
                format!("{:.2}", r.scan_joules),
                format!("{:.4}", r.index_seconds),
                format!("{:.2}", r.index_joules),
                format!("{:.3}", r.energy_ratio),
                r.results_match.to_string(),
            ]
        })
        .collect();
    render_table(
        "Index crossover: l_orderkey range, cold, scan vs B-tree probe",
        &[
            "keyspace",
            "sel",
            "rows",
            "scan s",
            "scan J",
            "index s",
            "index J",
            "E ratio",
            "results ok",
        ],
        &table,
    )
}

// ---------------------------------------------------------------------------
// Ablations: the design choices the paper argues for, each priced against
// its alternative.
// ---------------------------------------------------------------------------

/// One CPU setting priced against stock.
#[derive(Debug, Clone)]
pub(crate) struct CpuSettingRow {
    /// Setting label.
    pub label: &'static str,
    /// Top reachable core frequency, GHz.
    pub top_ghz: f64,
    /// CPU energy ratio vs stock.
    pub energy_ratio: f64,
    /// Time ratio vs stock.
    pub time_ratio: f64,
    /// EDP ratio vs stock.
    pub edp_ratio: f64,
}

/// Paper §3's motivating comparison: capping the p-state multiplier is
/// coarse and loses the upper p-states, FSB underclocking is fine-grained
/// and keeps them all. The Q5 workload on the MySQL memory-engine
/// profile, medium voltage throughout.
pub(crate) fn pstate_cap(scale: f64) -> Vec<CpuSettingRow> {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    let (_, trace) = db.trace_q5_workload();
    let stock = db.price(&trace, MachineConfig::stock());
    let medium = VoltageSetting::Medium;
    [
        ("cap x9", CpuConfig::capped(9.0, medium)),
        ("cap x8", CpuConfig::capped(8.0, medium)),
        ("cap x7", CpuConfig::capped(7.0, medium)),
        ("5% UC", CpuConfig::underclocked(0.05, medium)),
        ("10% UC", CpuConfig::underclocked(0.10, medium)),
        ("15% UC", CpuConfig::underclocked(0.15, medium)),
    ]
    .into_iter()
    .map(|(label, cfg)| {
        let m = db.price(&trace, MachineConfig::with_cpu(cfg));
        CpuSettingRow {
            label,
            top_ghz: cfg.top_freq_hz(&db.machine().cpu_spec) / 1e9,
            energy_ratio: m.cpu_joules / stock.cpu_joules,
            time_ratio: m.elapsed_s / stock.elapsed_s,
            edp_ratio: (m.cpu_joules * m.elapsed_s) / (stock.cpu_joules * stock.elapsed_s),
        }
    })
    .collect()
}

/// Format the p-state-cap ablation.
pub(crate) fn pstate_cap_report(rows: &[CpuSettingRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.2}", r.top_ghz),
                format!("{:.3}", r.energy_ratio),
                format!("{:.3}", r.time_ratio),
                format!("{:.3}", r.edp_ratio),
            ]
        })
        .collect();
    render_table(
        "Ablation: p-state capping vs underclocking (Q5 workload, MySQL memory-engine profile, medium voltage)",
        &["setting", "top GHz", "E ratio", "T ratio", "EDP ratio"],
        &table,
    )
}

/// One profile's response to the same PVC setting.
#[derive(Debug, Clone)]
pub(crate) struct DroopRow {
    /// Engine profile label.
    pub profile: &'static str,
    /// CPU utilization at stock.
    pub utilization: f64,
    /// CPU energy ratio vs stock.
    pub energy_ratio: f64,
    /// Core voltage while busy, volts.
    pub busy_voltage_v: f64,
}

/// Load-dependent voltage droop (`eco_simhw::calib::DROOP_AT_FULL_LOAD`),
/// the mechanism behind the commercial-vs-MySQL savings gap: the Q5
/// workload at 5 % underclock / medium voltage on the warm commercial
/// profile (low utilization) and the memory engine (high utilization).
pub(crate) fn voltage_droop(scale: f64) -> Vec<DroopRow> {
    let pvc = MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium));
    [
        ("commercial (low util)", EngineProfile::CommercialDisk),
        ("mysql-memory (high util)", EngineProfile::MemoryEngine),
    ]
    .into_iter()
    .map(|(label, profile)| {
        let db = EcoDb::tpch(profile, scale);
        if profile == EngineProfile::CommercialDisk {
            db.warm_up();
        }
        let (_, trace) = db.trace_q5_workload();
        let stock = db.price(&trace, MachineConfig::stock());
        let m = db.price(&trace, pvc);
        DroopRow {
            profile: label,
            utilization: stock.utilization,
            energy_ratio: m.cpu_joules / stock.cpu_joules,
            busy_voltage_v: m.busy_voltage_v,
        }
    })
    .collect()
}

/// Format the voltage-droop ablation.
pub(crate) fn voltage_droop_report(rows: &[DroopRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.profile.to_string(),
                format!("{:.2}", r.utilization),
                format!("{:.3}", r.energy_ratio),
                format!("{:.3}", r.busy_voltage_v),
            ]
        })
        .collect();
    render_table(
        "Ablation: voltage droop (Q5 workload, 5% UC / medium vs stock)",
        &["profile", "util", "E ratio", "busy V"],
        &table,
    )
}

/// The Q5 workload's CPU joules integrated exactly and as the paper's
/// 1 Hz EPU GUI sampling reads them (§3.1 discusses the sensor's
/// drawbacks): the memory-engine profile at stock.
pub fn sampling(scale: f64) -> eco_simhw::machine::Measurement {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    let (_, trace) = db.trace_q5_workload();
    db.price(&trace, MachineConfig::stock())
}

/// Format the sampling ablation.
pub(crate) fn sampling_report(m: &eco_simhw::machine::Measurement) -> String {
    let err = (m.cpu_joules_epu - m.cpu_joules).abs() / m.cpu_joules;
    render_table(
        "Ablation: EPU 1 Hz sampling vs exact integration (Q5 workload, MySQL memory-engine profile)",
        &["seconds", "exact J", "sampled J", "rel error"],
        &[vec![
            format!("{:.2}", m.elapsed_s),
            format!("{:.2}", m.cpu_joules),
            format!("{:.2}", m.cpu_joules_epu),
            format!("{:.2}%", err * 100.0),
        ]],
    )
}

/// QED at batch 40 with the merged scan's disjunction short-circuited
/// and evaluated exhaustively, in that order (`docs/ARCHITECTURE.md`,
/// "The merged QED scan": short-circuiting is what makes Fig 6's growth
/// sublinear). Memory-engine profile, stock.
pub(crate) fn qed_short_circuit(scale: f64) -> [QedOutcome; 2] {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    [true, false].map(|short_circuit| run_qed(&db, 40, MachineConfig::stock(), short_circuit))
}

/// Format the QED short-circuit ablation.
pub(crate) fn qed_short_circuit_report(outcomes: &[QedOutcome; 2]) -> String {
    let table: Vec<Vec<String>> = ["short-circuit", "exhaustive"]
        .iter()
        .zip(outcomes)
        .map(|(name, o)| {
            vec![
                name.to_string(),
                format!("{:.3}", o.energy_ratio),
                format!("{:.3}", o.response_ratio),
                format!("{:.3}", o.edp_ratio),
            ]
        })
        .collect();
    render_table(
        "Ablation: QED disjunction evaluation (batch 40, MySQL memory-engine profile, stock)",
        &["evaluation", "E ratio", "avg-resp ratio", "EDP ratio"],
        &table,
    )
}

/// One residual re-read interval of the warm-run disk study.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmRereadRow {
    /// Every how many pool hits a warm page is read again (`None`: never).
    pub every: Option<u64>,
    /// Workload seconds.
    pub seconds: f64,
    /// CPU joules.
    pub cpu_joules: f64,
    /// Disk joules.
    pub disk_joules: f64,
}

/// Paper §3.5 observes the disk stays busy even with a warm,
/// memory-resident database: the warm Q5 workload on the commercial
/// profile as the buffer pool's residual re-read interval shrinks.
pub(crate) fn warm_reread(scale: f64) -> Vec<WarmRereadRow> {
    [None, Some(5000u64), Some(2500), Some(500)]
        .into_iter()
        .map(|every| {
            let db = EcoDb::tpch(EngineProfile::CommercialDisk, scale);
            db.catalog().pool().set_warm_reread_every(every);
            db.warm_up();
            let m = db.price(&db.trace_q5_workload().1, MachineConfig::stock());
            WarmRereadRow {
                every,
                seconds: m.elapsed_s,
                cpu_joules: m.cpu_joules,
                disk_joules: m.disk_joules,
            }
        })
        .collect()
}

/// Format the warm re-read ablation.
pub(crate) fn warm_reread_report(rows: &[WarmRereadRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.every.map_or("off".to_string(), |e| e.to_string()),
                format!("{:.3}", r.seconds),
                format!("{:.2}", r.disk_joules),
                format!("{:.3}", r.disk_joules / r.cpu_joules),
            ]
        })
        .collect();
    render_table(
        "Ablation: warm re-read interval (warm Q5 workload, commercial profile)",
        &["re-read every", "seconds", "disk J", "disk/CPU"],
        &table,
    )
}

/// Paper §2's query-level opportunity: one Q5 under two join orders
/// (filter pushdown vs late filtering) ranked by CPU joules
/// ([`rank_plans_by_energy`]). Memory-engine profile, stock.
pub(crate) fn join_order(scale: f64) -> Vec<PlanEnergy> {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    let params = Q5Params::new("ASIA", 1994);
    rank_plans_by_energy(
        &db,
        vec![
            ("pushdown", plans::q5_plan(db.catalog(), &params)),
            (
                "late-filter",
                plans::q5_plan_late_filter(db.catalog(), &params),
            ),
        ],
        MachineConfig::stock(),
    )
}

/// Format the join-order ablation.
pub(crate) fn join_order_report(ranked: &[PlanEnergy]) -> String {
    let table: Vec<Vec<String>> = ranked
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                format!("{:.4}", p.seconds),
                format!("{:.3}", p.cpu_joules),
                format!("{:.4}", p.edp()),
            ]
        })
        .collect();
    render_table(
        "Ablation: Q5 join order by energy (MySQL memory-engine profile, stock)",
        &["plan", "seconds", "CPU J", "EDP"],
        &table,
    )
}

// ---------------------------------------------------------------------------
// The `repro` report
// ---------------------------------------------------------------------------

/// Renders one `repro` target's section at a scale factor.
pub(crate) type Render = fn(f64) -> String;

/// Every `repro` target and its section, in the order `all` renders
/// them.
pub const TARGETS: [(&str, Render); 17] = [
    ("table1", |_| table1_report()),
    ("fig1", |scale| {
        pvc_report(
            "Fig 1: TPC-H Q5 workload on the commercial profile (medium voltage)",
            &fig1(scale),
        )
    }),
    ("fig2", |scale| {
        format!(
            "{}iso-EDP curve samples: {:?}\n",
            pvc_report(
                "Fig 2: commercial profile, small + medium voltage (ratios vs stock)",
                &fig2(scale),
            ),
            iso_edp_curve(&[0.4, 0.6, 0.8, 1.0])
        )
    }),
    ("fig3", |scale| {
        pvc_report(
            "Fig 3: MySQL memory-engine profile (ratios vs stock)",
            &fig3(scale),
        )
    }),
    ("fig4", |scale| fig4_report(&fig4(scale))),
    ("warmcold", |scale| warm_cold_report(&warm_cold(scale))),
    ("fig5", |_| fig5_report(&fig5())),
    ("fig6", |scale| fig6_report(&fig6(scale))),
    ("openergy", |scale| {
        operator_energy_report(&operator_energy(scale))
    }),
    ("parallel", |scale| {
        parallel_scaling_report(&parallel_scaling(scale))
    }),
    ("index", |scale| {
        index_crossover_report(&index_crossover(scale))
    }),
    ("pstate", |scale| pstate_cap_report(&pstate_cap(scale))),
    ("droop", |scale| voltage_droop_report(&voltage_droop(scale))),
    ("sampling", |scale| sampling_report(&sampling(scale))),
    ("shortcircuit", |scale| {
        qed_short_circuit_report(&qed_short_circuit(scale))
    }),
    ("reread", |scale| warm_reread_report(&warm_reread(scale))),
    ("joinorder", |scale| join_order_report(&join_order(scale))),
];

/// The `repro` report at `scale`: a header, then one section per
/// target in the order given. No target, or `all` among them, renders
/// every one of [`TARGETS`]. The first target not in [`TARGETS`] is
/// the error, returned before any experiment runs.
pub fn report(scale: f64, targets: &[&str]) -> Result<String, String> {
    let mut sections = Vec::new();
    for &name in targets.iter().filter(|&&t| t != "all") {
        let (_, render) = TARGETS
            .iter()
            .find(|(target, _)| *target == name)
            .ok_or_else(|| name.to_string())?;
        sections.push(*render);
    }
    if sections.is_empty() || targets.contains(&"all") {
        sections = TARGETS.iter().map(|(_, render)| *render).collect();
    }
    let mut out = format!(
        "ecoDB reproduction of Lang & Patel, CIDR 2009 (scale factor {scale})\n\
         ====================================================================\n\n"
    );
    for render in sections {
        out.push_str(&render(scale));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 0.004;

    #[test]
    fn report_rejects_an_unknown_target_before_running_any() {
        assert_eq!(report(SCALE, &["fig7"]), Err("fig7".to_string()));
        assert_eq!(report(SCALE, &["index", "fig7"]), Err("fig7".to_string()));
        let table1 = report(SCALE, &["table1"]).expect("a known target");
        assert!(table1.ends_with(&format!("{}\n", table1_report())));
    }

    #[test]
    fn table1_within_model_bands() {
        for r in table1() {
            let rel = (r.modeled_w - r.paper_w).abs() / r.paper_w;
            assert!(
                rel < 0.15,
                "{}: {:.1} vs {:.1}",
                r.label,
                r.modeled_w,
                r.paper_w
            );
        }
        assert!(!table1_report().is_empty());
    }

    #[test]
    fn fig1_setting_a_shape() {
        // Fig 1's headline: 5 % + medium saves big energy for a small
        // time penalty; deeper settings are strictly worse on both axes.
        let f = fig1(SCALE);
        assert_eq!(f.points.len(), 3);
        let a = &f.points[0];
        assert!(a.energy_ratio < 0.65, "A saves a lot: {}", a.energy_ratio);
        assert!(a.time_ratio < 1.10, "A costs little: {}", a.time_ratio);
        for w in f.points.windows(2) {
            assert!(
                w[1].cpu_joules > w[0].cpu_joules,
                "B, C consume more energy"
            );
            assert!(w[1].seconds > w[0].seconds, "B, C are slower");
        }
    }

    #[test]
    fn fig3_mysql_saves_less_than_commercial() {
        let commercial = fig2(SCALE);
        let mysql = fig3(SCALE);
        // Compare the 5 % medium point across profiles.
        let c = commercial
            .points
            .iter()
            .find(|p| p.voltage == "medium" && p.underclock == 0.05)
            .unwrap();
        let m = mysql
            .points
            .iter()
            .find(|p| p.voltage == "medium" && p.underclock == 0.05)
            .unwrap();
        assert!(
            m.energy_ratio > c.energy_ratio + 0.1,
            "MySQL {} vs commercial {}",
            m.energy_ratio,
            c.energy_ratio
        );
        // MySQL's time penalty is larger (CPU-bound workload).
        assert!(m.time_ratio > c.time_ratio);
    }

    #[test]
    fn fig4_observed_and_theory_agree_in_shape() {
        let pts = fig4(SCALE);
        assert_eq!(pts.len(), 6);
        for chunk in pts.chunks(3) {
            for w in chunk.windows(2) {
                assert!(w[1].observed_edp_ratio > w[0].observed_edp_ratio);
                assert!(w[1].theoretical_ratio > w[0].theoretical_ratio);
            }
        }
    }

    #[test]
    fn warm_cold_matches_paper_shape() {
        // Paper §3.5: cold ≈ 3× slower; warm disk/CPU ≈ 1/6; cold
        // disk/CPU > 1/2.
        let wc = warm_cold(SCALE);
        let slowdown = wc.cold.seconds / wc.warm.seconds;
        assert!(slowdown > 1.8, "cold must be much slower: {slowdown}");
        let warm_ratio = wc.warm.disk_joules / wc.warm.cpu_joules;
        let cold_ratio = wc.cold.disk_joules / wc.cold.cpu_joules;
        assert!(
            cold_ratio > 2.0 * warm_ratio,
            "{warm_ratio} vs {cold_ratio}"
        );
    }

    #[test]
    fn fig5_ratios() {
        let rows = fig5();
        assert_eq!(rows.len(), 8);
        let seq: Vec<&Fig5Row> = rows.iter().filter(|r| r.pattern == "sequential").collect();
        let rnd: Vec<&Fig5Row> = rows.iter().filter(|r| r.pattern == "random").collect();
        // Sequential flat; random rises just under proportionally.
        assert!((seq[0].throughput_mb_s - seq[3].throughput_mb_s).abs() < 0.01);
        let r8 = rnd[1].throughput_mb_s / rnd[0].throughput_mb_s;
        assert!((1.7..2.0).contains(&r8), "8K/4K = {r8}");
        for (s, r) in seq.iter().zip(&rnd) {
            assert!(r.mj_per_kb > s.mj_per_kb);
        }
    }

    #[test]
    fn join_algorithms_agree_but_differ_in_power() {
        let rows = operator_energy(SCALE);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rows, rows[1].rows, "same join cardinality");
        // Different algorithms, different work: the energy bills differ
        // substantially for the same answer.
        let e_rel = (rows[0].cpu_joules - rows[1].cpu_joules).abs()
            / rows[0].cpu_joules.min(rows[1].cpu_joules);
        assert!(
            e_rel > 0.15,
            "hash {} J vs merge {} J",
            rows[0].cpu_joules,
            rows[1].cpu_joules
        );
        assert!(!operator_energy_report(&rows).is_empty());
    }

    #[test]
    fn parallel_scaling_is_near_linear_with_identical_ledgers() {
        let rows = parallel_scaling(SCALE);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.ledger_identical,
                "cores={}: merged ledger must equal serial",
                r.workers
            );
        }
        // Simulated makespan scales near-linearly on the CPU-bound
        // profile (the client gap on core 0 bounds perfect scaling).
        let s4 = rows.iter().find(|r| r.workers == 4).unwrap().speedup;
        assert!(s4 > 2.0, "4-core simulated speedup {s4}");
        // More cores never cost makespan.
        for w in rows.windows(2) {
            assert!(w[1].elapsed_s <= w[0].elapsed_s * 1.0001);
        }
        assert!(!parallel_scaling_report(&rows).is_empty());
    }

    #[test]
    fn index_crossover_favors_probes_only_when_selective() {
        let rows = index_crossover(SCALE);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.results_match,
                "fraction {}: rows must match",
                r.key_fraction
            );
        }
        let narrow = &rows[0];
        let full = rows.last().unwrap();
        assert!(
            narrow.energy_ratio < 0.5,
            "narrow range should favor the index: {}",
            narrow.energy_ratio
        );
        assert!(
            full.energy_ratio > 1.0,
            "full range should favor the scan: {}",
            full.energy_ratio
        );
        // The ratio rises with selectivity: each extra matched page is
        // random-priced on the index path, sequential on the scan path.
        for w in rows.windows(2) {
            assert!(
                w[1].energy_ratio > w[0].energy_ratio * 0.99,
                "ratio should rise with width: {} then {}",
                w[0].energy_ratio,
                w[1].energy_ratio
            );
        }
        assert!(!index_crossover_report(&rows).is_empty());
    }

    #[test]
    fn fig6_trades_energy_for_response() {
        let outcomes = fig6(SCALE);
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(o.results_match);
            assert!(
                o.energy_ratio < 0.75,
                "batch {}: {}",
                o.batch_size,
                o.energy_ratio
            );
            assert!(
                o.response_ratio > 1.0,
                "batch {}: {}",
                o.batch_size,
                o.response_ratio
            );
        }
        // Best EDP at the largest batch.
        assert!(outcomes[3].edp_ratio < outcomes[0].edp_ratio);
    }
}
