//! The ledger golden: the exact energy ledger and its exact price for a
//! fixed set of statements at scale 0.01, compared line for line with
//! `tests/golden/ledgers_0.01.txt`.
//!
//! Every figure ecoDB reproduces is a ledger priced through the
//! machine model, and the engines are only held to *each other*
//! elsewhere — a count drift that every engine shares, or a changed
//! price, moves no identity check. This test pins both: each case
//! prints its trace's summed ledger one class per line, then the
//! `Measurement` at stock and at a PVC setting (5 % underclock, medium
//! voltage downgrade) with every `f64` in its exact `{:?}` form.
//!
//! Cases: SQL TPC-H Q1/Q3/Q5/Q6 cold and warm on both engine profiles;
//! per-core cases — the Q5 workload at 2 workers on both profiles and a
//! warm disk Q6 at 4 — each core's ledger and price, then the
//! multi-core price of them all; Q1, Q6 and Q3 under compressed pricing; a QED merged selection; a cold
//! Q6 under transient read faults; `CREATE INDEX` with one point and one range probe; one DML group
//! commit; and one crash recovery (its report and the next statement).
//! Last, the paper's six headline numbers (fig1, fig3, fig6) and their
//! mean distance from the paper's, to every digit.
//!
//! A change that moves a count or a price on purpose regenerates the
//! golden in the same commit with `scripts/check_repro_golden.sh
//! --bless` (which blesses this golden and the repro golden).

use std::fmt::Write as _;

use ecodb::core::experiments::{fig1, fig3, fig6, PvcFigure};
use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::query::plans;
use ecodb::simhw::trace::{PricingMode, WorkTrace};
use ecodb::simhw::{CpuConfig, FaultPlan, MachineConfig, VoltageSetting};
use ecodb::tpch::{q5_workload, Q5Params, QedQuery};

const GOLDEN: &str = include_str!("golden/ledgers_0.01.txt");
const SCALE: f64 = 0.01;

const Q1: &str = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
     SUM(l_extendedprice) AS sum_base_price, \
     SUM(l_extendedprice * (100 - l_discount) / 100) AS sum_disc_price, \
     SUM(l_extendedprice * (100 - l_discount) * (100 + l_tax) / 10000) AS sum_charge, \
     AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
     AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
     FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
     GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus";

const Q3: &str = "SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue, \
     o_orderdate, o_shippriority FROM customer, orders, lineitem \
     WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
     AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' \
     AND l_shipdate > DATE '1995-03-15' \
     GROUP BY l_orderkey, o_orderdate, o_shippriority \
     ORDER BY revenue DESC, o_orderdate LIMIT 10";

const Q6: &str = "SELECT SUM(l_extendedprice * l_discount / 100) AS revenue FROM lineitem \
     WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
     AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24";

const POINT_PROBE: &str = "SELECT * FROM lineitem WHERE l_orderkey = 7";
const RANGE_PROBE: &str = "SELECT * FROM lineitem WHERE l_orderkey BETWEEN 100 AND 140";

/// Appends one case to the rendering: the trace's summed ledger, one
/// line per charge class, then its price at both configurations.
struct Render {
    out: String,
    configs: [(&'static str, MachineConfig); 2],
}

impl Render {
    fn case(&mut self, db: &EcoDb, case: &str, trace: &WorkTrace) {
        for (class, count) in trace.total().iter() {
            writeln!(self.out, "{case} | {class:?} = {count}").unwrap();
        }
        for (cfg_name, cfg) in self.configs {
            let m = db.price(trace, cfg);
            let fields = [
                ("elapsed_s", m.elapsed_s),
                ("cpu_joules", m.cpu_joules),
                ("cpu_joules_epu", m.cpu_joules_epu),
                ("dram_joules", m.dram_joules),
                ("disk_joules", m.disk_joules),
                ("wall_joules", m.wall_joules),
                ("busy_s", m.busy_s),
                ("utilization", m.utilization),
                ("avg_cpu_w", m.avg_cpu_w),
                ("avg_wall_w", m.avg_wall_w),
                ("busy_voltage_v", m.busy_voltage_v),
                ("top_freq_hz", m.top_freq_hz),
            ];
            for (field, v) in fields {
                writeln!(self.out, "{case} | @{cfg_name} {field} = {v:?}").unwrap();
            }
            for (i, p) in m.phases.iter().enumerate() {
                writeln!(self.out, "{case} | @{cfg_name} phase {i} = {p:?}").unwrap();
            }
        }
    }

    /// Each core's trace as a case of its own, then the multi-core
    /// price of them all at both configurations.
    fn cores(&mut self, db: &EcoDb, case: &str, cores: &[WorkTrace]) {
        for (i, trace) in cores.iter().enumerate() {
            self.case(db, &format!("{case} core {i}"), trace);
        }
        for (cfg_name, cfg) in self.configs {
            let m = db.multicore(cores.len()).measure_uniform(cores, &cfg);
            let fields = [
                ("elapsed_s", m.elapsed_s),
                ("cpu_joules", m.cpu_joules),
                ("dram_joules", m.dram_joules),
                ("disk_joules", m.disk_joules),
                ("wall_joules", m.wall_joules),
                ("busy_s", m.busy_s),
                ("utilization", m.utilization),
                ("avg_wall_w", m.avg_wall_w),
            ];
            for (field, v) in fields {
                writeln!(self.out, "{case} | @{cfg_name} multicore {field} = {v:?}").unwrap();
            }
        }
    }

    /// Run `queries` on `workers` cores: each core's traces joined.
    fn run_cores(&mut self, db: &EcoDb, case: &str, queries: &[Query], workers: usize) {
        let mut cores = vec![WorkTrace::new(); workers];
        for q in queries {
            let (_, traces) = db
                .trace(q, workers)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            for (core, t) in cores.iter_mut().zip(traces) {
                core.extend(t);
            }
        }
        self.cores(db, case, &cores);
    }

    fn sql(&mut self, db: &EcoDb, case: &str, sql: &str) {
        let (_, trace) = db
            .try_trace_sql(sql)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        self.case(db, case, &trace);
    }
}

fn render() -> String {
    let pvc = MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium));
    let mut r = Render {
        out: String::new(),
        configs: [("stock", MachineConfig::stock()), ("pvc5-medium", pvc)],
    };
    let q5 = plans::q5_sql(&Q5Params::new("ASIA", 1994));
    let queries = [("q1", Q1), ("q3", Q3), ("q5", q5.as_str()), ("q6", Q6)];

    let mem = EcoDb::tpch(EngineProfile::MemoryEngine, SCALE);
    let mut disk = EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    for (profile, db) in [("memory", &mem), ("disk", &disk)] {
        for (name, sql) in queries {
            db.flush_cache();
            r.sql(db, &format!("{profile} {name} cold"), sql);
            r.sql(db, &format!("{profile} {name} warm"), sql);
        }
    }

    // Per-core cases: a function of the plan at every worker count.
    let q5s = q5_workload();
    let q5s: Vec<Query> = q5s.iter().map(Query::Q5).collect();
    for (profile, db) in [("memory", &mem), ("disk", &disk)] {
        db.flush_cache();
        r.run_cores(db, &format!("{profile} q5 workload 2 workers"), &q5s, 2);
    }
    let q6 = Query::Q6 {
        year: 1994,
        discount_pct: 6,
        max_qty: 24,
    };
    disk.flush_cache();
    disk.warm_up();
    r.run_cores(&disk, "disk q6 warm 4 workers", &[q6], 4);

    let mem = mem.with_pricing(PricingMode::Compressed);
    r.sql(&mem, "memory q1 compressed", Q1);
    r.sql(&mem, "memory q6 compressed", Q6);
    // Q3's dictionary-encoded segment filter is what charges DictLookup.
    r.sql(&mem, "memory q3 compressed", Q3);
    let mem = mem.with_pricing(PricingMode::Raw);

    let batch: Vec<QedQuery> = [3, 11, 24, 42].map(|quantity| QedQuery { quantity }).into();
    let (_, trace) = mem
        .try_trace_merged_selection(&batch, true)
        .expect("a well-formed batch");
    r.case(&mem, "memory qed merged selection", &trace);

    // Transient page faults on a cold scan: retry I/O and backoff.
    disk.set_fault_plan(FaultPlan::new(7, 50_000).recoverable());
    disk.flush_cache();
    r.sql(&disk, "disk q6 cold with read faults", Q6);
    disk.set_fault_plan(FaultPlan::none());

    r.sql(
        &disk,
        "disk create index",
        "CREATE INDEX li_orderkey ON lineitem (l_orderkey)",
    );
    r.sql(&disk, "disk point probe", POINT_PROBE);
    r.sql(&disk, "disk range probe", RANGE_PROBE);

    for (i, sql) in [
        "INSERT INTO region VALUES (100, 'R100', 'ledger golden')",
        "UPDATE region SET r_name = 'U1' WHERE r_regionkey = 1",
    ]
    .into_iter()
    .enumerate()
    {
        let (_, trace, pending) = disk
            .try_trace_sql_deferred(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(pending, "{sql}: deferred DML leaves log bytes pending");
        r.case(&disk, &format!("disk dml {i} deferred"), &trace);
    }
    let (bytes, trace) = disk.commit_wal().expect("group commit");
    writeln!(r.out, "disk group commit | durable bytes = {bytes}").unwrap();
    r.case(&disk, "disk group commit", &trace);

    let report = disk.recover().expect("a clean log recovers");
    writeln!(r.out, "disk recover | {report:?}").unwrap();
    r.sql(&disk, "disk point probe after recover", POINT_PROBE);

    // PVC at 5 % / medium voltage on both profiles, QED at a batch of 50.
    let pvc_point = |fig: PvcFigure| {
        let p = fig
            .points
            .into_iter()
            .find(|p| p.underclock == 0.05 && p.voltage == "medium");
        let p = p.expect("a 5 % / medium point");
        [(1.0 - p.energy_ratio) * 100.0, (p.time_ratio - 1.0) * 100.0]
    };
    let qed = fig6(SCALE)
        .into_iter()
        .find(|o| o.batch_size == 50)
        .expect("a batch of 50");
    let [e1, t1] = pvc_point(fig1(SCALE));
    let [e3, t3] = pvc_point(fig3(SCALE));
    let qed_point = [
        (1.0 - qed.energy_ratio) * 100.0,
        (qed.response_ratio - 1.0) * 100.0,
    ];
    let headline = [
        ("pvc_commercial_energy_saving_pct", e1, 49.0),
        ("pvc_commercial_time_penalty_pct", t1, 3.0),
        ("pvc_mysql_energy_saving_pct", e3, 20.0),
        ("pvc_mysql_time_penalty_pct", t3, 6.0),
        ("qed_energy_saving_pct", qed_point[0], 54.0),
        ("qed_response_penalty_pct", qed_point[1], 43.0),
    ];
    for (name, v, _) in headline {
        writeln!(r.out, "headline | {name} = {v:?}").unwrap();
    }
    let gap = headline
        .iter()
        .map(|(_, v, paper)| (v - paper).abs())
        .sum::<f64>()
        / 6.0;
    writeln!(r.out, "headline | paper_gap_pts = {gap:?}").unwrap();
    r.out
}

#[test]
fn ledgers_at_scale_0_01_match_the_golden() {
    let got = render();
    if got == GOLDEN {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), GOLDEN.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => panic!(
                "ledgers differ from tests/golden/ledgers_0.01.txt at line {line}:\n\
                 golden: {w:?}\n   got: {g:?}\n\
                 if the ledger or its price moved on purpose: scripts/check_repro_golden.sh --bless"
            ),
        }
    }
}

/// Rewrites the golden from the current code; `cargo test` skips it.
#[test]
#[ignore = "rewrites the golden: scripts/check_repro_golden.sh --bless"]
fn bless_the_ledger_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledgers_0.01.txt");
    std::fs::write(path, render()).expect("write the golden");
}
