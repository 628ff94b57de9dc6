//! Integration tests for the extension subsystems: the SQL front-end,
//! the analytical QED/SLA model, energy-aware plan choice, and the
//! cluster-level scheduling simulation.

#[path = "../examples/cluster_scheduling/cluster.rs"]
mod cluster;
#[path = "integration_extensions/qed_model.rs"]
mod qed_model;

mod support;

use cluster::{simulate, uniform_stream, Policy, ServerPower};
use ecodb::core::advisor::rank_plans_by_energy;
use ecodb::core::server::Query;
use ecodb::query::plans;
use ecodb::simhw::machine::{Machine, MachineConfig};
use ecodb::simhw::{CpuConfig, VoltageSetting};
use ecodb::tpch::{q5_workload, Q5Params};
use qed_model::QedModel;

const SCALE: f64 = 0.004;

#[test]
fn all_ten_q5_variants_run_through_sql() {
    let db = support::memory_db(SCALE);
    for params in q5_workload() {
        let sql = plans::q5_sql(&params);
        let (via_sql, _) = db.try_trace_sql(&sql).expect("compiles");
        let (hand, _) = db.trace(&Query::Q5(&params), 1).unwrap();
        let mut a = plans::q5_rows_to_pairs(&via_sql);
        a.sort();
        let mut b = plans::q5_rows_to_pairs(&hand);
        b.sort();
        assert_eq!(a, b, "{}", params.label());
    }
}

#[test]
fn sql_runs_are_priced_like_any_other_statement() {
    let db = support::memory_db(SCALE);
    let sql = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity <= 25";
    let (rows, trace) = db.try_trace_sql(sql).unwrap();
    assert_eq!(rows.len(), 1);
    let stock = db.price(&trace, MachineConfig::stock());
    let eco = db.price(
        &trace,
        MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium)),
    );
    assert!(eco.cpu_joules < stock.cpu_joules);
    assert!(eco.elapsed_s > stock.elapsed_s);
}

#[test]
fn sql_errors_do_not_panic() {
    let db = support::memory_db(SCALE);
    for bad in [
        "SELEC oops",
        "SELECT * FROM no_such_table",
        "SELECT ghost_column FROM lineitem",
        "SELECT * FROM lineitem WHERE",
        "SELECT n_name FROM nation, region", // cartesian
    ] {
        assert!(db.try_trace_sql(bad).is_err(), "{bad}");
    }
}

#[test]
fn analytical_model_supports_sla_reasoning() {
    let db = support::memory_db(SCALE);
    let model = QedModel::fit(db, 10, 40);
    // The model must reproduce the measured average-response ratio and
    // drive a deadline-based batch choice end to end.
    let deadline = model.qed_response_s(20, 20) * 1.02;
    let k = model
        .max_batch_for_deadline(50, deadline, 0.95)
        .expect("a batch fits");
    assert!(k >= 20);
    // Check: the chosen batch really meets the deadline at p95.
    let (_, frac) = model.deadline_fractions(k, deadline);
    assert!(frac >= 0.95);
}

#[test]
fn energy_aware_plan_choice_end_to_end() {
    let db = support::memory_db(SCALE);
    let params = Q5Params::new("AMERICA", 1995);
    let ranked = rank_plans_by_energy(
        db,
        vec![
            (
                "late-filter",
                plans::q5_plan_late_filter(db.catalog(), &params),
            ),
            ("pushdown", plans::q5_plan(db.catalog(), &params)),
        ],
        MachineConfig::stock(),
    );
    assert_eq!(ranked.len(), 2);
    assert_eq!(ranked[0].name, "pushdown");
    assert!(ranked[0].edp() < ranked[1].edp());
}

#[test]
fn cluster_consolidation_trades_latency_for_energy() {
    let power = ServerPower::from_machine(&Machine::paper_sut(), &MachineConfig::stock());
    let jobs = uniform_stream(300, 1.0, 0.08); // 8 % load
    let on = simulate(6, power, Policy::AllOnRoundRobin, &jobs);
    let packed = simulate(
        6,
        power,
        Policy::Consolidate {
            idle_timeout_s: 2.0,
            wake_latency_s: 0.4,
        },
        &jobs,
    );
    assert!(packed.energy_j < on.energy_j * 0.55);
    assert!(packed.avg_response_s >= on.avg_response_s);
    // Work conservation: both process everything.
    let total: f64 = packed.busy_s.iter().sum();
    assert!((total - 300.0 * 0.08).abs() < 1e-6);
}

#[test]
fn pvc_and_cluster_compose() {
    // Local + global techniques together: an underclocked fleet packed
    // by the consolidation policy.
    let machine = Machine::paper_sut();
    let stock_power = ServerPower::from_machine(&machine, &MachineConfig::stock());
    let pvc_power = ServerPower::from_machine(
        &machine,
        &MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium)),
    );
    assert!(pvc_power.busy_w < stock_power.busy_w);
    let jobs = uniform_stream(200, 0.5, 0.1);
    let policy = Policy::Consolidate {
        idle_timeout_s: 2.0,
        wake_latency_s: 0.4,
    };
    let a = simulate(4, stock_power, policy, &jobs);
    let b = simulate(4, pvc_power, policy, &jobs);
    assert!(b.energy_j < a.energy_j, "{} vs {}", b.energy_j, a.energy_j);
}
