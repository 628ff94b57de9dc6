//! The benchmark's registry — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the statistics every report uses.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`ecobench manifest`); a unit test fails when the two drift apart.

/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// Seed used for the committed baseline; a claim must also hold on a
/// second seed (see the README).
pub const DEFAULT_SEED: u64 = 20_090_104;

/// The five workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "olap_warm",
        "TPC-H Q1/Q3/Q5/Q6 as SQL on the memory engine: lexer, parser, planner and operators do all the work; no I/O, server or WAL",
    ),
    (
        "disk_cold_probe",
        "flush, cold Q6 scan, 220 B-tree probes, warm Q6 on the disk engine: buffer-pool misses, page decode and index descents dominate",
    ),
    (
        "serve_qed",
        "300 selection sessions per round at three simulated Poisson rates through EcoServer: scheduler, batcher, dedup, merged scan, fan-out",
    ),
    (
        "serve_mixed_wal",
        "served selections + INSERT/UPDATE/DELETE + indexed point reads on orders, then crash and recover: commit batcher, WAL, index upkeep",
    ),
    (
        "paper_repro",
        "fig1, fig3, fig6 and warm/cold of the paper end to end: TPC-H generation, hand-built Q5 plans, PVC sweep, offline QED, pricing",
    ),
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics carry 0).
    pub bound: f64,
    /// Simulated or counted: two runs of the same code with the same
    /// seed must agree to the last bit.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher, Lower};

/// What a user of ecoDB sees; every workload reports every one of
/// them, measured with tracing off. Bounds come from the ten-seed
/// spreads recorded in `baseline/spread_*.tsv`: at least three times the
/// widest spread seen on any workload, except the two host-time
/// metrics, which sit at the largest bound a benchmark may set because
/// the reference box itself moves by more than a third of it even
/// after calibration (see the README). Host times are calibrated
/// (`calib.rs`): seconds on the reference box at its usual speed.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s", Lower, 0.25),
    host("ops_per_s", "op/s", Higher, 0.25),
    sim("sim_joules_per_op", "J", 0.15),
    sim("sim_response_ms_p50", "ms", 0.15),
    sim("sim_response_ms_p95", "ms", 0.08),
    host("peak_rss_mb", "MB", Lower, 0.05),
];

/// Numbers of single layers, from the traced run (`--trace 1`). A
/// metric whose layer a workload never enters reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("tpch.generate_ms", "ms", Lower, false),
    layer("storage.load_memory_ms", "ms", Lower, false),
    layer("storage.load_disk_ms", "ms", Lower, false),
    layer("query.lex_us", "us", Lower, false),
    layer("query.parse_us", "us", Lower, false),
    layer("query.plan_us", "us", Lower, false),
    layer("query.exec_q1_ms", "ms", Lower, false),
    layer("query.exec_q3_ms", "ms", Lower, false),
    layer("query.exec_q5_ms", "ms", Lower, false),
    layer("query.exec_q6_ms", "ms", Lower, false),
    layer("query.exec_selection_ms", "ms", Lower, false),
    layer("query.ledger_ops_per_op", "count", Lower, true),
    layer("query.mem_stream_mb_per_op", "MB", Lower, true),
    layer("query.dml_bind_us", "us", Lower, false),
    layer("query.merged_selection_ms", "ms", Lower, false),
    layer("core.facade_self_us", "us", Lower, false),
    layer("core.recover_ms", "ms", Lower, false),
    layer("core.recover_self_ms", "ms", Lower, false),
    layer("core.trace_q5_workload_ms", "ms", Lower, false),
    layer("core.pvc_sweep_ms", "ms", Lower, false),
    layer("core.run_qed_ms", "ms", Lower, false),
    layer("core.pvc_commercial_energy_saving_pct", "pct", Higher, true),
    layer("core.pvc_commercial_time_penalty_pct", "pct", Lower, true),
    layer("core.pvc_mysql_energy_saving_pct", "pct", Higher, true),
    layer("core.pvc_mysql_time_penalty_pct", "pct", Lower, true),
    layer("core.qed_energy_saving_pct", "pct", Higher, true),
    layer("core.qed_response_penalty_pct", "pct", Lower, true),
    layer("core.paper_gap_pts", "pct-points", Lower, true),
    layer("simhw.price_us", "us", Lower, false),
    layer("simhw.opensys_burst_us", "us", Lower, false),
    layer("storage.cold_page_read_us", "us", Lower, false),
    layer("storage.pool_misses_per_round", "count", Lower, true),
    layer("storage.pool_hit_ratio", "ratio", Higher, true),
    layer("storage.btree_point_probe_us", "us", Lower, false),
    layer("storage.btree_range_probe_us", "us", Lower, false),
    layer("storage.index_ios_per_probe", "count", Lower, true),
    layer("storage.index_build_ms", "ms", Lower, false),
    layer("storage.wal_append_us", "us", Lower, false),
    layer("storage.wal_fsync_us", "us", Lower, false),
    layer("storage.wal_bytes_per_txn", "B", Lower, true),
    layer("storage.apply_insert_ms", "ms", Lower, false),
    layer("storage.apply_update_ms", "ms", Lower, false),
    layer("storage.apply_delete_ms", "ms", Lower, false),
    layer("storage.wal_recover_scan_ms", "ms", Lower, false),
    layer("storage.space_amp", "ratio", Lower, true),
    layer("server.serve_self_ms", "ms", Lower, false),
    layer("server.plan_admission_us", "us", Lower, false),
    layer("server.rows_out_per_round", "count", Lower, true),
    layer("server.dispatches_per_round", "count", Lower, true),
    layer("server.batch_size_mean", "count", Higher, true),
    layer("server.dedup_ratio", "ratio", Lower, true),
    layer("server.sim_queue_delay_ms_mean", "ms", Lower, true),
    layer("server.shed_share", "ratio", Lower, true),
    layer("server.txns_per_fsync", "count", Higher, true),
    layer("alloc.count_per_op", "count", Lower, false),
    layer("alloc.mb_per_op", "MB", Lower, false),
    layer("host.round_ms_p50", "ms", Lower, false),
    layer("host.round_ms_p95", "ms", Lower, false),
    layer("host.probe_us", "us", Lower, false),
    layer("host.cpu_s_per_round", "s", Lower, false),
    layer("trace.overhead_pct", "pct", Lower, false),
];

/// Look a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"ecobench/Cargo.toml\", \"--\"],\n  \"paths\": [\"ecobench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Median of a sample (mean of the two middle values when even).
/// Panics on an empty sample: every caller measures at least one round.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile `p` in `[0, 100]` of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark's bounds are sized from, computed
/// like Python's `statistics.quantiles(values, n=4)` (exclusive
/// method). Zero for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(percentile(&[10.0, 20.0], 95.0), 19.5);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn benchmark_json_is_generated_from_the_registry() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `ecobench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(
                ok_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
            assert!(seen.insert(*name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }
}
