//! From a run's outcome and spans to named metric values, and the two
//! output formats: `workload<TAB>metric<TAB>value<TAB>unit` rows and
//! the result object the benchmark contract asks for on the last line.

use std::collections::BTreeMap;

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::runner::Outcome;
use crate::trace::Tracer;

/// Every per-layer metric of a traced run. A metric whose layer the
/// workload never entered has no spans or counts and reads 0. Span
/// times are calibrated by the traced epoch's speed factor, like the
/// end-to-end host times.
pub fn per_layer(outcome: &Outcome, t: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (ms, us) = (1e6 * outcome.traced_speed, 1e3 * outcome.traced_speed);
    // Mean duration of a span name, as milliseconds or microseconds.
    let spans_ms = [
        ("tpch.generate_ms", "tpch.generate"),
        ("storage.load_memory_ms", "storage.load_memory"),
        ("storage.load_disk_ms", "storage.load_disk"),
        ("query.exec_q1_ms", "query.exec_q1"),
        ("query.exec_q3_ms", "query.exec_q3"),
        ("query.exec_q5_ms", "query.exec_q5"),
        ("query.exec_q6_ms", "query.exec_q6"),
        ("query.exec_selection_ms", "query.exec_selection"),
        ("query.merged_selection_ms", "query.merged_selection"),
        ("core.recover_ms", "core.recover"),
        ("core.trace_q5_workload_ms", "core.trace_q5_workload"),
        ("core.pvc_sweep_ms", "core.pvc_sweep"),
        ("core.run_qed_ms", "core.run_qed"),
        ("storage.index_build_ms", "storage.index_build"),
        ("storage.apply_insert_ms", "storage.apply_insert"),
        ("storage.apply_update_ms", "storage.apply_update"),
        ("storage.apply_delete_ms", "storage.apply_delete"),
        ("storage.wal_recover_scan_ms", "storage.wal_recover_scan"),
    ];
    for (metric, span) in spans_ms {
        m.insert(metric, t.mean_ns(span) / ms);
    }
    let spans_us = [
        ("query.lex_us", "query.lex"),
        ("query.plan_us", "query.plan"),
        ("query.dml_bind_us", "query.dml_bind"),
        ("simhw.price_us", "simhw.price"),
        ("simhw.opensys_burst_us", "simhw.opensys_burst"),
        ("storage.cold_page_read_us", "storage.cold_page_read"),
        ("storage.btree_point_probe_us", "storage.btree_point_probe"),
        ("storage.btree_range_probe_us", "storage.btree_range_probe"),
        ("storage.wal_append_us", "storage.wal_append"),
        ("storage.wal_fsync_us", "storage.wal_fsync"),
        ("server.plan_admission_us", "server.plan_admission"),
    ];
    for (metric, span) in spans_us {
        m.insert(metric, t.mean_ns(span) / us);
    }
    // Self times: the span minus the shadow calls recorded under it.
    m.insert("query.parse_us", t.mean_self_ns("query.parse") / us);
    m.insert(
        "core.facade_self_us",
        t.mean_self_ns("core.try_trace_sql") / us,
    );
    m.insert("core.recover_self_ms", t.mean_self_ns("core.recover") / ms);
    m.insert("server.serve_self_ms", t.mean_self_ns("server.serve") / ms);

    // Exact counts over the rounds every run executes.
    m.insert("query.ledger_ops_per_op", t.ratio("ledger_ops", "ops"));
    m.insert(
        "query.mem_stream_mb_per_op",
        t.ratio("mem_stream_bytes", "ops") / 1e6,
    );
    m.insert(
        "storage.pool_misses_per_round",
        t.ratio("pool_misses", "rounds"),
    );
    let lookups = t.counter("pool_hits") + t.counter("pool_misses");
    m.insert(
        "storage.pool_hit_ratio",
        if lookups > 0.0 {
            t.counter("pool_hits") / lookups
        } else {
            0.0
        },
    );
    m.insert(
        "storage.index_ios_per_probe",
        t.ratio("index_ios", "probes"),
    );
    m.insert("storage.wal_bytes_per_txn", t.ratio("log_bytes", "txns"));
    m.insert(
        "storage.space_amp",
        t.ratio("space_disk_bytes", "space_raw_bytes"),
    );
    m.insert("server.rows_out_per_round", t.ratio("rows_out", "rounds"));
    m.insert(
        "server.dispatches_per_round",
        t.ratio("dispatches", "rounds"),
    );
    m.insert("server.batch_size_mean", t.ratio("members", "dispatches"));
    m.insert("server.dedup_ratio", t.ratio("distinct", "members"));
    m.insert(
        "server.sim_queue_delay_ms_mean",
        t.ratio("queue_delay_s", "served") * 1e3,
    );
    m.insert("server.shed_share", t.ratio("shed", "ops"));
    m.insert("server.txns_per_fsync", t.ratio("txns", "log_ios"));
    // `paper_repro` records its headline numbers under the metrics' names.
    for name in [
        "core.pvc_commercial_energy_saving_pct",
        "core.pvc_commercial_time_penalty_pct",
        "core.pvc_mysql_energy_saving_pct",
        "core.pvc_mysql_time_penalty_pct",
        "core.qed_energy_saving_pct",
        "core.qed_response_penalty_pct",
        "core.paper_gap_pts",
    ] {
        m.insert(name, t.counter(name));
    }
    m.extend(outcome.host_layer());
    m
}

/// The values of `defs`, in order; a missing one is a bug in this file.
pub fn in_order(
    defs: &'static [MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static MetricDef, f64)> {
    defs.iter()
        .map(|d| {
            (
                d,
                *values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("no value for {}", d.name)),
            )
        })
        .collect()
}

/// The metrics of one finished run, ready to print.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Timed rounds and simulated-cost samples behind the numbers, and
    /// the speed probe's median time (`calib::REFERENCE_NS` is 25.5 us):
    /// a reported host time times `probe_us / 25.5` is the raw one.
    pub rounds: usize,
    pub sim_samples: usize,
    pub probe_us: f64,
    pub values: Vec<(&'static MetricDef, f64)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, outcome: &Outcome, tracer: &Tracer) -> Self {
        let values = if tracer.enabled() {
            in_order(PER_LAYER, &per_layer(outcome, tracer))
        } else {
            in_order(END_TO_END, &outcome.end_to_end().into_iter().collect())
        };
        Self {
            workload: workload.to_string(),
            seed,
            attempted: outcome.attempted,
            failed: outcome.failed,
            rounds: outcome.round_ms.len(),
            sim_samples: outcome.sims.len(),
            probe_us: outcome.probe_us,
            values,
        }
    }

    /// One `workload<TAB>metric<TAB>value<TAB>unit` row per metric,
    /// after four rows that say what the numbers rest on.
    pub fn tsv(&self) -> String {
        let w = &self.workload;
        let mut out = format!(
            "{w}\tseed\t{}\tid\n{w}\trounds\t{}\tcount\n{w}\tsim_samples\t{}\tcount\n{w}\tprobe_us\t{}\tus\n",
            self.seed, self.rounds, self.sim_samples, self.probe_us
        );
        for (def, v) in &self.values {
            out.push_str(&format!("{w}\t{}\t{v}\t{}\n", def.name, def.unit));
        }
        out
    }

    /// The contract's result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(def, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
