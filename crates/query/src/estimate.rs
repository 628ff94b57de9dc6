//! Cardinality estimation and the energy/time cost model — the
//! "energy-aware optimizer" building block of the paper's vision
//! (§1: the DBMS "must be aware of system hardware capabilities …
//! and take that into account during query optimization").
//!
//! Estimates mirror the executor's charging rules over *estimated*
//! cardinalities, producing a synthetic [`WorkTrace`] the machine model
//! can price. The same machinery therefore answers both "how long will
//! this take?" and "how many joules will this cost?" under any PVC
//! setting — without executing.

use eco_simhw::machine::{Machine, MachineConfig, Measurement};
use eco_simhw::trace::{OpClass, Phase, WorkTrace};
use eco_storage::Catalog;

/// An estimated work profile (mirrors the executor's ledger).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkEstimate {
    /// Estimated result rows.
    pub out_rows: f64,
    /// The estimated phase (CPU ops, memory, disk).
    pub phase: Phase,
}

impl WorkEstimate {
    fn new(label: &str) -> Self {
        Self {
            out_rows: 0.0,
            phase: Phase::execute(label),
        }
    }

    /// Convert into a single-phase trace.
    pub(crate) fn into_trace(self) -> WorkTrace {
        let mut t = WorkTrace::new();
        t.push(self.phase);
        t
    }

    /// Price this estimate on a machine under a configuration.
    pub fn measure(&self, machine: &Machine, config: &MachineConfig) -> Measurement {
        machine.measure(&self.clone().into_trace(), config)
    }

    fn charge(&mut self, class: OpClass, n: f64) {
        self.phase.ledger.cpu.add(class, n.max(0.0).round() as u64);
    }

    fn charge_mem(&mut self, bytes: f64) {
        self.phase.ledger.mem_stream_bytes += bytes.max(0.0).round() as u64;
    }

    /// Charge `n` estimated cold index-page reads (ledger schema v4:
    /// priced like random I/O, ledgered as index I/O).
    fn charge_index_ios(&mut self, n: f64) {
        let n = n.max(0.0).round() as u64;
        self.phase.ledger.disk.index_ios += n;
        self.phase.ledger.disk.index_bytes += n * eco_storage::page::PAGE_SIZE as u64;
    }
}

/// Estimate the merged (or single, `k = 1`) QED selection over
/// `lineitem`: one scan, `k` equality predicates per tuple (with
/// optional short-circuit), tagged emission of matching rows.
pub fn estimate_selection_batch(catalog: &Catalog, k: usize, short_circuit: bool) -> WorkEstimate {
    assert!(k >= 1);
    let li = catalog.expect("lineitem");
    let rows = li.len() as f64;
    let width = li.avg_tuple_bytes() as f64;
    let sel_each = 1.0 / 50.0; // uniform l_quantity over 50 values
    let match_frac = (k as f64 * sel_each).min(1.0);

    let mut e = WorkEstimate::new(&format!("est:selection×{k}"));
    e.charge(OpClass::TupleFetch, rows);
    e.charge_mem(rows * width);

    // Predicate evaluations per tuple: all k when nothing matches (or
    // when exhaustive); expected (k+1)/2 at the matching tuple.
    let evals = if short_circuit {
        let miss = 1.0 - match_frac;
        rows * (miss * k as f64 + match_frac * (k as f64 + 1.0) / 2.0)
    } else {
        rows * k as f64
    };
    e.charge(OpClass::PredEval, evals);

    let out = rows * match_frac;
    e.out_rows = out;
    e.charge(OpClass::ResultEmit, out);
    e.charge_mem(out * width);
    e
}

/// Estimate a cold sequential-scan selection keeping `selectivity` of
/// `table`: every tuple fetched and tested once (mirroring a
/// `Filter`-over-`SeqScan` plan), streaming every page off disk when
/// the table is paged. The scan side of the scan-vs-probe crossover;
/// [`estimate_index_selection`] is the probe side.
pub fn estimate_scan_selection(catalog: &Catalog, table: &str, selectivity: f64) -> WorkEstimate {
    let t = catalog.expect(table);
    let rows = t.len() as f64;
    let width = t.avg_tuple_bytes() as f64;
    let sel = selectivity.clamp(0.0, 1.0);

    let mut e = WorkEstimate::new(&format!("est:scan:{table}"));
    e.charge(OpClass::TupleFetch, rows);
    e.charge_mem(rows * width);
    e.charge(OpClass::PredEval, rows);
    if let eco_storage::TableData::Disk(d) = &t.data {
        e.phase.ledger.disk.sequential_bytes +=
            d.num_pages() as u64 * eco_storage::page::PAGE_SIZE as u64;
    }
    let out = rows * sel;
    e.out_rows = out;
    e.charge(OpClass::ResultEmit, out);
    e.charge_mem(out * width);
    e
}

/// Estimate a cold B-tree index selection keeping `selectivity` of
/// `table` (ledger schema v4): tree descent + leaf walk node searches,
/// index-page reads, and base-page fetches for the matching rows — the
/// optimizer-side mirror of what an [`crate::ops::IxScan`] charges.
/// Compare against [`estimate_selection_batch`]-style scan estimates to
/// predict the scan-vs-probe energy crossover without executing.
pub fn estimate_index_selection(
    catalog: &Catalog,
    index: &eco_storage::IndexEntry,
    selectivity: f64,
) -> WorkEstimate {
    use eco_storage::btree::BTREE_FANOUT;
    let t = catalog.expect(&index.table);
    let rows = t.len() as f64;
    let width = t.avg_tuple_bytes() as f64;
    let sel = selectivity.clamp(0.0, 1.0);
    let matches = rows * sel;
    let height = index.index.height() as f64;

    let mut e = WorkEstimate::new(&format!("est:ixscan:{}", index.name));
    // Descent: one binary search per level (~log2(fanout) steps each);
    // leaf walk: one comparison per entry examined.
    e.charge(
        OpClass::NodeSearch,
        height * (BTREE_FANOUT as f64).log2() + matches + 1.0,
    );
    // Index pages: the descent path plus the extra leaves a wide range
    // walks through.
    e.charge_index_ios(height + matches / BTREE_FANOUT as f64);
    // Base pages (cold): matching row ids are sorted, so each distinct
    // page is fetched once — Cardenas' estimate of distinct pages hit
    // by `matches` uniformly-scattered rows.
    let num_pages = match &t.data {
        eco_storage::TableData::Disk(d) => d.num_pages() as f64,
        eco_storage::TableData::Memory(_) => 0.0,
    };
    if num_pages > 0.0 {
        let rows_per_page = rows / num_pages;
        let distinct = num_pages * (1.0 - (1.0 - sel).powf(rows_per_page));
        e.charge_index_ios(distinct);
    }
    // Per produced tuple: the SeqScan-identical fetch charges.
    e.charge(OpClass::TupleFetch, matches);
    e.charge_mem(matches * width);
    e.out_rows = matches;
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecCtx;
    use crate::mqo::MergedSelection;
    use eco_storage::{load_tpch, EngineKind};
    use eco_tpch::{qed_workload, TpchGenerator};

    fn setup() -> Catalog {
        let db = TpchGenerator::new(0.01).generate();
        load_tpch(&db, EngineKind::Memory, 0)
    }

    #[test]
    fn selection_estimate_tracks_actual_within_25pct() {
        // The estimator must agree with real execution closely enough
        // to drive QED batching decisions.
        let cat = setup();
        for k in [1usize, 10, 35, 50] {
            let est = estimate_selection_batch(&cat, k, true);
            let mut merged = MergedSelection::new(&cat, &qed_workload(k));
            let mut ctx = ExecCtx::new();
            let rows = merged.run(&mut ctx);
            let actual_evals = ctx.pred_evals as f64;
            let est_evals = est.phase.ledger.cpu.count(OpClass::PredEval) as f64;
            let rel = (est_evals - actual_evals).abs() / actual_evals;
            assert!(
                rel < 0.25,
                "k={k}: est {est_evals} vs actual {actual_evals}"
            );
            let rel_rows = (est.out_rows - rows.len() as f64).abs() / (rows.len() as f64);
            assert!(
                rel_rows < 0.25,
                "k={k}: rows est {} vs {}",
                est.out_rows,
                rows.len()
            );
        }
    }

    #[test]
    fn estimates_price_on_machine() {
        let cat = setup();
        let est = estimate_selection_batch(&cat, 35, true);
        let machine = Machine::paper_sut();
        let m = est.measure(&machine, &MachineConfig::stock());
        assert!(m.elapsed_s > 0.0 && m.cpu_joules > 0.0);
    }

    #[test]
    fn batch_estimate_beats_sequential_estimate_per_query() {
        // The estimator must predict QED's energy advantage: one k-way
        // scan costs less than k single scans.
        let cat = setup();
        let machine = Machine::paper_sut();
        let cfg = MachineConfig::stock();
        let k = 40;
        let batch = estimate_selection_batch(&cat, k, true).measure(&machine, &cfg);
        let single = estimate_selection_batch(&cat, 1, true).measure(&machine, &cfg);
        assert!(
            batch.cpu_joules < k as f64 * single.cpu_joules,
            "batch {} !< {}",
            batch.cpu_joules,
            k as f64 * single.cpu_joules
        );
    }

    #[test]
    fn index_estimate_tracks_actual_probe() {
        use crate::exec::execute;
        use crate::ops::{IxBound, IxScan};
        use eco_storage::Value;
        let db = TpchGenerator::new(0.01).generate();
        let cat = load_tpch(&db, EngineKind::Disk, 1 << 16);
        let entry = cat
            .create_index("ix_li_qty", "lineitem", "l_quantity")
            .expect("index");
        // Quantity uniform over 1..=50: BETWEEN 1 AND 5 keeps ~10 %.
        let est = estimate_index_selection(&cat, &entry, 5.0 / 50.0);
        cat.pool().flush();
        let mut plan = IxScan::range(
            cat.expect("lineitem"),
            std::sync::Arc::clone(&entry.index),
            IxBound::Inclusive(Value::Int(1)),
            IxBound::Inclusive(Value::Int(5)),
        );
        let mut ctx = ExecCtx::new();
        let rows = execute(&mut plan, &mut ctx);
        let rel_rows = (est.out_rows - rows.len() as f64).abs() / rows.len() as f64;
        assert!(
            rel_rows < 0.25,
            "rows: est {} vs {}",
            est.out_rows,
            rows.len()
        );
        let actual_ios = ctx.ledger.disk.index_ios as f64;
        let est_ios = est.phase.ledger.disk.index_ios as f64;
        assert!(actual_ios > 0.0);
        let rel_ios = (est_ios - actual_ios).abs() / actual_ios;
        assert!(
            rel_ios < 0.5,
            "index I/O: est {est_ios} vs actual {actual_ios}"
        );
        // The estimate prices (v4 index I/O shows up as joules).
        let m = est.measure(&Machine::paper_sut(), &MachineConfig::stock());
        assert!(m.elapsed_s > 0.0);
    }

    #[test]
    fn exhaustive_estimate_exceeds_short_circuit() {
        let cat = setup();
        let sc = estimate_selection_batch(&cat, 30, true);
        let ex = estimate_selection_batch(&cat, 30, false);
        assert!(
            ex.phase.ledger.cpu.count(OpClass::PredEval)
                > sc.phase.ledger.cpu.count(OpClass::PredEval)
        );
    }
}
