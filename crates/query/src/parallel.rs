//! Morsel-driven parallel execution machinery.
//!
//! A *morsel* is a contiguous slice of a leaf operator's input — the
//! scheduling granule of HyPer-style morsel-driven parallelism. The
//! driver here (`run_morsels`) splits a pipeline into one copy per
//! morsel ([`Operator::split`]), runs them on worker threads, and
//! returns the per-morsel results **in morsel order** together with
//! each worker's private energy ledger merged back into the caller's
//! [`ExecCtx`].
//!
//! Only the columnar engine runs morsels. The scalar engine is the
//! oracle the parallel runs are checked against, so it shares none of
//! this machinery: on a scalar context `run_morsels` declines and
//! every operator takes its serial path, at any [`ExecCtx::workers`].
//! Its summed ledger is the same at every worker count; its per-core
//! split puts every charge on core 0.
//!
//! # Determinism
//!
//! Two properties make parallel execution reproducible:
//!
//! 1. **Merged-ledger identity.** Every operator charge is per-tuple
//!    and additive, morsels partition the input exactly, and ledger
//!    merging is commutative addition — so the merged ledger equals the
//!    serial ledger bit-for-bit at any worker count.
//! 2. **Deterministic per-core attribution.** Morsels are assigned to
//!    workers *statically* (worker `w` takes morsels `w, w+N, w+2N, …`)
//!    rather than through a work-stealing queue. Uniform morsels make
//!    static assignment load-balanced anyway, and it means the per-core
//!    ledger split — which the multi-core machine model prices — is a
//!    pure function of the plan, not of thread scheduling. (The merged
//!    ledger would be identical either way; the *per-core* split would
//!    not.)
//!
//! On the disk engine only the coordinator reads the buffer pool: a
//! scan's split reads every page of its morsels in page order, the
//! reads a serial scan makes, and hands each morsel its frames and
//! what its reads charged. Hits, misses, LRU evictions, the extent rule
//! and the periodic warm re-reads therefore fall exactly where they
//! fall serially, at any worker count and any pool size, and the
//! worker that statically owns a morsel is charged its reads.

use std::ops::Range;

use eco_storage::Tuple;

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// Split `total` units into ranges of `per_morsel` units (the last
/// may be shorter), or `None` when that makes fewer than two: the
/// leaf-side helper behind [`Operator::split`].
pub(crate) fn split_units(total: usize, per_morsel: usize) -> Option<Vec<Range<usize>>> {
    let per = per_morsel.max(1);
    (total > per).then(|| {
        (0..total)
            .step_by(per)
            .map(|start| start..(start + per).min(total))
            .collect()
    })
}

/// Drain an opened pipeline to completion tuple-at-a-time — or, in a
/// columnar context, through its chunk path with rows materialized at
/// the drain point (the late-materialization boundary of a sort, a
/// merge join or a morsel gather). Either way the tuples and charges
/// are identical.
pub(crate) fn drain_pipeline(ctx: &mut ExecCtx, op: &mut dyn Operator) -> Vec<Tuple> {
    let mut out = Vec::new();
    if ctx.columnar {
        while let Some(chunk) = op.next_chunk(ctx) {
            chunk.to_tuples(&mut out);
        }
    } else {
        out.extend(std::iter::from_fn(|| op.next(ctx)));
    }
    out
}

/// Run `child`'s pipeline morsel-parallel: split it per morsel, open
/// and reduce each part with `run` on a worker thread, and return the
/// per-morsel results in morsel order. Worker ledgers are merged into
/// `ctx` (totals *and* per-core attribution).
///
/// Returns `None` — and charges nothing — when parallel execution is
/// not applicable: one worker, a non-partitionable child, a child too
/// small to split, or inside a [`ExecCtx::streaming_exact`] region
/// (under a `Limit`, pre-materializing a streaming child would consume
/// more of it than scalar execution). Callers fall back to their serial
/// path, which is ledger-identical by construction.
pub(crate) fn run_morsels<T, F>(child: &dyn Operator, ctx: &mut ExecCtx, run: F) -> Option<Vec<T>>
where
    T: Send,
    F: Fn(&mut ExecCtx, &mut dyn Operator) -> T + Sync,
{
    if !ctx.columnar || ctx.workers <= 1 || ctx.streaming_exact > 0 {
        return None;
    }
    let pipes = child.split(ctx.morsel_rows)?;

    let workers = ctx.workers.min(pipes.len());
    // Static strided assignment: worker w owns morsels w, w+N, w+2N, …
    // (see module docs for why this beats a stealing queue here).
    let mut assignments: Vec<Vec<(usize, BoxedOp)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, pipe) in pipes.into_iter().enumerate() {
        assignments[i % workers].push((i, pipe));
    }

    let template = ctx.fork();
    let run = &run;
    let worker_outputs: Vec<(ExecCtx, Vec<(usize, T)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .into_iter()
            .map(|work| {
                let mut wctx = template.fork();
                scope.spawn(move || {
                    let mut results = Vec::with_capacity(work.len());
                    for (idx, mut pipe) in work {
                        pipe.open(&mut wctx);
                        results.push((idx, run(&mut wctx, pipe.as_mut())));
                    }
                    (wctx, results)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::new();
    for (w, (wctx, results)) in worker_outputs.into_iter().enumerate() {
        ctx.merge_worker(w, &wctx);
        for (idx, t) in results {
            if slots.len() <= idx {
                slots.resize_with(idx + 1, || None);
            }
            slots[idx] = Some(t);
        }
    }
    Some(
        slots
            .into_iter()
            .map(|s| s.expect("every morsel produces a result"))
            .collect(),
    )
}

/// Morsel-parallel gather: run `child`'s pipeline in parallel and
/// return all of its output tuples concatenated in morsel order — the
/// exact stream serial execution would produce. `None` under the same
/// conditions as [`run_morsels`].
pub(crate) fn gather_parallel(child: &dyn Operator, ctx: &mut ExecCtx) -> Option<Vec<Tuple>> {
    let parts = run_morsels(child, ctx, |wctx, pipe| drain_pipeline(wctx, pipe))?;
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for mut p in parts {
        out.append(&mut p);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::{Filter, VecSource};
    use eco_simhw::trace::OpClass;
    use eco_storage::{ColumnType, Schema, Value};

    fn pipeline(n: i64) -> Filter {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, (0..n).map(|i| vec![Value::Int(i)]).collect());
        Filter::new(
            Box::new(src),
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(n / 2)),
        )
    }

    /// A columnar context at `workers` threads and `morsel_rows` rows a
    /// morsel.
    fn parallel_ctx(workers: usize, morsel_rows: usize) -> ExecCtx {
        (ExecCtx::new().with_columnar(true))
            .with_workers(workers)
            .with_morsel_rows(morsel_rows)
    }

    #[test]
    fn split_units_covers_exactly() {
        assert_eq!(split_units(10, 3), Some(vec![0..3, 3..6, 6..9, 9..10]));
        assert_eq!(split_units(4, 3), Some(vec![0..3, 3..4]));
        for total in [0, 1, 3] {
            assert_eq!(split_units(total, 3), None, "{total} units");
        }
    }

    #[test]
    fn gather_matches_serial_rows_and_ledger() {
        let serial_rows;
        let mut serial_ctx = ExecCtx::new();
        {
            let mut p = pipeline(1000);
            p.open(&mut serial_ctx);
            serial_rows = drain_pipeline(&mut serial_ctx, &mut p);
        }
        for workers in [2, 3, 8] {
            let p = pipeline(1000);
            let mut ctx = parallel_ctx(workers, 64);
            let rows = gather_parallel(&p, &mut ctx).expect("partitionable");
            assert_eq!(rows, serial_rows, "workers={workers}");
            assert_eq!(ctx.ledger.cpu, serial_ctx.ledger.cpu, "workers={workers}");
            assert_eq!(ctx.pred_evals, serial_ctx.pred_evals);
        }
    }

    #[test]
    fn serial_context_declines_parallelism() {
        let mut ctx = parallel_ctx(1, 64);
        assert!(gather_parallel(&pipeline(1000), &mut ctx).is_none());
        assert!(ctx.is_empty());

        // The scalar oracle runs serial at any worker count: it declines
        // a pipeline the columnar engine would split, and a whole run
        // charges core 0 alone.
        let mut ctx = ExecCtx::new().with_workers(4).with_morsel_rows(64);
        assert!(gather_parallel(&pipeline(1000), &mut ctx).is_none());
        assert!(ctx.is_empty());
        let rows = crate::exec::execute(&mut pipeline(1000), &mut ctx);
        assert_eq!(rows.len(), 500);
        let phases = ctx.take_core_phases(4, "t");
        assert!(!phases[0].ledger.is_empty());
        assert!(phases[1..].iter().all(|ph| ph.ledger.is_empty()));
    }

    #[test]
    fn streaming_exact_region_declines_parallelism() {
        let p = pipeline(1000);
        let mut ctx = parallel_ctx(4, 64);
        ctx.streaming_exact = 1;
        assert!(gather_parallel(&p, &mut ctx).is_none());
    }

    /// A disk scan's parts run in any order charge the same per-core
    /// ledgers: its split did every pool read, warm re-reads included,
    /// so no part's charges depend on when it runs.
    #[test]
    fn disk_parts_charge_the_same_per_core_ledgers_in_any_order() {
        use crate::ops::SeqScan;
        use eco_simhw::trace::Ledger;
        use eco_storage::{Catalog, TableData};
        use std::sync::Arc;

        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let tuples: Vec<_> = (0..40_000).map(|i| vec![Value::Int(i)]).collect();
        let mut cat = Catalog::new(1 << 10);
        cat.add_disk_table("d", schema, &tuples);
        let table = cat.expect("d");
        let TableData::Disk(disk) = &table.data else {
            unreachable!("a disk table")
        };
        // More extents than workers: some worker owns two parts.
        assert!(disk.num_pages() > 3 * 16, "{} pages", disk.num_pages());
        cat.pool().set_warm_reread_every(Some(7));

        const WORKERS: usize = 3;
        let per_core = |order: &dyn Fn(usize) -> Vec<usize>| {
            // Cold, then warm: the split's reads hit and re-read.
            cat.pool().flush();
            let mut ctx = parallel_ctx(WORKERS, 1);
            gather_parallel(&SeqScan::new(Arc::clone(&table)), &mut ctx).expect("splits");
            let scan = Filter::new(
                Box::new(SeqScan::new(Arc::clone(&table))),
                Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(100)),
            );
            let mut parts = scan.split(1).expect("one extent a part");
            let mut cores = vec![Ledger::new(); WORKERS];
            for i in order(parts.len()) {
                let mut wctx = ctx.fork();
                parts[i].open(&mut wctx);
                drain_pipeline(&mut wctx, parts[i].as_mut());
                cores[i % WORKERS].merge(&wctx.ledger);
            }
            cores
        };
        let forward = per_core(&|n| (0..n).collect());
        assert!(forward.iter().all(|l| l.disk.random_ios > 0), "{forward:?}");
        let reverse = per_core(&|n| (0..n).rev().collect());
        // From both ends inwards: 0, n-1, 1, n-2, ...
        let interleaved = per_core(&|n| {
            (0..n)
                .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
                .collect()
        });
        for (order, cores) in [("reverse", reverse), ("interleaved", interleaved)] {
            for (w, (want, got)) in forward.iter().zip(&cores).enumerate() {
                want.assert_same(got, format_args!("{order}: core {w}"));
            }
        }
    }

    #[test]
    fn per_core_attribution_is_deterministic() {
        let charges = |workers: usize| {
            let p = pipeline(2000);
            let mut ctx = parallel_ctx(workers, 128);
            gather_parallel(&p, &mut ctx).expect("partitionable");
            ctx.take_core_phases(workers, "t")
                .into_iter()
                .map(|ph| ph.ledger.cpu.count(OpClass::PredEval))
                .collect::<Vec<_>>()
        };
        let a = charges(4);
        let b = charges(4);
        assert_eq!(a, b, "static morsel assignment is reproducible");
        assert!(a.iter().all(|&c| c > 0), "all cores get work: {a:?}");
    }
}
