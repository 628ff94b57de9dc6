//! Host-time floors: the engine that ships must be the faster one.
//!
//! * Columnar execution (what `EcoDb` runs by default) is no slower
//!   than the scalar oracle on TPC-H Q1/Q3/Q5/Q6.
//! * An `IxScan` probe on `lineitem.l_orderkey` beats the full columnar
//!   scan it replaces by at least [`MIN_SPEEDUP`]: 10x on a point
//!   selection, 3x on a narrow range.
//!
//! Each side is the median of [`SAMPLES`] timed runs after one warm-up,
//! at scale 0.01. The two tests take turns (see [`TIMING`]) so neither
//! times the other's work. Each prints every ratio it measures (shown
//! with `cargo test --release --test host_time_floors -- --nocapture`),
//! so a log shows the margin above each floor, not only a pass.

mod support;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::{execute, ExecEngine};
use ecodb::query::ops::BoxedOp;
use ecodb::query::plans;

const SAMPLES: usize = 7;

/// How much faster an `IxScan` probe must be than the full scan it
/// replaces, on the point and range shapes. Both sides run the columnar
/// engine: its scan is several times faster than a row-at-a-time scan,
/// while the probe pulls rows either way, so the ratios are those of
/// the engine that ships. Measured on a 2-vCPU Intel Xeon host, three
/// runs each: point 95–115x and range (127 rows) 4.9–5.1x optimised,
/// 179–182x and 6.9–9.3x in debug. The range floor's margin is
/// narrowest optimised.
const MIN_SPEEDUP: [f64; 2] = [10.0, 3.0];

/// Held by each test while it times, so the two never run at once. It
/// guards no data, so a guard poisoned by the other test's failure is
/// taken as is.
static TIMING: Mutex<()> = Mutex::new(());

fn median(mut f: impl FnMut() -> usize) -> Duration {
    std::hint::black_box(f()); // warm-up
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[test]
fn columnar_is_no_slower_than_scalar_on_tpch_q1_q3_q5_q6() {
    let _turn = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);
    for (name, plan) in &support::TPCH_PLANS[..4] {
        let time = |engine: ExecEngine| {
            median(|| {
                engine
                    .execute(plan(db.catalog()).as_mut(), &mut ExecCtx::new())
                    .len()
            })
        };
        let (scalar, columnar) = (time(ExecEngine::Scalar), time(ExecEngine::Columnar));
        let speedup = scalar.as_secs_f64() / columnar.as_secs_f64();
        println!("{name}: columnar {columnar:?}, scalar {scalar:?}: {speedup:.2}x, floor 1x");
        assert!(
            speedup >= 1.0,
            "{name}: columnar {columnar:?} is slower than scalar {scalar:?} ({speedup:.2}x)"
        );
    }
}

#[test]
fn an_index_probe_beats_the_full_scan_on_point_and_range_shapes() {
    let _turn = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.01);
    // Silence the residual warm re-reads: warm runs then touch no disk.
    db.catalog().pool().set_warm_reread_every(None);
    let li = &db.source().lineitem;
    let min_key = li.iter().map(|l| l.l_orderkey).min().unwrap_or(1);
    let max_key = li.iter().map(|l| l.l_orderkey).max().unwrap_or(1);
    let point_key = li[li.len() / 2].l_orderkey;
    let range_hi = min_key + (max_key - min_key) / 500; // ~0.2 % of keyspace

    let scan = |lo, hi| plans::orderkey_range_plan(db.catalog(), lo, hi);
    let probe = |lo, hi| {
        plans::orderkey_range_plan_indexed(db.catalog(), lo, hi).expect("index registered")
    };
    let run = |mut plan: BoxedOp| execute(plan.as_mut(), &mut ExecCtx::new().with_columnar(true));

    run(scan(min_key, max_key)); // warm the pool
    db.create_index("ix_lineitem_orderkey", "lineitem", "l_orderkey")
        .expect("disk profile indexes l_orderkey");
    let shapes = [
        ("point", point_key, point_key, MIN_SPEEDUP[0]),
        ("range", min_key, range_hi, MIN_SPEEDUP[1]),
    ];
    for (name, lo, hi, floor) in shapes {
        assert_eq!(run(probe(lo, hi)), run(scan(lo, hi)), "{name}: rows");
        let scan_time = median(|| run(scan(lo, hi)).len());
        let probe_time = median(|| run(probe(lo, hi)).len());
        let speedup = scan_time.as_secs_f64() / probe_time.as_secs_f64();
        println!("{name}: probe {probe_time:?}, scan {scan_time:?}: {speedup:.1}x, floor {floor}x");
        assert!(
            speedup >= floor,
            "{name}: probe {probe_time:?} vs scan {scan_time:?} is {speedup:.1}x, floor {floor}x"
        );
    }
}
