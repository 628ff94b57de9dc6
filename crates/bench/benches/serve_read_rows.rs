//! What a merged dispatch's lazily decoded result sets cost the client
//! that does read them: one `EcoServer::serve` of 100 selection
//! sessions arriving faster than they drain (ecobench's saturated
//! `serve_qed` batch: threshold 50, so two merged dispatches), without
//! and with reading every value of every session's rows right
//! afterwards.

use criterion::{criterion_group, criterion_main, Criterion};
use eco_bench::bench_db_memory;
use eco_server::{session_workload, EcoServer, ServeReport, ServerConfig, SessionOutcome};
use eco_storage::tuple_width;
use std::hint::black_box;

/// Touch every value of every completed session's rows.
fn read_every_row(report: &ServeReport) -> u64 {
    let mut bytes = 0;
    for outcome in &report.outcomes {
        if let SessionOutcome::Completed { rows, .. } = outcome {
            bytes += rows.iter().map(tuple_width).sum::<u64>();
        }
    }
    bytes
}

fn bench(c: &mut Criterion) {
    let db = bench_db_memory();
    let requests = session_workload(100, 25_000.0, 20090104);
    let server = EcoServer::new(&db, ServerConfig::batched(1, 50));
    let report = server.serve(&requests);
    assert_eq!(report.served, 100);
    println!(
        "100 sessions, {} dispatches, {} rows out",
        report.dispatches.len(),
        report
            .outcomes
            .iter()
            .map(|o| match o {
                SessionOutcome::Completed { rows, .. } => rows.len(),
                SessionOutcome::Rejected { .. } => 0,
            })
            .sum::<usize>()
    );

    let mut g = c.benchmark_group("serve_read_rows");
    g.sample_size(20);
    g.bench_function("serve", |b| b.iter(|| black_box(server.serve(&requests))));
    g.bench_function("serve_then_read_every_row", |b| {
        b.iter(|| {
            let report = server.serve(&requests);
            black_box(read_every_row(&report))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
