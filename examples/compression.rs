//! Compressed columnar mirrors and direct-on-compressed execution
//! (ledger schema v3): per-column encoding choices on TPC-H `lineitem`,
//! the resulting compression ratios, and the priced-energy delta on Q6
//! when scans charge *encoded* bytes and predicates run on dictionary
//! ids / RLE runs / packed words instead of decompressed values.
//!
//! ```text
//! cargo run --example compression --release
//! ```

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::ExecEngine;
use ecodb::query::plans;
use ecodb::simhw::machine::MachineConfig;
use ecodb::simhw::trace::{PhaseKind, PricingMode, WorkTrace};
use ecodb::storage::TableData;

fn main() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);
    let table = db.catalog().expect("lineitem");
    let TableData::Memory(heap) = &table.data else {
        unreachable!("memory profile stores heap tables");
    };

    // Per-column encoding choice, picked at encode time from
    // column statistics (exact candidate byte sizes).
    let enc = heap.encoded();
    let rows = enc.rows() as u64;
    let raw_bytes = heap.bytes();
    println!(
        "lineitem: {rows} rows, raw {raw_bytes} B, encoded {} B",
        enc.encoded_bytes()
    );
    println!(
        "\n{:<16} {:>10} {:>12} {:>8}",
        "column", "encoding", "bytes", "B/row"
    );
    for (col, e) in table.schema().columns().iter().zip(enc.columns()) {
        println!(
            "{:<16} {:>10} {:>12} {:>8.2}",
            col.name,
            e.encoding_name(),
            e.encoded_bytes(),
            e.encoded_bytes() as f64 / rows as f64
        );
    }
    println!(
        "\ntable compression ratio: {:.2}x ({} -> {} B/row priced by scans)",
        raw_bytes as f64 / enc.encoded_bytes() as f64,
        table.avg_tuple_bytes(),
        enc.avg_tuple_bytes(),
    );

    // Q6 under both pricing modes: identical rows, cheaper ledger.
    let run = |pricing: PricingMode| {
        let mut ctx = ExecCtx::new().with_columnar(true).with_pricing(pricing);
        let rows = ExecEngine::Columnar
            .execute(plans::q6_plan(db.catalog(), 1994, 6, 24).as_mut(), &mut ctx);
        let bytes = ctx.ledger.mem_stream_bytes;
        let mut trace = WorkTrace::new();
        trace.push(ctx.take_phase(PhaseKind::Execute, "q6"));
        let m = db.machine().measure(&trace, &MachineConfig::stock());
        (rows, bytes, m.cpu_joules + m.dram_joules)
    };
    let (raw_rows, raw_b, raw_j) = run(PricingMode::Raw);
    let (comp_rows, comp_b, comp_j) = run(PricingMode::Compressed);
    assert_eq!(
        comp_rows, raw_rows,
        "compressed kernels must match raw rows"
    );

    println!("\nQ6 (columnar engine, memory storage):");
    println!("  raw pricing:        {raw_b:>12} priced bytes, {raw_j:.5} J");
    println!("  compressed pricing: {comp_b:>12} priced bytes, {comp_j:.5} J");
    println!(
        "  -> {:.2}x fewer priced memory bytes, {:.1}% less energy, same {} result row(s)",
        raw_b as f64 / comp_b as f64,
        100.0 * (1.0 - comp_j / raw_j),
        raw_rows.len()
    );
}
