//! The SQL front-end: submit ad-hoc SQL text, get answers priced in
//! time *and* joules — including TPC-H Q5 exactly as published.
//!
//! ```text
//! cargo run --example sql_interface --release
//! ```

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::simhw::{CpuConfig, MachineConfig, VoltageSetting};

fn main() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);

    let statements = [
        "SELECT COUNT(*) AS lineitems FROM lineitem",
        "SELECT r_name, COUNT(*) AS nations FROM region, nation \
         WHERE n_regionkey = r_regionkey GROUP BY r_name ORDER BY r_name",
        "SELECT l_quantity, COUNT(*) AS rows_at_qty FROM lineitem \
         WHERE l_quantity IN (1, 25, 50) GROUP BY l_quantity ORDER BY l_quantity",
        // TPC-H Q5, verbatim shape (money in cents, percents in hundredths).
        "SELECT n_name, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue \
         FROM customer, orders, lineitem, supplier, nation, region \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
           AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
           AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
           AND r_name = 'ASIA' \
           AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01' \
         GROUP BY n_name ORDER BY revenue DESC",
    ];

    let eco = MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium));
    for sql in statements {
        println!("sql> {sql}");
        match db.try_trace_sql(sql) {
            Ok((rows, trace)) => {
                for row in rows.iter().take(8) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("     {}", cells.join(" | "));
                }
                if rows.len() > 8 {
                    println!("     ... {} rows total", rows.len());
                }
                let stock = db.price(&trace, MachineConfig::stock());
                let eco_m = db.price(&trace, eco);
                println!(
                    "     [{:.2} ms, {:.4} J stock | {:.4} J at 5% UC/medium]\n",
                    stock.elapsed_s * 1e3,
                    stock.cpu_joules,
                    eco_m.cpu_joules
                );
            }
            Err(e) => println!("     error: {e}\n"),
        }
    }

    // Errors are first-class too.
    let bad = db.try_trace_sql("SELECT bogus FROM lineitem");
    println!(
        "sql> SELECT bogus FROM lineitem\n     -> {}",
        bad.unwrap_err()
    );
}
