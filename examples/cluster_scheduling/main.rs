//! Global (cluster-level) energy techniques: consolidate load and put
//! idle servers to sleep — the paper's §1/§2 "global" class, simulated
//! over machine-model power levels.
//!
//! ```text
//! cargo run --example cluster_scheduling --release
//! ```

mod cluster;

use cluster::{simulate, uniform_stream, Policy, ServerPower};
use ecodb::simhw::machine::{Machine, MachineConfig};

fn main() {
    let power = ServerPower::from_machine(&Machine::paper_sut(), &MachineConfig::stock());
    println!(
        "server power: busy {:.1} W, idle {:.1} W, asleep {:.1} W (wall)\n",
        power.busy_w, power.idle_w, power.sleep_w
    );

    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>10}",
        "scenario", "load", "energy J", "J/query", "avg resp"
    );
    for (label, inter_arrival, service) in [
        ("overnight trickle", 2.0, 0.1),
        ("business hours", 0.25, 0.1),
        ("peak", 0.06, 0.1),
    ] {
        let jobs = uniform_stream(400, inter_arrival, service);
        let load = service / inter_arrival;
        let all_on = simulate(4, power, Policy::AllOnRoundRobin, &jobs);
        let packed = simulate(
            4,
            power,
            Policy::Consolidate {
                idle_timeout_s: 3.0,
                wake_latency_s: 0.5,
            },
            &jobs,
        );
        println!(
            "{:<22} {:>9.0}% {:>12.0} {:>12.2} {:>9.3}s   (all on)",
            label,
            load * 100.0 * 4.0 / 4.0,
            all_on.energy_j,
            all_on.joules_per_query(400),
            all_on.avg_response_s
        );
        println!(
            "{:<22} {:>10} {:>12.0} {:>12.2} {:>9.3}s   (consolidate+sleep, {:.0}% energy)",
            "",
            "",
            packed.energy_j,
            packed.joules_per_query(400),
            packed.avg_response_s,
            packed.energy_j / all_on.energy_j * 100.0
        );
    }
    println!(
        "\nAt low utilization — \"the common case\" (paper §1) — turning servers\n\
         off buys large energy savings for a bounded response-time cost."
    );
}
