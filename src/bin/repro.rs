//! `repro` — regenerate every table, figure and ablation of the paper.
//!
//! ```text
//! cargo run --release --bin repro -- [<scale>] [<target>...|all]
//! ```
//!
//! Prints the same rows/series the paper reports, at a configurable
//! scale factor (default 0.02; the paper used SF 1.0 for the commercial
//! DBMS, 0.125 for MySQL, 0.5 for QED on real hardware). The targets
//! are `eco_core::experiments::TARGETS`; an unknown one exits non-zero.

use ecodb::core::experiments as exp;

fn main() {
    let mut scale = exp::DEFAULT_SCALE;
    let mut targets = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.parse::<f64>() {
            Ok(s) => scale = s,
            Err(_) => targets.push(arg.to_lowercase()),
        }
    }
    let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
    match exp::report(scale, &targets) {
        Ok(text) => print!("{text}"),
        Err(unknown) => {
            eprintln!("unknown target {unknown:?}");
            let names: Vec<&str> = exp::TARGETS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "usage: repro [<scale>] [<target>...|all]  (targets: {})",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
}
