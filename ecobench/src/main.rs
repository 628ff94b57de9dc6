//! `ecobench` — ecoDB's one benchmark: host time and simulated energy
//! over five workloads, and a separate traced run that breaks the time
//! down by layer. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! ecobench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//!     one workload in this process; metric rows, then the result
//!     object on the last line of standard output
//! ecobench run   [--seed <n>] [--seconds <s>]    every workload, untraced,
//! ecobench trace [--seed <n>] [--seconds <s>]    or traced; one child process each
//! ecobench compare <a.tsv> <b.tsv>               is B no worse than A?
//! ecobench manifest                              print BENCHMARK.json
//! ```

mod calib;
mod check;
mod compare;
mod gen;
mod layers;
mod metrics;
mod report;
mod runner;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use report::Report;
use trace::Tracer;
use workloads::Size;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Run one workload in this process.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Result<(Report, Tracer), String> {
    let mut workload = workloads::build(name, seed, size).ok_or_else(|| {
        let known: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let mut tracer = Tracer::new(traced);
    let outcome = runner::run(workload.as_mut(), seconds, &mut tracer)?;
    if outcome.failed > 0 {
        return Err(format!(
            "{} of {} ops failed",
            outcome.failed, outcome.attempted
        ));
    }
    let report = Report::new(name, seed, &outcome, &tracer);
    if let Some((def, v)) = report.values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{} is {v}", def.name));
    }
    Ok((report, tracer))
}

/// The value after `flag` in `args`, parsed; `default` when absent.
fn flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value")),
        None => default.ok_or_else(|| format!("{flag} is required")),
    }
}

/// Every argument is a known flag followed by its value.
fn only_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .step_by(2)
        .find(|a| !known.contains(&a.as_str()))
    {
        Some(a) => Err(format!("unexpected argument {a:?}")),
        None => Ok(()),
    }
}

/// The contract's entry point: one workload, one process.
fn single(args: &[String]) -> Result<(), String> {
    only_flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--spans"],
    )?;
    let name: String = flag(args, "--workload", None)?;
    let seed: u64 = flag(args, "--seed", None)?;
    let seconds: f64 = flag(args, "--seconds", None)?;
    let traced = match flag::<u8>(args, "--trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let spans: String = flag(args, "--spans", Some(String::new()))?;
    let (report, tracer) = run_workload(&name, seed, seconds, traced, Size::Full)?;
    if !spans.is_empty() {
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{spans}: {e}"))?;
    }
    print!("{}", report.tsv());
    println!("{}", report.json());
    Ok(())
}

/// Every workload, each in a fresh child process of this executable;
/// prints their metric rows.
fn all(args: &[String], traced: bool) -> Result<(), String> {
    only_flags(args, &["--seed", "--seconds"])?;
    let seed: u64 = flag(args, "--seed", Some(metrics::DEFAULT_SEED))?;
    let seconds: f64 = flag(args, "--seconds", Some(f64::from(metrics::RUN_SECONDS)))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for (name, _) in metrics::WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        if !child.status.success() {
            return Err(format!(
                "{name}: {}",
                String::from_utf8_lossy(&child.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        for row in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{row}");
        }
    }
    Ok(())
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two files".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, failed) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => all(&args[1..], false),
        Some("trace") => all(&args[1..], true),
        Some("compare") => match compare_files(&args[1..]) {
            Ok(false) => Ok(()),
            Ok(true) => return ExitCode::from(2),
            Err(e) => Err(e),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(())
        }
        _ => single(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ecobench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    /// A miniature end-to-end pass over every workload, untraced and
    /// traced: each metric `BENCHMARK.json` names comes out exactly
    /// once, with its unit, in both output formats.
    #[test]
    fn every_workload_emits_every_metric_once() {
        for (name, _) in WORKLOADS {
            for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let (report, _) = run_workload(name, 7, 0.0, traced, Size::Tiny)
                    .unwrap_or_else(|e| panic!("{name} traced={traced}: {e}"));
                assert!(report.attempted > 0 && report.failed == 0);
                let (tsv, json) = (report.tsv(), report.json());
                for def in defs {
                    let row = format!("{name}\t{}\t", def.name);
                    let hits: Vec<&str> = tsv.lines().filter(|l| l.starts_with(&row)).collect();
                    assert_eq!(
                        hits.len(),
                        1,
                        "{name}: {} rows for {}",
                        hits.len(),
                        def.name
                    );
                    assert!(hits[0].ends_with(&format!("\t{}", def.unit)), "{}", hits[0]);
                    assert_eq!(json.matches(&format!("\"{}\": {{", def.name)).count(), 1);
                }
                assert_eq!(tsv.lines().count(), defs.len() + 4);
                assert_eq!(json.matches("\"unit\"").count(), defs.len());
                if !traced {
                    // End-to-end metrics are never 0.
                    assert!(report.values.iter().all(|(_, v)| *v > 0.0), "{name}: {tsv}");
                }
            }
        }
    }

    #[test]
    fn the_same_seed_repeats_every_exact_metric_and_another_seed_does_not() {
        let exact = |seed: u64, traced: bool| -> Vec<(&'static str, f64)> {
            let (report, _) =
                run_workload("disk_cold_probe", seed, 0.0, traced, Size::Tiny).unwrap();
            report
                .values
                .iter()
                .filter(|(d, _)| d.exact)
                .map(|(d, v)| (d.name, *v))
                .collect()
        };
        for traced in [false, true] {
            assert_eq!(exact(11, traced), exact(11, traced));
            assert_ne!(exact(11, traced), exact(12, traced));
        }
    }

    #[test]
    fn a_traced_run_explains_each_statement_with_child_spans() {
        let (_, tracer) = run_workload("olap_warm", 3, 0.0, true, Size::Tiny).unwrap();
        let spans = tracer.spans();
        let ops: Vec<usize> = (0..spans.len())
            .filter(|i| spans[*i].name == "core.try_trace_sql")
            .collect();
        assert_eq!(ops.len(), 8, "one traced round of eight statements");
        for op in ops {
            let children: Vec<&trace::Span> =
                spans.iter().filter(|s| s.parent == Some(op)).collect();
            let names: Vec<&str> = children.iter().map(|s| s.name).collect();
            assert_eq!(names.len(), 3, "{names:?}");
            assert!(
                names[0] == "query.parse"
                    && names[1] == "query.plan"
                    && names[2].starts_with("query.exec_q")
            );
            assert!(children.iter().all(|s| s.op_id == spans[op].op_id));
        }
        // The statements' mean self time is what the shadows leave of
        // them (never negative; `trace.rs` tests the arithmetic).
        assert!(tracer.mean_self_ns("core.try_trace_sql") <= tracer.mean_ns("core.try_trace_sql"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_string).collect() };
        assert!(single(&args("--workload nope --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(single(&args("--workload olap_warm --seed 1 --seconds 0 --trace 2")).is_err());
        assert!(single(&args("--workload olap_warm --seed 1 --seconds 0")).is_err());
        assert!(single(&args("--workload olap_warm --seed x --seconds 0 --trace 0")).is_err());
        assert!(single(&args("olap_warm")).is_err());
        assert!(all(&args("--all"), false).is_err());
    }
}
