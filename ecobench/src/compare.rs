//! `ecobench compare <a.tsv> <b.tsv>`: is run set B no worse than run
//! set A? Both files hold the rows `ecobench run` prints; a file may
//! hold several runs of a workload, one after the other.
//!
//! Every (workload, metric) gets its own row and verdict:
//!
//! * an *exact* metric (simulated, or a count) must read the same to
//!   the last digit in both files for every seed they share;
//! * a host metric with a bound is compared by median: worse than A by
//!   more than the bound is `REGRESSED` — unless the quartile spread
//!   of either side exceeds the bound, which makes it `unresolved`
//!   (or `improved`, when every run of B beats every run of A);
//! * a per-layer host metric has no bound and is only shown.

use std::collections::BTreeMap;

use crate::metrics::{self, median, quartile_spread, Better, MetricDef};

/// `(seed, value as printed)` samples of one (workload, metric).
type Samples = Vec<(String, String)>;
type Table = BTreeMap<(String, String), Samples>;

/// Parse `workload<TAB>metric<TAB>value<TAB>unit` rows; a `seed` row
/// starts a new run of its workload. Other lines are skipped.
pub fn parse(text: &str) -> Table {
    let mut table = Table::new();
    let mut seeds: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, metric, value, _unit] = f[..] else {
            continue;
        };
        if metric == "seed" {
            seeds.insert(workload.to_string(), value.to_string());
        }
        let seed = seeds.get(workload).cloned().unwrap_or_default();
        table
            .entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push((seed, value.to_string()));
    }
    table
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Mismatch,
    NoCommonSeed,
    Ok,
    Improved,
    Regressed,
    Unresolved,
    Shown,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Mismatch => "MISMATCH",
            Verdict::NoCommonSeed => "no-common-seed",
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Shown => "-",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Mismatch | Verdict::Regressed)
    }
}

fn values(samples: &Samples) -> Vec<f64> {
    samples.iter().filter_map(|(_, v)| v.parse().ok()).collect()
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &MetricDef, a: &Samples, b: &Samples) -> Verdict {
    if def.exact {
        let by_seed: BTreeMap<&str, &str> =
            a.iter().map(|(s, v)| (s.as_str(), v.as_str())).collect();
        let shared: Vec<bool> = b
            .iter()
            .filter_map(|(s, v)| by_seed.get(s.as_str()).map(|av| av == v))
            .collect();
        return match shared.as_slice() {
            [] => Verdict::NoCommonSeed,
            s if s.iter().all(|same| *same) => Verdict::Identical,
            _ => Verdict::Mismatch,
        };
    }
    if def.bound == 0.0 {
        return Verdict::Shown;
    }
    let (va, vb) = (values(a), values(b));
    let spread = quartile_spread(&va).max(quartile_spread(&vb));
    let every_b_better = vb
        .iter()
        .all(|b| va.iter().all(|a| worse_by(def, *a, *b) < 0.0));
    if spread > def.bound {
        if every_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by(def, median(&va), median(&vb)) > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compare two run sets; returns the table to print and whether any
/// row fails.
pub fn compare(a_text: &str, b_text: &str) -> (String, bool) {
    let (a, b) = (parse(a_text), parse(b_text));
    let mut out = String::from(
        "workload\tmetric\ta_median\tb_median\tworse_by_pct\tbound_pct\tspread_pct\tverdict\n",
    );
    let mut failed = false;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (key, sa) in &a {
        let (Some(sb), Some(def)) = (b.get(key), metrics::find(&key.1)) else {
            continue;
        };
        let (va, vb) = (values(sa), values(sb));
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let verdict = judge(def, sa, sb);
        failed |= verdict.fails();
        *tally.entry(verdict.as_str()).or_insert(0) += 1;
        let (ma, mb) = (median(&va), median(&vb));
        out.push_str(&format!(
            "{}\t{}\t{ma}\t{mb}\t{:.2}\t{:.0}\t{:.2}\t{}\n",
            key.0,
            key.1,
            worse_by(def, ma, mb) * 100.0,
            def.bound * 100.0,
            quartile_spread(&va).max(quartile_spread(&vb)) * 100.0,
            verdict.as_str()
        ));
    }
    let summary: Vec<String> = tally.iter().map(|(v, n)| format!("{n} {v}")).collect();
    out.push_str(&format!("# {}\n", summary.join(", ")));
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(metric: &str, unit: &str, values: &[(u64, f64)]) -> String {
        values
            .iter()
            .map(|(seed, v)| format!("w\tseed\t{seed}\tid\nw\t{metric}\t{v}\t{unit}\n"))
            .collect()
    }

    fn verdict(metric: &str, a: &[(u64, f64)], b: &[(u64, f64)]) -> Verdict {
        let def = metrics::find(metric).unwrap();
        let (ta, tb) = (
            parse(&runs(metric, def.unit, a)),
            parse(&runs(metric, def.unit, b)),
        );
        let key = ("w".to_string(), metric.to_string());
        judge(def, &ta[&key], &tb[&key])
    }

    #[test]
    fn exact_metrics_must_match_per_seed() {
        let m = "sim_joules_per_op";
        assert_eq!(
            verdict(m, &[(1, 0.5), (2, 0.7)], &[(2, 0.7), (1, 0.5)]),
            Verdict::Identical
        );
        assert_eq!(
            verdict(m, &[(1, 0.5)], &[(1, 0.5000001)]),
            Verdict::Mismatch
        );
        assert_eq!(verdict(m, &[(1, 0.5)], &[(2, 0.5)]), Verdict::NoCommonSeed);
    }

    #[test]
    fn host_metrics_use_the_bound_and_the_spread() {
        // ops_per_s: higher is better; its bound is between 5 and 25 %.
        let m = "ops_per_s";
        let steady = [(1, 100.0), (2, 101.0), (3, 99.0), (4, 100.5)];
        assert_eq!(
            verdict(m, &steady, &[(1, 95.0), (2, 96.0), (3, 94.0)]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(m, &steady, &[(1, 60.0), (2, 61.0), (3, 59.0)]),
            Verdict::Regressed
        );
        assert_eq!(verdict(m, &steady, &[(1, 130.0), (2, 131.0)]), Verdict::Ok);
        // A side that moves more than the bound from run to run
        // resolves nothing, unless B wins every pairing.
        let noisy = [(1, 60.0), (2, 100.0), (3, 140.0), (4, 80.0)];
        assert_eq!(verdict(m, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(
            verdict(m, &noisy, &[(1, 200.0), (2, 300.0), (3, 400.0)]),
            Verdict::Improved
        );
        // setup_s: lower is better.
        assert_eq!(
            verdict("setup_s", &[(1, 10.0)], &[(1, 14.0)]),
            Verdict::Regressed
        );
        assert_eq!(verdict("setup_s", &[(1, 10.0)], &[(1, 8.0)]), Verdict::Ok);
        // Per-layer host metrics carry no bound.
        assert_eq!(
            verdict("query.plan_us", &[(1, 10.0)], &[(1, 99.0)]),
            Verdict::Shown
        );
    }

    #[test]
    fn every_shared_row_is_reported_and_a_regression_fails() {
        let a = format!(
            "{}{}",
            runs("ops_per_s", "op/s", &[(1, 100.0)]),
            "w\trounds\t9\tcount\nnoise\n"
        );
        let b = runs("ops_per_s", "op/s", &[(1, 50.0)]);
        let (table, failed) = compare(&a, &b);
        assert!(failed);
        let bound = metrics::find("ops_per_s").unwrap().bound * 100.0;
        assert!(
            table.contains(&format!(
                "w\tops_per_s\t100\t50\t50.00\t{bound:.0}\t0.00\tREGRESSED"
            )),
            "{table}"
        );
        assert!(!table.contains("rounds"));
        let (table, failed) = compare(&a, &a);
        assert!(!failed && table.contains("\tok\n"), "{table}");
    }
}
