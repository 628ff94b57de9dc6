//! The speed probe: a fixed piece of query-like work of the
//! benchmark's own, timed between rounds, that says how fast the box
//! is *right now*.
//!
//! The reference box is a small VM on a shared host whose speed moves
//! by 10 to 40 % for tens of seconds to minutes at a time, sometimes in
//! its integer speed, sometimes in its memory system. Over two hours of
//! back-to-back runs no in-run statistic of the round times (minimum,
//! quartiles, median, mean) was steadier than another, because a slow
//! spell outlasts a run; what did follow the spells was the time of
//! other work done in the same seconds. So every host time the
//! benchmark reports is divided by the epoch's *speed factor* — the
//! probe's median time over [`REFERENCE_NS`] — and reads as time on the
//! reference box at its usual speed. That roughly halves the spread
//! between runs of the same code (see "Noise" in the README).
//!
//! The probe is a frozen miniature of what ecoDB does to a row: 30 000
//! heap-allocated rows of tagged values (4.5 MB, more than the
//! second-level cache) are scanned with a date filter, grouped sums
//! keyed by a cloned string, a hash probe into a dimension table, a
//! top-100 sort and a small materialised result. Of six micro-kernels
//! tried beside it (a first-level-cache sort, dependent loads over
//! 256 KB, 2 MB and 16 MB, page-touching allocation, a streaming sum)
//! none tracked every workload as well. It calls no code of ecoDB, so
//! no change to ecoDB moves it, and it takes about 1.5 % of a run.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What one sample takes on the reference box at its usual speed.
pub const REFERENCE_NS: f64 = 1_900_000.0;

const ROWS: i64 = 30_000;
const PARTS: i64 = 20_000;

#[derive(Clone)]
enum Val {
    Int(i64),
    Date(i32),
    Char(char),
    Str(Box<str>),
}

pub struct Probe {
    /// `(order, quantity, price, discount, flag, date, mode, part)`.
    rows: Vec<Vec<Val>>,
    /// Every fifth part, with a weight.
    dim: HashMap<i64, i64>,
    cutoff: i32,
}

impl Probe {
    pub fn new() -> Self {
        // xorshift64: the same rows in every run.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"];
        let rows = (0..ROWS)
            .map(|i| {
                let r = next();
                vec![
                    Val::Int(i / 4),
                    Val::Int((r % 50) as i64 + 1),
                    Val::Int((r >> 8) as i64 % 90_000 + 1_000),
                    Val::Int((r >> 32) as i64 % 11),
                    Val::Char(['A', 'N', 'R'][(r >> 40) as usize % 3]),
                    Val::Date((r >> 44) as i32 % 2_500),
                    Val::Str(modes[(r >> 56) as usize % 7].into()),
                    Val::Int((r >> 16) as i64 % PARTS),
                ]
            })
            .collect();
        let dim = (0..PARTS).step_by(5).map(|k| (k, k % 25)).collect();
        Self {
            rows,
            dim,
            cutoff: 1_200,
        }
    }

    /// One pass over the rows; the result rows.
    fn pass(&mut self) -> Vec<Vec<Val>> {
        self.cutoff = 1_000 + (self.cutoff + 37) % 500;
        let mut groups: BTreeMap<(char, Box<str>), [i64; 3]> = BTreeMap::new();
        let mut revenue: HashMap<i64, i64> = HashMap::new();
        for row in &self.rows {
            let [Val::Int(order), Val::Int(quantity), Val::Int(price), Val::Int(discount), Val::Char(flag), Val::Date(date), Val::Str(mode), Val::Int(part)] =
                &row[..]
            else {
                continue;
            };
            if *date <= self.cutoff {
                let g = groups.entry((*flag, mode.clone())).or_default();
                g[0] += quantity;
                g[1] += price * (100 - discount) / 100;
                g[2] += 1;
            } else if let Some(weight) = self.dim.get(part) {
                *revenue.entry(*order).or_insert(0) += price * weight;
            }
        }
        let mut top: Vec<(i64, i64)> = revenue.into_iter().map(|(k, r)| (-r, k)).collect();
        top.sort_unstable();
        top.truncate(100);
        top.iter()
            .map(|(r, k)| vec![Val::Int(*k), Val::Int(-r)])
            .chain(groups.iter().map(|((flag, mode), g)| {
                vec![
                    Val::Char(*flag),
                    Val::Str(mode.clone()),
                    Val::Int(g[0]),
                    Val::Int(g[1]),
                    Val::Int(g[2]),
                ]
            }))
            .collect()
    }

    /// Do the fixed work once; the host nanoseconds it took.
    pub fn sample(&mut self) -> f64 {
        let begin = Instant::now();
        black_box(self.pass());
        begin.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_filters_groups_and_ranks() {
        let mut p = Probe::new();
        let out = p.pass();
        // 100 ranked orders, then one row per (flag, mode) group.
        assert_eq!(out.len(), 100 + 3 * 7);
        let ranked: Vec<i64> = out[..100]
            .iter()
            .map(|r| match r[1] {
                Val::Int(v) => v,
                _ => panic!("revenue is an integer"),
            })
            .collect();
        assert!(ranked.windows(2).all(|w| w[0] >= w[1]));
        let counted: i64 = out[100..]
            .iter()
            .map(|r| match r[4] {
                Val::Int(n) => n,
                _ => panic!("count is an integer"),
            })
            .sum();
        let below = p
            .rows
            .iter()
            .filter(|r| matches!(r[5], Val::Date(d) if d <= p.cutoff))
            .count();
        assert_eq!(counted, below as i64);
        assert!(p.sample() > 0.0);
    }
}
