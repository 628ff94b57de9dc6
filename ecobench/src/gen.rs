//! The benchmark's own seeded input generator (splitmix64). ecoDB
//! receives only the SQL text and `Request`s made here; the same seed
//! always makes the same inputs.

use eco_server::{Request, SessionId, Statement};
use eco_tpch::{Date, QedQuery};

/// splitmix64 (Steele, Lea & Flood).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`salt`) of one run (`seed`).
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next_u64() % items.len() as u64) as usize]
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }

    /// `n` Poisson arrival instants at `rate` per simulated second.
    pub fn arrivals(&mut self, n: usize, rate: f64) -> Vec<f64> {
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                t += -(1.0 - self.unit()).ln() / rate;
                t
            })
            .collect()
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// One analytic statement with the parameters its oracle needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Olap {
    Q1 {
        cutoff: Date,
    },
    Q3 {
        segment: &'static str,
        cut: Date,
    },
    Q5 {
        region: &'static str,
        year: i32,
    },
    Q6 {
        year: i32,
        discount: i64,
        max_qty: i64,
    },
}

impl Olap {
    pub fn q1(rng: &mut Rng) -> Self {
        let delta = rng.range(60, 120) as i32;
        Olap::Q1 {
            cutoff: Date::from_ymd(1998, 12, 1).plus_days(-delta),
        }
    }

    pub fn q3(rng: &mut Rng) -> Self {
        Olap::Q3 {
            segment: rng.pick(&SEGMENTS),
            cut: Date::from_ymd(1995, 3, 1).plus_days(rng.range(0, 30) as i32),
        }
    }

    pub fn q5(rng: &mut Rng) -> Self {
        Olap::Q5 {
            region: rng.pick(&REGIONS),
            year: rng.range(1993, 1997) as i32,
        }
    }

    pub fn q6(rng: &mut Rng) -> Self {
        Olap::Q6 {
            year: rng.range(1993, 1997) as i32,
            discount: rng.range(2, 9),
            max_qty: rng.range(24, 25),
        }
    }

    /// Span name of the statement's execution in the traced run.
    pub fn exec_span(&self) -> &'static str {
        match self {
            Olap::Q1 { .. } => "query.exec_q1",
            Olap::Q3 { .. } => "query.exec_q3",
            Olap::Q5 { .. } => "query.exec_q5",
            Olap::Q6 { .. } => "query.exec_q6",
        }
    }

    /// The statement as SQL text (money in cents, percentages in
    /// hundredths — the storage layer's conventions).
    pub fn sql(&self) -> String {
        match self {
            Olap::Q1 { cutoff } => format!(
                "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                 SUM(l_extendedprice) AS sum_base_price, \
                 SUM(l_extendedprice * (100 - l_discount) / 100) AS sum_disc_price, \
                 SUM(l_extendedprice * (100 - l_discount) * (100 + l_tax) / 10000) AS sum_charge, \
                 AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
                 AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
                 FROM lineitem WHERE l_shipdate <= DATE '{}' \
                 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
                cutoff.iso()
            ),
            Olap::Q3 { segment, cut } => format!(
                "SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue, \
                 o_orderdate, o_shippriority FROM customer, orders, lineitem \
                 WHERE c_mktsegment = '{segment}' AND c_custkey = o_custkey \
                 AND l_orderkey = o_orderkey AND o_orderdate < DATE '{d}' \
                 AND l_shipdate > DATE '{d}' \
                 GROUP BY l_orderkey, o_orderdate, o_shippriority \
                 ORDER BY revenue DESC, o_orderdate LIMIT 10",
                d = cut.iso()
            ),
            Olap::Q5 { region, year } => format!(
                "SELECT n_name, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue \
                 FROM customer, orders, lineitem, supplier, nation, region \
                 WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
                 AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
                 AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                 AND r_name = '{region}' AND o_orderdate >= DATE '{year}-01-01' \
                 AND o_orderdate < DATE '{}-01-01' GROUP BY n_name ORDER BY revenue DESC",
                year + 1
            ),
            Olap::Q6 {
                year,
                discount,
                max_qty,
            } => format!(
                "SELECT SUM(l_extendedprice * l_discount / 100) AS revenue FROM lineitem \
                 WHERE l_shipdate >= DATE '{year}-01-01' AND l_shipdate < DATE '{}-01-01' \
                 AND l_discount BETWEEN {} AND {} AND l_quantity < {max_qty}",
                year + 1,
                discount - 1,
                discount + 1
            ),
        }
    }
}

/// One selection on `lineitem.l_orderkey` (the planner picks `IxScan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyProbe {
    pub lo: i64,
    pub hi: i64,
}

impl KeyProbe {
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    pub fn sql(&self) -> String {
        if self.is_point() {
            format!("SELECT * FROM lineitem WHERE l_orderkey = {}", self.lo)
        } else {
            format!(
                "SELECT * FROM lineitem WHERE l_orderkey BETWEEN {} AND {}",
                self.lo, self.hi
            )
        }
    }
}

/// `points` point probes and `ranges` range probes (8 to 40 keys wide)
/// over keys `1..=max_key`, shuffled together.
pub fn key_probes(rng: &mut Rng, max_key: i64, points: usize, ranges: usize) -> Vec<KeyProbe> {
    let mut probes: Vec<KeyProbe> = (0..points)
        .map(|_| {
            let k = rng.range(1, max_key);
            KeyProbe { lo: k, hi: k }
        })
        .collect();
    for _ in 0..ranges {
        let width = rng.range(8, 40);
        let lo = rng.range(1, max_key - width);
        probes.push(KeyProbe { lo, hi: lo + width });
    }
    rng.shuffle(&mut probes);
    probes
}

/// `n` one-statement selection sessions (`l_quantity` uniform in
/// `1..=50`) arriving as a Poisson process at `rate` per simulated
/// second — an open loop in simulated time.
pub fn selection_sessions(rng: &mut Rng, n: usize, rate: f64) -> Vec<Request> {
    rng.arrivals(n, rate)
        .into_iter()
        .enumerate()
        .map(|(i, arrival_s)| Request {
            session: SessionId(i as u64),
            arrival_s,
            statement: Statement::Selection(QedQuery {
                quantity: rng.range(1, 50),
            }),
        })
        .collect()
}

/// What one request of the mixed workload does, for its oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum MixedOp {
    Selection {
        quantity: i64,
    },
    Insert {
        key: i64,
        price: i64,
    },
    Update {
        key: i64,
        price: i64,
    },
    Delete {
        key: i64,
    },
    /// Point read that must return exactly the row `(key, price)`.
    PointRead {
        key: i64,
        price: i64,
    },
}

/// The generator's own model of `orders`: `o_orderkey -> o_totalprice`
/// for every live row, updated as statements are generated (and, in
/// the crash round, only for acknowledged statements).
#[derive(Debug, Clone, PartialEq)]
pub struct OrdersModel {
    pub live: std::collections::BTreeMap<i64, i64>,
    /// Keys this run inserted and has not deleted (delete targets).
    inserted: Vec<i64>,
    next_key: i64,
}

impl OrdersModel {
    /// The model of a freshly loaded table.
    pub fn new(base: impl Iterator<Item = (i64, i64)>) -> Self {
        Self {
            live: base.collect(),
            inserted: Vec::new(),
            next_key: 10_000_000,
        }
    }

    fn some_live_key(&self, rng: &mut Rng) -> i64 {
        // Base keys are dense from 1; fall back to an inserted key when
        // the drawn one is gone.
        let k = rng.range(1, self.live.len() as i64);
        if self.live.contains_key(&k) {
            k
        } else {
            *self.live.keys().next_back().expect("orders is never empty")
        }
    }

    /// Apply one generated op to the model.
    pub fn apply(&mut self, op: &MixedOp) {
        match *op {
            MixedOp::Insert { key, price } => {
                self.live.insert(key, price);
                self.inserted.push(key);
            }
            MixedOp::Update { key, price } => {
                self.live.insert(key, price);
            }
            MixedOp::Delete { key } => {
                self.live.remove(&key);
                self.inserted.retain(|k| *k != key);
            }
            MixedOp::Selection { .. } | MixedOp::PointRead { .. } => {}
        }
    }
}

pub fn mixed_sql(op: &MixedOp) -> Statement {
    match *op {
        MixedOp::Selection { quantity } => Statement::Selection(QedQuery { quantity }),
        MixedOp::Insert { key, price } => Statement::Sql(format!(
            "INSERT INTO orders VALUES ({key}, {}, 'O', {price}, DATE '1996-01-02', \
             '3-MEDIUM', 'Clerk#000000001', 0, 'ecobench')",
            key % 1500 + 1
        )),
        MixedOp::Update { key, price } => Statement::Sql(format!(
            "UPDATE orders SET o_totalprice = {price} WHERE o_orderkey = {key}"
        )),
        MixedOp::Delete { key } => {
            Statement::Sql(format!("DELETE FROM orders WHERE o_orderkey = {key}"))
        }
        MixedOp::PointRead { key, .. } => Statement::Sql(format!(
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = {key}"
        )),
    }
}

/// How many requests of each kind one round of the mixed workload has.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub selections: usize,
    pub inserts: usize,
    pub updates: usize,
    pub deletes: usize,
    pub reads: usize,
}

/// One round of the mixed workload: batchable selections, DML on
/// `orders` and indexed point reads as `mix` says, shuffled, arriving
/// at `rate` per simulated second. SQL statements execute in arrival
/// order, so the model advances in the order generated; `advance` is
/// false in the crash round, where only acknowledged statements may
/// reach the model.
pub fn mixed_round(
    rng: &mut Rng,
    model: &mut OrdersModel,
    mix: Mix,
    rate: f64,
    advance: bool,
) -> (Vec<Request>, Vec<MixedOp>) {
    // 0 selection, 1 insert, 2 update, 3 delete, 4 read
    let mut kinds: Vec<u8> = Vec::new();
    for (kind, n) in [
        mix.selections,
        mix.inserts,
        mix.updates,
        mix.deletes,
        mix.reads,
    ]
    .into_iter()
    .enumerate()
    {
        kinds.extend(std::iter::repeat_n(kind as u8, n));
    }
    rng.shuffle(&mut kinds);
    let mut scratch = model.clone();
    let arrivals = rng.arrivals(kinds.len(), rate);
    let mut ops = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let op = match kind {
            0 => MixedOp::Selection {
                quantity: rng.range(1, 50),
            },
            1 => {
                scratch.next_key += 1;
                MixedOp::Insert {
                    key: scratch.next_key,
                    price: rng.range(1_000, 50_000_000),
                }
            }
            2 => MixedOp::Update {
                key: scratch.some_live_key(rng),
                price: rng.range(1_000, 50_000_000),
            },
            // Delete what this run inserted, else any live row.
            3 => MixedOp::Delete {
                key: match scratch.inserted.first() {
                    Some(k) => *k,
                    None => scratch.some_live_key(rng),
                },
            },
            _ => {
                let key = scratch.some_live_key(rng);
                MixedOp::PointRead {
                    key,
                    price: scratch.live[&key],
                }
            }
        };
        scratch.apply(&op);
        ops.push(op);
    }
    if advance {
        *model = scratch;
    } else {
        // Keys stay unique even though the statements may be lost.
        model.next_key = scratch.next_key;
    }
    let requests = ops
        .iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, (op, arrival_s))| Request {
            session: SessionId(i as u64),
            arrival_s,
            statement: mixed_sql(op),
        })
        .collect();
    (requests, ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(selections: usize, inserts: usize, updates: usize, deletes: usize, reads: usize) -> Mix {
        Mix {
            selections,
            inserts,
            updates,
            deletes,
            reads,
        }
    }

    fn everything(seed: u64) -> String {
        let mut rng = Rng::new(seed, 1);
        let mut out = String::new();
        for q in [
            Olap::q1(&mut rng),
            Olap::q3(&mut rng),
            Olap::q5(&mut rng),
            Olap::q6(&mut rng),
        ] {
            out.push_str(&q.sql());
        }
        for p in key_probes(&mut rng, 15_000, 20, 5) {
            out.push_str(&p.sql());
        }
        out.push_str(&format!("{:?}", selection_sessions(&mut rng, 30, 250.0)));
        let mut model = OrdersModel::new((1..=100).map(|k| (k, k * 10)));
        let (requests, ops) = mixed_round(&mut rng, &mut model, mix(6, 5, 2, 2, 4), 2_000.0, true);
        out.push_str(&format!("{requests:?}{ops:?}{model:?}"));
        out
    }

    #[test]
    fn the_same_seed_makes_the_same_inputs_and_another_seed_does_not() {
        assert_eq!(everything(42), everything(42));
        assert_ne!(everything(42), everything(43));
    }

    #[test]
    fn draws_stay_in_their_domains() {
        let mut rng = Rng::new(7, 0);
        for _ in 0..1_000 {
            assert!((3..=9).contains(&rng.range(3, 9)));
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
        let arrivals = rng.arrivals(500, 100.0);
        assert!(arrivals.windows(2).all(|w| w[1] >= w[0]));
        // 500 arrivals at 100/s take about 5 simulated seconds.
        assert!((3.5..6.5).contains(arrivals.last().unwrap()));
        for p in key_probes(&mut rng, 1_000, 50, 50) {
            assert!(1 <= p.lo && p.lo <= p.hi && p.hi <= 1_000);
        }
    }

    #[test]
    fn the_orders_model_follows_the_generated_statements() {
        let mut rng = Rng::new(3, 9);
        let mut model = OrdersModel::new((1..=50).map(|k| (k, k)));
        let before = model.clone();
        let (_, ops) = mixed_round(&mut rng, &mut model, mix(0, 4, 3, 2, 5), 1_000.0, true);
        let inserts = ops
            .iter()
            .filter(|o| matches!(o, MixedOp::Insert { .. }))
            .count();
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, MixedOp::Delete { .. }))
            .count();
        assert_eq!(model.live.len(), before.live.len() + inserts - deletes);
        // Without `advance` only the key counter moves.
        let mut frozen = model.clone();
        mixed_round(&mut rng, &mut frozen, mix(0, 4, 0, 0, 0), 1_000.0, false);
        assert_eq!(frozen.live, model.live);
        assert_eq!(frozen.next_key, model.next_key + 4);
    }
}
