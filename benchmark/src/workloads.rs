//! The four workloads: their frozen sizes and their seeded statement
//! streams.
//!
//! Each workload separates one request class (hStorage-DB's point: the
//! class — sequential scan, random point, rewrite — decides storage
//! behaviour) so that a change to one layer moves one workload and leaves
//! the others still:
//!
//! | workload       | dominant layers                                   |
//! |----------------|---------------------------------------------------|
//! | `oltp_durable` | wal, durability, database latches, row_store      |
//! | `olap_scan`    | bitpack, column_store, executor aggregate / join  |
//! | `htap_mixed`   | everything at once, online advisor in the path    |
//! | `cold_tier`    | segment get / decode, cold pruning                |
//!
//! The data set is a constant of the benchmark ([`DATA_SEED`]); `--seed`
//! drives the statement stream only, and the engine sees nothing but the
//! generated [`Query`] values. Where a statement class is rare (a few
//! hundred per run) its shape mix is frozen and only its order and keys are
//! seeded, so that two seeds serve the same work and differ in sequence;
//! `htap_mixed` freezes its OLAP statements in place, because they decide
//! what its online advisor does.

use std::hash::{Hash, Hasher};
use std::ops::Bound;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use hsd_query::{
    AggFunc, Aggregate, AggregateQuery, InsertQuery, Query, QueryKind, SelectQuery, UpdateQuery,
};
use hsd_storage::ColRange;
use hsd_tpch::scenario::{generate_scenario, tenant_table, Scenario, ScenarioConfig};
use hsd_tpch::schema::cols;
use hsd_tpch::{generate_workload, TpchGenerator, TpchWorkloadConfig};
use hsd_types::Value;

/// Seed of the generated TPC-H data: the database is the same in every run.
pub const DATA_SEED: u64 = 0x7C;
/// Seed of the frozen OLAP query set (see [`olap_query_set`]).
const OLAP_SET_SEED: u64 = 0x01A9_5E70;
/// Seed of `htap_mixed`'s frozen schedule (see [`htap_mixed`]).
const HTAP_SCHEDULE_SEED: u64 = 0x47A9_5EED;
/// Statements in the frozen OLAP query set.
const OLAP_SET_LEN: usize = 120;
/// `oltp_durable` serves one aggregate per this many statements per
/// tenant, so that `olap_mean_ms` exists there while scans stay a small
/// share of the window: at the frozen statement count the two tenants
/// together serve the frozen OLAP set once. None falls in the middle fifth
/// of a tenant's stream, where the checkpoint stops every client for a
/// second: a client spends 6 % of its time in aggregates, so one run in
/// eight would catch one, and that one alone adds 5–9 ms to a mean over 120.
const OLTP_AGGREGATE_EVERY: usize = 3_200;
/// Share of `orders` keys in the cold (demoted) partition of `cold_tier`.
pub const COLD_SHARE: f64 = 0.9;

/// Statement shape: the class a latency sample and an `execute` span are
/// tagged with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// Row insert (one statement may carry several rows).
    Insert,
    /// Primary-key update.
    Update,
    /// Primary-key point select.
    Select,
    /// Plain or grouped aggregate over one table.
    Aggregate,
    /// Aggregate over a fact ⋈ dimension join.
    Join,
}

impl Shape {
    /// The shape of a query.
    pub fn of(q: &Query) -> Shape {
        match q.kind() {
            QueryKind::Insert => Shape::Insert,
            QueryKind::Update => Shape::Update,
            QueryKind::Select => Shape::Select,
            QueryKind::Aggregation => Shape::Aggregate,
            QueryKind::AggregationJoin => Shape::Join,
        }
    }

    /// Lower-case name, as in span tags and result files.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Insert => "insert",
            Shape::Update => "update",
            Shape::Select => "select",
            Shape::Aggregate => "aggregate",
            Shape::Join => "join",
        }
    }

    /// Insert / update / point select, as opposed to aggregate / join.
    pub fn is_oltp(self) -> bool {
        matches!(self, Shape::Insert | Shape::Update | Shape::Select)
    }
}

/// One statement of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Closed-loop client that issues it (statements of one client keep
    /// their order).
    pub client: usize,
    /// Statement shape.
    pub shape: Shape,
    /// Whether it has to touch a disk-resident cold partition.
    pub cold: bool,
    /// The statement itself.
    pub query: Query,
}

impl Stmt {
    fn new(client: usize, query: Query) -> Stmt {
        Stmt {
            client,
            shape: Shape::of(&query),
            cold: false,
            query,
        }
    }

    /// Span tag: shape, plus `.cold` for cold-partition statements.
    pub fn tag(&self) -> &'static str {
        match (self.shape, self.cold) {
            (Shape::Select, true) => "select.cold",
            (Shape::Aggregate, true) => "aggregate.cold",
            (shape, _) => shape.name(),
        }
    }
}

/// Which stream generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Writes + Zipf point selects, one client per tenant, WAL on.
    OltpDurable,
    /// Aggregates and joins over column stores, no WAL.
    OlapScan,
    /// The Zipf-skewed multi-tenant mixed scenario with the online advisor.
    HtapMixed,
    /// Hot row partition over a disk-demoted cold column partition.
    ColdTier,
}

/// Frozen description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Generator.
    pub kind: Kind,
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Tenants (each a full renamed TPC-H table set).
    pub tenants: usize,
    /// TPC-H scale factor of each tenant.
    pub sf: f64,
    /// Closed-loop clients.
    pub clients: usize,
    /// Statements served per second of `--seconds`: frozen so that the
    /// timed window is about `--seconds` long at the commit that defined
    /// the benchmark. Later commits serve the same statements, faster or
    /// slower.
    pub stmts_per_second: usize,
    /// Warm-up statements checked one by one against the all-row reference.
    pub verify_prefix: usize,
    /// Memory budget as a share of the modeled all-row footprint.
    pub budget_share: Option<f64>,
}

impl Spec {
    /// Directory-backed with a WAL (`open_dir`) or purely in memory.
    pub fn durable(&self) -> bool {
        self.kind != Kind::OlapScan
    }
}

/// All workloads, in reporting order.
pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::OltpDurable,
        name: "oltp_durable",
        tenants: 2,
        sf: 0.01,
        clients: 2,
        stmts_per_second: 48_000,
        verify_prefix: 4_000,
        budget_share: None,
    },
    Spec {
        kind: Kind::OlapScan,
        name: "olap_scan",
        tenants: 1,
        sf: 0.05,
        clients: 1,
        stmts_per_second: 480,
        verify_prefix: 24,
        budget_share: None,
    },
    Spec {
        kind: Kind::HtapMixed,
        name: "htap_mixed",
        tenants: 8,
        sf: 0.003,
        clients: 1,
        stmts_per_second: 2_200,
        verify_prefix: 2_000,
        budget_share: Some(0.85),
    },
    Spec {
        kind: Kind::ColdTier,
        name: "cold_tier",
        tenants: 1,
        sf: 0.01,
        clients: 1,
        stmts_per_second: 480,
        verify_prefix: 500,
        budget_share: Some(0.6),
    },
];

/// Sizes and why each workload exists: one line each, the text
/// `BENCHMARK.json` carries (a unit test holds the two together).
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::OltpDurable => {
            "2 tenants x sf 0.01 (60k lineitem rows each), WAL, 2 clients, 48k stmts per s of window: log append, group-commit fsync, table latch and row-store point ops do the work, scans almost none"
        }
        Kind::OlapScan => {
            "1 tenant x sf 0.05 (300k lineitem rows), no WAL, 1 client, 480 stmts per s of window: bit-unpack, column scan and executor aggregate/join do all the work; wal, worker and segment read zero"
        }
        Kind::HtapMixed => {
            "8 tenants x sf 0.003 (64 tables), WAL, budget 0.85 x all-row, 1 client, 2.2k stmts per s of window, 3% OLAP, online advisor in the path: a gain for reads that costs writes or merges shows here"
        }
        Kind::ColdTier => {
            "1 tenant x sf 0.01, WAL, 90% of lineitem/orders demoted to a disk segment, budget 0.6 x all-row, 480 stmts per s of window: segment load/decode and cold pruning dominate, idle elsewhere"
        }
    }
}

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Rename a base-schema query onto tenant `t`'s tables.
fn on_tenant(mut q: Query, t: usize) -> Query {
    match &mut q {
        Query::Aggregate(a) => {
            a.table = tenant_table(t, &a.table);
            if let Some(j) = &mut a.join {
                j.dim_table = tenant_table(t, &j.dim_table);
            }
        }
        Query::Select(s) => s.table = tenant_table(t, &s.table),
        Query::Insert(i) => i.table = tenant_table(t, &i.table),
        Query::Update(u) => u.table = tenant_table(t, &u.table),
    }
    q
}

/// Zipf(θ) over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Spread popularity ranks over the key space (rank 0 is the hottest key),
/// so hot keys are not physically adjacent. A bijection on `0..n`: the
/// multiplier is a prime larger than any table here.
fn rank_to_key(rank: usize, n: usize) -> i64 {
    ((rank as u128 * 2_654_435_761u128) % n as u128) as i64
}

/// Primary-key point select on one of the three keyed OLTP tables, cycling
/// by `slot`; `order` and `customer` are existing keys.
fn point_select(slot: usize, order: i64, customer: i64) -> Query {
    use cols::{customer as C, lineitem as L, orders as O};
    Query::Select(match slot % 3 {
        0 => SelectQuery::point("orders", O::ORDERKEY, Value::BigInt(order)),
        1 => SelectQuery {
            table: "lineitem".into(),
            columns: None,
            // Every order has a line 1.
            filter: vec![
                ColRange::eq(L::ORDERKEY, Value::BigInt(order)),
                ColRange::eq(L::LINENUMBER, Value::Int(1)),
            ],
        },
        _ => SelectQuery::point("customer", C::CUSTKEY, Value::BigInt(customer)),
    })
}

/// The frozen OLAP query set: 120 statements from the repository's own
/// generator (`olap_fraction = 1`: plain / grouped aggregates,
/// `lineitem⋈orders`, `orders⋈customer`, `partsupp⋈part`). The generator's
/// OLAP statements carry no keys, so a seed could only change how many of
/// each shape a run serves; freezing the set makes every run serve the same
/// shapes and leaves the seed their order.
pub fn olap_query_set(g: &TpchGenerator) -> Vec<Query> {
    generate_workload(
        g,
        &TpchWorkloadConfig {
            queries: OLAP_SET_LEN,
            olap_fraction: 1.0,
            recent_update_bias: 0.6,
            seed: OLAP_SET_SEED,
        },
    )
    .queries
}

/// Generate `spec`'s stream of about `n` statements from `seed` (the same
/// seed gives the same stream; the length is rounded to whole rounds where
/// a workload is built of rounds).
pub fn generate(spec: &Spec, g: &TpchGenerator, seed: u64, n: usize) -> Vec<Stmt> {
    match spec.kind {
        Kind::OltpDurable => oltp_durable(spec, g, seed, n),
        Kind::OlapScan => olap_scan(g, seed, n),
        Kind::HtapMixed => htap_mixed(spec, g, seed, n),
        Kind::ColdTier => cold_tier(g, seed, n),
    }
}

fn oltp_durable(spec: &Spec, g: &TpchGenerator, seed: u64, n: usize) -> Vec<Stmt> {
    let per_tenant = n / spec.tenants;
    let olap = olap_query_set(g);
    let zipf_orders = Zipf::new(g.orders(), 0.99);
    let zipf_customers = Zipf::new(g.customers(), 0.99);
    let mut streams: Vec<std::vec::IntoIter<Stmt>> = (0..spec.tenants)
        .map(|t| {
            let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ (0x5E1E + t as u64)));
            let mut writes = generate_workload(
                g,
                &TpchWorkloadConfig {
                    queries: per_tenant.div_ceil(2),
                    olap_fraction: 0.0,
                    recent_update_bias: 0.6,
                    seed: splitmix(seed ^ (0x0717 + t as u64)),
                },
            )
            .queries
            .into_iter();
            // Each tenant starts at its own offset into the set.
            let mut aggregates = olap.iter().cycle().skip(t * olap.len() / spec.tenants);
            let around_checkpoint = per_tenant * 2 / 5..per_tenant * 3 / 5;
            let stream: Vec<Stmt> = (0..per_tenant)
                .map(|i| {
                    let q = if i % OLTP_AGGREGATE_EVERY == OLTP_AGGREGATE_EVERY - 1
                        && !around_checkpoint.contains(&i)
                    {
                        aggregates.next().expect("cycle").clone()
                    } else if i % 2 == 0 {
                        writes.next().expect("sized to half the stream")
                    } else {
                        let order = rank_to_key(zipf_orders.sample(&mut rng), g.orders());
                        let cust = rank_to_key(zipf_customers.sample(&mut rng), g.customers());
                        point_select(i / 2, order, cust)
                    };
                    Stmt::new(t, on_tenant(q, t))
                })
                .collect();
            stream.into_iter()
        })
        .collect();
    // Global order interleaves the tenants; each client replays its own.
    let mut out = Vec::with_capacity(per_tenant * spec.tenants);
    for _ in 0..per_tenant {
        for s in &mut streams {
            out.extend(s.next());
        }
    }
    out
}

fn olap_scan(g: &TpchGenerator, seed: u64, n: usize) -> Vec<Stmt> {
    let mut set = olap_query_set(g);
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ 0x01A9));
    // One round = the whole set in a seeded order, each aggregate followed
    // by one point select on the column store it just scanned around.
    let rounds = (n / (2 * set.len())).max(1);
    let mut out = Vec::with_capacity(rounds * 2 * set.len());
    for _ in 0..rounds {
        set.shuffle(&mut rng);
        for (i, q) in set.iter().enumerate() {
            out.push(Stmt::new(0, on_tenant(q.clone(), 0)));
            let order = rng.gen_range(0..g.orders() as i64);
            let cust = rng.gen_range(0..g.customers() as i64);
            out.push(Stmt::new(0, on_tenant(point_select(i, order, cust), 0)));
        }
    }
    out
}

/// `Scenario::ZipfSkew` with its schedule (which tenant speaks, OLTP or
/// OLAP) and its OLAP statements frozen; the seed draws every tenant's
/// inserts and updates, from the generator the scenario itself uses.
///
/// The online advisor's window of 2 000 statements holds some 60 OLAP
/// statements over 8 tenants, so a seeded OLAP mix hands it a different
/// handful per tenant on every seed. On 3 seeds of 40 that tipped its
/// re-evaluations over the 10 % threshold again and again (33 `apply`s,
/// 12.7 s inside them): those runs served 42 % fewer statements per second
/// and replayed for 16–18 s instead of 3.4 s, and two such modes cannot be
/// gated. With the 3 % that decide the layout frozen, the seed varies the
/// 97 % whose statistics are thousands of samples deep, and every seed
/// takes the same decisions.
fn htap_mixed(spec: &Spec, g: &TpchGenerator, seed: u64, n: usize) -> Vec<Stmt> {
    let schedule = generate_scenario(
        g,
        &ScenarioConfig {
            scenario: Scenario::ZipfSkew,
            tenants: spec.tenants,
            statements: n,
            olap_fraction: 0.03,
            zipf_theta: 1.0,
            seed: HTAP_SCHEDULE_SEED,
        },
    )
    .statements;
    let mut slots = vec![0usize; spec.tenants];
    for s in &schedule {
        slots[s.tenant] += usize::from(Shape::of(&s.query).is_oltp());
    }
    let mut writes: Vec<std::vec::IntoIter<Query>> = slots
        .iter()
        .enumerate()
        .map(|(t, &queries)| {
            generate_workload(
                g,
                &TpchWorkloadConfig {
                    queries,
                    olap_fraction: 0.0,
                    recent_update_bias: 0.6,
                    seed: splitmix(seed ^ (0x47A9 + t as u64)),
                },
            )
            .queries
            .into_iter()
        })
        .collect();
    schedule
        .into_iter()
        .map(|s| {
            let query = match Shape::of(&s.query).is_oltp() {
                true => on_tenant(writes[s.tenant].next().expect("one per slot"), s.tenant),
                false => s.query,
            };
            Stmt::new(0, query)
        })
        .collect()
}

/// First `orders` key of `cold_tier`'s hot partition: keys at or above it
/// (the most recent tenth, and every key inserted later) live in the row
/// store, keys below it in the demoted column segment.
pub fn cold_split_key(g: &TpchGenerator) -> i64 {
    (g.orders() as f64 * COLD_SHARE) as i64
}

fn cold_tier(g: &TpchGenerator, seed: u64, n: usize) -> Vec<Stmt> {
    use cols::{lineitem as L, orders as O};
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ 0xC01D));
    let split = cold_split_key(g);
    let mut next_order = g.orders() as i64;
    let mut selects = 0usize;
    let mut writes = 0usize;
    // A frozen cycle of 100 statements: 90 point selects (every fifth on a
    // cold key), 8 writes on hot keys, 2 aggregates over lineitem of which
    // one is restricted to the hot key range (the cold segment can be
    // pruned) and one is not (the cold segment must be decoded).
    let stmts = (0..n).map(|i| {
        let slot = i % 100;
        let (query, cold) = match slot {
            24 | 74 => {
                let prunable = slot == 24;
                let q = AggregateQuery {
                    table: "lineitem".into(),
                    aggregates: vec![Aggregate {
                        func: AggFunc::Sum,
                        column: L::EXTENDEDPRICE,
                    }],
                    group_by: Some(L::RETURNFLAG),
                    filter: if prunable {
                        vec![ColRange::ge(L::ORDERKEY, Value::BigInt(split))]
                    } else {
                        vec![]
                    },
                    join: None,
                };
                (Query::Aggregate(q), !prunable)
            }
            5 | 17 | 30 | 42 | 55 | 67 | 80 | 92 => {
                writes += 1;
                let q = match writes % 4 {
                    0 => {
                        next_order += 1;
                        Query::Insert(InsertQuery {
                            table: "orders".into(),
                            rows: vec![g.orders_row(next_order as u64 - 1)],
                        })
                    }
                    1 => {
                        next_order += 1;
                        let o = next_order as u64 - 1;
                        let lines = g.lines_of_order(o) as u64;
                        Query::Insert(InsertQuery {
                            table: "lineitem".into(),
                            rows: (0..lines).map(|l| g.lineitem_row(o, l)).collect(),
                        })
                    }
                    2 => Query::Update(UpdateQuery {
                        table: "orders".into(),
                        sets: vec![(
                            O::ORDERSTATUS,
                            Value::text(["F", "O", "P"][rng.gen_range(0..3)]),
                        )],
                        filter: vec![ColRange::eq(
                            O::ORDERKEY,
                            Value::BigInt(rng.gen_range(split..g.orders() as i64)),
                        )],
                    }),
                    _ => Query::Update(UpdateQuery {
                        table: "lineitem".into(),
                        sets: vec![(L::LINESTATUS, Value::text("F"))],
                        filter: vec![
                            ColRange::eq(
                                L::ORDERKEY,
                                Value::BigInt(rng.gen_range(split..g.orders() as i64)),
                            ),
                            ColRange::eq(L::LINENUMBER, Value::Int(1)),
                        ],
                    }),
                };
                (q, false)
            }
            _ => {
                selects += 1;
                let cold = selects.is_multiple_of(5);
                let order = if cold {
                    rng.gen_range(0..split)
                } else {
                    rng.gen_range(split..g.orders() as i64)
                };
                // orders and lineitem only: the two split tables.
                (point_select(selects % 2, order, 0), cold)
            }
        };
        let mut s = Stmt::new(0, on_tenant(query, 0));
        s.cold = cold;
        s
    });
    stmts.collect()
}

/// FNV-1a, so the digest does not depend on the standard library's hasher.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn hash_bound(b: Bound<&Value>, h: &mut Fnv) {
    match b {
        Bound::Included(v) => (1u8, v).hash(h),
        Bound::Excluded(v) => (2u8, v).hash(h),
        Bound::Unbounded => 0u8.hash(h),
    }
}

fn hash_filter(filter: &[ColRange], h: &mut Fnv) {
    filter.len().hash(h);
    for r in filter {
        r.column.hash(h);
        hash_bound(r.lo_ref(), h);
        hash_bound(r.hi_ref(), h);
    }
}

/// Digest of a stream: identifies the exact statements a run served.
pub fn stream_digest(stmts: &[Stmt]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for s in stmts {
        (s.client, s.shape, s.cold, s.query.table()).hash(&mut h);
        match &s.query {
            Query::Insert(q) => q.rows.hash(&mut h),
            Query::Update(q) => {
                q.sets.hash(&mut h);
                hash_filter(&q.filter, &mut h);
            }
            Query::Select(q) => {
                q.columns.hash(&mut h);
                hash_filter(&q.filter, &mut h);
            }
            Query::Aggregate(q) => {
                for a in &q.aggregates {
                    (a.func, a.column).hash(&mut h);
                }
                q.group_by.hash(&mut h);
                hash_filter(&q.filter, &mut h);
                if let Some(j) = &q.join {
                    (&j.dim_table, j.fact_fk, j.dim_pk, j.group_by_dim).hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_another_seed_another_stream() {
        for spec in &SPECS {
            let g = TpchGenerator::new(0.001, DATA_SEED);
            let n = 1_000;
            let a = generate(spec, &g, 7, n);
            let b = generate(spec, &g, 7, n);
            let c = generate(spec, &g, 8, n);
            assert!(!a.is_empty(), "{}", spec.name);
            assert_eq!(a, b, "{} is not deterministic", spec.name);
            assert_eq!(stream_digest(&a), stream_digest(&b), "{}", spec.name);
            assert_ne!(stream_digest(&a), stream_digest(&c), "{}", spec.name);
            assert!(a.iter().all(|s| s.client < spec.clients), "{}", spec.name);
        }
    }

    #[test]
    fn class_mix_is_what_each_workload_promises() {
        let g = TpchGenerator::new(0.001, DATA_SEED);
        let count =
            |stmts: &[Stmt], f: &dyn Fn(&Stmt) -> bool| stmts.iter().filter(|s| f(s)).count();

        let oltp = generate(&SPECS[0], &g, 1, 10_000);
        assert_eq!(oltp.len(), 10_000);
        assert_eq!(count(&oltp, &|s| !s.shape.is_oltp()), 2);
        assert_eq!(count(&oltp, &|s| s.shape == Shape::Select), 4_998);

        let olap = generate(&SPECS[1], &g, 1, 480);
        assert_eq!(olap.len(), 480);
        assert_eq!(count(&olap, &|s| s.shape.is_oltp()), 240);
        assert!(olap
            .iter()
            .all(|s| !matches!(s.shape, Shape::Insert | Shape::Update)));
        // Two seeds serve the same multiset of OLAP shapes.
        let shapes = |seed| {
            let mut v: Vec<String> = generate(&SPECS[1], &g, seed, 480)
                .iter()
                .filter(|s| !s.shape.is_oltp())
                .map(|s| format!("{:?}", s.query))
                .collect();
            v.sort();
            v
        };
        assert_eq!(shapes(1), shapes(2));

        let cold = generate(&SPECS[3], &g, 1, 1_000);
        assert_eq!(count(&cold, &|s| s.shape == Shape::Select), 900);
        assert_eq!(count(&cold, &|s| s.shape == Shape::Select && s.cold), 180);
        assert_eq!(count(&cold, &|s| s.shape == Shape::Aggregate), 20);
        assert_eq!(count(&cold, &|s| s.shape == Shape::Aggregate && s.cold), 10);
        assert_eq!(
            count(&cold, &|s| matches!(s.shape, Shape::Insert | Shape::Update)),
            80
        );
    }

    #[test]
    fn htap_mixed_seeds_the_writes_and_freezes_schedule_and_olap() {
        let g = TpchGenerator::new(0.001, DATA_SEED);
        let a = generate(&SPECS[2], &g, 1, 2_000);
        let b = generate(&SPECS[2], &g, 2, 2_000);
        assert_eq!(a.len(), 2_000);
        let mut olap = 0;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.shape.is_oltp(), y.shape.is_oltp());
            let tenant = |s: &Stmt| s.query.table().split('_').next().map(str::to_string);
            assert_eq!(tenant(x), tenant(y));
            if !x.shape.is_oltp() {
                assert_eq!(x, y);
                olap += 1;
            }
        }
        assert!((20..200).contains(&olap), "{olap} OLAP statements");
        assert_ne!(a, b);
    }

    #[test]
    fn rank_to_key_is_a_bijection() {
        let n = 7_500;
        let mut seen = vec![false; n];
        for r in 0..n {
            let k = rank_to_key(r, n) as usize;
            assert!(!seen[k]);
            seen[k] = true;
        }
    }
}
