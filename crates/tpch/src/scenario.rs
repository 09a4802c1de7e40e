//! Deterministic HTAP scenario driver: multi-tenant mixed workloads.
//!
//! A *scenario* composes the crate's OLTP point writes and OLAP scans over
//! per-tenant copies of the TPC-H tables, in the style of the CH-benCHmark:
//! every tenant owns a renamed copy of the eight tables (`t3_orders`, ...)
//! and a scheduler decides, slot by slot, which tenant runs which kind of
//! statement. The scheduler is a pure function of the scenario
//! configuration and its seed, so the same [`ScenarioConfig`] always yields
//! a byte-identical statement stream ([`MixedWorkload::render`]) — the
//! driver doubles as a reproducible test harness, not just a benchmark.
//!
//! The named scenarios stress the advisor in distinct ways:
//!
//! | scenario      | pressure                                             |
//! |---------------|------------------------------------------------------|
//! | `uniform`     | baseline: tenants drawn uniformly                    |
//! | `zipf-skew`   | Zipfian tenant popularity (hot tenants dominate)     |
//! | `flash-crowd` | mid-run OLTP burst concentrated on tenant 0          |
//! | `phase-shift` | OLTP-heavy first half, OLAP-heavy second half        |
//! | `tenant-churn`| sliding window of active tenants (arrivals/departures)|

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hsd_catalog::TablePlacement;
use hsd_engine::HybridDatabase;
use hsd_query::{Query, Workload};
use hsd_types::Result;

use crate::gen::TpchGenerator;
use crate::schema;
use crate::workload::{generate_workload, TpchWorkloadConfig};

/// The named scenarios of the HTAP matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Tenants drawn uniformly; the mixed-fraction baseline.
    Uniform,
    /// Zipfian tenant popularity: low-index tenants absorb most traffic.
    ZipfSkew,
    /// A burst window where tenant 0 absorbs most traffic, OLTP-heavy.
    FlashCrowd,
    /// OLTP-dominated first half, OLAP-dominated second half.
    PhaseShift,
    /// Only a sliding window of tenants is active at any point in the run.
    TenantChurn,
}

impl Scenario {
    /// All scenarios, stable order (the test matrix iterates this).
    pub const ALL: [Scenario; 5] = [
        Scenario::Uniform,
        Scenario::ZipfSkew,
        Scenario::FlashCrowd,
        Scenario::PhaseShift,
        Scenario::TenantChurn,
    ];

    /// Kebab-case name used in rendered streams and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Uniform => "uniform",
            Scenario::ZipfSkew => "zipf-skew",
            Scenario::FlashCrowd => "flash-crowd",
            Scenario::PhaseShift => "phase-shift",
            Scenario::TenantChurn => "tenant-churn",
        }
    }
}

/// Scenario settings. Everything that shapes the stream lives here so the
/// stream is replayable from this value alone.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Which scheduler to run.
    pub scenario: Scenario,
    /// Number of tenants (each owns a full renamed TPC-H table set).
    pub tenants: usize,
    /// Total statements in the stream.
    pub statements: usize,
    /// Baseline fraction of OLAP statements (scenarios modulate this).
    pub olap_fraction: f64,
    /// Zipf exponent for skewed tenant selection (1.0 = classic Zipf).
    pub zipf_theta: f64,
    /// Master seed; every derived stream seed is a pure function of it.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            scenario: Scenario::Uniform,
            tenants: 3,
            statements: 400,
            olap_fraction: 0.08,
            zipf_theta: 1.0,
            seed: 0x5EED_0008,
        }
    }
}

/// One scheduled statement: which tenant it belongs to and the query.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedStatement {
    /// Tenant index in `0..tenants`.
    pub tenant: usize,
    /// The query, already renamed onto the tenant's tables.
    pub query: Query,
}

/// A fully materialized scenario run: the replayable statement stream.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    /// The scenario that produced the stream.
    pub scenario: Scenario,
    /// The master seed (documented in [`render`](Self::render) output so
    /// bench runs are reproducible).
    pub seed: u64,
    /// Tenant count.
    pub tenants: usize,
    /// The scheduled statements, in execution order.
    pub statements: Vec<MixedStatement>,
}

impl MixedWorkload {
    /// Render the stream as text: a header documenting scenario and seed,
    /// then one line per statement. Two runs from the same config must
    /// produce byte-identical output — the determinism tests compare this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# scenario: {}\n", self.scenario.name()));
        out.push_str(&format!("# seed: {}\n", self.seed));
        out.push_str(&format!("# tenants: {}\n", self.tenants));
        out.push_str(&format!("# statements: {}\n", self.statements.len()));
        for (i, s) in self.statements.iter().enumerate() {
            out.push_str(&format!("{i}\t{}\t{:?}\n", s.tenant, s.query));
        }
        out
    }

    /// FNV-1a digest of the rendered stream; recorded in bench artifacts
    /// so a run's exact workload is identifiable.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// The stream as an advisor-facing [`Workload`] (tenant tags dropped).
    pub fn workload(&self) -> Workload {
        Workload::from_queries(self.statements.iter().map(|s| s.query.clone()).collect())
    }
}

/// Name of tenant `t`'s copy of base table `base` (`t2_orders`).
pub fn tenant_table(tenant: usize, base: &str) -> String {
    format!("t{tenant}_{base}")
}

/// All table names across `tenants` tenants, tenant-major order.
pub fn tenant_tables(tenants: usize) -> Vec<String> {
    let mut names = Vec::with_capacity(tenants * schema::TABLE_NAMES.len());
    for t in 0..tenants {
        for base in schema::TABLE_NAMES {
            names.push(tenant_table(t, base));
        }
    }
    names
}

/// Create and load every tenant's table set into `db`. Each tenant gets the
/// same generated data (the scheduler, not the data, differentiates them).
pub fn load_tenants(
    g: &TpchGenerator,
    db: &HybridDatabase,
    tenants: usize,
    placement_of: impl Fn(&str) -> TablePlacement,
) -> Result<()> {
    for t in 0..tenants {
        for mut s in schema::all()? {
            s.name = tenant_table(t, &s.name);
            let name = s.name.clone();
            db.create_table(s, placement_of(&name))?;
        }
        for s in schema::all()? {
            db.bulk_load(&tenant_table(t, &s.name), g.table_rows(&s.name))?;
        }
    }
    Ok(())
}

/// splitmix64: derives independent per-stream seeds from the master seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipf CDF over `n` ranks with exponent `theta`.
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(theta);
        cdf.push(acc);
    }
    let norm = acc;
    for c in &mut cdf {
        *c /= norm;
    }
    cdf
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Rename a base-schema query onto tenant `t`'s tables (join dimension
/// tables included).
fn rename_for_tenant(q: &mut Query, t: usize) {
    match q {
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
}

/// Per-tenant statement source: pre-generated OLTP-only and OLAP-only
/// streams, popped by the scheduler. Streams are sized to the full run so
/// they never wrap (wrapping would replay insert keys).
struct TenantStreams {
    oltp: Vec<Query>,
    olap: Vec<Query>,
    oltp_pos: usize,
    olap_pos: usize,
}

impl TenantStreams {
    fn pop(&mut self, olap: bool) -> Query {
        let (stream, pos) = if olap {
            (&self.olap, &mut self.olap_pos)
        } else {
            (&self.oltp, &mut self.oltp_pos)
        };
        let q = stream[*pos % stream.len()].clone();
        *pos += 1;
        q
    }
}

/// Generate the statement stream for one scenario. Pure function of
/// `(g, cfg)`: the same inputs always produce the same stream.
pub fn generate_scenario(g: &TpchGenerator, cfg: &ScenarioConfig) -> MixedWorkload {
    assert!(cfg.tenants > 0, "scenario needs at least one tenant");
    let mut streams: Vec<TenantStreams> = (0..cfg.tenants)
        .map(|t| {
            let mk = |olap_fraction: f64, salt: u64| {
                let wl = generate_workload(
                    g,
                    &TpchWorkloadConfig {
                        queries: cfg.statements,
                        olap_fraction,
                        recent_update_bias: 0.6,
                        seed: splitmix(cfg.seed ^ salt.wrapping_mul(0x9E37).wrapping_add(t as u64)),
                    },
                );
                let mut qs = wl.queries;
                for q in &mut qs {
                    rename_for_tenant(q, t);
                }
                qs
            };
            TenantStreams {
                oltp: mk(0.0, 0x01),
                olap: mk(1.0, 0x02),
                oltp_pos: 0,
                olap_pos: 0,
            }
        })
        .collect();

    let cdf = zipf_cdf(cfg.tenants, cfg.zipf_theta);
    let churn_window = cfg.tenants.div_ceil(2).max(1);
    let mut rng = SmallRng::seed_from_u64(splitmix(cfg.seed ^ 0x0D21_BE55));
    let n = cfg.statements;
    let mut statements = Vec::with_capacity(n);
    for i in 0..n {
        let progress = i as f64 / n.max(1) as f64;
        let (tenant, olap_p) = match cfg.scenario {
            Scenario::Uniform => (rng.gen_range(0..cfg.tenants), cfg.olap_fraction),
            Scenario::ZipfSkew => (zipf_pick(&cdf, rng.gen::<f64>()), cfg.olap_fraction),
            Scenario::FlashCrowd => {
                let burst = (0.40..0.55).contains(&progress);
                if burst {
                    let tenant = if rng.gen_bool(0.85) {
                        0
                    } else {
                        rng.gen_range(0..cfg.tenants)
                    };
                    (tenant, cfg.olap_fraction * 0.25)
                } else {
                    (rng.gen_range(0..cfg.tenants), cfg.olap_fraction)
                }
            }
            Scenario::PhaseShift => {
                let olap_p = if progress < 0.5 {
                    cfg.olap_fraction * 0.2
                } else {
                    (cfg.olap_fraction * 4.0).min(0.9)
                };
                (rng.gen_range(0..cfg.tenants), olap_p)
            }
            Scenario::TenantChurn => {
                let start = (progress * cfg.tenants as f64) as usize % cfg.tenants;
                let tenant = (start + rng.gen_range(0..churn_window)) % cfg.tenants;
                (tenant, cfg.olap_fraction)
            }
        };
        let olap = rng.gen_bool(olap_p.clamp(0.0, 1.0));
        statements.push(MixedStatement {
            tenant,
            query: streams[tenant].pop(olap),
        });
    }
    MixedWorkload {
        scenario: cfg.scenario,
        seed: cfg.seed,
        tenants: cfg.tenants,
        statements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchGenerator {
        TpchGenerator::new(0.0005, 7)
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let g = tiny();
        for scenario in Scenario::ALL {
            let cfg = ScenarioConfig {
                scenario,
                statements: 120,
                ..ScenarioConfig::default()
            };
            let a = generate_scenario(&g, &cfg).render();
            let b = generate_scenario(&g, &cfg).render();
            assert_eq!(a, b, "{} not deterministic", scenario.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = tiny();
        let cfg = ScenarioConfig {
            statements: 120,
            ..ScenarioConfig::default()
        };
        let a = generate_scenario(&g, &cfg);
        let b = generate_scenario(
            &g,
            &ScenarioConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_ne!(a.render(), b.render());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn seed_documented_in_output() {
        let g = tiny();
        let cfg = ScenarioConfig {
            statements: 16,
            ..ScenarioConfig::default()
        };
        let text = generate_scenario(&g, &cfg).render();
        assert!(text.contains(&format!("# seed: {}", cfg.seed)));
        assert!(text.contains("# scenario: uniform"));
    }

    #[test]
    fn zipf_concentrates_on_low_tenants() {
        let g = tiny();
        let cfg = ScenarioConfig {
            scenario: Scenario::ZipfSkew,
            tenants: 4,
            statements: 400,
            ..ScenarioConfig::default()
        };
        let wl = generate_scenario(&g, &cfg);
        let mut counts = vec![0usize; cfg.tenants];
        for s in &wl.statements {
            counts[s.tenant] += 1;
        }
        assert!(
            counts[0] > counts[cfg.tenants - 1],
            "zipf should favor tenant 0: {counts:?}"
        );
    }

    #[test]
    fn phase_shift_changes_olap_density() {
        let g = tiny();
        let cfg = ScenarioConfig {
            scenario: Scenario::PhaseShift,
            statements: 400,
            olap_fraction: 0.2,
            ..ScenarioConfig::default()
        };
        let wl = generate_scenario(&g, &cfg);
        let half = wl.statements.len() / 2;
        let olap_count = |slice: &[MixedStatement]| {
            slice
                .iter()
                .filter(|s| matches!(s.query, Query::Aggregate(_)))
                .count()
        };
        let first = olap_count(&wl.statements[..half]);
        let second = olap_count(&wl.statements[half..]);
        assert!(
            second > first * 2,
            "phase shift should move OLAP to the second half ({first} vs {second})"
        );
    }

    #[test]
    fn statements_stay_on_tenant_tables() {
        let g = tiny();
        let cfg = ScenarioConfig {
            statements: 60,
            ..ScenarioConfig::default()
        };
        let wl = generate_scenario(&g, &cfg);
        for s in &wl.statements {
            let prefix = format!("t{}_", s.tenant);
            assert!(
                s.query.table().starts_with(&prefix),
                "{} not on tenant {}",
                s.query.table(),
                s.tenant
            );
        }
    }
}
