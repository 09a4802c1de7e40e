//! The HTAP scenario matrix, end-to-end at smoke scale: every named
//! scenario (uniform, zipf-skew, flash-crowd, phase-shift, tenant-churn)
//! is generated deterministically, the budget-constrained advisor picks a
//! layout for it, and the full statement stream executes under that layout
//! — every answer and the final tables must be the reference
//! interpreter's. This is the transparency property under realistic HTAP
//! pressure: skew, bursts, phase shifts, and tenant churn must never
//! change *what* a query answers, only how fast.
//!
//! CI also runs this suite in the threaded debug-assertion stress step
//! (`RUST_TEST_THREADS=8`), so the five scenarios exercise the shared
//! engine concurrently.

mod common;

use std::collections::BTreeMap;

use common::case::{fixed, run, TableCase};
use hybrid_store_advisor::advisor::cost::AdjustmentFn;
use hybrid_store_advisor::prelude::*;
use hybrid_store_advisor::tpch::scenario::{
    generate_scenario, load_tenants, tenant_table, MixedWorkload, Scenario, ScenarioConfig,
};
use hybrid_store_advisor::tpch::{schema, TpchGenerator};

/// A cost model with the canonical asymmetries (CS cheaper scans, RS
/// cheaper writes), as a fully deterministic stand-in for calibration.
fn model() -> CostModel {
    let mut m = CostModel::neutral();
    m.row.f_rows = AdjustmentFn::Linear {
        slope: 1e-3,
        intercept: 0.05,
    };
    m.column.f_rows = AdjustmentFn::Linear {
        slope: 1e-4,
        intercept: 0.05,
    };
    m.row.ins_row = AdjustmentFn::Constant(0.002);
    m.column.ins_row = AdjustmentFn::Constant(0.01);
    m.row.sel_point_ms = 0.002;
    m.column.sel_point_ms = 0.008;
    m.row.upd_row_ms = 0.002;
    m.column.upd_row_ms = 0.01;
    m.row.sel_per_row_scan = 2e-5;
    m.column.sel_per_row_scan = 2e-6;
    m
}

fn smoke_cfg(scenario: Scenario) -> ScenarioConfig {
    ScenarioConfig {
        scenario,
        tenants: 2,
        statements: 150,
        olap_fraction: 0.12,
        zipf_theta: 1.0,
        seed: 0x3A7_81C5,
    }
}

/// End-to-end: the advisor-chosen (budget-constrained) layout runs the
/// stream against the interpreter.
fn run_scenario(scenario: Scenario) {
    let g = TpchGenerator::new(0.0005, 11);
    let cfg = smoke_cfg(scenario);
    let wl: MixedWorkload = generate_scenario(&g, &cfg);
    assert_eq!(wl.statements.len(), cfg.statements);

    // The advisor's inputs: schemas and statistics of the loaded tenants.
    let loaded = HybridDatabase::new();
    load_tenants(&g, &loaded, cfg.tenants, |_| {
        TablePlacement::Single(StoreKind::Row)
    })
    .unwrap();
    let catalog = loaded.catalog();
    let schemas: Vec<_> = catalog.entries().iter().map(|e| e.schema.clone()).collect();
    let stats: BTreeMap<_, _> = catalog
        .entries()
        .iter()
        .map(|e| (e.schema.name.clone(), e.stats.clone()))
        .collect();
    drop(catalog);

    // Budget three quarters of the all-row footprint, so the knapsack path
    // is live in at least some scenarios (loose budgets fall back to the
    // greedy special case — also a valid layout to verify).
    let ctx = hybrid_store_advisor::advisor::advisor::build_ctx(&schemas, &stats);
    let row_fp = hybrid_store_advisor::advisor::layout_footprint_bytes(
        &ctx,
        &StorageLayout::uniform(schemas.iter().map(|s| s.name.as_str()), StoreKind::Row),
    );
    let advisor = StorageAdvisor::new(model()).with_budget(0.75 * row_fp);
    let rec = advisor
        .recommend_offline(&schemas, &stats, &wl.workload(), true)
        .unwrap();
    let name = scenario.name();
    assert!(rec.budget_feasible, "{name}: budget infeasible");
    assert!(
        rec.footprint_bytes <= 0.75 * row_fp + 1e-6,
        "{name}: footprint exceeds budget"
    );

    let mut tables = Vec::new();
    for t in 0..cfg.tenants {
        for mut s in schema::all().unwrap() {
            let rows = g.table_rows(&s.name).collect();
            s.name = tenant_table(t, &s.name);
            let placement = rec.layout.placement(&s.name);
            tables.push(TableCase::new(s, rows, placement));
        }
    }
    let queries: Vec<Query> = wl.statements.iter().map(|s| s.query.clone()).collect();
    run(&fixed(tables, &queries));
}

#[test]
fn uniform_matches_all_row_reference() {
    run_scenario(Scenario::Uniform);
}

#[test]
fn zipf_skew_matches_all_row_reference() {
    run_scenario(Scenario::ZipfSkew);
}

#[test]
fn flash_crowd_matches_all_row_reference() {
    run_scenario(Scenario::FlashCrowd);
}

#[test]
fn phase_shift_matches_all_row_reference() {
    run_scenario(Scenario::PhaseShift);
}

#[test]
fn tenant_churn_matches_all_row_reference() {
    run_scenario(Scenario::TenantChurn);
}

#[test]
fn matrix_streams_are_deterministic_and_seed_sensitive() {
    let g = TpchGenerator::new(0.0005, 11);
    for scenario in Scenario::ALL {
        let cfg = smoke_cfg(scenario);
        let a = generate_scenario(&g, &cfg);
        let b = generate_scenario(&g, &cfg);
        assert_eq!(
            a.render(),
            b.render(),
            "{}: same seed must replay byte-identically",
            scenario.name()
        );
        let c = generate_scenario(
            &g,
            &ScenarioConfig {
                seed: cfg.seed ^ 1,
                ..cfg
            },
        );
        assert_ne!(
            a.render(),
            c.render(),
            "{}: different seeds must differ",
            scenario.name()
        );
        assert!(
            a.render().contains(&format!("# seed: {}", cfg.seed)),
            "stream must document its seed"
        );
    }
}
