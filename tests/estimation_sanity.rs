//! Estimation-accuracy sanity (the Figure 6 claim, as a test): a freshly
//! calibrated cost model must estimate aggregation runtimes within a
//! reasonable band of the measured runtimes, on both stores, across sizes —
//! and the advisor must pick the argmin of its own estimates.

use std::collections::BTreeMap;
use std::sync::Arc;

use hybrid_store_advisor::advisor::advisor::build_ctx;
use hybrid_store_advisor::advisor::estimator::estimate_query_layout;
use hybrid_store_advisor::prelude::*;

fn wide(rows: usize) -> TableSpec {
    TableSpec::paper_wide("t", rows, 0xACC)
}

#[test]
fn calibrated_estimates_track_measured_runtimes() {
    let model = calibrate(&CalibrationConfig::quick()).unwrap();
    let runner = WorkloadRunner::new();
    for rows in [10_000usize, 30_000] {
        let spec = wide(rows);
        for store in [StoreKind::Row, StoreKind::Column] {
            let db = HybridDatabase::new();
            db.create_single(spec.schema().unwrap(), store).unwrap();
            db.bulk_load("t", spec.rows()).unwrap();
            let schemas = vec![Arc::new(spec.schema().unwrap())];
            let stats: BTreeMap<String, TableStats> = db
                .catalog()
                .entries()
                .iter()
                .map(|e| (e.schema.name.clone(), e.stats.clone()))
                .collect();
            let ctx = build_ctx(&schemas, &stats);
            let layout = StorageLayout::uniform(["t"], store);
            let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, spec.kf_col(0)));
            let est = estimate_query_layout(&model, &ctx, &layout, &q);
            let run = runner.time_query(&db, &q, 5).unwrap().as_secs_f64() * 1e3;
            let ratio = est / run;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "{store} @ {rows} rows: estimate {est:.3} ms vs measured {run:.3} ms \
                 (ratio {ratio:.2} outside [0.2, 5])"
            );
        }
    }
}

#[test]
fn advisor_is_argmin_of_estimates_with_calibrated_model() {
    let model = calibrate(&CalibrationConfig::quick()).unwrap();
    let advisor = StorageAdvisor::new(model);
    let spec = wide(20_000);
    let schema = Arc::new(spec.schema().unwrap());
    let db = HybridDatabase::new();
    db.create_single(spec.schema().unwrap(), StoreKind::Column)
        .unwrap();
    db.bulk_load("t", spec.rows()).unwrap();
    let stats: BTreeMap<String, TableStats> = db
        .catalog()
        .entries()
        .iter()
        .map(|e| (e.schema.name.clone(), e.stats.clone()))
        .collect();
    for frac in [0.0, 0.02, 0.1, 0.4] {
        let w = WorkloadGenerator::single_table(
            &spec,
            &MixedWorkloadConfig {
                queries: 200,
                olap_fraction: frac,
                seed: 1,
                ..Default::default()
            },
        );
        let rec = advisor
            .recommend_offline(std::slice::from_ref(&schema), &stats, &w, false)
            .unwrap();
        assert!(
            rec.estimated_ms <= rec.rs_only_ms.min(rec.cs_only_ms) + 1e-9,
            "frac {frac}: recommendation ({} ms) must not exceed the better baseline \
             (RS {} / CS {})",
            rec.estimated_ms,
            rec.rs_only_ms,
            rec.cs_only_ms
        );
    }
}
