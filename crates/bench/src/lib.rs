//! Shared experiment harness for reproducing the paper's figures.
//!
//! The `reproduce` bin runs every figure of the evaluation section (or one,
//! with `--fig 8`), prints the series the paper plots, and checks each
//! figure's claim ([`claims`]). The experiments run at a configurable
//! fraction of the paper's data sizes (default 1/10th; set `HSD_SCALE=1.0`
//! for paper scale) — the *orderings* of the curves, not the absolute
//! milliseconds, are the reproduction target.

#![warn(missing_docs)]

pub mod claims;

use std::collections::BTreeMap;

use hsd_catalog::TableStats;
use hsd_core::{calibrate, CalibrationConfig, CostModel};
use hsd_engine::HybridDatabase;
use hsd_query::TableSpec;
use hsd_storage::StoreKind;
use hsd_types::Result;

/// The advisor's cost model for an ablation bin: the committed
/// `cost_model.json` when present and parsable, else a quick calibration
/// (with `base_rows` reduced for `--smoke` runs, so CI never spends
/// minutes calibrating). `bin` names the caller in the log lines.
pub fn advisor_model_or_calibrate(bin: &str, smoke: bool) -> CostModel {
    match std::fs::read_to_string("cost_model.json") {
        Ok(json) => match CostModel::from_json(&json) {
            Ok(m) => {
                eprintln!("[{bin}] using committed cost_model.json");
                return m;
            }
            Err(e) => eprintln!("[{bin}] cost_model.json unreadable ({e:?}); recalibrating"),
        },
        Err(_) => eprintln!("[{bin}] no cost_model.json; running quick calibration"),
    }
    let cfg = if smoke {
        CalibrationConfig {
            base_rows: 10_000,
            ..CalibrationConfig::quick()
        }
    } else {
        CalibrationConfig::quick()
    };
    calibrate(&cfg).expect("calibration")
}

/// A headline ratio as JSON, guarding zero/missing baselines: emit `"n/a"`
/// instead of `inf`/`NaN`, so `BENCH_*.json` artifacts never carry
/// non-finite numbers.
pub fn ratio_json(numerator: f64, denominator: f64) -> hsd_types::Json {
    if denominator > 0.0 {
        let r = numerator / denominator;
        if r.is_finite() {
            return hsd_types::Json::Num(r);
        }
    }
    hsd_types::Json::Str("n/a".into())
}

/// Experiment scale relative to the paper (`HSD_SCALE`, default `0.1`).
pub fn scale() -> f64 {
    std::env::var("HSD_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(0.1)
}

/// Number of rows after scaling (floor 10k).
pub fn scaled_rows(paper_rows: usize) -> usize {
    ((paper_rows as f64 * scale()).round() as usize).max(10_000)
}

/// The paper's 30-attribute evaluation table at `rows` rows, with the
/// keyfigure dictionary scaled to keep the compression rate ≈ 0.95
/// independent of the row count.
pub fn wide_spec(name: &str, rows: usize, seed: u64) -> TableSpec {
    let mut spec = TableSpec::paper_wide(name, rows, seed);
    spec.kf_distinct = (rows / 20).max(64) as u32;
    spec
}

/// Build a single-store database holding `spec`.
pub fn build_db(spec: &TableSpec, store: StoreKind) -> Result<HybridDatabase> {
    let db = HybridDatabase::new();
    db.create_single(spec.schema()?, store)?;
    db.bulk_load(&spec.name, spec.rows())?;
    Ok(db)
}

/// Every table's catalog statistics, by name (the advisor's input).
pub fn catalog_stats(db: &HybridDatabase) -> BTreeMap<String, TableStats> {
    db.catalog()
        .entries()
        .iter()
        .map(|e| (e.schema.name.clone(), e.stats.clone()))
        .collect()
}

/// Estimation context straight from a live database's catalog.
pub fn ctx_of(db: &HybridDatabase) -> hsd_core::EstimationCtx {
    let schemas: Vec<_> = db
        .catalog()
        .entries()
        .iter()
        .map(|e| e.schema.clone())
        .collect();
    hsd_core::advisor::build_ctx(&schemas, &catalog_stats(db))
}

/// Print an aligned series table (the textual equivalent of one figure)
/// under `|`-separated column `headers`.
pub fn print_series(title: &str, headers: &str, rows: &[Vec<String>]) {
    let lines: Vec<Vec<&str>> = std::iter::once(headers.split('|').collect())
        .chain(rows.iter().map(|r| r.iter().map(String::as_str).collect()))
        .collect();
    let width = |i: usize| lines.iter().map(|l| l.get(i).map_or(0, |c| c.len())).max();
    println!("\n=== {title} ===");
    for line in &lines {
        let cells = line.iter().enumerate();
        let cells = cells.map(|(i, c)| format!("{c:>w$}", w = width(i).unwrap_or(0)));
        println!("{}", cells.collect::<Vec<_>>().join("  "));
    }
}

/// Format seconds with 3 decimals.
pub fn fmt_s(seconds: f64) -> String {
    format!("{seconds:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_helpers() {
        // default scale is 0.1 unless HSD_SCALE overrides; floors apply
        assert!(scaled_rows(2_000_000) >= 10_000);
        let spec = wide_spec("t", 40_000, 1);
        assert_eq!(spec.kf_distinct, 2_000);
        assert_eq!(spec.arity(), 30);
    }

    #[test]
    fn build_db_works() {
        let spec = wide_spec("t", 500, 1);
        let db = build_db(&spec, StoreKind::Column).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 500);
    }
}
