//! Shared experiment harness for reproducing the paper's figures.
//!
//! Every figure of the evaluation section has a binary in `src/bin/`
//! (`fig6a` … `fig10`) that prints the same series the paper plots. The
//! experiments run at a configurable fraction of the paper's data sizes
//! (default 1/10th; set `HSD_SCALE=1.0` for paper scale) — the *shapes* of
//! the curves, not the absolute milliseconds, are the reproduction target.

#![warn(missing_docs)]

pub mod fig9;
pub mod scan_workload;

use std::io::Write as _;
use std::path::PathBuf;

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

/// Calibrate the cost model at the experiment scale, caching the result as
/// JSON under `target/` so a session of figure runs calibrates once.
pub fn calibrated_model() -> Result<CostModel> {
    let base_rows = scaled_rows(2_000_000).min(300_000);
    let cache = cache_path(base_rows);
    if let Ok(json) = std::fs::read_to_string(&cache) {
        if let Ok(model) = CostModel::from_json(&json) {
            if model.meta.base_rows == base_rows {
                eprintln!("[calibration] reusing cached model ({})", cache.display());
                return Ok(model);
            }
        }
    }
    eprintln!("[calibration] calibrating cost model at base_rows={base_rows} ...");
    let cfg = CalibrationConfig {
        base_rows,
        ..Default::default()
    };
    let model = calibrate(&cfg)?;
    let _ = std::fs::create_dir_all(cache.parent().expect("cache has parent"));
    let _ = std::fs::write(&cache, model.to_json());
    Ok(model)
}

/// Estimation context straight from a live database's catalog.
pub fn ctx_of(db: &HybridDatabase) -> hsd_core::EstimationCtx {
    let schemas: Vec<_> = db
        .catalog()
        .entries()
        .iter()
        .map(|e| e.schema.clone())
        .collect();
    let stats = db
        .catalog()
        .entries()
        .iter()
        .map(|e| (e.schema.name.clone(), e.stats.clone()))
        .collect();
    hsd_core::advisor::build_ctx(&schemas, &stats)
}

fn cache_path(base_rows: usize) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join(format!("hsd_cost_model_{base_rows}.json"))
}

/// Print an aligned series table (the textual equivalent of one figure).
pub fn print_series(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    let _ = writeln!(out, "{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
    }
}

/// Format seconds with 3 decimals.
pub fn fmt_s(seconds: f64) -> String {
    format!("{seconds:.3}")
}

/// Format milliseconds with 2 decimals.
pub fn fmt_ms(ms: f64) -> String {
    format!("{ms:.2}")
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
