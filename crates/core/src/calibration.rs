//! Cost-model initialization ("calibration").
//!
//! Figure 5 of the paper starts the recommendation process with *"Initialize
//! cost model: based on some representative tests the base costs and the
//! adjustment functions are set to reflect the current system's hardware
//! settings and system configurations."* This module is that step: it builds
//! synthetic tables on a scratch [`HybridDatabase`], times micro-benchmarks
//! for every query type on both stores, and fits the adjustment functions
//! (least squares for linear terms, interpolation for piecewise terms).

pub mod online;

use std::time::Instant;

use hsd_catalog::{HorizontalSpec, PartitionSpec, TablePlacement};
use hsd_engine::{HybridDatabase, MergePartition, WorkloadRunner};
use hsd_query::{
    AggFunc, Aggregate, AggregateQuery, InsertQuery, JoinSpec, Query, SelectQuery, TableSpec,
    UpdateQuery,
};
use hsd_storage::{ColRange, StoreKind};
use hsd_types::{ColumnType, Result, Value};

use crate::cost::{store_index, AdjustmentFn, CalibrationMeta, CostModel};

/// Calibration settings.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Row count of the reference tables. Sweeps scale around this.
    pub base_rows: usize,
    /// Timing repeats per micro-benchmark (median taken).
    pub repeats: usize,
    /// Repeats for microsecond-scale operations (point queries, updates).
    pub point_repeats: usize,
    /// Row-count sweep factors for `f_#rows` and insert calibration.
    pub row_sweep: Vec<f64>,
    /// RNG seed for the synthetic data.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            base_rows: 50_000,
            repeats: 3,
            point_repeats: 40,
            row_sweep: vec![0.25, 0.5, 1.0, 1.5, 2.0],
            seed: 0xCA11B,
        }
    }
}

impl CalibrationConfig {
    /// Small, fast settings for tests (seconds instead of minutes).
    pub fn quick() -> Self {
        CalibrationConfig {
            base_rows: 20_000,
            repeats: 3,
            point_repeats: 10,
            row_sweep: vec![0.5, 1.0, 2.0],
            seed: 0xCA11B,
        }
    }
}

/// Run the full calibration and return the fitted cost model.
pub fn calibrate(cfg: &CalibrationConfig) -> Result<CostModel> {
    let mut model = CostModel::neutral();
    for store in StoreKind::BOTH {
        calibrate_store(&mut model, store, cfg)?;
    }
    calibrate_join(&mut model, cfg)?;
    calibrate_union_overhead(&mut model, cfg)?;
    // Disk-tier pricing is not micro-benchmarked (it depends on the deployment
    // medium far more than on this process); ship the documented defaults so a
    // calibrated model never treats disk residency as free.
    model.tier = crate::cost::TierModel::default_disk();
    model.meta = CalibrationMeta {
        base_rows: cfg.base_rows,
        reference_compression: reference_spec("x", cfg.base_rows, cfg)
            .kf_compression(cfg.base_rows),
        table_arity: reference_spec("x", cfg.base_rows, cfg).arity(),
        repeats: cfg.repeats,
        // Fresh calibration: no online re-fits have amended this model yet.
        ..CalibrationMeta::default()
    };
    Ok(model)
}

trait KfCompression {
    fn kf_compression(&self, rows: usize) -> f64;
}

impl KfCompression for TableSpec {
    fn kf_compression(&self, rows: usize) -> f64 {
        (1.0 - self.kf_distinct as f64 / rows as f64).max(0.0)
    }
}

/// The calibration table mirrors the paper's 30-attribute evaluation table.
/// The keyfigure dictionary scales with the row count so the reference
/// compression rate (~0.95) is the same at every sweep size — otherwise a
/// small calibration table would measure a nearly-unique-value regime the
/// production tables never exhibit.
fn reference_spec(name: &str, rows: usize, cfg: &CalibrationConfig) -> TableSpec {
    let mut spec = TableSpec::paper_wide(name, rows, cfg.seed);
    spec.kf_distinct = (rows / 20).max(64) as u32;
    spec
}

fn time_ms(db: &HybridDatabase, q: &Query, repeats: usize) -> Result<f64> {
    let d = WorkloadRunner::new().time_query(db, q, repeats)?;
    Ok(d.as_secs_f64() * 1e3)
}

/// Time a batch of distinct queries, returning the median per-query ms.
fn time_batch_ms(db: &HybridDatabase, queries: &[Query]) -> Result<f64> {
    let mut samples = Vec::with_capacity(queries.len());
    for q in queries {
        let start = Instant::now();
        db.execute(q)?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[samples.len() / 2])
}

/// Time a batch of distinct queries, returning the *mean* per-query ms.
/// Used for updates, whose cost includes occasional amortized delta merges
/// that a median would hide.
fn time_batch_mean_ms(db: &HybridDatabase, queries: &[Query]) -> Result<f64> {
    let start = Instant::now();
    for q in queries {
        db.execute(q)?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e3 / queries.len().max(1) as f64)
}

fn sum_query(table: &str, col: usize) -> Query {
    Query::Aggregate(AggregateQuery::simple(table, AggFunc::Sum, col))
}

#[allow(clippy::too_many_lines)]
fn calibrate_store(model: &mut CostModel, store: StoreKind, cfg: &CalibrationConfig) -> Result<()> {
    let db = HybridDatabase::new();

    // --- build the row-count sweep tables ---------------------------------
    let mut sweep_tables: Vec<(String, usize)> = Vec::new();
    for (i, factor) in cfg.row_sweep.iter().enumerate() {
        let rows = ((cfg.base_rows as f64) * factor).round().max(16.0) as usize;
        let name = format!("calib_{i}");
        let spec = reference_spec(&name, rows, cfg);
        db.create_single(spec.schema()?, store)?;
        db.bulk_load(&name, spec.rows())?;
        sweep_tables.push((name, rows));
    }
    let ref_idx = cfg
        .row_sweep
        .iter()
        .position(|f| (*f - 1.0).abs() < 1e-9)
        .unwrap_or(cfg.row_sweep.len() / 2);
    let (ref_table, ref_rows) = sweep_tables[ref_idx].clone();
    let spec = reference_spec(&ref_table, ref_rows, cfg);
    let m = model.store_mut(store);

    // --- f_#rows: reference aggregation across the sweep ------------------
    let mut rows_samples = Vec::new();
    for (name, rows) in &sweep_tables {
        let ms = time_ms(&db, &sum_query(name, spec.kf_col(0)), cfg.repeats)?;
        rows_samples.push((*rows as f64, ms));
    }
    m.f_rows = AdjustmentFn::fit_linear(&rows_samples);
    let ref_agg_ms = time_ms(&db, &sum_query(&ref_table, spec.kf_col(0)), cfg.repeats)?;

    // --- base costs per aggregation function -------------------------------
    for func in AggFunc::ALL {
        let q = Query::Aggregate(AggregateQuery::simple(&ref_table, func, spec.kf_col(0)));
        let ms = time_ms(&db, &q, cfg.repeats)?;
        m.set_base_agg(func, (ms / ref_agg_ms).max(1e-3));
    }
    m.set_base_agg(AggFunc::Sum, 1.0);

    // --- c_dataType ---------------------------------------------------------
    // Double is the reference; Integer measured on a filter attribute,
    // BigInt on the id column. Types with no natural calibration column
    // (Decimal ≈ Integer, Varchar/Date/Boolean not aggregated) fall back to
    // the closest measured factor.
    let int_ms = time_ms(&db, &sum_query(&ref_table, spec.flt_col(0)), cfg.repeats)? / ref_agg_ms;
    let bigint_ms = time_ms(&db, &sum_query(&ref_table, 0), cfg.repeats)? / ref_agg_ms;
    m.set_c_type(ColumnType::Double, 1.0);
    m.set_c_type(ColumnType::Integer, int_ms.max(1e-3));
    m.set_c_type(ColumnType::BigInt, bigint_ms.max(1e-3));
    m.set_c_type(ColumnType::Decimal, int_ms.max(1e-3));

    // --- c_groupBy ----------------------------------------------------------
    // Median over several group columns: the ratio steers every grouped
    // estimate, so a single scheduling hiccup must not skew it.
    let mut grouped_samples = Vec::new();
    for g in 0..3.min(spec.group_attrs) {
        let grouped = Query::Aggregate(AggregateQuery {
            table: ref_table.clone(),
            aggregates: vec![Aggregate {
                func: AggFunc::Sum,
                column: spec.kf_col(0),
            }],
            group_by: Some(spec.grp_col(g)),
            filter: vec![],
            join: None,
        });
        grouped_samples.push(time_ms(&db, &grouped, cfg.repeats.max(3))?);
    }
    grouped_samples.sort_by(f64::total_cmp);
    let grouped_ms = grouped_samples[grouped_samples.len() / 2];
    m.c_group_by = (grouped_ms / ref_agg_ms).max(1.0);

    // --- f_compression -------------------------------------------------------
    // Vary the aggregated attribute's distinct count; normalize at the
    // reference table's compression rate.
    let ref_compression = spec.kf_compression(ref_rows);
    let mut comp_points = vec![(ref_compression, 1.0)];
    for (j, distinct) in [16u32, 1024, (cfg.base_rows as u32).max(32) * 4]
        .iter()
        .enumerate()
    {
        let name = format!("calib_comp_{j}");
        let mut cspec = reference_spec(&name, ref_rows, cfg);
        cspec.kf_distinct = *distinct;
        db.create_single(cspec.schema()?, store)?;
        db.bulk_load(&name, cspec.rows())?;
        let ms = time_ms(&db, &sum_query(&name, cspec.kf_col(0)), cfg.repeats)?;
        comp_points.push((cspec.kf_compression(ref_rows), ms / ref_agg_ms));
    }
    m.f_compression = AdjustmentFn::fit_piecewise(comp_points);

    // --- selections -----------------------------------------------------------
    // Point lookups via the primary key.
    let point_queries: Vec<Query> = (0..cfg.point_repeats)
        .map(|i| {
            let id = (i * 37 + 11) % ref_rows;
            Query::Select(SelectQuery::point(&ref_table, 0, Value::BigInt(id as i64)))
        })
        .collect();
    m.sel_point_ms = time_batch_ms(&db, &point_queries)?;

    // Range scans on a filter attribute (domain 0..10_000, uniform).
    let scan_fit = fit_range_scan(&db, &ref_table, &spec, ref_rows, cfg)?;
    m.sel_per_row_scan = scan_fit.0;
    m.sel_per_match = scan_fit.1;
    match store {
        StoreKind::Column => {
            // The dictionary is the implicit index; same path either way.
            m.sel_per_row_indexed = m.sel_per_row_scan;
        }
        StoreKind::Row => {
            // Re-fit with a secondary index in place.
            db.create_index(&ref_table, spec.flt_col(0))?;
            let idx_fit = fit_range_scan(&db, &ref_table, &spec, ref_rows, cfg)?;
            m.sel_per_row_indexed = idx_fit.0.min(m.sel_per_row_scan);
        }
    }

    // --- f_#selectedColumns ----------------------------------------------------
    // Range select emitting ~1% of rows, varying the projection width.
    let arity = spec.arity();
    let width_range = ColRange::between(spec.flt_col(1), Value::Int(0), Value::Int(100));
    let mut col_points = Vec::new();
    let full_ms = {
        let q = Query::Select(SelectQuery {
            table: ref_table.clone(),
            columns: None,
            filter: vec![width_range.clone()],
        });
        time_ms(&db, &q, cfg.repeats)?
    };
    for k in [1usize, arity / 4, arity / 2, arity] {
        let k = k.max(1);
        let q = Query::Select(SelectQuery {
            table: ref_table.clone(),
            columns: Some((0..k).collect()),
            filter: vec![width_range.clone()],
        });
        let ms = time_ms(&db, &q, cfg.repeats)?;
        col_points.push((k as f64, (ms / full_ms).clamp(0.05, 2.0)));
    }
    col_points.push((arity as f64, 1.0));
    m.f_selected_columns = AdjustmentFn::fit_piecewise(col_points);

    // --- inserts -----------------------------------------------------------------
    let mut ins_samples = Vec::new();
    let batch = 200.max(cfg.base_rows / 250);
    for (t, (name, rows)) in sweep_tables.iter().enumerate() {
        let tspec = reference_spec(name, *rows, cfg);
        let fresh_base = (rows * 10 + t) as u64;
        let rows_payload: Vec<Vec<Value>> = (0..batch)
            .map(|i| tspec.row(fresh_base + i as u64))
            .collect();
        let q = Query::Insert(InsertQuery {
            table: name.clone(),
            rows: rows_payload,
        });
        let ms = time_ms(&db, &q, 1)?;
        ins_samples.push((*rows as f64, ms / batch as f64));
    }
    let m = model.store_mut(store);
    m.ins_row = AdjustmentFn::fit_linear(&ins_samples);

    // --- updates ------------------------------------------------------------------
    // Representative updates write *fresh* keyfigure values (delta pressure:
    // dictionary tails grow, merges amortize in). Batch sizes are large
    // enough for the merge policy to fire, so the mean per-update cost is
    // merge-inclusive.
    let upd_batch = (ref_rows / 24).max(cfg.point_repeats);
    let fresh_update = |i: usize, k: usize| -> Query {
        let id = (i * 41 + 7) % ref_rows;
        let sets = (0..k)
            .map(|j| {
                let col = 1 + ((i + j) % (arity - 1));
                let value = match spec.value(((i + j) % ref_rows) as u64, col) {
                    Value::Double(_) => Value::Double(1e7 + (i * 13 + j) as f64 * 0.37),
                    v => v,
                };
                (col, value)
            })
            .collect();
        Query::Update(UpdateQuery {
            table: ref_table.clone(),
            sets,
            filter: vec![ColRange::eq(0, Value::BigInt(id as i64))],
        })
    };
    let upd_queries: Vec<Query> = (0..upd_batch).map(|i| fresh_update(i, 1)).collect();
    let upd1_ms = time_batch_mean_ms(&db, &upd_queries)?;
    m.upd_row_ms = (upd1_ms - m.sel_point_ms).max(upd1_ms * 0.1);
    // f_#affectedColumns: widen the SET list.
    let mut aff_points = vec![(1.0, 1.0)];
    for k in [2usize, 4, 8] {
        let k = k.min(arity - 1);
        let queries: Vec<Query> = (0..upd_batch / 2)
            .map(|i| fresh_update(i.wrapping_mul(3) + k, k))
            .collect();
        let ms = time_batch_mean_ms(&db, &queries)?;
        let upd_part = (ms - m.sel_point_ms).max(ms * 0.1);
        aff_points.push((k as f64, (upd_part / m.upd_row_ms).max(0.1)));
    }
    m.f_affected_columns = AdjustmentFn::fit_piecewise(aff_points);

    // --- delta maintenance (column store only) ------------------------------
    // f_tail: how much an unmerged dictionary tail degrades scans; merge_ms:
    // what folding it back in costs. Both feed the online advisor's merge
    // scheduling. The row store has no delta region; its terms stay neutral.
    if store == StoreKind::Column {
        calibrate_tail(model, &db, &sweep_tables, ref_idx, cfg)?;
    }

    Ok(())
}

/// Grow dictionary tails with fresh-value point updates (auto-merge
/// disabled), measuring (a) the scan degradation per tail fraction and
/// (b) the merge cost per row count.
fn calibrate_tail(
    model: &mut CostModel,
    db: &HybridDatabase,
    sweep_tables: &[(String, usize)],
    ref_idx: usize,
    cfg: &CalibrationConfig,
) -> Result<()> {
    let saved_policy = db.merge_config();
    db.set_merge_config(hsd_engine::MergeConfig::disabled());
    let (ref_table, ref_rows) = sweep_tables[ref_idx].clone();
    let spec = reference_spec(&ref_table, ref_rows, cfg);
    // Fresh updates target the reference keyfigure; the probe is a range
    // scan over that same column, so its predicate pays the tail path
    // (per-block tail membership tests instead of the fused kernel).
    let kf = spec.kf_col(0);
    let probe = Query::Aggregate(AggregateQuery {
        table: ref_table.clone(),
        aggregates: vec![Aggregate {
            func: AggFunc::Sum,
            column: kf,
        }],
        group_by: None,
        filter: vec![ColRange::ge(kf, Value::Double(0.0))],
        join: None,
    });
    let fresh_updates = |db: &HybridDatabase, from: usize, to: usize| -> Result<()> {
        for j in from..to {
            let id = (j * 29 + 3) % ref_rows;
            db.execute(&Query::Update(UpdateQuery {
                table: ref_table.clone(),
                sets: vec![(kf, Value::Double(5e8 + j as f64 * 0.013))],
                filter: vec![ColRange::eq(0, Value::BigInt(id as i64))],
            }))?;
        }
        Ok(())
    };
    // Clean baseline.
    hsd_engine::mover::merge_delta(db, &ref_table, MergePartition::Whole)?;
    let base_ms = time_ms(db, &probe, cfg.repeats.max(3))?;
    let mut tail_points = vec![(0.0, 1.0)];
    let mut grown = 0usize;
    for frac in [0.01f64, 0.04, 0.12] {
        let target = ((ref_rows as f64) * frac) as usize;
        fresh_updates(db, grown, target)?;
        grown = target;
        let ms = time_ms(db, &probe, cfg.repeats.max(3))?;
        let observed = db.delta_tail(&ref_table)? as f64 / ref_rows as f64;
        // Tails only hurt: clamp below at 1 so timing noise on small tails
        // cannot make the model reward deferred merges.
        tail_points.push((observed, (ms / base_ms).max(1.0)));
    }
    model.column.f_tail = AdjustmentFn::fit_piecewise(tail_points);

    // merge_ms: seed a proportional tail on every sweep table and time the
    // explicit merge entry point; fit linearly in the row count. Clear the
    // f_tail sweep's large leftover tail first so the reference table's
    // point folds the same seeded tail as every other sweep point.
    hsd_engine::mover::merge_delta(db, &ref_table, MergePartition::Whole)?;
    let mut merge_points = Vec::new();
    for (name, rows) in sweep_tables {
        let tspec = reference_spec(name, *rows, cfg);
        let tkf = tspec.kf_col(0);
        let seed_tail = (*rows / 64).max(64);
        for j in 0..seed_tail {
            let id = (j * 31 + 7) % rows;
            db.execute(&Query::Update(UpdateQuery {
                table: name.clone(),
                sets: vec![(tkf, Value::Double(7e8 + j as f64 * 0.017))],
                filter: vec![ColRange::eq(0, Value::BigInt(id as i64))],
            }))?;
        }
        let start = Instant::now();
        hsd_engine::mover::merge_delta(db, name, MergePartition::Whole)?;
        merge_points.push((*rows as f64, start.elapsed().as_secs_f64() * 1e3));
    }
    model.column.merge_ms = AdjustmentFn::fit_linear(&merge_points);
    db.set_merge_config(saved_policy);
    Ok(())
}

/// Fit `(per_table_row, per_match)` from a matched-rows sweep of range
/// selections on a uniform filter attribute.
fn fit_range_scan(
    db: &HybridDatabase,
    table: &str,
    spec: &TableSpec,
    rows: usize,
    cfg: &CalibrationConfig,
) -> Result<(f64, f64)> {
    let mut samples = Vec::new();
    for width in [50i32, 200, 1000, 4000] {
        let q = Query::Select(SelectQuery {
            table: table.to_string(),
            columns: Some(vec![0]),
            filter: vec![ColRange::between(
                spec.flt_col(0),
                Value::Int(0),
                Value::Int(width - 1),
            )],
        });
        let ms = time_ms(db, &q, cfg.repeats)?;
        let matched = rows as f64 * (width as f64 / 10_000.0);
        samples.push((matched, ms));
    }
    match AdjustmentFn::fit_linear(&samples) {
        AdjustmentFn::Linear { slope, intercept } => {
            Ok(((intercept / rows as f64).max(0.0), slope.max(0.0)))
        }
        AdjustmentFn::Constant(c) => Ok(((c / rows as f64).max(0.0), 0.0)),
        AdjustmentFn::Piecewise { .. } => unreachable!("fit_linear never returns piecewise"),
    }
}

/// Calibrate the join-combination factors and the dimension build cost.
fn calibrate_join(model: &mut CostModel, cfg: &CalibrationConfig) -> Result<()> {
    let fact_rows = cfg.base_rows;
    let dim_rows = (cfg.base_rows / 50).max(100);
    let fact_spec = TableSpec {
        name: String::new(),
        rows: fact_rows,
        fk_attrs: 1,
        fk_cardinality: dim_rows as u32,
        keyfigures: 4,
        group_attrs: 2,
        filter_attrs: 2,
        status_attrs: 1,
        group_cardinality: 100,
        status_cardinality: 8,
        kf_distinct: 100_000,
        seed: cfg.seed ^ 0xFAC7,
    };
    let dim_spec = TableSpec {
        name: String::new(),
        rows: dim_rows,
        fk_attrs: 0,
        fk_cardinality: 1,
        keyfigures: 0,
        group_attrs: 3,
        filter_attrs: 2,
        status_attrs: 0,
        group_cardinality: 25,
        status_cardinality: 1,
        kf_distinct: 1,
        seed: cfg.seed ^ 0xD1,
    };
    for fact_store in StoreKind::BOTH {
        for dim_store in StoreKind::BOTH {
            let db = HybridDatabase::new();
            let fname = format!("fact_{}", fact_store.abbrev());
            let dname = format!("dim_{}", dim_store.abbrev());
            let mut fspec = fact_spec.clone();
            fspec.name = fname.clone();
            let mut dspec = dim_spec.clone();
            dspec.name = dname.clone();
            db.create_single(fspec.schema()?, fact_store)?;
            db.create_single(dspec.schema()?, dim_store)?;
            db.bulk_load(&fname, fspec.rows())?;
            db.bulk_load(&dname, dspec.rows())?;
            // Reference: grouped single-table aggregation on the fact side.
            let solo = Query::Aggregate(AggregateQuery {
                table: fname.clone(),
                aggregates: vec![Aggregate {
                    func: AggFunc::Sum,
                    column: fspec.kf_col(0),
                }],
                group_by: Some(fspec.grp_col(0)),
                filter: vec![],
                join: None,
            });
            let solo_ms = time_ms(&db, &solo, cfg.repeats)?;
            let joined = Query::Aggregate(AggregateQuery {
                table: fname.clone(),
                aggregates: vec![Aggregate {
                    func: AggFunc::Sum,
                    column: fspec.kf_col(0),
                }],
                group_by: None,
                filter: vec![],
                join: Some(JoinSpec {
                    dim_table: dname.clone(),
                    fact_fk: fspec.fk_col(0),
                    dim_pk: 0,
                    group_by_dim: Some(dspec.grp_col(0)),
                }),
            });
            let join_ms = time_ms(&db, &joined, cfg.repeats)?;
            model.join_factor[store_index(fact_store)][store_index(dim_store)] =
                (join_ms / solo_ms).max(0.5);
            if fact_store == StoreKind::Row {
                // Dim build slope: grow the dimension and re-time.
                let big_rows = dim_rows * 8;
                let mut big = dim_spec.clone();
                big.name = format!("{dname}_big");
                big.rows = big_rows;
                db.create_single(big.schema()?, dim_store)?;
                db.bulk_load(&big.name, big.rows())?;
                let mut joined_big = joined.clone();
                if let Query::Aggregate(a) = &mut joined_big {
                    a.join.as_mut().expect("join present").dim_table = big.name.clone();
                }
                let big_ms = time_ms(&db, &joined_big, cfg.repeats)?;
                let slope = ((big_ms - join_ms) / (big_rows - dim_rows) as f64).max(0.0);
                model.dim_build[store_index(dim_store)] = AdjustmentFn::Linear {
                    slope,
                    intercept: 0.0,
                };
            }
        }
    }
    Ok(())
}

/// Measure the horizontal-union overhead with an empty hot partition: the
/// difference against a plain column-store table is pure rewrite/merge cost.
fn calibrate_union_overhead(model: &mut CostModel, cfg: &CalibrationConfig) -> Result<()> {
    let rows = (cfg.base_rows / 2).max(1000);
    let spec = reference_spec("u_plain", rows, cfg);
    let db = HybridDatabase::new();
    db.create_single(spec.schema()?, StoreKind::Column)?;
    db.bulk_load("u_plain", spec.rows())?;
    let mut part_spec = reference_spec("u_part", rows, cfg);
    part_spec.name = "u_part".into();
    db.create_table(
        part_spec.schema()?,
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(rows as i64 * 10),
            }),
            vertical: None,
            ..Default::default()
        }),
    )?;
    db.bulk_load("u_part", part_spec.rows())?;
    // All rows are in the hot partition now (inserts route hot); rebalance
    // everything into the cold partition so the union is CS + empty RS.
    hsd_engine::mover::rebalance_horizontal(&db, "u_part", &Value::BigInt(rows as i64 * 10))?;
    let plain = time_ms(&db, &sum_query("u_plain", spec.kf_col(0)), cfg.repeats)?;
    let part = time_ms(&db, &sum_query("u_part", part_spec.kf_col(0)), cfg.repeats)?;
    model.union_overhead_ms = (part - plain).max(0.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end calibration at quick scale; asserts the qualitative
    /// asymmetries the whole paper rests on.
    #[test]
    fn quick_calibration_produces_sane_model() {
        let model = calibrate(&CalibrationConfig::quick()).unwrap();

        // Aggregation: CS scan must undercut RS scan at the sweep's top end,
        // where the slopes dominate the fixed per-query overhead.
        let n = 40_000.0;
        let rs = model.row.f_rows.eval(n);
        let cs = model.column.f_rows.eval(n);
        assert!(
            cs < rs,
            "column aggregation ({cs} ms) should beat row ({rs} ms)"
        );

        // Inserts: RS per-row cost below CS per-row cost.
        let rs_ins = model.row.ins_row.eval(20_000.0);
        let cs_ins = model.column.ins_row.eval(20_000.0);
        assert!(
            rs_ins < cs_ins,
            "row insert ({rs_ins}) should beat column ({cs_ins})"
        );

        // Point access exists and is sub-millisecond at this scale.
        assert!(model.row.sel_point_ms > 0.0);
        assert!(model.row.sel_point_ms < 5.0);

        // Group-by costs at least as much as no group-by.
        assert!(model.row.c_group_by >= 1.0);
        assert!(model.column.c_group_by >= 1.0);

        // Delta maintenance: a tail never speeds scans up, the merge has a
        // real cost at calibration scale, and the row store stays neutral.
        assert!(model.column.f_tail.eval(0.0) >= 1.0 - 1e-9);
        assert!(model.column.f_tail.eval(0.12) >= 1.0);
        assert!(model.column.merge_ms.eval(20_000.0) > 0.0);
        assert_eq!(model.row.f_tail, AdjustmentFn::Constant(1.0));
        assert_eq!(model.row.merge_ms, AdjustmentFn::Constant(0.0));

        // Join factors are positive and serde survives a round trip.
        for f in StoreKind::BOTH {
            for d in StoreKind::BOTH {
                assert!(model.join_factor_of(f, d) > 0.0);
            }
        }
        let back = CostModel::from_json(&model.to_json()).unwrap();
        assert_eq!(back, model);
        assert_eq!(back.meta.base_rows, 20_000);
    }
}
