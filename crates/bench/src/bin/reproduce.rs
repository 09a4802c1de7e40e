//! Reproduces the paper's Section 5 figures as checked claims.
//!
//! ```text
//! HSD_SCALE=0.01 cargo run --release -p hsd-bench --bin reproduce             # every figure
//! HSD_SCALE=0.01 cargo run --release -p hsd-bench --bin reproduce -- --fig 8  # one figure
//! ```
//!
//! Each figure prints the series the paper plots, then one `claim <fig>:
//! PASS|FAIL|OPEN (<measured> vs <bound>)` line ([`hsd_bench::claims`]).
//! Every workload runtime is the median of [`REPEATS`] runs, each on its own
//! freshly loaded database, the compared configurations alternating within
//! each repeat. The process exits
//! non-zero only when a gated claim fails (or an experiment errors). The
//! cost model is calibrated once per process at the experiment scale, so
//! the estimates price the code being run.

use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;

use hsd_bench::claims::{fig10_claim, fig6_claim, fig7_claim, fig8_claim, fig9_claim, Claim};
use hsd_bench::{
    build_db, catalog_stats, ctx_of, fmt_s, print_series, scale, scaled_rows, wide_spec,
};
use hsd_catalog::{HorizontalSpec, PartitionSpec, StorageLayout, TablePlacement, VerticalSpec};
use hsd_core::estimator::{estimate_query_layout, estimate_workload_layout};
use hsd_core::{calibrate, report, CalibrationConfig, CostModel, StorageAdvisor};
use hsd_engine::{mover, HybridDatabase, WorkloadRunner};
use hsd_query::AggFunc::{Avg, Max, Min, Sum};
use hsd_query::{
    Aggregate, AggregateQuery, MixedWorkloadConfig, Query, TableSpec, Workload, WorkloadGenerator,
};
use hsd_storage::StoreKind;
use hsd_tpch::{generate_workload, TpchGenerator, TpchWorkloadConfig};
use hsd_types::{Result, Value};

const FIGS: [&str; 8] = ["6a", "6b", "7a", "7b", "8", "9a", "9b", "10"];

/// Runs per measured point; the point is their median.
const REPEATS: usize = 3;

/// Statements per mixed workload: the paper's count; only the data scales.
const QUERIES: usize = 500;

fn main() -> Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figs = match args.as_slice() {
        [] => FIGS.to_vec(),
        [flag, fig] if flag == "--fig" && FIGS.contains(&fig.as_str()) => vec![fig.as_str()],
        _ => {
            eprintln!("usage: reproduce [--fig {}]", FIGS.join("|"));
            return Ok(ExitCode::from(2));
        }
    };
    let base_rows = scaled_rows(2_000_000).min(300_000);
    eprintln!("[calibration] calibrating cost model at base_rows={base_rows} ...");
    let model = calibrate(&CalibrationConfig {
        base_rows,
        ..Default::default()
    })?;
    let mut failed = false;
    for fig in figs {
        let claim = match fig {
            "6a" => fig6a(&model)?,
            "6b" => fig6b(&model)?,
            "7a" => fig7a(&model)?,
            "7b" => fig7b(&model)?,
            "8" => fig8(&model)?,
            // 9(a) is the OLAP setting (10 keyfigures, 8 group-by, 2 status
            // attributes), 9(b) the OLTP setting (1, 1, 18).
            "9a" => fig9("9a", "OLAP", [10, 8, 2], 0xF19A)?,
            "9b" => fig9("9b", "OLTP", [1, 1, 18], 0xF19B)?,
            _ => fig10(&model)?,
        };
        println!("{claim}");
        failed |= claim.failed();
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Median workload runtime (s) of each configuration over [`REPEATS`] runs,
/// each on a freshly built database (the workloads mutate). The
/// configurations alternate within a repeat, so a slow phase of the
/// machine slows all of them alike.
fn race<T>(
    workload: &Workload,
    configs: &[T],
    build: impl Fn(&T) -> Result<HybridDatabase>,
) -> Result<Vec<f64>> {
    let runner = WorkloadRunner::new();
    let mut secs = vec![Vec::with_capacity(REPEATS); configs.len()];
    for _ in 0..REPEATS {
        for (config, s) in configs.iter().zip(&mut secs) {
            let db = build(config)?;
            s.push(runner.run(&db, workload)?.total.as_secs_f64());
        }
    }
    for s in &mut secs {
        s.sort_by(f64::total_cmp);
    }
    Ok(secs.iter().map(|s| s[REPEATS / 2]).collect())
}

/// Figures 6(a)/6(b): per case (a row label, the table `t` loaded into each
/// store, a query on it), the estimated and measured ms of the query on
/// both stores.
fn fig6(
    model: &CostModel,
    fig: &'static str,
    title: &str,
    label: &str,
    cases: impl Iterator<Item = Result<(String, Rc<[HybridDatabase; 2]>, Query)>>,
) -> Result<Claim> {
    let mut rows = Vec::new();
    let mut points = [Vec::new(), Vec::new()];
    for case in cases {
        let (label, dbs, query) = case?;
        let mut line = vec![label];
        for ((store, db), pts) in StoreKind::BOTH.into_iter().zip(dbs.iter()).zip(&mut points) {
            let layout = StorageLayout::uniform(["t"], store);
            let est = estimate_query_layout(model, &ctx_of(db), &layout, &query);
            let run = WorkloadRunner::new().time_query(db, &query, REPEATS)?;
            let run = run.as_secs_f64() * 1e3;
            pts.push((est, run));
            line.extend([format!("{est:.2}"), format!("{run:.2}")]);
        }
        rows.push(line);
    }
    let headers = format!("{label}|RS est (ms)|RS run (ms)|CS est (ms)|CS run (ms)");
    print_series(title, &headers, &rows);
    let [rs, cs] = points;
    Ok(fig6_claim(fig, &rs, &cs))
}

fn both_stores(spec: &TableSpec) -> Result<Rc<[HybridDatabase; 2]>> {
    let [rs, cs] = StoreKind::BOTH.map(|store| build_db(spec, store));
    Ok(Rc::new([rs?, cs?]))
}

/// Figure 6(a): accuracy of the runtime estimation vs. **data scale** — a
/// 30-attribute table at 2m–20m tuples, one SUM; the paper's estimates and
/// runtimes both trend linearly.
fn fig6a(model: &CostModel) -> Result<Claim> {
    let cases = [2usize, 6, 10, 14, 20].into_iter().map(|millions| {
        let n = scaled_rows(millions * 1_000_000);
        let spec = wide_spec("t", n, 0xF16A);
        let query = Query::Aggregate(AggregateQuery::simple("t", Sum, spec.kf_col(0)));
        Ok((n.to_string(), both_stores(&spec)?, query))
    });
    let title = "Figure 6(a): estimation accuracy vs data scale (SUM over one Double attribute)";
    fig6(model, "6a", title, "tuples", cases)
}

/// Figure 6(b): accuracy of the runtime estimation vs. **number of
/// aggregates** (1–5) on a fixed 10m-tuple table.
fn fig6b(model: &CostModel) -> Result<Claim> {
    let n = scaled_rows(10_000_000);
    let spec = wide_spec("t", n, 0xF16B);
    let dbs = both_stores(&spec)?;
    let cases = (1..=5usize).map(|k| {
        let funcs = [Sum, Avg, Max, Sum, Min].into_iter().zip(spec.kf_cols());
        let aggregates = funcs
            .take(k)
            .map(|(func, column)| Aggregate { func, column });
        let query = Query::Aggregate(AggregateQuery {
            aggregates: aggregates.collect(),
            ..AggregateQuery::simple("t", Sum, 0)
        });
        Ok((k.to_string(), dbs.clone(), query))
    });
    let title = format!("Figure 6(b): estimation accuracy vs number of aggregates ({n} tuples)");
    fig6(model, "6b", &title, "#aggregates", cases)
}

/// Figures 7(a)/7(b): per OLAP fraction (40 % inserts and 40 % updates
/// among the OLTP statements), the workload runtime on RS only and CS only
/// against the store `picks_row` chooses for the workload.
fn fig7(
    fig: &'static str,
    title: &str,
    workload_of: impl Fn(&MixedWorkloadConfig) -> Workload,
    build: impl Fn(&StoreKind) -> Result<HybridDatabase>,
    picks_row: impl Fn(&Workload) -> Result<bool>,
) -> Result<Claim> {
    let mut rows = Vec::new();
    let mut settings = Vec::new();
    for frac in [0.0, 0.0125, 0.025, 0.0375, 0.05] {
        let workload = workload_of(&MixedWorkloadConfig {
            queries: QUERIES,
            olap_fraction: frac,
            oltp_insert_share: 0.4,
            oltp_update_share: 0.4,
            seed: if fig == "7a" { 0x7A } else { 0x7B } + (frac * 1e4) as u64,
            ..Default::default()
        });
        let t = race(&workload, &StoreKind::BOTH, &build)?;
        let row = picks_row(&workload)?;
        let name = |row: bool| if row { "RS" } else { "CS" }.to_string();
        let picked = fmt_s(if row { t[0] } else { t[1] });
        rows.push(vec![
            format!("{:.2}%", frac * 100.0),
            fmt_s(t[0]),
            fmt_s(t[1]),
            picked,
            name(row),
            name(t[0] <= t[1]),
        ]);
        settings.push((t[0], t[1], row));
    }
    let headers = "OLAP frac|RS only (s)|CS only (s)|advisor (s)|rec|optimal";
    print_series(title, headers, &rows);
    Ok(fig7_claim(fig, &settings))
}

/// Figure 7(a): recommendation quality on a **single table**.
fn fig7a(model: &CostModel) -> Result<Claim> {
    let advisor = StorageAdvisor::new(model.clone());
    let n = scaled_rows(10_000_000);
    let spec = wide_spec("t", n, 0xF17A);
    let schema = [Arc::new(spec.schema()?)];
    let stats = catalog_stats(&build_db(&spec, StoreKind::Row)?);
    fig7(
        "7a",
        &format!(
            "Figure 7(a): single-table recommendation quality ({n} tuples, {QUERIES} queries)"
        ),
        |cfg| WorkloadGenerator::single_table(&spec, cfg),
        |&store| build_db(&spec, store),
        // A table-level recommendation places every table in one store.
        |workload| {
            let rec = advisor.recommend_offline(&schema, &stats, workload, false)?;
            Ok(rec.layout.placement("t") == TablePlacement::Single(StoreKind::Row))
        },
    )
}

/// Figure 7(b): recommendation quality with **join queries** on a star
/// schema (fact 20m × 10 attributes, dimension 1000 × 6). The small
/// dimension is pinned to the row store ("based on preceding
/// measurements"); the advisor decides the fact table's store by comparing
/// its two workload estimates.
fn fig7b(model: &CostModel) -> Result<Claim> {
    let n = scaled_rows(20_000_000);
    let fact = TableSpec {
        fk_attrs: 1,
        fk_cardinality: 1000,
        keyfigures: 4,
        group_attrs: 0,
        filter_attrs: 2,
        status_attrs: 2,
        group_cardinality: 1,
        // BI fact keyfigures (quantities, prices) are low-cardinality; this
        // also keeps the aggregate-decode tables cache-resident, which is
        // where the column store's join advantage comes from.
        kf_distinct: (n / 100).max(64) as u32,
        ..TableSpec::paper_wide("fact", n, 0xF17B)
    };
    let dim = TableSpec {
        keyfigures: 0,
        group_attrs: 3,
        filter_attrs: 2,
        status_attrs: 0,
        group_cardinality: 20,
        status_cardinality: 1,
        kf_distinct: 64,
        ..TableSpec::paper_wide("dim", 1000, 0xD1B)
    };
    let build = |&fact_store: &StoreKind| -> Result<HybridDatabase> {
        let db = HybridDatabase::new();
        db.create_single(fact.schema()?, fact_store)?;
        db.create_single(dim.schema()?, StoreKind::Row)?;
        db.bulk_load("fact", fact.rows())?;
        db.bulk_load("dim", dim.rows())?;
        Ok(db)
    };
    let ctx = ctx_of(&build(&StoreKind::Row)?);
    fig7(
        "7b",
        &format!(
            "Figure 7(b): join recommendation quality (fact {n} x 10 attrs, dim 1000 x 6, \
             {QUERIES} queries)"
        ),
        |cfg| WorkloadGenerator::star(&fact, &dim, fact.fk_col(0), cfg),
        build,
        |workload| {
            let [rs, cs] = StoreKind::BOTH.map(|store| {
                let mut layout = StorageLayout::uniform(["fact"], store);
                layout.set("dim", TablePlacement::Single(StoreKind::Row));
                estimate_workload_layout(model, &ctx, &layout, workload)
            });
            Ok(rs <= cs)
        },
    )
}

/// Figure 8: workload runtime for different **horizontal partitionings** —
/// 5 % OLAP, updates addressing the top 10 % of the data; the row-store
/// partition is swept from 0 % to 20 % and the minimum must sit at the
/// advisor's recommendation.
fn fig8(model: &CostModel) -> Result<Claim> {
    let n = scaled_rows(10_000_000);
    let spec = wide_spec("t", n, 0xF18);
    let cfg = MixedWorkloadConfig {
        queries: QUERIES,
        olap_fraction: 0.05,
        oltp_insert_share: 0.0,
        oltp_update_share: 1.0,
        whole_tuple_update_prob: 0.5,
        hot_fraction: Some(0.10),
        // Each update addresses a contiguous slice (0.1 % of the table)
        // inside the OLTP region, as in the paper's "updates addressing
        // 10% of the data".
        update_range_rows: Some((n / 1000).max(50)),
        seed: 0xF18,
        ..Default::default()
    };
    let workload = WorkloadGenerator::single_table(&spec, &cfg);
    let percents = [0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0];
    let secs = race(&workload, &percents, |&percent| {
        let db = build_db(&spec, StoreKind::Column)?;
        if percent > 0.0 {
            let split = (n as f64 * (1.0 - percent / 100.0)) as i64;
            let placement = TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: spec.id_col(),
                    split_value: Value::BigInt(split),
                }),
                ..Default::default()
            });
            mover::move_table(&db, "t", &placement)?;
        }
        Ok(db)
    })?;
    let series: Vec<(f64, f64)> = percents.into_iter().zip(secs).collect();
    let rows: Vec<_> = series
        .iter()
        .map(|(p, s)| vec![format!("{p:.1}%"), fmt_s(*s)])
        .collect();
    let title = format!(
        "Figure 8: runtime vs horizontal partitioning ({n} tuples, {QUERIES} queries, \
         5% OLAP, updates on top 10%)"
    );
    print_series(&title, "RS fraction|runtime (s)", &rows);

    let stats = catalog_stats(&build_db(&spec, StoreKind::Column)?);
    let advisor = StorageAdvisor::new(model.clone());
    let rec = advisor.recommend_offline(&[Arc::new(spec.schema()?)], &stats, &workload, true)?;
    let placement = rec.layout.placement("t");
    println!("advisor recommends {placement:?}");
    let recommended = match placement {
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(h),
            ..
        }) => h
            .split_value
            .as_i64()
            .map(|split| 100.0 * (1.0 - split as f64 / n as f64)),
        _ => None,
    };
    Ok(fig8_claim(&series, recommended))
}

/// Figures 9(a)/9(b): the benefit of **vertical partitioning** under growing
/// OLAP fractions, on a table of `[keyfigures, group-by, status]`
/// attributes. The OLTP part selects and updates only the status
/// attributes, which the vertical split keeps in the row-store fragment.
fn fig9(fig: &'static str, setting: &str, attrs: [usize; 3], seed: u64) -> Result<Claim> {
    let rows = scaled_rows(10_000_000);
    let spec = TableSpec {
        keyfigures: attrs[0],
        group_attrs: attrs[1],
        filter_attrs: 0,
        status_attrs: attrs[2],
        status_cardinality: 1000,
        ..wide_spec("t", rows, seed)
    };
    let vertical = PartitionSpec {
        vertical: Some(VerticalSpec {
            row_cols: spec.st_cols(),
        }),
        ..Default::default()
    };
    let placements = [
        TablePlacement::Single(StoreKind::Row),
        TablePlacement::Single(StoreKind::Column),
        TablePlacement::Partitioned(vertical),
    ];
    let build = |placement: &TablePlacement| -> Result<HybridDatabase> {
        let db = HybridDatabase::new();
        db.create_table(spec.schema()?, placement.clone())?;
        db.bulk_load(&spec.name, spec.rows())?;
        // The selection attributes carry row-store secondary indexes (the
        // paper's `f_selectivity` "if an index is available" case); on the
        // column store the dictionary is the implicit index (no-op).
        for col in spec.st_cols() {
            db.create_index(&spec.name, col)?;
        }
        Ok(db)
    };
    let mut table = Vec::new();
    let mut series = Vec::new();
    for frac in [0.0, 0.00625, 0.0125, 0.01875, 0.025] {
        let cfg = MixedWorkloadConfig {
            queries: QUERIES,
            olap_fraction: frac,
            oltp_insert_share: 0.0,
            oltp_update_share: 0.5,
            update_status_only: true,
            whole_tuple_update_prob: 0.0,
            seed: 0xF19 + (frac * 1e5) as u64,
            ..Default::default()
        };
        let t = race(
            &WorkloadGenerator::single_table(&spec, &cfg),
            &placements,
            build,
        )?;
        let percent = format!("{:.3}%", frac * 100.0);
        table.push(vec![percent, fmt_s(t[0]), fmt_s(t[1]), fmt_s(t[2])]);
        series.push((t[0], t[1], t[2]));
    }
    let (number, letter) = fig.split_at(1);
    let title = format!(
        "Figure {number}({letter}): vertical partitioning, {setting} setting ({rows} tuples)"
    );
    let headers = "OLAP frac|RS only (s)|CS only (s)|vertical (s)";
    print_series(&title, headers, &table);
    Ok(fig9_claim(fig, &series))
}

/// Figure 10: **combination and comparison** on the TPC-H scenario — a
/// 5000-query, ~1 %-OLAP mix on all tables in the row store, all in the
/// column store, the advisor's table-level layout and its partitioned
/// layout. Paper result: Table ≈ −40 % and Partitioned ≈ −65 % against the
/// single-store baselines.
fn fig10(model: &CostModel) -> Result<Claim> {
    let sf = scale();
    let g = TpchGenerator::new(sf, 0x7C);
    let cfg = TpchWorkloadConfig {
        queries: 5_000,
        olap_fraction: 0.01,
        ..Default::default()
    };
    let workload = generate_workload(&g, &cfg);
    let load = |store: StoreKind| -> Result<HybridDatabase> {
        let db = HybridDatabase::new();
        g.load_uniform(&db, store)?;
        Ok(db)
    };
    let stats = catalog_stats(&load(StoreKind::Row)?);
    let schemas: Vec<_> = hsd_tpch::schema::all()?.into_iter().map(Arc::new).collect();
    let advisor = StorageAdvisor::new(model.clone());
    let rec_table = advisor.recommend_offline(&schemas, &stats, &workload, false)?;
    println!("\n--- table-level recommendation ---");
    print!("{}", report::render(&rec_table));
    let rec_part = advisor.recommend_offline(&schemas, &stats, &workload, true)?;
    println!("\n--- partitioned recommendation ---");
    print!("{}", report::render(&rec_part));

    // Recommended layouts load into the row store first and let the mover
    // rebuild what the layout demands (this splits horizontal partitions
    // instead of routing the bulk load to the hot partition).
    let configs = [
        ("RS only", StoreKind::Row, None),
        ("CS only", StoreKind::Column, None),
        ("Table", StoreKind::Row, Some(&rec_table.layout)),
        ("Partitioned", StoreKind::Row, Some(&rec_part.layout)),
    ];
    let t = race(&workload, &configs, |&(_, store, layout)| {
        let db = load(store)?;
        if let Some(layout) = layout {
            mover::apply_layout(&db, layout)?;
        }
        Ok(db)
    })?;
    let rows: Vec<_> = configs
        .iter()
        .zip(&t)
        .map(|((name, ..), s)| vec![name.to_string(), fmt_s(*s)])
        .collect();
    let title = format!(
        "Figure 10: comparison of decisions on different levels (TPC-H scale factor {sf}, \
         orders={}, lineitem={}, {} queries, {:.1}% OLAP)",
        g.orders(),
        g.lineitems(),
        workload.len(),
        workload.olap_fraction() * 100.0
    );
    print_series(&title, "configuration|runtime (s)", &rows);
    Ok(fig10_claim(t[0], t[1], t[2], t[3]))
}
