//! Ablations of the design choices called out in DESIGN.md:
//!
//! * dictionary tail (delta) vs. compacted dictionary (selection cost);
//! * the sorted dictionary's implicit index (code-interval matching) vs. a
//!   row-store scan without a secondary index;
//! * exact store-combination enumeration vs. greedy local search in the
//!   table-level advisor.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hsd_catalog::{ColumnStats, TableStats};
use hsd_core::{AdjustmentFn, CostModel, StorageAdvisor};
use hsd_query::{
    AggFunc, Aggregate, AggregateQuery, JoinSpec, MixedWorkloadConfig, Query, TableSpec,
    WorkloadGenerator,
};
use hsd_storage::{ColRange, ColumnTable, RowTable};
use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};

const ROWS: usize = 200_000;

fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("kf", ColumnType::Double),
                ColumnDef::new("flt", ColumnType::Integer),
            ],
            vec![0],
        )
        .unwrap(),
    )
}

fn fill(t: &mut ColumnTable) {
    for i in 0..ROWS as i64 {
        t.insert(&[
            Value::BigInt(i),
            Value::Double((i % 5000) as f64 / 4.0),
            Value::Int((i * 37 % 10_000) as i32),
        ])
        .unwrap();
    }
    t.compact();
}

/// Dictionary tail (un-merged delta) vs compacted dictionary: range filter.
fn bench_delta_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_delta_tail_filter");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    let range = ColRange::between(1, Value::Double(100.0), Value::Double(400.0));
    for (label, compact) in [("compacted", true), ("with_tail", false)] {
        let mut t = ColumnTable::new(schema());
        fill(&mut t);
        // 5% of rows updated to fresh values -> dictionary tail grows.
        let rows: Vec<u32> = (0..ROWS as u32).step_by(20).collect();
        for (k, idx) in rows.iter().enumerate() {
            t.update_rows(&[*idx], &[(1, Value::Double(10_000.0 + k as f64))])
                .unwrap();
        }
        if compact {
            t.compact();
        }
        println!(
            "[ablation_delta] {label}: tail entries = {}",
            t.tail_total()
        );
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| t.filter_rows(std::slice::from_ref(&range)).len())
        });
    }
    group.finish();
}

/// Implicit dictionary index vs row-store scan without secondary index vs
/// row-store with a secondary index.
fn bench_implicit_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_selection_paths");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    let range = ColRange::between(2, Value::Int(0), Value::Int(99));

    let mut ct = ColumnTable::new(schema());
    fill(&mut ct);
    group.bench_function("column_dictionary_index", |b| {
        b.iter(|| ct.filter_rows(std::slice::from_ref(&range)).len())
    });

    let mut rt = RowTable::new(schema());
    for i in 0..ROWS as i64 {
        rt.insert(&[
            Value::BigInt(i),
            Value::Double((i % 5000) as f64 / 4.0),
            Value::Int((i * 37 % 10_000) as i32),
        ])
        .unwrap();
    }
    group.bench_function("row_table_scan", |b| {
        b.iter(|| rt.filter_rows(std::slice::from_ref(&range)).len())
    });
    rt.create_index(2).unwrap();
    group.bench_function("row_secondary_index", |b| {
        b.iter(|| rt.filter_rows(std::slice::from_ref(&range)).len())
    });
    group.finish();
}

/// Exact enumeration vs greedy local search in the table-level advisor, on
/// a 10-table schema with join coupling.
fn bench_advisor_search(c: &mut Criterion) {
    let mut m = CostModel::neutral();
    m.row.f_rows = AdjustmentFn::Linear {
        slope: 1e-3,
        intercept: 0.05,
    };
    m.column.f_rows = AdjustmentFn::Linear {
        slope: 1e-4,
        intercept: 0.05,
    };
    m.row.ins_row = AdjustmentFn::Constant(0.001);
    m.column.ins_row = AdjustmentFn::Constant(0.005);
    m.join_factor = [[1.0, 2.5], [2.5, 1.0]];

    let tables = 10usize;
    let mut schemas = Vec::new();
    let mut stats: BTreeMap<String, TableStats> = BTreeMap::new();
    let mut queries = Vec::new();
    for t in 0..tables {
        let name = format!("t{t}");
        let spec = TableSpec::paper_wide(&name, 100_000, t as u64);
        schemas.push(Arc::new(spec.schema().unwrap()));
        stats.insert(
            name.clone(),
            TableStats {
                row_count: spec.rows,
                columns: (0..spec.arity())
                    .map(|_| ColumnStats {
                        distinct: 1000,
                        min: Some(Value::BigInt(0)),
                        max: Some(Value::BigInt(spec.rows as i64)),
                        compression_rate: 0.9,
                    })
                    .collect(),
            },
        );
        let w = WorkloadGenerator::single_table(
            &spec,
            &MixedWorkloadConfig {
                queries: 40,
                olap_fraction: 0.1 * (t % 3) as f64,
                seed: t as u64,
                ..Default::default()
            },
        );
        queries.extend(w.queries);
        if t > 0 {
            // couple neighbouring tables with a join query
            let mut q = AggregateQuery {
                table: format!("t{t}"),
                aggregates: vec![Aggregate {
                    func: AggFunc::Sum,
                    column: 1,
                }],
                group_by: None,
                filter: vec![],
                join: None,
            };
            q.join = Some(JoinSpec {
                dim_table: format!("t{}", t - 1),
                fact_fk: 0,
                dim_pk: 0,
                group_by_dim: Some(11),
            });
            queries.push(Query::Aggregate(q));
        }
    }
    let workload = hsd_query::Workload::from_queries(queries);

    let mut group = c.benchmark_group("ablation_advisor_search");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let mut exact = StorageAdvisor::new(m.clone());
    exact.exact_search_limit = 16;
    group.bench_function("exact_enumeration_10_tables", |b| {
        b.iter(|| {
            exact
                .recommend_offline(&schemas, &stats, &workload, false)
                .unwrap()
        })
    });
    let mut greedy = StorageAdvisor::new(m);
    greedy.exact_search_limit = 0;
    group.bench_function("greedy_local_search_10_tables", |b| {
        b.iter(|| {
            greedy
                .recommend_offline(&schemas, &stats, &workload, false)
                .unwrap()
        })
    });
    // sanity: both find layouts; print agreement
    let e = exact
        .recommend_offline(&schemas, &stats, &workload, false)
        .unwrap();
    let g = greedy
        .recommend_offline(&schemas, &stats, &workload, false)
        .unwrap();
    println!(
        "[ablation_advisor] exact est {:.2} ms, greedy est {:.2} ms, layouts agree: {}",
        e.estimated_ms,
        g.estimated_ms,
        e.layout == g.layout
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_delta_tail,
    bench_implicit_index,
    bench_advisor_search
);
criterion_main!(benches);
