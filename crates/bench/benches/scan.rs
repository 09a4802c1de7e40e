//! Scan-throughput benchmarks for the batched pipeline: block-decoded
//! bit-packing + selection vectors vs the per-element `get` baseline.
//! (The `benchmark/` harness tracks the same kernels as `bitpack.*` and
//! `column_store.*`.)

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hsd_bench::scan_workload::{build_table, conjunction, range_90pct, range_selective};
fn bench_unselective(c: &mut Criterion) {
    let table = build_table();
    let range = range_90pct();
    let mut group = c.benchmark_group("scan_unselective_1m");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("scalar_get"), |b| {
        b.iter(|| table.filter_rows_scalar(std::slice::from_ref(&range)).len())
    });
    group.bench_function(BenchmarkId::from_parameter("block_selvec"), |b| {
        b.iter(|| table.filter_selvec(std::slice::from_ref(&range)).count())
    });
    group.finish();
}

fn bench_selective(c: &mut Criterion) {
    let table = build_table();
    let range = range_selective();
    let mut group = c.benchmark_group("scan_selective_1m");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("scalar_get"), |b| {
        b.iter(|| table.filter_rows_scalar(std::slice::from_ref(&range)).len())
    });
    group.bench_function(BenchmarkId::from_parameter("block_selvec"), |b| {
        b.iter(|| table.filter_selvec(std::slice::from_ref(&range)).count())
    });
    group.finish();
}

fn bench_conjunction(c: &mut Criterion) {
    let table = build_table();
    let ranges = conjunction();
    let mut group = c.benchmark_group("scan_conjunction_1m");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("scalar_get"), |b| {
        b.iter(|| table.filter_rows_scalar(&ranges).len())
    });
    group.bench_function(BenchmarkId::from_parameter("block_selvec"), |b| {
        b.iter(|| table.filter_selvec(&ranges).count())
    });
    group.finish();
}

fn bench_aggregate_scan(c: &mut Criterion) {
    let table = build_table();
    let mut group = c.benchmark_group("aggregate_scan_1m");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("sum_block_decode"), |b| {
        b.iter(|| {
            let mut sum = 0.0;
            table.for_each_numeric_sel(1, None, |v| sum += v);
            sum
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_unselective,
    bench_selective,
    bench_conjunction,
    bench_aggregate_scan
);
criterion_main!(benches);
