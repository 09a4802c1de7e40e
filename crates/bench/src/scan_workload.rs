//! Shared workload for the scan-throughput benchmarks (`benches/scan.rs`):
//! a 1M-row column-store table with a mid-cardinality bit-packed
//! attribute, plus the predicates the benchmarks scan with.

use std::sync::Arc;

use hsd_storage::{ColRange, ColumnTable};
use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};

/// Rows in the benchmark table.
pub const ROWS: usize = 1_000_000;

/// Distinct values of the scanned attribute (13-bit packed codes).
pub const VAL_DOMAIN: u32 = 8192;

/// Distinct values of the second (conjunction) attribute.
pub const GRP_DOMAIN: u32 = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Benchmark schema: `id` (BigInt PK), `val` (Integer, [`VAL_DOMAIN`]
/// distinct), `grp` (Integer, [`GRP_DOMAIN`] distinct).
pub fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "scan",
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("val", ColumnType::Integer),
                ColumnDef::new("grp", ColumnType::Integer),
            ],
            vec![0],
        )
        .unwrap(),
    )
}

/// Build (and compact) the benchmark table with `ROWS` deterministic rows.
pub fn build_table() -> ColumnTable {
    let mut t = ColumnTable::new(schema());
    for i in 0..ROWS as u64 {
        let h = splitmix64(i);
        t.insert(&[
            Value::BigInt(i as i64),
            Value::Int((h % VAL_DOMAIN as u64) as i32),
            Value::Int((h >> 32) as i32 & (GRP_DOMAIN as i32 - 1)),
        ])
        .expect("benchmark rows are unique");
    }
    t.compact();
    t
}

/// The unselective predicate (matches ≈ 95% of rows): the acceptance
/// criterion's "unselective 1M-row single-column range scan".
pub fn range_90pct() -> ColRange {
    ColRange::between(
        1,
        Value::Int((VAL_DOMAIN / 20) as i32),
        Value::Int(VAL_DOMAIN as i32),
    )
}

/// Selective predicate (matches ≈ 0.1% of rows).
pub fn range_selective() -> ColRange {
    ColRange::between(1, Value::Int(0), Value::Int(7))
}

/// A two-column conjunction (≈ 95% × 50%).
pub fn conjunction() -> Vec<ColRange> {
    vec![
        range_90pct(),
        ColRange::between(2, Value::Int(0), Value::Int((GRP_DOMAIN / 2) as i32 - 1)),
    ]
}
