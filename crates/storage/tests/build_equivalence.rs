//! The bulk builders against the insert path they replace.
//!
//! `ColumnTable::build` must produce exactly the table row-by-row inserts
//! followed by `compact` produce — the same segment bytes, merge epoch,
//! point lookups and memory — and `RowTable::build` the table row-by-row
//! inserts produce — the same rows, point lookups, filters and memory.
//! Rows mix NULLs, variable-width text, `-0.0`/`NaN` doubles and a column
//! whose dictionary sits at a code-width edge (1, 2, 2^k or 2^k + 1
//! distinct values).

use std::sync::Arc;

use proptest::prelude::*;

use hsd_storage::segment::encode_segment;
use hsd_storage::{
    ColRange, ColumnTable, RowSource, RowTable, StoreKind, Table, TableBuilder, BLOCK,
};
use hsd_types::{ColumnDef, ColumnType, Error, TableSchema, Value};

fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "b",
            vec![
                ColumnDef::new("k", ColumnType::Integer),
                ColumnDef::nullable("t", ColumnType::Varchar),
                ColumnDef::nullable("d", ColumnType::Double),
                ColumnDef::new("g", ColumnType::Integer),
            ],
            vec![0],
        )
        .unwrap(),
    )
}

const TEXTS: [&str; 5] = ["", "a", "ab", "a variable-width value", "zz"];
const DOUBLES: [f64; 7] = [0.0, -0.0, f64::NAN, 1.5, -2.25, f64::INFINITY, 1e300];
/// Dictionary sizes at the code-width edges.
const DISTINCT: [usize; 11] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65];

/// `spec[i]` picks row `i`'s text and double (some picks are NULL); keys
/// arrive out of order, and `g` cycles through `distinct` values in
/// descending order so first-seen codes differ from sorted ranks.
fn rows_of(spec: &[(u8, u8)], distinct: usize) -> Vec<Vec<Value>> {
    spec.iter()
        .enumerate()
        .map(|(i, &(t, d))| {
            let t = TEXTS.get(t as usize % 7).map_or(Value::Null, Value::text);
            let d = DOUBLES
                .get(d as usize % 9)
                .map_or(Value::Null, |&x| Value::Double(x));
            let g = (distinct - 1 - i % distinct) as i32;
            vec![Value::Int((i as i32 * 37) % 1009), t, d, Value::Int(g)]
        })
        .collect()
}

fn inserted_column(rows: &[Vec<Value>]) -> ColumnTable {
    let mut t = ColumnTable::new(schema());
    for row in rows {
        t.insert(row).unwrap();
    }
    t.compact();
    t
}

fn inserted_row(rows: &[Vec<Value>]) -> RowTable {
    let mut t = RowTable::new(schema());
    for row in rows {
        t.insert(row).unwrap();
    }
    t
}

/// Keys present in `rows`, plus two that are not.
fn probe_keys(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| vec![r[0].clone()])
        .chain([vec![Value::Int(-1)], vec![Value::Int(5000)]])
        .collect()
}

fn assert_same_column(built: &ColumnTable, inserted: &ColumnTable, rows: &[Vec<Value>]) {
    assert_eq!(encode_segment(built), encode_segment(inserted));
    assert_eq!(built.merge_epoch(), inserted.merge_epoch());
    assert_eq!(built.memory_bytes(), inserted.memory_bytes());
    for key in probe_keys(rows) {
        assert_eq!(built.point_lookup(&key), inserted.point_lookup(&key));
    }
}

fn assert_same_row(built: &RowTable, inserted: &RowTable, rows: &[Vec<Value>]) {
    assert_eq!(built.row_count(), inserted.row_count());
    for i in 0..rows.len() as u32 {
        assert_eq!(built.row(i), inserted.row(i));
    }
    for key in probe_keys(rows) {
        assert_eq!(built.point_lookup(&key), inserted.point_lookup(&key));
    }
    let ranges = [
        ColRange::between(3, Value::Int(1), Value::Int(8)),
        ColRange::ge(2, Value::Double(0.0)),
        ColRange::eq(1, Value::text("ab")),
        ColRange::between(2, Value::Null, Value::Null),
    ];
    for range in &ranges {
        let range = std::slice::from_ref(range);
        assert_eq!(built.filter_rows(range), inserted.filter_rows(range));
    }
    assert_eq!(built.memory_bytes(), inserted.memory_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn column_build_matches_insert_and_compact(
        spec in prop::collection::vec((any::<u8>(), any::<u8>()), 0..150),
        pick in 0usize..DISTINCT.len(),
    ) {
        let rows = rows_of(&spec, DISTINCT[pick]);
        let built = ColumnTable::build(schema(), rows.clone().into_iter()).unwrap();
        assert_same_column(&built, &inserted_column(&rows), &rows);
    }

    #[test]
    fn row_build_matches_inserts(
        spec in prop::collection::vec((any::<u8>(), any::<u8>()), 0..150),
        pick in 0usize..DISTINCT.len(),
    ) {
        let rows = rows_of(&spec, DISTINCT[pick]);
        let built = RowTable::build(schema(), rows.clone().into_iter()).unwrap();
        assert_same_row(&built, &inserted_row(&rows), &rows);
    }
}

/// Every code-width edge, each table sized so the last widening and the
/// word growth after it both happen.
#[test]
fn build_matches_at_every_width_edge() {
    for distinct in DISTINCT {
        for n in [distinct, distinct + 1, 3 * distinct + 7] {
            let spec: Vec<(u8, u8)> = (0..n).map(|i| (i as u8, (i * 5) as u8)).collect();
            let rows = rows_of(&spec, distinct);
            let built = ColumnTable::build(schema(), rows.clone().into_iter()).unwrap();
            assert_same_column(&built, &inserted_column(&rows), &rows);
        }
    }
}

#[test]
fn build_empty_and_one_row_tables() {
    for rows in [Vec::new(), rows_of(&[(2, 1)], 1)] {
        let built = ColumnTable::build(schema(), rows.clone().into_iter()).unwrap();
        assert_same_column(&built, &inserted_column(&rows), &rows);
        let built = RowTable::build(schema(), rows.clone().into_iter()).unwrap();
        assert_same_row(&built, &inserted_row(&rows), &rows);
    }
}

/// Tables as sources: a column table decodes block by block (the run
/// crosses several [`BLOCK`] boundaries), a row table hands out its arena.
#[test]
fn build_from_tables_crosses_blocks() {
    let spec: Vec<(u8, u8)> = (0..2 * BLOCK + 300)
        .map(|i| (i as u8, (i / 3) as u8))
        .collect();
    // Keys must stay unique past 1009 rows.
    let rows: Vec<Vec<Value>> = rows_of(&spec, 17)
        .into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            r[0] = Value::Int(i as i32);
            r
        })
        .collect();
    let col = ColumnTable::build(schema(), rows.clone().into_iter()).unwrap();
    let row = RowTable::build(schema(), &col).unwrap();
    assert_same_row(&row, &inserted_row(&rows), &rows);
    let col_again = ColumnTable::build(schema(), row).unwrap();
    assert_same_column(&col_again, &col, &rows);
    let via_table = Table::from_rows(schema(), StoreKind::Row, Table::Column(col)).unwrap();
    assert_eq!(via_table.into_rows().unwrap(), rows);
}

#[test]
fn build_refuses_bad_rows_and_keeps_the_prefix() {
    let rows = rows_of(&[(1, 1), (2, 2), (3, 3)], 2);
    let mut dup = rows.clone();
    dup.push(rows[1].clone());
    for store in StoreKind::BOTH {
        let err = Table::from_rows(schema(), store, dup.clone().into_iter()).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey(_)), "{err}");
        let mut builder = TableBuilder::new(schema(), store, 0);
        for row in &rows {
            builder.push(&mut row.clone()).unwrap();
        }
        // A refused row leaves the build as it was.
        let mut bad = vec![Value::Int(77), Value::Int(1), Value::Null, Value::Int(0)];
        assert!(builder.push(&mut bad).is_err());
        assert!(builder.push(&mut [Value::Int(78)]).is_err());
        assert!(builder.push(&mut rows[0].clone()).is_err());
        let table = builder.finish();
        assert_eq!(table.into_rows().unwrap(), rows);
    }
}

/// A build adopts a source table's key index only when both key the rows
/// on the same columns.
#[test]
fn build_adopts_a_key_index_only_over_the_same_key() {
    let rows = rows_of(&[(1, 1), (2, 2), (3, 3), (4, 4)], 3);
    let other = Arc::new(TableSchema::new("b2", schema().columns.clone(), vec![3, 0]).unwrap());
    let source = RowTable::build(schema(), rows.clone().into_iter()).unwrap();
    let rekeyed = ColumnTable::build(other, source).unwrap();
    for (i, r) in rows.iter().enumerate() {
        let key = [r[3].clone(), r[0].clone()];
        assert_eq!(rekeyed.point_lookup(&key), Some(i as u32));
        assert_eq!(rekeyed.point_lookup(&r[..1]), None);
    }
}
