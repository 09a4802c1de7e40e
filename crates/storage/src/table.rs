//! Store-agnostic table facade.

use std::sync::Arc;

use hsd_types::{ColumnIdx, Result, TableSchema, Value};

use crate::column_store::ColumnTable;
use crate::predicate::{ColRange, RowSel};
use crate::row_store::RowTable;
use crate::selvec::SelVec;

/// Which of the two stores a table (or partition) lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StoreKind {
    /// Row-oriented storage.
    Row,
    /// Column-oriented storage.
    Column,
}

impl StoreKind {
    /// Both stores, row first (stable order for enumerations).
    pub const BOTH: [StoreKind; 2] = [StoreKind::Row, StoreKind::Column];

    /// The other store.
    pub fn other(self) -> StoreKind {
        match self {
            StoreKind::Row => StoreKind::Column,
            StoreKind::Column => StoreKind::Row,
        }
    }

    /// Short name used in reports ("RS" / "CS"), matching the paper.
    pub fn abbrev(self) -> &'static str {
        match self {
            StoreKind::Row => "RS",
            StoreKind::Column => "CS",
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Materialized primary-key value, used by both stores' uniqueness indexes.
pub type PkKey = Box<[Value]>;

/// Extract the primary-key values of `row` under `schema`.
pub fn pk_key_of(schema: &TableSchema, row: &[Value]) -> PkKey {
    schema.primary_key.iter().map(|&i| row[i].clone()).collect()
}

/// A table stored in either the row or the column store, with a uniform
/// interface for the execution engine.
#[derive(Debug, Clone)]
pub enum Table {
    /// Row-store resident table.
    Row(RowTable),
    /// Column-store resident table.
    Column(ColumnTable),
}

impl Table {
    /// Create an empty table in the given store.
    pub fn new(schema: Arc<TableSchema>, store: StoreKind) -> Self {
        match store {
            StoreKind::Row => Table::Row(RowTable::new(schema)),
            StoreKind::Column => Table::Column(ColumnTable::new(schema)),
        }
    }

    /// Which store this table lives in.
    pub fn store_kind(&self) -> StoreKind {
        match self {
            Table::Row(_) => StoreKind::Row,
            Table::Column(_) => StoreKind::Column,
        }
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<TableSchema> {
        match self {
            Table::Row(t) => t.schema(),
            Table::Column(t) => t.schema(),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        match self {
            Table::Row(t) => t.row_count(),
            Table::Column(t) => t.row_count(),
        }
    }

    /// Insert a row.
    pub fn insert(&mut self, row: &[Value]) -> Result<u32> {
        match self {
            Table::Row(t) => t.insert(row),
            Table::Column(t) => t.insert(row),
        }
    }

    /// Borrow a single attribute.
    #[inline]
    pub fn value_at(&self, idx: u32, col: ColumnIdx) -> &Value {
        match self {
            Table::Row(t) => t.value_at(idx, col),
            Table::Column(t) => t.value_at(idx, col),
        }
    }

    /// Materialize the full tuple at `idx`.
    pub fn row(&self, idx: u32) -> Vec<Value> {
        match self {
            Table::Row(t) => t.row(idx).to_vec(),
            Table::Column(t) => t.row(idx),
        }
    }

    /// Find a row by primary key.
    pub fn point_lookup(&self, key: &[Value]) -> Option<u32> {
        match self {
            Table::Row(t) => t.point_lookup(key),
            Table::Column(t) => t.point_lookup(key),
        }
    }

    /// Row indexes matching all ranges (ascending).
    pub fn filter_rows(&self, ranges: &[ColRange]) -> Vec<u32> {
        match self {
            Table::Row(t) => t.filter_rows(ranges),
            Table::Column(t) => t.filter_rows(ranges),
        }
    }

    /// The selection matching all ranges as a bitmap (the engine's batched
    /// scan pipeline; see [`crate::selvec::SelVec`]).
    pub fn filter_selvec(&self, ranges: &[ColRange]) -> SelVec {
        match self {
            Table::Row(t) => t.filter_selvec(ranges),
            Table::Column(t) => t.filter_selvec(ranges),
        }
    }

    /// Visit numeric values of `col` for the rows selected by `sel`
    /// (`None` = all rows).
    pub fn for_each_numeric_sel(&self, col: ColumnIdx, sel: Option<&SelVec>, f: impl FnMut(f64)) {
        match self {
            Table::Row(t) => t.for_each_numeric_sel(col, sel, f),
            Table::Column(t) => t.for_each_numeric_sel(col, sel, f),
        }
    }

    /// Update rows with the given assignments.
    pub fn update_rows(&mut self, rows: &[u32], sets: &[(ColumnIdx, Value)]) -> Result<usize> {
        match self {
            Table::Row(t) => t.update_rows(rows, sets),
            Table::Column(t) => t.update_rows(rows, sets),
        }
    }

    /// Visit numeric values of `col` over `sel`.
    pub fn for_each_numeric(&self, col: ColumnIdx, sel: RowSel<'_>, f: impl FnMut(f64)) {
        match self {
            Table::Row(t) => t.for_each_numeric(col, sel, f),
            Table::Column(t) => t.for_each_numeric(col, sel, f),
        }
    }

    /// Visit values of `col` over `sel`.
    pub fn for_each_value(&self, col: ColumnIdx, sel: RowSel<'_>, f: impl FnMut(&Value)) {
        match self {
            Table::Row(t) => t.for_each_value(col, sel, f),
            Table::Column(t) => t.for_each_value(col, sel, f),
        }
    }

    /// Materialize selected rows with optional projection.
    pub fn collect_rows(&self, sel: RowSel<'_>, cols: Option<&[ColumnIdx]>) -> Vec<Vec<Value>> {
        match self {
            Table::Row(t) => t.collect_rows(sel, cols),
            Table::Column(t) => t.collect_rows(sel, cols),
        }
    }

    /// The column-store table, if this table lives in the column store —
    /// the only store with a dictionary delta to merge.
    pub fn as_column(&self) -> Option<&ColumnTable> {
        match self {
            Table::Row(_) => None,
            Table::Column(t) => Some(t),
        }
    }

    /// Mutable [`Table::as_column`].
    pub fn as_column_mut(&mut self) -> Option<&mut ColumnTable> {
        match self {
            Table::Row(_) => None,
            Table::Column(t) => Some(t),
        }
    }

    /// Count distinct values of `col`.
    pub fn distinct_count(&self, col: ColumnIdx) -> usize {
        match self {
            Table::Row(t) => t.distinct_count(col),
            Table::Column(t) => t.distinct_count(col),
        }
    }

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Table::Row(t) => t.memory_bytes(),
            Table::Column(t) => t.memory_bytes(),
        }
    }

    /// Drain into raw rows (for data movement between stores).
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        match self {
            Table::Row(t) => t.into_rows(),
            Table::Column(t) => t.into_rows(),
        }
    }

    /// Bulk-build a table in `store` from rows.
    pub fn from_rows<I>(schema: Arc<TableSchema>, store: StoreKind, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut table = Table::new(schema, store);
        for row in rows {
            table.insert(&row)?;
        }
        if let Table::Column(t) = &mut table {
            t.compact();
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_types::{ColumnDef, ColumnType};

    fn schema() -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Integer),
                    ColumnDef::new("v", ColumnType::Double),
                ],
                vec![0],
            )
            .unwrap(),
        )
    }

    #[test]
    fn store_kind_helpers() {
        assert_eq!(StoreKind::Row.other(), StoreKind::Column);
        assert_eq!(StoreKind::Column.abbrev(), "CS");
        assert_eq!(StoreKind::Row.to_string(), "RS");
    }

    #[test]
    fn both_stores_agree_on_basic_ops() {
        for store in StoreKind::BOTH {
            let mut t = Table::new(schema(), store);
            assert_eq!(t.store_kind(), store);
            for i in 0..5 {
                t.insert(&[Value::Int(i), Value::Double(i as f64)]).unwrap();
            }
            assert_eq!(t.row_count(), 5);
            assert_eq!(t.row(2), vec![Value::Int(2), Value::Double(2.0)]);
            assert_eq!(t.point_lookup(&[Value::Int(4)]), Some(4));
            let hits = t.filter_rows(&[ColRange::ge(1, Value::Double(3.0))]);
            assert_eq!(hits, vec![3, 4]);
            t.update_rows(&[0], &[(1, Value::Double(10.0))]).unwrap();
            assert_eq!(t.value_at(0, 1), &Value::Double(10.0));
            let mut sum = 0.0;
            t.for_each_numeric(1, RowSel::All, |v| sum += v);
            assert_eq!(sum, 10.0 + 1.0 + 2.0 + 3.0 + 4.0);
        }
    }

    #[test]
    fn move_between_stores_preserves_rows() {
        let mut t = Table::new(schema(), StoreKind::Row);
        for i in 0..8 {
            t.insert(&[Value::Int(i), Value::Double(i as f64 * 2.0)])
                .unwrap();
        }
        let rows = t.into_rows();
        let moved = Table::from_rows(schema(), StoreKind::Column, rows).unwrap();
        assert_eq!(moved.store_kind(), StoreKind::Column);
        assert_eq!(moved.row_count(), 8);
        assert_eq!(moved.row(7), vec![Value::Int(7), Value::Double(14.0)]);
    }

    #[test]
    fn pk_key_extraction() {
        let s = schema();
        let key = pk_key_of(&s, &[Value::Int(3), Value::Double(1.0)]);
        assert_eq!(&*key, &[Value::Int(3)]);
    }
}
