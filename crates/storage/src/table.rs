//! Store-agnostic table facade, and the bulk-build surface every store
//! shares: a [`RowSource`] hands rows one at a time to a builder
//! ([`TableBuilder`], [`RowBuilder`], [`ColumnBuilder`]).

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use hsd_types::{ColumnIdx, Error, Result, TableSchema, Value};

use crate::column_store::{ColumnBuilder, ColumnTable};
use crate::predicate::{ColRange, RowSel};
use crate::row_store::{RowBuilder, RowTable};
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

/// Record `row`'s primary key as row `idx` of a store's uniqueness index,
/// or fail with [`Error::DuplicateKey`] leaving the index untouched — the
/// one key check inserts and bulk builds share.
pub(crate) fn claim_pk(
    pk: &mut HashMap<PkKey, u32>,
    schema: &TableSchema,
    row: &[Value],
    idx: u32,
) -> Result<()> {
    match pk.entry(pk_key_of(schema, row)) {
        Entry::Occupied(e) => Err(Error::DuplicateKey(format!(
            "{}: {:?}",
            schema.name,
            e.key()
        ))),
        Entry::Vacant(e) => {
            e.insert(idx);
            Ok(())
        }
    }
}

/// A bulk build's primary-key index: claimed key by key as rows arrive,
/// or adopted whole from a drained table ([`RowSource::take_pk_index`]).
#[derive(Debug)]
pub(crate) struct KeyIndex {
    map: HashMap<PkKey, u32>,
    /// Adopted whole: every key is already in, so claims are skipped.
    adopted: bool,
}

impl KeyIndex {
    pub(crate) fn with_capacity(rows: usize) -> Self {
        KeyIndex {
            map: HashMap::with_capacity(rows),
            adopted: false,
        }
    }

    pub(crate) fn claim(&mut self, schema: &TableSchema, row: &[Value], idx: u32) -> Result<()> {
        match self.adopted {
            true => Ok(()),
            false => claim_pk(&mut self.map, schema, row, idx),
        }
    }

    pub(crate) fn adopt(&mut self, map: HashMap<PkKey, u32>) {
        *self = KeyIndex { map, adopted: true };
    }

    pub(crate) fn contains(&self, key: &[Value]) -> bool {
        self.map.contains_key(key)
    }

    /// The index of the finished `rows`-row table. A map pre-sized past
    /// its rows shrinks to the bucket count inserting them would have
    /// grown.
    pub(crate) fn finish(mut self, rows: usize) -> HashMap<PkKey, u32> {
        debug_assert_eq!(self.map.len(), rows, "key index out of step with the rows");
        self.map.shrink_to(rows);
        self.map
    }
}

/// Where a bulk build reads its rows from: loaded rows, a drained table, a
/// snapshot. The source hands each row to `sink` as a mutable slice in
/// logical order, so the builder can move the values out instead of
/// cloning them; no source allocates a `Vec` per row.
pub trait RowSource: Sized {
    /// Rows the source expects to hand over (builders pre-size from it; a
    /// wrong hint costs time, never correctness).
    fn rows_hint(&self) -> usize;

    /// Hand every row, in order, to `sink`, stopping at (and returning) the
    /// first error the sink or the source reports.
    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()>;

    /// Give up the source's own primary-key index (key → row position), if
    /// it has one over the key columns `primary_key`; a borrowed table
    /// hands over a copy. A build that takes every row of the source, in
    /// order, into one table adopts it instead of hashing every key again
    /// (copying a map re-hashes nothing).
    fn take_pk_index(&mut self, _primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        None
    }

    /// Collect the rows as owned vectors (tests and small tools).
    fn into_rows(self) -> Result<Vec<Vec<Value>>> {
        let mut rows = Vec::with_capacity(self.rows_hint());
        self.drain_rows(&mut |row| {
            rows.push(row.to_vec());
            Ok(())
        })?;
        Ok(rows)
    }
}

/// Rows given as owned vectors, e.g. a generator's output.
impl<I: Iterator<Item = Vec<Value>>> RowSource for I {
    fn rows_hint(&self) -> usize {
        self.size_hint().0
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        for mut row in self {
            sink(&mut row)?;
        }
        Ok(())
    }
}

/// Draining a table: a row table moves its values out, a column table
/// decodes block by block.
impl RowSource for Table {
    fn rows_hint(&self) -> usize {
        self.row_count()
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        match self {
            Table::Row(t) => t.drain_rows(sink),
            Table::Column(t) => (&t).drain_rows(sink),
        }
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        match self {
            Table::Row(t) => t.take_pk_index(primary_key),
            Table::Column(t) => t.take_pk_index(primary_key),
        }
    }
}

/// Reading a table without draining it (values are cloned).
impl RowSource for &Table {
    fn rows_hint(&self) -> usize {
        self.row_count()
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        match self {
            Table::Row(t) => t.drain_rows(sink),
            Table::Column(t) => t.drain_rows(sink),
        }
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        match *self {
            Table::Row(t) => {
                let mut t = t;
                t.take_pk_index(primary_key)
            }
            Table::Column(t) => {
                let mut t = t;
                t.take_pk_index(primary_key)
            }
        }
    }
}

/// A bulk build into either store.
#[derive(Debug)]
pub enum TableBuilder {
    /// Building a row table.
    Row(RowBuilder),
    /// Building a column table.
    Column(ColumnBuilder),
}

impl TableBuilder {
    /// Start an empty build in `store`, pre-sized for `rows_hint` rows.
    pub fn new(schema: Arc<TableSchema>, store: StoreKind, rows_hint: usize) -> Self {
        match store {
            StoreKind::Row => TableBuilder::Row(RowBuilder::new(schema, rows_hint)),
            StoreKind::Column => TableBuilder::Column(ColumnBuilder::new(schema, rows_hint)),
        }
    }

    /// Append one row ([`RowBuilder::push`], [`ColumnBuilder::push`]).
    pub fn push(&mut self, row: &mut [Value]) -> Result<()> {
        match self {
            TableBuilder::Row(b) => b.push(row),
            TableBuilder::Column(b) => b.push(row),
        }
    }

    /// Whether a row with primary key `key` was already pushed.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        match self {
            TableBuilder::Row(b) => b.contains_key(key),
            TableBuilder::Column(b) => b.contains_key(key),
        }
    }

    /// Adopt a drained table's key index whole (see
    /// [`RowBuilder::adopt_pk_index`]).
    pub fn adopt_pk_index(&mut self, pk: HashMap<PkKey, u32>) {
        match self {
            TableBuilder::Row(b) => b.adopt_pk_index(pk),
            TableBuilder::Column(b) => b.adopt_pk_index(pk),
        }
    }

    /// The table holding every accepted row.
    pub fn finish(self) -> Table {
        match self {
            TableBuilder::Row(b) => Table::Row(b.finish()),
            TableBuilder::Column(b) => Table::Column(b.finish()),
        }
    }
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

    /// Write `col`'s values of rows `[start, start + rows.len() / width)`
    /// into slot `slot` of each `width`-wide row of the row-major `rows`
    /// (column stores decode block by block, see
    /// [`crate::column_store::ColumnData::fill_rows`]).
    pub fn fill_rows(
        &self,
        col: ColumnIdx,
        start: usize,
        rows: &mut [Value],
        width: usize,
        slot: usize,
    ) {
        match self {
            Table::Row(t) => {
                for (i, row) in rows.chunks_exact_mut(width).enumerate() {
                    row[slot] = t.value_at((start + i) as u32, col).clone();
                }
            }
            Table::Column(t) => t.column(col).fill_rows(start, rows, width, slot),
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

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Table::Row(t) => t.memory_bytes(),
            Table::Column(t) => t.memory_bytes(),
        }
    }

    /// Bulk-build a table in `store` from `rows` ([`RowTable::build`],
    /// [`ColumnTable::build`]): the table inserting the rows one by one
    /// (and, in the column store, merging the delta) produces. Fails on the
    /// first invalid or duplicate row.
    pub fn from_rows(
        schema: Arc<TableSchema>,
        store: StoreKind,
        rows: impl RowSource,
    ) -> Result<Self> {
        Ok(match store {
            StoreKind::Row => Table::Row(RowTable::build(schema, rows)?),
            StoreKind::Column => Table::Column(ColumnTable::build(schema, rows)?),
        })
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
        let moved = Table::from_rows(schema(), StoreKind::Column, t).unwrap();
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
