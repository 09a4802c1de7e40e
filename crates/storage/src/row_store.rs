//! The row store: fixed-width tuple arena with a primary-key hash index and
//! optional ordered secondary indexes.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use hsd_types::{ColumnIdx, Error, Result, TableSchema, Value};

use crate::predicate::{ColRange, RowSel};
use crate::selvec::SelVec;
use crate::table::{claim_pk, KeyIndex, PkKey, RowSource};

/// A row-oriented table.
///
/// All tuples live back-to-back in one `Vec<Value>` arena (`width` slots per
/// row), so whole-tuple operations (insert, point read, update) touch one
/// contiguous region, while single-attribute scans must stride across entire
/// tuples — the access-pattern asymmetry of Figure 1 in the paper.
#[derive(Debug, Clone)]
pub struct RowTable {
    schema: Arc<TableSchema>,
    width: usize,
    data: Vec<Value>,
    pk: HashMap<PkKey, u32>,
    secondary: HashMap<ColumnIdx, BTreeMap<Value, Vec<u32>>>,
}

impl RowTable {
    /// Empty table for `schema`.
    pub fn new(schema: Arc<TableSchema>) -> Self {
        let width = schema.arity();
        RowTable {
            schema,
            width,
            data: Vec::new(),
            pk: HashMap::new(),
            secondary: HashMap::new(),
        }
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Insert a row; enforces schema validity and primary-key uniqueness.
    ///
    /// The uniqueness check is why the paper's insert cost model carries an
    /// `f_#rows` adjustment: verification work depends on the table size.
    pub fn insert(&mut self, row: &[Value]) -> Result<u32> {
        self.schema.validate_row(row)?;
        let idx = self.row_count() as u32;
        claim_pk(&mut self.pk, &self.schema, row, idx)?;
        self.data.extend_from_slice(row);
        for (&col, index) in &mut self.secondary {
            index.entry(row[col].clone()).or_default().push(idx);
        }
        Ok(idx)
    }

    /// Borrow the row at `idx` as a slice.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn row(&self, idx: u32) -> &[Value] {
        let start = idx as usize * self.width;
        &self.data[start..start + self.width]
    }

    /// Borrow a single attribute of a row.
    #[inline]
    pub fn value_at(&self, idx: u32, col: ColumnIdx) -> &Value {
        &self.data[idx as usize * self.width + col]
    }

    /// Find the row index for a primary key, if present.
    pub fn point_lookup(&self, key: &[Value]) -> Option<u32> {
        self.pk.get(key).copied()
    }

    /// Create an ordered secondary index on `col` (idempotent).
    pub fn create_index(&mut self, col: ColumnIdx) -> Result<()> {
        self.schema.column(col)?;
        if self.secondary.contains_key(&col) {
            return Ok(());
        }
        let mut index: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        for idx in 0..self.row_count() as u32 {
            index
                .entry(self.value_at(idx, col).clone())
                .or_default()
                .push(idx);
        }
        self.secondary.insert(col, index);
        Ok(())
    }

    /// Whether `col` has a secondary index.
    pub fn has_index(&self, col: ColumnIdx) -> bool {
        self.secondary.contains_key(&col)
    }

    /// Row indexes matching *all* of `ranges` (conjunction), ascending.
    ///
    /// If a secondary index exists for one of the ranges, that index drives
    /// the scan and the remaining ranges are verified per candidate — the
    /// paper's "linear in selectivity if an index is available". Otherwise a
    /// full table scan verifies every range on every row ("constant:
    /// a table scan is executed").
    pub fn filter_rows(&self, ranges: &[ColRange]) -> Vec<u32> {
        if ranges.is_empty() {
            return (0..self.row_count() as u32).collect();
        }
        // Prefer an indexed equality range, then any indexed range.
        let indexed = ranges
            .iter()
            .position(|r| self.secondary.contains_key(&r.column) && r.as_eq().is_some())
            .or_else(|| {
                ranges
                    .iter()
                    .position(|r| self.secondary.contains_key(&r.column))
            });
        match indexed {
            Some(i) => {
                let driver = &ranges[i];
                let (lo, hi) = (driver.lo_ref(), driver.hi_ref());
                // An empty interval (start past the end) matches nothing;
                // `BTreeMap::range` would panic on it.
                let empty = match (lo, hi) {
                    (Bound::Included(a), Bound::Included(b)) => a > b,
                    (Bound::Included(a) | Bound::Excluded(a), Bound::Excluded(b))
                    | (Bound::Excluded(a), Bound::Included(b)) => a >= b,
                    _ => false,
                };
                if empty {
                    return Vec::new();
                }
                let index = &self.secondary[&driver.column];
                let mut out: Vec<u32> = Vec::new();
                for (_, rows) in index.range((lo, hi)) {
                    out.extend_from_slice(rows);
                }
                // Re-check every range (including the driver: the BTree range
                // can surface NULL keys under an unbounded lower end, and
                // ColRange::matches applies SQL NULL semantics).
                out.retain(|&idx| {
                    ranges
                        .iter()
                        .all(|r| r.matches(self.value_at(idx, r.column)))
                });
                out.sort_unstable();
                out
            }
            None => {
                let mut out = Vec::new();
                for idx in 0..self.row_count() as u32 {
                    if ranges
                        .iter()
                        .all(|r| r.matches(self.value_at(idx, r.column)))
                    {
                        out.push(idx);
                    }
                }
                out
            }
        }
    }

    /// The selection matching *all* of `ranges` as a bitmap — the row
    /// store's interop point with the engine's selection-vector pipeline.
    ///
    /// The row store has no code domain to batch over, so this evaluates
    /// through [`RowTable::filter_rows`] (index-driven when possible) and
    /// converts; the payoff is downstream, where conjunctions with
    /// column-store fragments become word-wise `AND`s.
    pub fn filter_selvec(&self, ranges: &[ColRange]) -> SelVec {
        if ranges.is_empty() {
            return SelVec::all(self.row_count());
        }
        SelVec::from_row_ids(self.row_count(), &self.filter_rows(ranges))
    }

    /// Visit the numeric value of `col` for the rows selected by `sel`
    /// (`None` = all rows) — selection-vector counterpart of
    /// [`RowTable::for_each_numeric`].
    pub fn for_each_numeric_sel(
        &self,
        col: ColumnIdx,
        sel: Option<&SelVec>,
        mut f: impl FnMut(f64),
    ) {
        match sel {
            None => self.for_each_numeric(col, RowSel::All, &mut f),
            Some(sv) => {
                for idx in sv.iter() {
                    if let Some(v) = self.value_at(idx, col).as_f64() {
                        f(v);
                    }
                }
            }
        }
    }

    /// Update the given rows, assigning each `(column, value)` pair.
    ///
    /// Primary-key columns cannot be updated (matching the engine's
    /// semantics; the paper's workloads never mutate keys).
    pub fn update_rows(&mut self, rows: &[u32], sets: &[(ColumnIdx, Value)]) -> Result<usize> {
        for (col, value) in sets {
            if self.schema.is_pk_column(*col) {
                return Err(Error::InvalidOperation(format!(
                    "cannot update primary-key column {} of {}",
                    self.schema.column(*col)?.name,
                    self.schema.name
                )));
            }
            self.schema.validate_value_at(*col, value)?;
        }
        for &idx in rows {
            if idx as usize >= self.row_count() {
                return Err(Error::NotFound(format!(
                    "row {idx} in {}",
                    self.schema.name
                )));
            }
        }
        for &idx in rows {
            for (col, value) in sets {
                let slot = idx as usize * self.width + col;
                if let Some(index) = self.secondary.get_mut(col) {
                    let old = self.data[slot].clone();
                    if let Some(list) = index.get_mut(&old) {
                        list.retain(|&r| r != idx);
                        if list.is_empty() {
                            index.remove(&old);
                        }
                    }
                    index.entry(value.clone()).or_default().push(idx);
                }
                self.data[slot] = value.clone();
            }
        }
        Ok(rows.len())
    }

    /// Visit the numeric value of `col` for the selected rows.
    ///
    /// Non-numeric or NULL values are skipped. This is the row store's
    /// aggregation path: note it walks the arena at `width`-sized strides.
    pub fn for_each_numeric(&self, col: ColumnIdx, sel: RowSel<'_>, mut f: impl FnMut(f64)) {
        match sel {
            RowSel::All => {
                let mut pos = col;
                let n = self.row_count();
                for _ in 0..n {
                    if let Some(v) = self.data[pos].as_f64() {
                        f(v);
                    }
                    pos += self.width;
                }
            }
            RowSel::Subset(rows) => {
                for &idx in rows {
                    if let Some(v) = self.value_at(idx, col).as_f64() {
                        f(v);
                    }
                }
            }
        }
    }

    /// Visit the value of `col` for the selected rows.
    pub fn for_each_value(&self, col: ColumnIdx, sel: RowSel<'_>, mut f: impl FnMut(&Value)) {
        match sel {
            RowSel::All => {
                let mut pos = col;
                for _ in 0..self.row_count() {
                    f(&self.data[pos]);
                    pos += self.width;
                }
            }
            RowSel::Subset(rows) => {
                for &idx in rows {
                    f(self.value_at(idx, col));
                }
            }
        }
    }

    /// Materialize the selected rows, optionally projecting to `cols`.
    pub fn collect_rows(&self, sel: RowSel<'_>, cols: Option<&[ColumnIdx]>) -> Vec<Vec<Value>> {
        let emit = |idx: u32| -> Vec<Value> {
            match cols {
                None => self.row(idx).to_vec(),
                Some(cols) => cols
                    .iter()
                    .map(|&c| self.value_at(idx, c).clone())
                    .collect(),
            }
        };
        match sel {
            RowSel::All => (0..self.row_count() as u32).map(emit).collect(),
            RowSel::Subset(rows) => rows.iter().map(|&r| emit(r)).collect(),
        }
    }

    /// Approximate heap bytes held by the table (arena + indexes).
    pub fn memory_bytes(&self) -> usize {
        let value = std::mem::size_of::<Value>();
        let arena = self.data.capacity() * value;
        let pk = self.pk.capacity() * (value * self.schema.primary_key.len() + 8);
        let secondary: usize = self
            .secondary
            .values()
            .map(|ix| ix.len() * (value + 16))
            .sum();
        arena + pk + secondary
    }

    /// Bulk-build a row table from `rows` ([`RowBuilder`]): the table
    /// inserting them one by one produces. Fails on the first invalid or
    /// duplicate row.
    pub fn build(schema: Arc<TableSchema>, mut rows: impl RowSource) -> Result<Self> {
        let mut builder = RowBuilder::new(schema.clone(), rows.rows_hint());
        if let Some(pk) = rows.take_pk_index(&schema.primary_key) {
            builder.adopt_pk_index(pk);
        }
        rows.drain_rows(&mut |row| builder.push(row))?;
        Ok(builder.finish())
    }
}

/// Draining a row table hands out its arena in place: the rows are slices
/// of the one allocation, and the builder moves the values out.
impl RowSource for RowTable {
    fn rows_hint(&self) -> usize {
        self.row_count()
    }

    fn drain_rows(mut self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        for row in self.data.chunks_exact_mut(self.width) {
            sink(row)?;
        }
        Ok(())
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        (self.schema.primary_key == primary_key).then(|| std::mem::take(&mut self.pk))
    }
}

/// Reading a row table without draining it: each row is cloned into one
/// reused scratch row.
impl RowSource for &RowTable {
    fn rows_hint(&self) -> usize {
        self.row_count()
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        let mut scratch = vec![Value::Null; self.width];
        for row in self.data.chunks_exact(self.width) {
            scratch.clone_from_slice(row);
            sink(&mut scratch)?;
        }
        Ok(())
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        (self.schema.primary_key == primary_key).then(|| self.pk.clone())
    }
}

/// The capacity a `Vec` reaches when `len` elements are appended to an
/// empty one `step` at a time under the standard library's amortized
/// doubling (at least 4 slots, then `max(2 × capacity, needed)`). Bulk
/// builds reserve exactly this, so a built table holds — and a later
/// insert grows — the same memory as one filled by inserts.
pub(crate) fn amortized_capacity(len: usize, step: usize) -> usize {
    let step = step.max(1);
    let mut cap = 0;
    while cap < len {
        cap = (cap * 2).max((cap / step + 1) * step).max(4);
    }
    cap
}

/// Builds a [`RowTable`] from rows handed over one at a time — the bulk
/// path of loads, moves and restores.
///
/// Each accepted row's values are moved into the arena and its key into
/// the primary-key map, both pre-sized from the caller's row hint;
/// [`RowBuilder::finish`] settles both at the capacity row-by-row inserts
/// would have reached.
#[derive(Debug)]
pub struct RowBuilder {
    table: RowTable,
    keys: KeyIndex,
}

impl RowBuilder {
    /// Start an empty build pre-sized for `rows_hint` rows.
    pub fn new(schema: Arc<TableSchema>, rows_hint: usize) -> Self {
        let mut table = RowTable::new(schema);
        table.data = Vec::with_capacity(amortized_capacity(rows_hint * table.width, table.width));
        RowBuilder {
            table,
            keys: KeyIndex::with_capacity(rows_hint),
        }
    }

    /// Append one row, moving its values out (they are left `NULL`); a row
    /// that fails schema validation or repeats a primary key is refused and
    /// nothing changes.
    pub fn push(&mut self, row: &mut [Value]) -> Result<()> {
        let t = &mut self.table;
        t.schema.validate_row(row)?;
        self.keys.claim(&t.schema, row, t.row_count() as u32)?;
        t.data
            .extend(row.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
        Ok(())
    }

    /// Whether a row with primary key `key` was already pushed.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.keys.contains(key)
    }

    /// Adopt `pk` as the table's primary-key index instead of hashing every
    /// pushed key ([`RowSource::take_pk_index`]). Only for a build that is
    /// then handed every row of the index's table, in order; pushes no
    /// longer check keys.
    pub fn adopt_pk_index(&mut self, pk: HashMap<PkKey, u32>) {
        self.keys.adopt(pk);
    }

    /// The table holding every accepted row.
    pub fn finish(self) -> RowTable {
        let mut t = self.table;
        let target = amortized_capacity(t.data.len(), t.width);
        if t.data.capacity() > target {
            t.data.shrink_to(target);
        } else {
            t.data.reserve_exact(target - t.data.len());
        }
        t.pk = self.keys.finish(t.row_count());
        t
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
                    ColumnDef::new("price", ColumnType::Double),
                    ColumnDef::new("qty", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap(),
        )
    }

    fn sample() -> RowTable {
        let mut t = RowTable::new(schema());
        for i in 0..10 {
            t.insert(&[
                Value::Int(i),
                Value::Double(i as f64 * 1.5),
                Value::Int(i % 3),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_and_read_back() {
        let t = sample();
        assert_eq!(t.row_count(), 10);
        assert_eq!(
            t.row(3),
            &[Value::Int(3), Value::Double(4.5), Value::Int(0)]
        );
        assert_eq!(t.value_at(4, 1), &Value::Double(6.0));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = sample();
        let err = t
            .insert(&[Value::Int(5), Value::Double(0.0), Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateKey(_)));
        assert_eq!(t.row_count(), 10);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = sample();
        assert!(t
            .insert(&[Value::Int(100), Value::Int(1), Value::Int(0)])
            .is_err());
        assert!(t.insert(&[Value::Int(100)]).is_err());
    }

    #[test]
    fn point_lookup_finds_rows() {
        let t = sample();
        assert_eq!(t.point_lookup(&[Value::Int(7)]), Some(7));
        assert_eq!(t.point_lookup(&[Value::Int(77)]), None);
    }

    #[test]
    fn filter_without_index_scans() {
        let t = sample();
        let hits = t.filter_rows(&[ColRange::between(2, Value::Int(1), Value::Int(1))]);
        assert_eq!(hits, vec![1, 4, 7]);
        // conjunction
        let hits = t.filter_rows(&[
            ColRange::eq(2, Value::Int(1)),
            ColRange::ge(0, Value::Int(4)),
        ]);
        assert_eq!(hits, vec![4, 7]);
    }

    #[test]
    fn filter_with_index_matches_scan() {
        let mut t = sample();
        let no_index =
            t.filter_rows(&[ColRange::between(1, Value::Double(3.0), Value::Double(9.0))]);
        t.create_index(1).unwrap();
        assert!(t.has_index(1));
        let with_index =
            t.filter_rows(&[ColRange::between(1, Value::Double(3.0), Value::Double(9.0))]);
        assert_eq!(no_index, with_index);
    }

    #[test]
    fn empty_ranges_select_all() {
        let t = sample();
        assert_eq!(t.filter_rows(&[]).len(), 10);
    }

    #[test]
    fn update_rows_changes_values_and_index() {
        let mut t = sample();
        t.create_index(2).unwrap();
        let n = t.update_rows(&[1, 4], &[(2, Value::Int(9))]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.value_at(1, 2), &Value::Int(9));
        let hits = t.filter_rows(&[ColRange::eq(2, Value::Int(9))]);
        assert_eq!(hits, vec![1, 4]);
        // old entries are gone from the index
        let old = t.filter_rows(&[ColRange::eq(2, Value::Int(1))]);
        assert_eq!(old, vec![7]);
    }

    #[test]
    fn update_pk_rejected() {
        let mut t = sample();
        let err = t.update_rows(&[0], &[(0, Value::Int(99))]).unwrap_err();
        assert!(matches!(err, Error::InvalidOperation(_)));
    }

    #[test]
    fn update_missing_row_rejected_without_partial_write() {
        let mut t = sample();
        let err = t.update_rows(&[3, 99], &[(2, Value::Int(5))]).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)));
        // row 3 must be untouched (validation precedes mutation)
        assert_eq!(t.value_at(3, 2), &Value::Int(0));
    }

    #[test]
    fn numeric_visitor_sums() {
        let t = sample();
        let mut sum = 0.0;
        t.for_each_numeric(1, RowSel::All, |v| sum += v);
        assert_eq!(sum, (0..10).map(|i| i as f64 * 1.5).sum::<f64>());
        let mut partial = 0.0;
        t.for_each_numeric(1, RowSel::Subset(&[0, 2]), |v| partial += v);
        assert_eq!(partial, 3.0);
    }

    #[test]
    fn collect_rows_projects() {
        let t = sample();
        let rows = t.collect_rows(RowSel::Subset(&[2]), Some(&[2, 0]));
        assert_eq!(rows, vec![vec![Value::Int(2), Value::Int(2)]]);
    }

    #[test]
    fn into_rows_round_trip() {
        let t = sample();
        let borrowed = (&t).into_rows().unwrap();
        let rows = t.clone().into_rows().unwrap();
        assert_eq!(rows, borrowed);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[9][0], Value::Int(9));
        let rebuilt = RowTable::build(schema(), t.clone()).unwrap();
        assert_eq!((&rebuilt).into_rows().unwrap(), rows);
        assert_eq!(rebuilt.memory_bytes(), t.memory_bytes());
    }

    #[test]
    fn amortized_capacity_matches_vec_growth() {
        for step in [1, 3, 16] {
            let mut v: Vec<Value> = Vec::new();
            for rows in 0..200 {
                assert_eq!(v.capacity(), amortized_capacity(rows * step, step));
                v.extend_from_slice(&vec![Value::Null; step]);
            }
        }
    }

    #[test]
    fn memory_accounting_nonzero() {
        let t = sample();
        assert!(t.memory_bytes() > 0);
    }
}
