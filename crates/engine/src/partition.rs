//! Physical layout of one table, in one shape for every placement: a
//! [`TableData`] is a base [`Region`] — a resident [`Table`], a
//! [`VerticalPair`] or a demoted [`DiskFragment`] — plus a row-store hot
//! partition when the placement splits horizontally. A single-store table
//! is the unsplit case (no spec, no hot partition, the whole table in
//! `Region::Table`), so inserts, updates, drains, indexes and delta merges
//! dispatch on the region alone, never on the placement.

use std::collections::HashMap;
use std::sync::Arc;

use hsd_catalog::{HorizontalSpec, PartitionSpec, TablePlacement, Tier, VerticalSpec};
use hsd_storage::table::pk_key_of;
use hsd_storage::{
    decode_segment, encode_segment, ColRange, ColumnBuilder, ColumnData, ColumnTable, Columns,
    PkKey, RowBuilder, RowSource, SegmentReader, SegmentStore, SelVec, StoreKind, Table,
    TableBuilder, BLOCK,
};
use hsd_types::{ColumnIdx, Error, Result, TableSchema, Value};

/// Which physical region a delta merge job was scheduled for — a **label**,
/// not a route: every merge works on the one region
/// [`TableData::delta_region`] returns, whatever the label says.
///
/// The label keys maintenance jobs by `(table, partition)` (a job scheduled
/// while the table was partitioned and one scheduled after a move back to a
/// single store are distinct queue entries) and is written into the
/// [`crate::WalRecord::MergeComplete`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MergePartition {
    /// The whole table (the only region a single-store column table has).
    Whole,
    /// The cold partition (or its column-store fragment) of a partitioned
    /// table — the only region of a hot/cold layout that carries a delta
    /// tail, since the hot partition is row-store resident.
    Cold,
}

/// Where a logical column lives inside a [`VerticalPair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// In the row-store fragment, at this physical index.
    Row(usize),
    /// In the column-store fragment, at this physical index.
    Col(usize),
}

/// A vertically split table (or cold partition): a row-store fragment
/// holding the OLTP attributes and a column-store fragment holding the
/// analytical attributes. Both fragments carry the primary key, and rows are
/// positionally aligned (the engine never deletes or reorders), so
/// recombination is a positional stitch verified against the shared key.
#[derive(Debug, Clone)]
pub struct VerticalPair {
    row_frag: Table,
    col_frag: Table,
    /// Logical column -> fragment location. Primary-key columns resolve to
    /// the row fragment (cheapest point access).
    locate: Vec<Loc>,
}

impl VerticalPair {
    /// Build an empty pair for `schema` with the given vertical spec.
    pub fn new(schema: &Arc<TableSchema>, spec: &VerticalSpec) -> Result<Self> {
        let row_cols: Vec<ColumnIdx> = spec
            .row_cols
            .iter()
            .copied()
            .filter(|c| !schema.is_pk_column(*c))
            .collect();
        let col_cols: Vec<ColumnIdx> = (0..schema.arity())
            .filter(|c| !schema.is_pk_column(*c) && !row_cols.contains(c))
            .collect();
        let (row_schema, row_map) = schema.project("rs", &row_cols)?;
        let (col_schema, col_map) = schema.project("cs", &col_cols)?;
        let mut locate = vec![Loc::Row(0); schema.arity()];
        for (logical, slot) in locate.iter_mut().enumerate() {
            if let Some(pos) = row_map.iter().position(|&o| o == logical) {
                *slot = Loc::Row(pos);
            } else if let Some(pos) = col_map.iter().position(|&o| o == logical) {
                *slot = Loc::Col(pos);
            } else {
                return Err(Error::InvalidSchema(format!(
                    "column {logical} of {} not covered by vertical split",
                    schema.name
                )));
            }
        }
        Ok(VerticalPair {
            row_frag: Table::new(Arc::new(row_schema), StoreKind::Row),
            col_frag: Table::new(Arc::new(col_schema), StoreKind::Column),
            locate,
        })
    }

    /// Location of a logical column.
    pub fn loc(&self, col: ColumnIdx) -> Loc {
        self.locate[col]
    }

    /// Position of a logical column within the *column-store* fragment, if
    /// it exists there. Primary-key columns live in both fragments (locate
    /// points them at the row fragment for point access), so scans and
    /// joins can still read them columnar via this resolver.
    pub fn col_fragment_position(&self, logical: ColumnIdx) -> Option<usize> {
        match self.locate[logical] {
            Loc::Col(p) => Some(p),
            Loc::Row(_) => {
                let logical_pks = self.logical_pk_columns();
                let pk_pos = logical_pks.iter().position(|&l| l == logical)?;
                Some(self.col_frag.schema().primary_key[pk_pos])
            }
        }
    }

    /// The row-store fragment.
    pub fn row_fragment(&self) -> &Table {
        &self.row_frag
    }

    /// The column-store fragment.
    pub fn col_fragment(&self) -> &Table {
        &self.col_frag
    }

    /// Mutable access to the column-store fragment (maintenance only; the
    /// positional-alignment invariant forbids structural mutation).
    pub fn col_fragment_mut(&mut self) -> &mut Table {
        &mut self.col_frag
    }

    /// Number of (logical) rows.
    pub fn row_count(&self) -> usize {
        self.row_frag.row_count()
    }

    /// Insert a logical row (appends to both fragments).
    pub fn insert(&mut self, row: &[Value]) -> Result<u32> {
        if row.len() != self.locate.len() {
            return Err(Error::ArityMismatch {
                expected: self.locate.len(),
                got: row.len(),
            });
        }
        let split = self.split_row(row);
        // Both halves are checked before either fragment changes: a row
        // one fragment refuses must not reach the other.
        self.col_frag.schema().validate_row(&split.1)?;
        let idx = self.row_frag.insert(&split.0)?;
        // The row fragment took the key, so this cannot fail; propagate
        // any residual error loudly.
        let idx2 = self.col_frag.insert(&split.1)?;
        debug_assert_eq!(idx, idx2, "vertical fragments must stay aligned");
        Ok(idx)
    }

    fn split_row(&self, row: &[Value]) -> (Vec<Value>, Vec<Value>) {
        let row_arity = self.row_frag.schema().arity();
        let col_arity = self.col_frag.schema().arity();
        let mut r = vec![Value::Null; row_arity];
        let mut c = vec![Value::Null; col_arity];
        // PK columns appear in both fragments; non-key columns in exactly one.
        for (logical, value) in row.iter().enumerate() {
            match self.locate[logical] {
                Loc::Row(p) => r[p] = value.clone(),
                Loc::Col(p) => c[p] = value.clone(),
            }
        }
        // Fill the column fragment's PK slots (locate points PKs at the row
        // fragment; mirror them here).
        let logical_pks = self.logical_pk_columns();
        for (pk_pos, &frag_pos) in self.col_frag.schema().primary_key.iter().enumerate() {
            c[frag_pos] = row[logical_pks[pk_pos]].clone();
        }
        (r, c)
    }

    fn logical_pk_columns(&self) -> Vec<ColumnIdx> {
        // The row fragment's PK order equals the logical PK order by
        // construction of `TableSchema::project`.
        self.locate
            .iter()
            .enumerate()
            .filter_map(|(logical, loc)| match loc {
                Loc::Row(p) if self.row_frag.schema().is_pk_column(*p) => Some((*p, logical)),
                _ => None,
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_values()
            .collect()
    }

    /// Borrow a logical attribute.
    #[inline]
    pub fn value_at(&self, idx: u32, col: ColumnIdx) -> &Value {
        match self.locate[col] {
            Loc::Row(p) => self.row_frag.value_at(idx, p),
            Loc::Col(p) => self.col_frag.value_at(idx, p),
        }
    }

    /// Find a row by primary key (probes the row fragment's PK index).
    pub fn point_lookup(&self, key: &[Value]) -> Option<u32> {
        self.row_frag.point_lookup(key)
    }

    /// Logical filter: split the conjunction by fragment, evaluate each
    /// side, and intersect positionally.
    pub fn filter_rows(&self, ranges: &[ColRange]) -> Vec<u32> {
        if ranges.is_empty() {
            return (0..self.row_count() as u32).collect();
        }
        self.filter_selvec(ranges).to_row_ids()
    }

    /// Logical filter as a selection vector: each fragment evaluates its
    /// side of the conjunction (batched in the column fragment), and the
    /// positional intersection is a word-wise bitmap `AND` — rows are
    /// aligned across fragments, so no id-list merge is needed.
    pub fn filter_selvec(&self, ranges: &[ColRange]) -> SelVec {
        let mut row_ranges = Vec::new();
        let mut col_ranges = Vec::new();
        for r in ranges {
            match self.locate[r.column] {
                Loc::Row(p) => row_ranges.push(r.with_column(p)),
                Loc::Col(p) => col_ranges.push(r.with_column(p)),
            }
        }
        match (row_ranges.is_empty(), col_ranges.is_empty()) {
            (true, true) => SelVec::all(self.row_count()),
            (false, true) => self.row_frag.filter_selvec(&row_ranges),
            (true, false) => self.col_frag.filter_selvec(&col_ranges),
            (false, false) => {
                let mut sel = self.col_frag.filter_selvec(&col_ranges);
                if !sel.is_none_selected() {
                    sel.and_assign(&self.row_frag.filter_selvec(&row_ranges));
                }
                sel
            }
        }
    }

    /// Update logical rows; assignments are routed to their fragments.
    pub fn update_rows(&mut self, rows: &[u32], sets: &[(ColumnIdx, Value)]) -> Result<usize> {
        let mut row_sets = Vec::new();
        let mut col_sets = Vec::new();
        for (col, v) in sets {
            match self.locate[*col] {
                Loc::Row(p) => row_sets.push((p, v.clone())),
                Loc::Col(p) => col_sets.push((p, v.clone())),
            }
        }
        if !row_sets.is_empty() {
            self.row_frag.update_rows(rows, &row_sets)?;
        }
        if !col_sets.is_empty() {
            self.col_frag.update_rows(rows, &col_sets)?;
        }
        Ok(rows.len())
    }

    /// Materialize logical rows (stitching both fragments back together —
    /// "for queries addressing all the data of the table, the partitions
    /// have to be joined").
    ///
    /// Batched: output tuples are filled column-at-a-time, so columns in
    /// the column-store fragment go through the block-decoded gather path
    /// instead of per-cell dictionary probes.
    pub fn collect_rows(&self, rows: &[u32], cols: Option<&[ColumnIdx]>) -> Vec<Vec<Value>> {
        let all_cols: Vec<ColumnIdx>;
        let proj: &[ColumnIdx] = match cols {
            Some(c) => c,
            None => {
                all_cols = (0..self.locate.len()).collect();
                &all_cols
            }
        };
        let mut out: Vec<Vec<Value>> = rows
            .iter()
            .map(|_| Vec::with_capacity(proj.len()))
            .collect();
        for &c in proj {
            match self.locate[c] {
                Loc::Row(p) => {
                    for (i, &r) in rows.iter().enumerate() {
                        out[i].push(self.row_frag.value_at(r, p).clone());
                    }
                }
                Loc::Col(p) => match &self.col_frag {
                    Table::Column(ct) => {
                        ct.column(p)
                            .gather_values(rows, |i, v| out[i].push(v.clone()));
                    }
                    other => {
                        for (i, &r) in rows.iter().enumerate() {
                            out[i].push(other.value_at(r, p).clone());
                        }
                    }
                },
            }
        }
        out
    }

    /// Verify the positional-alignment invariant: both fragments agree on
    /// every primary key. O(n); used by tests and debug assertions.
    pub fn check_alignment(&self) -> Result<()> {
        if self.row_frag.row_count() != self.col_frag.row_count() {
            return Err(Error::InvalidOperation(format!(
                "fragment row counts diverge: {} vs {}",
                self.row_frag.row_count(),
                self.col_frag.row_count()
            )));
        }
        let row_pk = self.row_frag.schema().primary_key.clone();
        let col_pk = self.col_frag.schema().primary_key.clone();
        for idx in 0..self.row_frag.row_count() as u32 {
            for (a, b) in row_pk.iter().zip(&col_pk) {
                if self.row_frag.value_at(idx, *a) != self.col_frag.value_at(idx, *b) {
                    return Err(Error::InvalidOperation(format!(
                        "fragments disagree on key of row {idx}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Approximate heap bytes of both fragments.
    pub fn memory_bytes(&self) -> usize {
        self.row_frag.memory_bytes() + self.col_frag.memory_bytes()
    }

    /// Create a secondary index on a logical column that lives in the
    /// row-store fragment. Columns in the column-store fragment rely on the
    /// dictionary's implicit index and are a no-op.
    pub fn create_row_index(&mut self, logical: ColumnIdx) -> Result<()> {
        match self.locate[logical] {
            Loc::Row(p) => match &mut self.row_frag {
                Table::Row(rt) => rt.create_index(p),
                Table::Column(_) => Ok(()),
            },
            Loc::Col(_) => Ok(()),
        }
    }
}

/// Reading a vertically split table as logical rows: a block of [`BLOCK`]
/// rows is stitched column by column from both fragments
/// ([`Table::fill_rows`]), then handed out row by row.
impl RowSource for &VerticalPair {
    fn rows_hint(&self) -> usize {
        self.row_count()
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        let width = self.locate.len();
        let n = self.row_count();
        let mut block = vec![Value::Null; BLOCK * width];
        for start in (0..n).step_by(BLOCK) {
            let rows = &mut block[..BLOCK.min(n - start) * width];
            for (slot, loc) in self.locate.iter().enumerate() {
                match *loc {
                    Loc::Row(p) => self.row_frag.fill_rows(p, start, rows, width, slot),
                    Loc::Col(p) => self.col_frag.fill_rows(p, start, rows, width, slot),
                }
            }
            for row in rows.chunks_exact_mut(width) {
                sink(row)?;
            }
        }
        Ok(())
    }
}

/// Bulk build of a [`VerticalPair`]: each logical row is split into its
/// two fragment rows (the key goes to both), the row-store fragment's
/// builder takes its half first and checks the key.
#[derive(Debug)]
struct PairBuilder {
    schema: Arc<TableSchema>,
    locate: Vec<Loc>,
    /// `(column-fragment slot, logical column)` of each key column.
    key_mirror: Vec<(usize, ColumnIdx)>,
    row_frag: RowBuilder,
    col_frag: ColumnBuilder,
    row_half: Vec<Value>,
    col_half: Vec<Value>,
}

impl PairBuilder {
    fn new(schema: &Arc<TableSchema>, spec: &VerticalSpec, rows_hint: usize) -> Result<Self> {
        let empty = VerticalPair::new(schema, spec)?;
        let key_mirror = empty
            .col_frag
            .schema()
            .primary_key
            .iter()
            .copied()
            .zip(empty.logical_pk_columns())
            .collect();
        let row_schema = empty.row_frag.schema().clone();
        let col_schema = empty.col_frag.schema().clone();
        Ok(PairBuilder {
            schema: schema.clone(),
            locate: empty.locate,
            key_mirror,
            row_half: vec![Value::Null; row_schema.arity()],
            col_half: vec![Value::Null; col_schema.arity()],
            row_frag: RowBuilder::new(row_schema, rows_hint),
            col_frag: ColumnBuilder::new(col_schema, rows_hint),
        })
    }

    fn push(&mut self, row: &mut [Value]) -> Result<()> {
        // Validated whole, so neither fragment can refuse a row the other
        // took (the fragments must stay positionally aligned).
        self.schema.validate_row(row)?;
        for &(slot, logical) in &self.key_mirror {
            self.col_half[slot] = row[logical].clone();
        }
        for (logical, value) in row.iter_mut().enumerate() {
            let value = std::mem::replace(value, Value::Null);
            match self.locate[logical] {
                Loc::Row(p) => self.row_half[p] = value,
                Loc::Col(p) => self.col_half[p] = value,
            }
        }
        self.row_frag.push(&mut self.row_half)?;
        self.col_frag.push(&mut self.col_half)
    }

    fn finish(self) -> VerticalPair {
        VerticalPair {
            row_frag: Table::Row(self.row_frag.finish()),
            col_frag: Table::Column(self.col_frag.finish()),
            locate: self.locate,
        }
    }
}

/// A cold partition that has been demoted to disk: the column-store data
/// lives in an immutable [`hsd_storage::segment`] file, read **in place**
/// through the fragment's own [`SegmentReader`] — only the segment's footer
/// directory stays resident. Statements fetch what their request class
/// needs (whole columns for scans via a [`ColdView`], one zone and one
/// dictionary block per column for point reads); writes load the whole
/// fragment back to memory first (write-through, see
/// [`TableData::with_cold_loaded`]).
///
/// The segment is a *derived cache* of WAL + checkpoint state: recovery
/// re-creates it from the replayed table rather than trusting the file, so
/// a corrupt segment is an availability problem at query time, never a
/// recovery-correctness problem.
#[derive(Debug, Clone)]
pub struct DiskFragment {
    /// Segment name within the engine's [`SegmentStore`].
    pub segment: String,
    /// Encoded segment size in bytes (the disk-footprint the advisor's
    /// budget accounting charges).
    pub disk_bytes: u64,
    /// Reads the published segment in place; schema, row count and merge
    /// epoch come from its footer, so planning never touches the data.
    reader: Arc<SegmentReader>,
}

impl DiskFragment {
    /// Encode `table`, publish it atomically under `name` and open the
    /// published segment for in-place reads — the one way a disk fragment
    /// comes into being (demotion, write-through republish, restore).
    pub fn publish(store: &SegmentStore, name: &str, table: &ColumnTable) -> Result<Self> {
        let bytes = encode_segment(table);
        let disk_bytes = bytes.len() as u64;
        store.put(name, bytes)?;
        let reader = SegmentReader::open(table.schema().clone(), store.open(name)?)?;
        Ok(DiskFragment {
            segment: name.to_string(),
            disk_bytes,
            reader: Arc::new(reader),
        })
    }

    /// The in-place reader over the published segment.
    pub fn reader(&self) -> &SegmentReader {
        &self.reader
    }

    /// Load the whole fragment back into an in-memory column table (the
    /// promote / write-through / snapshot path).
    ///
    /// Fails with [`Error::Io`] if the segment is
    /// missing or damaged — callers surface that as an unavailable cold
    /// partition, not as data loss (recovery can always rebuild it).
    pub fn load(&self, store: &SegmentStore) -> Result<Table> {
        let bytes = store.get(&self.segment)?;
        let table = decode_segment(self.reader.schema().clone(), &bytes)?;
        Ok(Table::Column(table))
    }
}

/// One statement's scan view over a disk-resident cold partition: the
/// columns the statement names, restored from the segment, behind the same
/// [`Columns`] surface a resident [`ColumnTable`] offers — so the executor's
/// filter, aggregation and join kernels run on it unchanged. Point reads
/// bypass the view's columns and go through [`ColdView::reader`].
#[derive(Debug)]
pub struct ColdView<'a> {
    reader: &'a SegmentReader,
    columns: Vec<Option<ColumnData>>,
}

impl<'a> ColdView<'a> {
    /// Fetch `cols` (duplicates are fetched once) of `frag` for scanning.
    pub fn fetch(frag: &'a DiskFragment, cols: &[ColumnIdx]) -> Result<Self> {
        let reader = frag.reader();
        let mut columns: Vec<Option<ColumnData>> =
            (0..reader.schema().arity()).map(|_| None).collect();
        for &c in cols {
            let slot = columns
                .get_mut(c)
                .ok_or_else(|| Error::UnknownColumn(format!("{}[{c}]", reader.schema().name)))?;
            if slot.is_none() {
                *slot = Some(reader.column(c)?);
            }
        }
        Ok(ColdView { reader, columns })
    }

    /// The segment reader, for the point request class.
    pub fn reader(&self) -> &'a SegmentReader {
        self.reader
    }
}

impl Columns for ColdView<'_> {
    fn row_count(&self) -> usize {
        self.reader.row_count()
    }

    /// # Panics
    /// Panics if `col` was not among the columns the view was fetched with
    /// (the executor names every column a statement scans up front).
    fn column(&self, col: ColumnIdx) -> &ColumnData {
        self.columns[col]
            .as_ref()
            .unwrap_or_else(|| panic!("column {col} was not fetched for this cold view"))
    }
}

/// One stored region of a table: the whole table in a single-store
/// placement, the cold partition of a hot/cold layout.
#[derive(Debug, Clone)]
pub enum Region {
    /// Resident in one store.
    Table(Table),
    /// Vertically split into a row-store and a column-store fragment.
    Pair(VerticalPair),
    /// Demoted to an on-disk column segment (a cold partition only).
    Disk(DiskFragment),
}

impl Region {
    /// Number of rows.
    pub(crate) fn row_count(&self) -> usize {
        match self {
            Region::Table(t) => t.row_count(),
            Region::Pair(p) => p.row_count(),
            Region::Disk(f) => f.reader().row_count(),
        }
    }

    /// Approximate resident heap bytes. A disk segment keeps only its stub
    /// and the reader's footer directory in memory.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            Region::Table(t) => t.memory_bytes(),
            Region::Pair(p) => p.memory_bytes(),
            Region::Disk(f) => std::mem::size_of::<DiskFragment>() + f.reader().resident_bytes(),
        }
    }

    /// The column table carrying the region's dictionary delta: the table
    /// itself, or a pair's column-store fragment. `None` for row stores and
    /// disk segments.
    pub(crate) fn as_column(&self) -> Option<&ColumnTable> {
        match self {
            Region::Table(t) => t.as_column(),
            Region::Pair(p) => p.col_fragment().as_column(),
            Region::Disk(_) => None,
        }
    }

    /// Mutable [`Region::as_column`].
    pub(crate) fn as_column_mut(&mut self) -> Option<&mut ColumnTable> {
        match self {
            Region::Table(t) => t.as_column_mut(),
            Region::Pair(p) => p.col_fragment_mut().as_column_mut(),
            Region::Disk(_) => None,
        }
    }

    /// The disk fragment, if the region is demoted.
    pub(crate) fn as_disk(&self) -> Option<&DiskFragment> {
        match self {
            Region::Disk(f) => Some(f),
            _ => None,
        }
    }

    /// Insert a logical row.
    pub(crate) fn insert(&mut self, row: &[Value]) -> Result<u32> {
        match self {
            Region::Table(t) => t.insert(row),
            Region::Pair(p) => p.insert(row),
            Region::Disk(f) => Err(unloaded(f, "insert")),
        }
    }

    /// Apply `sets` to every row matching `filter`; returns the rows
    /// changed.
    pub(crate) fn update_where(
        &mut self,
        filter: &[ColRange],
        sets: &[(ColumnIdx, Value)],
    ) -> Result<usize> {
        match self {
            Region::Table(t) => t.update_rows(&t.filter_rows(filter), sets),
            Region::Pair(p) => p.update_rows(&p.filter_rows(filter), sets),
            Region::Disk(f) => Err(unloaded(f, "update")),
        }
    }

    /// Apply `sets` to the row holding primary key `key`, if any.
    pub(crate) fn update_point(
        &mut self,
        key: &[Value],
        sets: &[(ColumnIdx, Value)],
    ) -> Result<usize> {
        match self {
            Region::Table(t) => t
                .point_lookup(key)
                .map_or(Ok(0), |i| t.update_rows(&[i], sets)),
            Region::Pair(p) => p
                .point_lookup(key)
                .map_or(Ok(0), |i| p.update_rows(&[i], sets)),
            Region::Disk(f) => Err(unloaded(f, "point update")),
        }
    }

    /// Create a row-store secondary index on logical column `col` wherever
    /// the region keeps it in a row store. Column stores need none: the
    /// sorted dictionary is the implicit index.
    pub(crate) fn create_index(&mut self, col: ColumnIdx) -> Result<()> {
        match self {
            Region::Table(Table::Row(rt)) => rt.create_index(col),
            Region::Pair(p) => p.create_row_index(col),
            Region::Table(Table::Column(_)) | Region::Disk(_) => Ok(()),
        }
    }
}

/// The one refusal of a write or drain that reached a disk segment: the
/// executor loads it first (write-through, [`TableData::with_cold_loaded`]),
/// the mover promotes it first.
fn unloaded(f: &DiskFragment, op: &str) -> Error {
    Error::InvalidOperation(format!(
        "{op} reached the disk-resident cold partition of {} without a \
         write-through load (promote first)",
        f.reader().schema().name
    ))
}

/// Draining a region into its logical rows. A disk segment refuses
/// ([`Error::InvalidOperation`]): draining needs the data in memory.
impl RowSource for Region {
    fn rows_hint(&self) -> usize {
        self.row_count()
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        match self {
            Region::Table(t) => t.drain_rows(sink),
            Region::Pair(p) => p.drain_rows(sink),
            Region::Disk(f) => Err(unloaded(&f, "drain")),
        }
    }
}

/// Physical data of one logical table, in one shape for every placement:
/// a `base` region, plus a row-store `hot` partition when the placement
/// splits horizontally. A single-store table is the unsplit case —
/// `spec: None, hot: None, base: Region::Table(t)`; a hot/cold layout
/// keeps its cold partition (unsplit, vertically split or on disk) in
/// `base`.
#[derive(Debug, Clone)]
pub struct TableData {
    /// Logical schema of the table.
    pub(crate) schema: Arc<TableSchema>,
    /// The partition annotation this layout realizes (`None` for a single
    /// store).
    pub(crate) spec: Option<PartitionSpec>,
    /// Hot partition receiving all inserts (present iff the spec has a
    /// horizontal split).
    pub(crate) hot: Option<Table>,
    /// The whole table, or the cold partition of a hot/cold layout.
    pub(crate) base: Region,
    /// Whether every hot row still satisfies the split predicate
    /// (`split_column >= split_value`). Inserts of "old" rows clear this,
    /// disabling hot-partition pruning; the cold partition always satisfies
    /// the complement by construction.
    pub(crate) hot_pure: bool,
}

impl TableData {
    /// Build an empty `TableData` for a placement.
    pub fn new(schema: Arc<TableSchema>, placement: &TablePlacement) -> Result<Self> {
        TableDataBuilder::new(schema, placement, &[], 0)?.finish()
    }

    /// A single-store table holding `table`.
    pub(crate) fn single(table: Table) -> Self {
        TableData {
            schema: table.schema().clone(),
            spec: None,
            hot: None,
            base: Region::Table(table),
            hot_pure: true,
        }
    }

    /// Bulk-build a table under `placement` from `rows` — the one builder
    /// every bulk path (load, move, rebalance, checkpoint restore) runs
    /// through. Rows are split by the partition spec as they arrive (rows
    /// at or above a horizontal split value to the row-store hot
    /// partition, the rest to the cold partition, a vertical split into
    /// its two fragments) and each part is built by its store's builder
    /// ([`RowBuilder`], [`ColumnBuilder`]); the secondary indexes on
    /// `indexed` columns are then created on every row-store part. Fails on
    /// the first invalid or duplicate row.
    pub fn build(
        schema: Arc<TableSchema>,
        placement: &TablePlacement,
        indexed: &[ColumnIdx],
        mut rows: impl RowSource,
    ) -> Result<Self> {
        let mut builder = TableDataBuilder::new(schema, placement, indexed, rows.rows_hint())?;
        // One target table takes every row in order: the source's key
        // index is already the right one.
        if let (None, RegionBuilder::Table(b)) = (&builder.spec, &mut builder.base) {
            if let Some(pk) = rows.take_pk_index(&builder.schema.primary_key) {
                b.adopt_pk_index(pk);
            }
        }
        rows.drain_rows(&mut |row| builder.push(row))?;
        builder.finish()
    }

    /// Swap an empty single row table in and return the old data (a
    /// rebuild drains what this returns).
    pub(crate) fn take(&mut self) -> TableData {
        let empty = TableData::single(Table::new(self.schema.clone(), StoreKind::Row));
        std::mem::replace(self, empty)
    }

    /// The placement this table's physical layout realizes.
    pub fn placement(&self) -> TablePlacement {
        match (&self.spec, &self.base) {
            (Some(spec), _) => TablePlacement::Partitioned(spec.clone()),
            (None, Region::Table(t)) => TablePlacement::Single(t.store_kind()),
            (None, other) => unreachable!("a single-store table is one resident table: {other:?}"),
        }
    }

    /// Every logical row (cold first, then hot) read without draining the
    /// table — the checkpoint writer's source. A disk-resident cold
    /// partition is decoded from its segment (the checkpoint embeds the
    /// data itself; the segment file stays a rebuildable cache).
    pub fn snapshot<'a>(&'a self, store: &'a SegmentStore) -> Snapshot<'a> {
        Snapshot { data: self, store }
    }

    /// Collect every logical row (cold first, then hot) without draining
    /// the table ([`TableData::snapshot`] as owned vectors).
    pub fn snapshot_rows(&self, store: &SegmentStore) -> Result<Vec<Vec<Value>>> {
        self.snapshot(store).into_rows()
    }

    /// Create a row-store secondary index on logical column `col` in every
    /// row-store part (hot partition, row-store base or row fragment).
    pub fn create_index(&mut self, col: ColumnIdx) -> Result<()> {
        if let Some(Table::Row(rt)) = self.hot.as_mut() {
            rt.create_index(col)?;
        }
        self.base.create_index(col)
    }

    /// Logical schema.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// The base region: the whole table, or the cold partition of a
    /// hot/cold layout.
    pub fn base(&self) -> &Region {
        &self.base
    }

    /// Total logical rows.
    pub fn row_count(&self) -> usize {
        self.hot.as_ref().map_or(0, Table::row_count) + self.base.row_count()
    }

    /// Insert a row. With a horizontal split, *all* inserts go to the hot
    /// row-store partition ("newly arriving tuples are stored in the
    /// row-store partition, which allows for faster inserts").
    ///
    /// The key must be new to the whole table: a row the cold partition
    /// may hold (one below the split, or any row when the split column is
    /// not the key) is looked up there first — in place, for a segment.
    pub fn insert(&mut self, row: &[Value]) -> Result<u32> {
        let Some(hot) = &mut self.hot else {
            return self.base.insert(row);
        };
        if let Some(hs) = self.spec.as_ref().and_then(|s| s.horizontal.as_ref()) {
            self.schema.validate_row(row)?;
            let old = row[hs.split_column] < hs.split_value;
            if old || self.schema.primary_key != [hs.split_column] {
                let key: Vec<Value> = self.schema.pk_values(row).into_iter().cloned().collect();
                let in_base = match &self.base {
                    Region::Table(t) => t.point_lookup(&key).is_some(),
                    Region::Pair(p) => p.point_lookup(&key).is_some(),
                    Region::Disk(f) => f.reader().locate(&key)?.is_some(),
                };
                if in_base {
                    return Err(Error::DuplicateKey(format!(
                        "{}: {key:?}",
                        self.schema.name
                    )));
                }
            }
            self.hot_pure &= !old;
        }
        hot.insert(row)
    }

    /// Whether hot-partition pruning is allowed (every hot row satisfies the
    /// split predicate).
    pub fn hot_is_pure(&self) -> bool {
        self.hot_pure
    }

    /// The horizontal split spec, if any.
    pub fn horizontal_spec(&self) -> Option<&HorizontalSpec> {
        self.spec.as_ref()?.horizontal.as_ref()
    }

    /// Approximate heap bytes across partitions.
    pub fn memory_bytes(&self) -> usize {
        self.hot.as_ref().map_or(0, Table::memory_bytes) + self.base.memory_bytes()
    }

    /// Bytes of on-disk segment data owned by this table (0 unless the cold
    /// partition is disk-resident). The disk-footprint counterpart of
    /// [`TableData::memory_bytes`].
    pub fn disk_bytes(&self) -> u64 {
        self.base.as_disk().map_or(0, |f| f.disk_bytes)
    }

    /// The column table that carries this table's dictionary delta — the
    /// one region every delta merge, tail count and merge observer works
    /// on: the base region (or its column-store fragment), never the
    /// row-store hot partition. `None` for row-store layouts and for disk
    /// segments, whose tail is folded before every publish (see
    /// [`TableData::with_cold_loaded`]).
    pub fn delta_region(&self) -> Option<&ColumnTable> {
        self.base.as_column()
    }

    /// Mutable [`TableData::delta_region`].
    pub fn delta_region_mut(&mut self) -> Option<&mut ColumnTable> {
        self.base.as_column_mut()
    }

    /// Accumulated dictionary-tail entries of the delta region (the delta
    /// size the merge policy and the advisor's maintenance scheduling
    /// reason about).
    pub fn delta_tail(&self) -> usize {
        self.delta_region().map_or(0, ColumnTable::tail_total)
    }

    /// Rows resident in the region a delta merge actually remaps: the base
    /// region (the hot partition is row-store resident and never merged).
    /// This is the row count merge-cost models should use — pricing a
    /// cold-fragment merge at the full table's row count over-charges
    /// partitioned placements.
    pub fn merge_region_rows(&self) -> usize {
        self.base.row_count()
    }

    /// The table's merge epoch (0 for row-store layouts): increases at
    /// every completed dictionary handoff of the delta region. A disk
    /// segment reports the epoch recorded in its footer.
    pub fn merge_epoch(&self) -> u64 {
        match &self.base {
            Region::Disk(f) => f.reader().merge_epoch(),
            _ => self.delta_region().map_or(0, ColumnTable::merge_epoch),
        }
    }

    /// Run `f` with a disk-resident cold partition loaded back into memory,
    /// then re-encode and republish the segment (**write-through**). Tables
    /// whose cold partition is memory-resident just run `f`. Callers load
    /// only when the statement changes a cold row: every load is followed by
    /// a delta merge, a full re-encode, publish and fsync — the upkeep cost
    /// the advisor's tier model charges writes against disk-resident data.
    /// The merge keeps every published segment tail-free, which is why
    /// [`TableData::delta_region`] has nothing to return for one.
    ///
    /// The outer error is a failed load: nothing ran, nothing changed. Once
    /// loaded, `f`'s result comes back together with the republish outcome.
    /// The segment is republished even when `f` fails partway: the engine
    /// has no statement rollback, the WAL records the applied prefix, and
    /// the segment must reflect the same state replay would reproduce. If
    /// the republish itself fails, the (mutated) cold partition stays in
    /// memory and the spec's tier flag says so — the data and the flag never
    /// disagree; the caller logs the tier change and reports the error.
    pub fn with_cold_loaded<R>(
        &mut self,
        store: &SegmentStore,
        f: impl FnOnce(&mut TableData) -> R,
    ) -> Result<(R, Result<()>)> {
        let Region::Disk(frag) = &self.base else {
            return Ok((f(self), Ok(())));
        };
        let segment = frag.segment.clone();
        self.base = Region::Table(frag.load(store)?);
        let result = f(self);
        let mut republished = Ok(());
        if let Region::Table(Table::Column(ct)) = &mut self.base {
            // Fold what the write interned: nothing merges a segment's
            // tail while it stays on disk.
            ct.compact();
            match DiskFragment::publish(store, &segment, ct) {
                Ok(frag) => self.base = Region::Disk(frag),
                Err(e) => {
                    if let Some(spec) = &mut self.spec {
                        spec.cold_tier = Tier::Memory;
                    }
                    republished = Err(e);
                }
            }
        }
        Ok((result, republished))
    }
}

/// Draining a table into its logical rows (cold first, then hot), for a
/// rebuild under another placement.
///
/// Fails with [`Error::InvalidOperation`] on a disk-resident cold
/// partition: draining needs the data in memory, so the mover promotes
/// first.
impl RowSource for TableData {
    fn rows_hint(&self) -> usize {
        self.row_count()
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        self.base.drain_rows(&mut *sink)?;
        self.hot.map_or(Ok(()), |h| h.drain_rows(sink))
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        match (&self.spec, &mut self.base) {
            (None, Region::Table(t)) => t.take_pk_index(primary_key),
            _ => None,
        }
    }
}

/// A table's logical rows read in place ([`TableData::snapshot`]).
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    data: &'a TableData,
    store: &'a SegmentStore,
}

impl RowSource for Snapshot<'_> {
    fn rows_hint(&self) -> usize {
        self.data.row_count()
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        match &self.data.base {
            Region::Table(t) => t.drain_rows(&mut *sink)?,
            Region::Pair(p) => p.drain_rows(&mut *sink)?,
            Region::Disk(f) => f.load(self.store)?.drain_rows(&mut *sink)?,
        }
        self.data
            .hot
            .as_ref()
            .map_or(Ok(()), |h| h.drain_rows(sink))
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        match (&self.data.spec, &self.data.base) {
            (None, Region::Table(t)) => {
                let mut t = t;
                t.take_pk_index(primary_key)
            }
            _ => None,
        }
    }
}

/// A bulk build of one table under a placement ([`TableData::build`]). A
/// refused row (schema-invalid, or repeating a key in any part) changes
/// nothing, so a build stopped at the first refusal holds exactly the
/// rows before it.
#[derive(Debug)]
pub(crate) struct TableDataBuilder {
    schema: Arc<TableSchema>,
    spec: Option<PartitionSpec>,
    /// Columns whose row-store secondary index the built table carries.
    indexed: Vec<ColumnIdx>,
    hot: Option<RowBuilder>,
    base: RegionBuilder,
}

/// The builder of a [`Region`]: one store's builder, or a vertical pair's.
#[derive(Debug)]
enum RegionBuilder {
    Table(TableBuilder),
    Pair(Box<PairBuilder>),
}

impl RegionBuilder {
    fn push(&mut self, row: &mut [Value]) -> Result<()> {
        match self {
            RegionBuilder::Table(b) => b.push(row),
            RegionBuilder::Pair(b) => b.push(row),
        }
    }

    fn contains_key(&self, key: &[Value]) -> bool {
        match self {
            RegionBuilder::Table(b) => b.contains_key(key),
            RegionBuilder::Pair(b) => b.row_frag.contains_key(key),
        }
    }

    fn finish(self) -> Region {
        match self {
            RegionBuilder::Table(b) => Region::Table(b.finish()),
            RegionBuilder::Pair(b) => Region::Pair((*b).finish()),
        }
    }
}

impl TableDataBuilder {
    /// Start an empty build under `placement`, pre-sized for `rows_hint`
    /// rows (the base region is sized for all of them; the hot part of a
    /// horizontal split grows as rows arrive).
    pub(crate) fn new(
        schema: Arc<TableSchema>,
        placement: &TablePlacement,
        indexed: &[ColumnIdx],
        rows_hint: usize,
    ) -> Result<Self> {
        let (spec, base) = match placement {
            TablePlacement::Single(store) => (
                None,
                RegionBuilder::Table(TableBuilder::new(schema.clone(), *store, rows_hint)),
            ),
            TablePlacement::Partitioned(spec) => {
                if spec.cold_tier == Tier::Disk && spec.vertical.is_some() {
                    return Err(Error::InvalidOperation(format!(
                        "table {}: a vertically split cold partition cannot be disk-resident",
                        schema.name
                    )));
                }
                if let Some(h) = &spec.horizontal {
                    schema.column(h.split_column)?;
                }
                // A disk cold tier starts as an in-memory cold partition;
                // the mover demotes it to a segment once data exists, and
                // WAL replay re-applies that demotion.
                let base = match &spec.vertical {
                    None => RegionBuilder::Table(TableBuilder::new(
                        schema.clone(),
                        StoreKind::Column,
                        rows_hint,
                    )),
                    Some(v) => {
                        RegionBuilder::Pair(Box::new(PairBuilder::new(&schema, v, rows_hint)?))
                    }
                };
                (Some(spec.clone()), base)
            }
        };
        let hot = spec
            .as_ref()
            .and_then(|s| s.horizontal.as_ref())
            .map(|_| RowBuilder::new(schema.clone(), 0));
        Ok(TableDataBuilder {
            schema,
            spec,
            indexed: indexed.to_vec(),
            hot,
            base,
        })
    }

    /// Route one row to its part, moving its values out; a refused row
    /// changes nothing.
    pub(crate) fn push(&mut self, row: &mut [Value]) -> Result<()> {
        let split = self.spec.as_ref().and_then(|s| s.horizontal.as_ref());
        let (Some(hot), Some(split)) = (&mut self.hot, split) else {
            return self.base.push(row);
        };
        self.schema.validate_row(row)?;
        let to_hot = row[split.split_column] >= split.split_value;
        // Rows with equal keys agree on a key column, so only a split on a
        // non-key column can send them to different parts.
        if !self.schema.is_pk_column(split.split_column) {
            let key = pk_key_of(&self.schema, row);
            let taken = match to_hot {
                true => self.base.contains_key(&key),
                false => hot.contains_key(&key),
            };
            if taken {
                return Err(Error::DuplicateKey(format!(
                    "{}: {key:?}",
                    self.schema.name
                )));
            }
        }
        match to_hot {
            true => hot.push(row),
            false => self.base.push(row),
        }
    }

    /// The table holding every accepted row, with its secondary indexes.
    /// Every hot row satisfies the split predicate, so hot-partition
    /// pruning is on.
    pub(crate) fn finish(self) -> Result<TableData> {
        let mut data = TableData {
            schema: self.schema,
            spec: self.spec,
            hot: self.hot.map(|b| Table::Row(b.finish())),
            base: self.base.finish(),
            hot_pure: true,
        };
        for &col in &self.indexed {
            data.create_index(col)?;
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_types::{ColumnDef, ColumnType};

    fn schema() -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                "orders",
                vec![
                    ColumnDef::new("id", ColumnType::BigInt),
                    ColumnDef::new("amount", ColumnType::Double),
                    ColumnDef::new("qty", ColumnType::Integer),
                    ColumnDef::new("status", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap(),
        )
    }

    fn pair() -> VerticalPair {
        // status -> row fragment; amount, qty -> column fragment
        let mut p = VerticalPair::new(&schema(), &VerticalSpec { row_cols: vec![3] }).unwrap();
        for i in 0..20 {
            p.insert(&[
                Value::BigInt(i),
                Value::Double(i as f64 * 2.0),
                Value::Int((i % 4) as i32),
                Value::Int((i % 3) as i32),
            ])
            .unwrap();
        }
        p
    }

    #[test]
    fn pair_locates_columns() {
        let p = pair();
        assert_eq!(p.loc(0), Loc::Row(0)); // pk reads from row fragment
        assert_eq!(p.loc(3), Loc::Row(1));
        assert_eq!(p.loc(1), Loc::Col(1));
        assert_eq!(p.loc(2), Loc::Col(2));
        assert_eq!(p.row_fragment().store_kind(), StoreKind::Row);
        assert_eq!(p.col_fragment().store_kind(), StoreKind::Column);
    }

    #[test]
    fn pair_round_trips_values() {
        let p = pair();
        assert_eq!(p.row_count(), 20);
        assert_eq!(p.value_at(5, 0), &Value::BigInt(5));
        assert_eq!(p.value_at(5, 1), &Value::Double(10.0));
        assert_eq!(p.value_at(5, 3), &Value::Int(2));
        p.check_alignment().unwrap();
    }

    #[test]
    fn pair_filters_across_fragments() {
        let p = pair();
        // status == 0 (row fragment) AND qty == 0 (column fragment)
        let hits = p.filter_rows(&[
            ColRange::eq(3, Value::Int(0)),
            ColRange::eq(2, Value::Int(0)),
        ]);
        let expect: Vec<u32> = (0..20u32).filter(|i| i % 3 == 0 && i % 4 == 0).collect();
        assert_eq!(hits, expect);
    }

    #[test]
    fn pair_filter_single_sides() {
        let p = pair();
        let row_side = p.filter_rows(&[ColRange::eq(3, Value::Int(1))]);
        let expect: Vec<u32> = (0..20u32).filter(|i| i % 3 == 1).collect();
        assert_eq!(row_side, expect);
        let col_side = p.filter_rows(&[ColRange::eq(2, Value::Int(1))]);
        let expect: Vec<u32> = (0..20u32).filter(|i| i % 4 == 1).collect();
        assert_eq!(col_side, expect);
        assert_eq!(p.filter_rows(&[]).len(), 20);
    }

    #[test]
    fn pair_updates_route_to_fragments() {
        let mut p = pair();
        p.update_rows(&[2, 4], &[(3, Value::Int(7)), (1, Value::Double(99.0))])
            .unwrap();
        assert_eq!(p.value_at(2, 3), &Value::Int(7));
        assert_eq!(p.value_at(4, 1), &Value::Double(99.0));
        p.check_alignment().unwrap();
    }

    #[test]
    fn pair_point_lookup_and_collect() {
        let p = pair();
        let idx = p.point_lookup(&[Value::BigInt(9)]).unwrap();
        assert_eq!(idx, 9);
        let rows = p.collect_rows(&[idx], None);
        assert_eq!(
            rows[0],
            vec![
                Value::BigInt(9),
                Value::Double(18.0),
                Value::Int(1),
                Value::Int(0)
            ]
        );
        let projected = p.collect_rows(&[idx], Some(&[3, 0]));
        assert_eq!(projected[0], vec![Value::Int(0), Value::BigInt(9)]);
    }

    #[test]
    fn pair_into_rows_preserves_logical_order() {
        let p = pair();
        let rows = p.into_rows().unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[7][0], Value::BigInt(7));
        assert_eq!(rows[7][2], Value::Int(3));
    }

    #[test]
    fn table_data_partitioned_roundtrip() {
        let spec = PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(100),
            }),
            vertical: Some(VerticalSpec { row_cols: vec![3] }),
            ..Default::default()
        };
        let mut td = TableData::new(schema(), &TablePlacement::Partitioned(spec)).unwrap();
        // cold rows loaded directly into the cold partition would need the
        // mover; inserts always land in the hot partition:
        for i in 0..10 {
            td.insert(&[
                Value::BigInt(i),
                Value::Double(1.0),
                Value::Int(0),
                Value::Int(0),
            ])
            .unwrap();
        }
        assert_eq!(td.row_count(), 10);
        assert_eq!(td.hot.as_ref().map(Table::row_count), Some(10));
        assert_eq!(td.base.row_count(), 0);
        let rows = td.into_rows().unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn table_data_single() {
        let td = TableData::new(schema(), &TablePlacement::Single(StoreKind::Column)).unwrap();
        assert_eq!(td.row_count(), 0);
        assert!(td.horizontal_spec().is_none());
        assert_eq!(td.schema().name, "orders");
    }

    #[test]
    fn filter_selvec_matches_filter_rows() {
        let p = pair();
        let ranges = [
            ColRange::eq(3, Value::Int(0)),
            ColRange::eq(2, Value::Int(0)),
        ];
        let ids = p.filter_rows(&ranges);
        let sel = p.filter_selvec(&ranges);
        assert_eq!(sel.to_row_ids(), ids);
        assert_eq!(sel.len(), p.row_count());
    }
}
