//! Query execution over arbitrary storage layouts.
//!
//! Partitioned tables are processed by *rewriting* (Section 4 of the paper):
//! horizontal partitions are unioned with partial-aggregate merging (each
//! partition scanned on its own thread when the union is large), vertical
//! fragments are recombined positionally over the shared primary key.
//!
//! Every aggregate — grouped, ungrouped or joined, over any part — runs on
//! one block surface. Per [`BLOCK`] rows a part yields the selected
//! positions (from a bitmap selection vector, [`SelVec`]) and a slot block:
//! the group's dictionary code, the foreign key's dimension group, or a
//! constant 0. Column-store parts (resident, a disk `ColdView`, a pair's
//! column fragment) feed block-decoded dictionary codes
//! ([`ColumnData::decode_codes_into`]); row-store parts feed values. The
//! kernel then runs one tight loop per aggregate, specialised per function
//! and reading a plain `f64` lookup table when the dictionary holds only
//! numbers. Each slot sums in row order, so a part's answer does not depend
//! on its store.
//!
//! A join stays in the dictionary domain: a column-store dimension part is
//! indexed by primary-key *code*, and a column-store fact part maps its
//! foreign-key codes to groups by merging the two dictionaries' sorted
//! regions (only unmerged tail entries are looked up by value). Row-store
//! and vertical-pair dimension parts use a value hash map.

use std::collections::HashMap;

use hsd_catalog::{ColumnStats, TableStats};
use hsd_query::{
    AggFunc, Aggregate, AggregateQuery, InsertQuery, JoinSpec, Query, SelectQuery, UpdateQuery,
};
use hsd_storage::{
    pk_point, ColRange, ColumnData, Columns, Dictionary, NumericLut, RowSel, RowTable,
    SegmentStore, SelVec, Table, BLOCK,
};
use hsd_types::{ColumnIdx, Error, Result, TableSchema, Value};

use crate::database::HybridDatabase;
use crate::durability::WalRecord;
use crate::partition::{ColdView, DiskFragment, Loc, Region, TableData, VerticalPair};

/// Minimum total rows before a multi-partition scan fans out to threads;
/// below this the spawn overhead dominates the scan itself.
const PARALLEL_SCAN_MIN_ROWS: usize = 1 << 14;

/// Whether a horizontal-union scan over `parts` should run partitions on
/// separate threads.
fn parallelize(parts: &[Part<'_>]) -> bool {
    parts.len() > 1
        && parts.iter().map(Part::row_count).sum::<usize>() >= PARALLEL_SCAN_MIN_ROWS
        && parts.iter().filter(|p| p.row_count() > 0).count() > 1
}

/// Run `scan` over every partition of a horizontal union, fanning out to
/// scoped threads when the union is big enough to pay for them
/// ([`parallelize`]). Results come back in partition order (cold before
/// hot — the order the sequential path produces), so callers merge or
/// concatenate without reordering. This is the single place the
/// parallelization policy lives; selects, aggregates, and join aggregates
/// all go through it.
fn scan_parts<'a, T: Send>(
    parts: &'a [Part<'a>],
    scan: impl Fn(&'a Part<'a>) -> T + Sync,
) -> Vec<T> {
    if parallelize(parts) {
        let scan = &scan;
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|part| s.spawn(move || scan(part)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partition scan thread"))
                .collect()
        })
    } else {
        parts.iter().map(scan).collect()
    }
}

/// One output row of an aggregation: optional group key plus one numeric
/// result per aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Group key (`None` for ungrouped queries).
    pub key: Option<Value>,
    /// Finalized aggregate values, in query order.
    pub values: Vec<f64>,
}

/// Result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Aggregation results, sorted by group key.
    Aggregates(Vec<GroupRow>),
    /// Selected rows.
    Rows(Vec<Vec<Value>>),
    /// Rows affected by an insert or update.
    Affected(usize),
}

impl QueryOutput {
    /// Convenience accessor for aggregation results.
    pub fn aggregates(&self) -> Option<&[GroupRow]> {
        match self {
            QueryOutput::Aggregates(g) => Some(g),
            _ => None,
        }
    }

    /// Convenience accessor for selected rows.
    pub fn rows(&self) -> Option<&[Vec<Value>]> {
        match self {
            QueryOutput::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// Execute any query against the database's current layout.
///
/// Reads pin an epoch snapshot of the target table's shard and scan
/// without blocking other tables; writes serialize on the table's write
/// latch and log to the WAL before the latch is released (see
/// [`crate::database`] for the locking protocol).
pub fn execute(db: &HybridDatabase, query: &Query) -> Result<QueryOutput> {
    match query {
        Query::Insert(q) => exec_insert(db, q),
        Query::Update(q) => exec_update(db, q),
        Query::Select(q) => exec_select(db, q),
        Query::Aggregate(q) => match &q.join {
            None => exec_aggregate(db, q),
            Some(join) => exec_join_aggregate(db, q, join),
        },
    }
}

// ---------------------------------------------------------------------------
// Aggregation accumulators

#[derive(Debug, Clone, Copy)]
struct Acc {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Acc {
    fn new() -> Self {
        Acc {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn finalize(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            AggFunc::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    0.0
                } else {
                    self.min
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    0.0
                } else {
                    self.max
                }
            }
        }
    }
}

type Groups = HashMap<Option<Value>, Vec<Acc>>;

/// Merge per-partition partial aggregates into the union's groups.
fn merge_groups(into: &mut Groups, from: Groups, width: usize) {
    for (key, accs) in from {
        let merged = into.entry(key).or_insert_with(|| vec![Acc::new(); width]);
        for (a, b) in merged.iter_mut().zip(accs) {
            a.sum += b.sum;
            a.count += b.count;
            if b.min < a.min {
                a.min = b.min;
            }
            if b.max > a.max {
                a.max = b.max;
            }
        }
    }
}

fn finalize_groups(groups: Groups, aggregates: &[Aggregate]) -> Vec<GroupRow> {
    let mut out: Vec<GroupRow> = groups
        .into_iter()
        .map(|(key, accs)| GroupRow {
            key,
            values: accs
                .iter()
                .zip(aggregates)
                .map(|(a, agg)| a.finalize(agg.func))
                .collect(),
        })
        .collect();
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

// ---------------------------------------------------------------------------
// Parts

/// A read view over one physical partition.
enum Part<'a> {
    Whole(&'a Table),
    Pair(&'a VerticalPair),
    /// A disk-resident cold partition read in place: the columns this
    /// statement scans, fetched from the segment ([`ColdView`]); point
    /// reads go to the view's segment reader instead.
    Cold(ColdView<'a>),
}

/// The columns a scan filtering on `filter` and reading `extra` touches —
/// what a disk-resident cold partition fetches for the statement.
fn scan_columns(filter: &[ColRange], extra: impl IntoIterator<Item = ColumnIdx>) -> Vec<ColumnIdx> {
    filter.iter().map(|r| r.column).chain(extra).collect()
}

fn parts_of<'a>(data: &'a TableData, scan_cols: &[ColumnIdx]) -> Result<Vec<Part<'a>>> {
    parts_of_pruned(data, &[], scan_cols)
}

/// Partition elimination: when the filter constrains the horizontal split
/// column, partitions whose domain cannot overlap are skipped. The cold
/// partition holds only rows below the split value by construction; the hot
/// partition is prunable only while it stays "pure" (see
/// [`TableData::hot_is_pure`]). A disk-resident cold partition that
/// survives pruning fetches `scan_cols` and nothing else.
fn parts_of_pruned<'a>(
    data: &'a TableData,
    filter: &[ColRange],
    scan_cols: &[ColumnIdx],
) -> Result<Vec<Part<'a>>> {
    let (use_cold, use_hot) = pruning(data, filter);
    let mut parts = Vec::with_capacity(2);
    // Pruned-away disk partitions never touch the store — partition
    // elimination saves the segment read itself.
    if use_cold {
        parts.push(Part::of(&data.base, scan_cols)?);
    }
    if let (true, Some(h)) = (use_hot, &data.hot) {
        parts.push(Part::Whole(h));
    }
    Ok(parts)
}

fn range_overlaps_hot(r: &ColRange, split: &Value) -> bool {
    match r.hi_ref() {
        std::ops::Bound::Unbounded => true,
        std::ops::Bound::Included(v) => v >= split,
        std::ops::Bound::Excluded(v) => v > split,
    }
}

fn range_overlaps_cold(r: &ColRange, split: &Value) -> bool {
    match r.lo_ref() {
        std::ops::Bound::Unbounded => true,
        // Conservative for Excluded: only prune when provably disjoint.
        std::ops::Bound::Included(v) | std::ops::Bound::Excluded(v) => v < split,
    }
}

fn pruning(data: &TableData, filter: &[ColRange]) -> (bool, bool) {
    let Some(h) = data.horizontal_spec() else {
        return (true, true);
    };
    let mut use_cold = true;
    let mut use_hot = true;
    for r in filter.iter().filter(|r| r.column == h.split_column) {
        if !range_overlaps_cold(r, &h.split_value) {
            use_cold = false;
        }
        if data.hot_is_pure() && !range_overlaps_hot(r, &h.split_value) {
            use_hot = false;
        }
    }
    (use_cold, use_hot)
}

impl<'a> Part<'a> {
    /// The read view of `region`; a disk segment fetches `scan_cols`.
    fn of(region: &'a Region, scan_cols: &[ColumnIdx]) -> Result<Self> {
        Ok(match region {
            Region::Table(t) => Part::Whole(t),
            Region::Pair(p) => Part::Pair(p),
            Region::Disk(f) => Part::Cold(ColdView::fetch(f, scan_cols)?),
        })
    }

    /// The column-store read surface, when the part has one: a dimension
    /// part is indexed by primary-key code on it whether the columns are
    /// resident or were fetched from a segment.
    fn columnar(&self) -> Option<&dyn Columns> {
        match self {
            Part::Whole(Table::Column(ct)) => Some(ct),
            Part::Cold(view) => Some(view),
            Part::Whole(Table::Row(_)) | Part::Pair(_) => None,
        }
    }

    fn row_count(&self) -> usize {
        match self {
            Part::Whole(t) => t.row_count(),
            Part::Pair(p) => p.row_count(),
            Part::Cold(v) => v.row_count(),
        }
    }

    fn filter_rows(&self, ranges: &[ColRange]) -> Vec<u32> {
        match self {
            Part::Whole(t) => t.filter_rows(ranges),
            Part::Pair(p) => p.filter_rows(ranges),
            Part::Cold(v) => v.filter_selvec(ranges).to_row_ids(),
        }
    }

    fn filter_selvec(&self, ranges: &[ColRange]) -> SelVec {
        match self {
            Part::Whole(t) => t.filter_selvec(ranges),
            Part::Pair(p) => p.filter_selvec(ranges),
            Part::Cold(v) => v.filter_selvec(ranges),
        }
    }

    /// Where the aggregate kernel reads logical column `col` of this part:
    /// dictionary codes wherever the part holds the column in a column
    /// store (a pair's primary key included), row-store values otherwise.
    fn src(&self, col: ColumnIdx) -> Src<'_> {
        match self {
            Part::Whole(t) => Src::of(t, col),
            Part::Cold(v) => Src::Codes(v.column(col)),
            Part::Pair(p) => match (p.loc(col), p.col_fragment_position(col)) {
                (Loc::Row(i), None) => Src::of(p.row_fragment(), i),
                (_, Some(i)) | (Loc::Col(i), None) => Src::of(p.col_fragment(), i),
            },
        }
    }

    /// Point request: the row holding primary key `key`.
    fn point_lookup(&self, key: &[Value]) -> Result<Option<u32>> {
        match self {
            Part::Whole(t) => Ok(t.point_lookup(key)),
            Part::Pair(p) => Ok(p.point_lookup(key)),
            Part::Cold(v) => v.reader().locate(key),
        }
    }

    fn value_at(&self, idx: u32, col: ColumnIdx) -> &Value {
        match self {
            Part::Whole(t) => t.value_at(idx, col),
            Part::Pair(p) => p.value_at(idx, col),
            Part::Cold(v) => v.column(col).value_at(idx as usize),
        }
    }

    /// Point request: materialise `rows` (a cold view fetches them from the
    /// segment row-wise, whatever columns it holds for scanning).
    fn collect_rows(&self, rows: &[u32], cols: Option<&[ColumnIdx]>) -> Result<Vec<Vec<Value>>> {
        match self {
            Part::Whole(t) => Ok(t.collect_rows(RowSel::Subset(rows), cols)),
            Part::Pair(p) => Ok(p.collect_rows(rows, cols)),
            Part::Cold(v) => v.reader().rows(rows, cols),
        }
    }
}

// ---------------------------------------------------------------------------
// Inserts

fn exec_insert(db: &HybridDatabase, q: &InsertQuery) -> Result<QueryOutput> {
    db.check_writable(&q.table)?;
    let cfg = db.merge_config();
    let wal_on = db.wal_active();
    let shard = db.shard(&q.table)?;
    let mut failure = None;
    let republished = {
        let mut data = shard.latch();
        // Inserts land in the hot partition when one exists; only a
        // hot-less layout with a disk-resident cold partition needs the
        // write-through load.
        let needs_cold_load = data.base.as_disk().is_some() && data.hot.is_none();
        let mut apply_rows = |data: &mut TableData| {
            let mut applied = 0usize;
            for row in &q.rows {
                match data.insert(row) {
                    Ok(_) => applied += 1,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            applied
        };
        let (applied, republished) = if needs_cold_load {
            data.with_cold_loaded(db.segment_store(), apply_rows)?
        } else {
            (apply_rows(&mut data), Ok(()))
        };
        log_lost_demotion(db, &q.table, &republished)?;
        let merged = failure.is_none() && crate::maintenance::after_write(&mut data, &cfg);
        // Log after the in-memory apply but before the latch releases, so
        // the table's WAL order matches its apply order; the applied
        // prefix of a failing multi-row statement is still logged (there
        // is no rollback), so recovery reproduces the same state.
        if wal_on && applied > 0 {
            db.log_record(&WalRecord::Insert {
                table: q.table.clone(),
                rows: q.rows[..applied].to_vec(),
                load: false,
            })?;
        }
        if wal_on && merged {
            db.log_record(&WalRecord::MergeComplete {
                table: q.table.clone(),
                partition: crate::partition::MergePartition::Whole,
                merge_epoch: data.merge_epoch(),
            })?;
        }
        republished
    };
    if let Err(e) = republished {
        crate::mover::sync_partition_spec(db, &q.table)?;
        return Err(e);
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(QueryOutput::Affected(q.rows.len())),
    }
}

/// Under the latch, after a write-through: a failed republish left the cold
/// partition memory-resident, tier flag included (see
/// [`TableData::with_cold_loaded`]). Log that as a promotion, so replay
/// ends on the same tier (in either order with the statement's own record:
/// the tier change and the data change commute). Once the latch is
/// released the caller tells the catalog
/// ([`crate::mover::sync_partition_spec`]) and reports the publish error;
/// the statement itself is applied and logged.
fn log_lost_demotion(db: &HybridDatabase, table: &str, republished: &Result<()>) -> Result<()> {
    if republished.is_err() {
        db.log_record(&WalRecord::Promote {
            table: table.to_string(),
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Updates

fn exec_update(db: &HybridDatabase, q: &UpdateQuery) -> Result<QueryOutput> {
    db.check_writable(&q.table)?;
    let cfg = db.merge_config();
    let wal_on = db.wal_active();
    let shard = db.shard(&q.table)?;
    let (applied, republished) = {
        let mut guard = shard.latch();
        let data = &mut *guard;
        check_sets(&data.schema, &q.sets)?;
        let point = pk_point_key(data, &q.filter);
        let (mut use_cold, use_hot) = match &point {
            Some(key) => (!hot_point_hit(data, key), true),
            None => pruning(data, &q.filter),
        };
        // An update that changes a row of a disk-resident cold partition
        // goes through write-through: load the segment, apply the normal
        // path, re-encode and republish — the upkeep cost the advisor's
        // `TierModel::rewrite_mib_ms` prices. Whether it changes one is
        // asked of the segment in place first, so a statement whose matches
        // are all hot never loads or rewrites anything.
        let mut write_through = false;
        if let (true, Some(frag)) = (use_cold, data.base.as_disk()) {
            use_cold = cold_matches(frag, point.as_deref(), &q.filter)?;
            write_through = use_cold;
        }
        let apply =
            |data: &mut TableData| apply_update(data, q, point.as_deref(), use_cold, use_hot);
        let (applied, republished) = if write_through {
            data.with_cold_loaded(db.segment_store(), apply)?
        } else {
            (apply(data), Ok(()))
        };
        log_lost_demotion(db, &q.table, &republished)?;
        if let Ok(affected) = applied {
            let merged = crate::maintenance::after_write(data, &cfg);
            // WAL appends stay under the latch: per-table log order ==
            // apply order.
            if wal_on && affected > 0 {
                db.log_record(&WalRecord::Update {
                    table: q.table.clone(),
                    sets: q.sets.clone(),
                    filter: q.filter.clone(),
                })?;
            }
            if wal_on && merged {
                db.log_record(&WalRecord::MergeComplete {
                    table: q.table.clone(),
                    partition: crate::partition::MergePartition::Whole,
                    merge_epoch: data.merge_epoch(),
                })?;
            }
        }
        (applied, republished)
    };
    if let Err(e) = republished {
        crate::mover::sync_partition_spec(db, &q.table)?;
        return Err(e);
    }
    Ok(QueryOutput::Affected(applied?))
}

/// An update's assignments checked against the logical schema before any
/// part is touched, so a refused statement fails and changes nothing
/// whatever the layout, the path (point or scan) and the rows it matches.
fn check_sets(schema: &TableSchema, sets: &[(ColumnIdx, Value)]) -> Result<()> {
    for (col, value) in sets {
        if schema.is_pk_column(*col) {
            return Err(Error::InvalidOperation(format!(
                "cannot update primary-key column {} of {}",
                schema.column(*col)?.name,
                schema.name
            )));
        }
        schema.validate_value_at(*col, value)?;
    }
    Ok(())
}

/// Whether any row of a disk-resident cold partition matches the statement:
/// a point key is located in place, a filter is evaluated on the fetched
/// filter columns.
fn cold_matches(frag: &DiskFragment, point: Option<&[Value]>, filter: &[ColRange]) -> Result<bool> {
    Ok(match point {
        Some(key) => frag.reader().locate(key)?.is_some(),
        None => !ColdView::fetch(frag, &scan_columns(filter, []))?
            .filter_selvec(filter)
            .is_none_selected(),
    })
}

/// Whether a point key resolves in the hot partition (no cold access
/// needed).
fn hot_point_hit(data: &TableData, key: &[Value]) -> bool {
    data.hot
        .as_ref()
        .is_some_and(|h| h.point_lookup(key).is_some())
}

/// The layout-dispatched body of an update statement over the partitions
/// `use_cold` / `use_hot` admit (a disk-resident cold partition the
/// statement changes has been loaded by the caller).
fn apply_update(
    data: &mut TableData,
    q: &UpdateQuery,
    point: Option<&[Value]>,
    use_cold: bool,
    use_hot: bool,
) -> Result<usize> {
    // Point-update fast path over the PK index.
    if let Some(key) = point {
        return update_point(data, key, &q.sets, use_cold);
    }
    let mut affected = 0;
    if use_cold {
        affected += data.base.update_where(&q.filter, &q.sets)?;
    }
    if let (true, Some(h)) = (use_hot, &mut data.hot) {
        affected += h.update_rows(&h.filter_rows(&q.filter), &q.sets)?;
    }
    Ok(affected)
}

/// The point key ([`pk_point`]) of a filter on `data`, owned.
fn pk_point_key(data: &TableData, filter: &[ColRange]) -> Option<Vec<Value>> {
    Some(
        pk_point(&data.schema.primary_key, filter)?
            .into_iter()
            .cloned()
            .collect(),
    )
}

fn update_point(
    data: &mut TableData,
    key: &[Value],
    sets: &[(ColumnIdx, Value)],
    use_cold: bool,
) -> Result<usize> {
    if let Some(h) = &mut data.hot {
        if let Some(idx) = h.point_lookup(key) {
            return h.update_rows(&[idx], sets);
        }
    }
    if !use_cold {
        return Ok(0);
    }
    data.base.update_point(key, sets)
}

// ---------------------------------------------------------------------------
// Selects

fn exec_select(db: &HybridDatabase, q: &SelectQuery) -> Result<QueryOutput> {
    let shard = db.shard(&q.table)?;
    let pin = shard.pin();
    let data = &*pin;
    let cols = q.columns.as_deref();
    // Point-select fast path. The hot partition is probed before any part
    // list is built: the primary key is unique, so a hot hit both answers
    // the query and — for a disk-resident cold partition — avoids touching
    // a segment the row cannot be in.
    if let Some(key) = pk_point_key(data, &q.filter) {
        if let Some(h) = &data.hot {
            if let Some(idx) = h.point_lookup(&key) {
                return Ok(QueryOutput::Rows(
                    h.collect_rows(RowSel::Subset(&[idx]), cols),
                ));
            }
        }
        // Hot miss: fall through to the (pruned) partition list, so an
        // equality on the split column still skips a provably disjoint
        // cold side without touching it. A point request scans nothing: a
        // disk-resident cold partition locates the key and fetches the one
        // row in place.
        for part in parts_of_pruned(data, &q.filter, &[])? {
            if let Some(idx) = part.point_lookup(&key)? {
                return Ok(QueryOutput::Rows(part.collect_rows(&[idx], cols)?));
            }
        }
        return Ok(QueryOutput::Rows(Vec::new()));
    }
    // Scan the filter columns, then fetch the matching rows.
    let parts = parts_of_pruned(data, &q.filter, &scan_columns(&q.filter, []))?;
    let per_part = scan_parts(&parts, |part| {
        let rows = part.filter_rows(&q.filter);
        part.collect_rows(&rows, cols)
    });
    let mut out = Vec::new();
    for rows in per_part {
        out.extend(rows?);
    }
    Ok(QueryOutput::Rows(out))
}

// ---------------------------------------------------------------------------
// Aggregation

// Out of line: inlined OLAP paths double `execute` and slow the OLTP ones.
#[inline(never)]
fn exec_aggregate(db: &HybridDatabase, q: &AggregateQuery) -> Result<QueryOutput> {
    let shard = db.shard(&q.table)?;
    let pin = shard.pin();
    let data = &*pin;
    validate_agg_columns(data, q)?;
    let scanned = q.aggregates.iter().map(|a| a.column).chain(q.group_by);
    let parts = parts_of_pruned(data, &q.filter, &scan_columns(&q.filter, scanned))?;
    let grouping = match q.group_by {
        None => Grouping::One,
        Some(g) => Grouping::Column(g),
    };
    Ok(aggregate_parts(&parts, q, &grouping))
}

fn validate_agg_columns(data: &TableData, q: &AggregateQuery) -> Result<()> {
    for col in q.aggregates.iter().map(|a| a.column).chain(q.group_by) {
        check_column(data, &q.table, col)?;
    }
    Ok(())
}

/// `UnknownColumn("table[col]")` unless `table`'s schema has column `col`.
fn check_column(data: &TableData, table: &str, col: ColumnIdx) -> Result<()> {
    if col < data.schema().arity() {
        Ok(())
    } else {
        Err(Error::UnknownColumn(format!("{table}[{col}]")))
    }
}

/// Horizontal union: aggregate each partition (on its own thread when
/// large enough), then merge the partial aggregates (the paper's union
/// rewrite).
fn aggregate_parts<'a>(
    parts: &'a [Part<'a>],
    q: &'a AggregateQuery,
    grouping: &'a Grouping<'a>,
) -> QueryOutput {
    let partials = scan_parts(parts, |part| {
        let selection = (!q.filter.is_empty()).then(|| part.filter_selvec(&q.filter));
        aggregate_part(part, selection.as_ref(), &q.aggregates, grouping)
    });
    let mut groups = Groups::new();
    // The ungrouped answer has its row even when pruning left no part.
    if matches!(grouping, Grouping::One) {
        groups.insert(None, vec![Acc::new(); q.aggregates.len()]);
    }
    for partial in partials {
        merge_groups(&mut groups, partial, q.aggregates.len());
    }
    QueryOutput::Aggregates(finalize_groups(groups, &q.aggregates))
}

/// What an aggregate groups its rows by.
enum Grouping<'a> {
    /// One `None`-keyed group, present even when no row is selected.
    One,
    /// The values of a column of the aggregated table.
    Column(ColumnIdx),
    /// The dimension group a foreign-key column joins to: `dim` indexes the
    /// dimension, `keys[group]` names the groups. Inner join: a group is
    /// present once some selected row reaches it.
    Join {
        fk: ColumnIdx,
        dim: Vec<DimKeys<'a>>,
        keys: Vec<Option<Value>>,
    },
}

/// Where the aggregate kernel reads one column of a part.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// Block-decoded dictionary codes.
    Codes(&'a ColumnData),
    /// A row-store column, one value per row.
    Rows(&'a RowTable, ColumnIdx),
}

impl<'a> Src<'a> {
    fn of(table: &'a Table, col: ColumnIdx) -> Self {
        match table {
            Table::Column(ct) => Src::Codes(ct.column(col)),
            Table::Row(rt) => Src::Rows(rt, col),
        }
    }
}

/// Largest group dictionary whose codes serve as slots directly; a larger
/// one goes through a code -> slot map, bounding the accumulators to the
/// groups actually seen.
const DENSE_GROUPBY_MAX_DICT: usize = 1 << 16;

/// How one part's rows find their accumulator slot — the group half of the
/// kernel's block surface.
enum Slots<'a> {
    /// Ungrouped: every row folds into slot 0.
    One,
    /// The group column's codes are the slots.
    Codes(&'a ColumnData),
    /// A group dictionary over [`DENSE_GROUPBY_MAX_DICT`]: slots numbered
    /// by first appearance, `codes[slot]` the slot's group code.
    CodeMap {
        col: &'a ColumnData,
        map: HashMap<u32, u32>,
        codes: Vec<u32>,
    },
    /// Row-store group values, interned by first appearance.
    Values {
        rt: &'a RowTable,
        col: ColumnIdx,
        map: HashMap<&'a Value, u32>,
        keys: Vec<&'a Value>,
    },
    /// Join over foreign-key codes: `lut[fk code]` is the group
    /// ([`fk_groups`]).
    FkCodes {
        col: &'a ColumnData,
        lut: Vec<u32>,
        keys: &'a [Option<Value>],
    },
    /// Join over row-store foreign keys: one dimension probe per row.
    FkValues {
        rt: &'a RowTable,
        col: ColumnIdx,
        dim: &'a [DimKeys<'a>],
        keys: &'a [Option<Value>],
    },
}

impl<'a> Slots<'a> {
    fn new(part: &'a Part<'a>, grouping: &'a Grouping<'a>) -> Self {
        match grouping {
            Grouping::One => Slots::One,
            Grouping::Column(g) => match part.src(*g) {
                Src::Codes(col) if col.dictionary().len() <= DENSE_GROUPBY_MAX_DICT => {
                    Slots::Codes(col)
                }
                Src::Codes(col) => Slots::CodeMap {
                    col,
                    map: HashMap::new(),
                    codes: Vec::new(),
                },
                Src::Rows(rt, col) => Slots::Values {
                    rt,
                    col,
                    map: HashMap::new(),
                    keys: Vec::new(),
                },
            },
            Grouping::Join { fk, dim, keys } => match part.src(*fk) {
                Src::Codes(col) => Slots::FkCodes {
                    col,
                    lut: fk_groups(col.dictionary(), dim),
                    keys,
                },
                Src::Rows(rt, col) => Slots::FkValues { rt, col, dim, keys },
            },
        }
    }

    /// Slots handed out so far.
    fn len(&self) -> usize {
        match self {
            Slots::One => 1,
            Slots::Codes(col) => col.dictionary().len(),
            Slots::CodeMap { codes, .. } => codes.len(),
            Slots::Values { keys, .. } => keys.len(),
            Slots::FkCodes { keys, .. } | Slots::FkValues { keys, .. } => keys.len(),
        }
    }

    /// Write the slot of row `start + p` to `out[p]` for every block
    /// position `p` in `pos`, and drop the positions no group takes
    /// (dangling foreign keys). `None`: every row folds into slot 0.
    fn fill<'s>(
        &mut self,
        start: usize,
        pos: &mut Vec<u32>,
        out: &'s mut [u32],
    ) -> Option<&'s [u32]> {
        let row = |p: u32| (start + p as usize) as u32;
        match self {
            Slots::One => return None,
            Slots::Codes(col) => col.decode_codes_into(start, out),
            Slots::CodeMap { col, map, codes } => {
                col.decode_codes_into(start, out);
                for &p in pos.iter() {
                    let code = out[p as usize];
                    out[p as usize] = *map.entry(code).or_insert_with(|| {
                        codes.push(code);
                        codes.len() as u32 - 1
                    });
                }
            }
            Slots::Values { rt, col, map, keys } => {
                for &p in pos.iter() {
                    let v = rt.value_at(row(p), *col);
                    out[p as usize] = *map.entry(v).or_insert_with(|| {
                        keys.push(v);
                        keys.len() as u32 - 1
                    });
                }
            }
            Slots::FkCodes { col, lut, .. } => {
                col.decode_codes_into(start, out);
                let mut dangling = false;
                for &p in pos.iter() {
                    let s = lut[out[p as usize] as usize];
                    out[p as usize] = s;
                    dangling |= s == UNMATCHED;
                }
                if dangling {
                    pos.retain(|&p| out[p as usize] != UNMATCHED);
                }
            }
            Slots::FkValues { rt, col, dim, .. } => {
                for &p in pos.iter() {
                    out[p as usize] =
                        probe_dim(dim, rt.value_at(row(p), *col)).unwrap_or(UNMATCHED);
                }
                pos.retain(|&p| out[p as usize] != UNMATCHED);
            }
        }
        Some(out)
    }

    /// The group key slot `slot` accumulates.
    fn key(&self, slot: usize) -> Option<Value> {
        match self {
            Slots::One => None,
            Slots::Codes(col) => Some(col.dictionary().decode(slot as u32).clone()),
            Slots::CodeMap { col, codes, .. } => Some(col.dictionary().decode(codes[slot]).clone()),
            Slots::Values { keys, .. } => Some(keys[slot].clone()),
            Slots::FkCodes { keys, .. } | Slots::FkValues { keys, .. } => keys[slot].clone(),
        }
    }
}

/// Where the kernel reads one aggregate's input — the value half of the
/// block surface.
enum Measure<'a> {
    /// COUNT over codes: rows whose code is not the dictionary's NULL
    /// (`None`: the dictionary holds no NULL, so no code is read at all).
    Count(&'a ColumnData, Option<u32>),
    /// SUM/AVG/MIN/MAX over codes, through the column's numeric lookup
    /// table ([`ColumnData::numeric_lut`]).
    Numeric(&'a ColumnData, NumericLut<'a>),
    /// A row-store column: `as_f64`, or non-null under COUNT.
    Rows(&'a RowTable, ColumnIdx),
}

impl<'a> Measure<'a> {
    fn new(src: Src<'a>, func: AggFunc, visited: usize) -> Self {
        match src {
            Src::Rows(rt, col) => Measure::Rows(rt, col),
            Src::Codes(col) if func == AggFunc::Count => {
                Measure::Count(col, col.dictionary().code_for(&Value::Null))
            }
            Src::Codes(col) => Measure::Numeric(col, col.numeric_lut(visited)),
        }
    }

    /// Whether every row folds into its slot's count (no NULL, every
    /// dictionary entry a number).
    fn counts_every_row(&self) -> bool {
        matches!(
            self,
            Measure::Count(_, None) | Measure::Numeric(_, NumericLut::Plain(_))
        )
    }

    /// Fold the rows at block positions `pos` of the block starting at
    /// `start` into `accs`, each into its slot (`slots[p]`, or slot 0);
    /// `codes` is decode scratch of the block's length.
    fn fold(
        &self,
        func: AggFunc,
        start: usize,
        pos: &[u32],
        slots: Option<&[u32]>,
        accs: &mut [Acc],
        codes: &mut [u32],
    ) {
        match slots {
            None => {
                // A local accumulator, so the loop keeps it in registers.
                let mut one = [accs[0]];
                self.fold_into(func, start, pos, |_| 0, &mut one, codes);
                accs[0] = one[0];
            }
            Some(s) => self.fold_into(func, start, pos, |p| s[p] as usize, accs, codes),
        }
    }

    #[inline(always)]
    fn fold_into(
        &self,
        func: AggFunc,
        start: usize,
        pos: &[u32],
        slot: impl Fn(usize) -> usize,
        accs: &mut [Acc],
        codes: &mut [u32],
    ) {
        let row = |p: usize| (start + p) as u32;
        match self {
            Measure::Count(_, None) => fold(func, pos, accs, slot, |_| Some(0.0)),
            Measure::Count(col, Some(null)) => {
                col.decode_codes_into(start, codes);
                fold(func, pos, accs, slot, |p| {
                    (codes[p] != *null).then_some(0.0)
                })
            }
            Measure::Numeric(col, lut) => {
                col.decode_codes_into(start, codes);
                let codes = &*codes;
                match lut {
                    NumericLut::Plain(l) => {
                        fold(func, pos, accs, slot, |p| Some(l[codes[p] as usize]))
                    }
                    NumericLut::Sparse(l) => fold(func, pos, accs, slot, |p| l[codes[p] as usize]),
                    NumericLut::Direct(d) => {
                        fold(func, pos, accs, slot, |p| d.decode(codes[p]).as_f64())
                    }
                }
            }
            Measure::Rows(rt, col) if func == AggFunc::Count => fold(func, pos, accs, slot, |p| {
                (!rt.value_at(row(p), *col).is_null()).then_some(0.0)
            }),
            Measure::Rows(rt, col) => fold(func, pos, accs, slot, |p| {
                rt.value_at(row(p), *col).as_f64()
            }),
        }
    }
}

/// The aggregate kernel: one tight loop of `func` over the block positions
/// `pos`, row `p` folding `val(p)` into `accs[slot(p)]` (under COUNT, `Some`
/// marks a counted row). Each function touches only what it finalizes
/// from, and every slot sums in row order, so a layout never changes which
/// numbers are added in which order within a part.
#[inline(always)]
fn fold(
    func: AggFunc,
    pos: &[u32],
    accs: &mut [Acc],
    slot: impl Fn(usize) -> usize,
    val: impl Fn(usize) -> Option<f64>,
) {
    let rows = pos.iter().map(|&p| p as usize);
    match func {
        AggFunc::Count => {
            for p in rows {
                accs[slot(p)].count += val(p).is_some() as u64;
            }
        }
        AggFunc::Sum | AggFunc::Avg => {
            for p in rows {
                if let Some(v) = val(p) {
                    let a = &mut accs[slot(p)];
                    a.sum += v;
                    a.count += 1;
                }
            }
        }
        AggFunc::Min => {
            for p in rows {
                if let Some(v) = val(p) {
                    let a = &mut accs[slot(p)];
                    a.min = if v < a.min { v } else { a.min };
                    a.count += 1;
                }
            }
        }
        AggFunc::Max => {
            for p in rows {
                if let Some(v) = val(p) {
                    let a = &mut accs[slot(p)];
                    a.max = if v > a.max { v } else { a.max };
                    a.count += 1;
                }
            }
        }
    }
}

/// The block-local positions of the selected rows in `start..start + len`.
fn select_block(selection: Option<&SelVec>, start: usize, len: usize, pos: &mut Vec<u32>) {
    pos.clear();
    match selection {
        None => pos.extend(0..len as u32),
        Some(sv) => {
            // exact: BLOCK is a multiple of 64
            let words = &sv.words()[start / 64..(start + len).div_ceil(64)];
            for (wi, &w) in words.iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    pos.push(wi as u32 * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// Aggregate one part on the block surface every part shares. Per
/// [`BLOCK`] rows: the selected positions, a slot block ([`Slots::fill`]:
/// group code, fk -> group, or a constant 0), then one [`fold`] per
/// aggregate. Column parts feed codes, row-store parts values; a vertical
/// pair mixes the two per column.
fn aggregate_part(
    part: &Part<'_>,
    selection: Option<&SelVec>,
    aggregates: &[Aggregate],
    grouping: &Grouping<'_>,
) -> Groups {
    let n = part.row_count();
    let visited = selection.map_or(n, SelVec::count);
    let measures: Vec<Measure> = aggregates
        .iter()
        .map(|a| Measure::new(part.src(a.column), a.func, visited))
        .collect();
    // A measure every row counts in tells which slots a row reached by its
    // counts, which spares the kernel the per-row `seen` marks.
    let counted = measures.iter().position(Measure::counts_every_row);
    let mut slots = Slots::new(part, grouping);
    let mut accs: Vec<Vec<Acc>> = vec![Vec::new(); aggregates.len()];
    let mut seen: Vec<bool> = Vec::new();
    let grow = |width: usize, seen: &mut Vec<bool>, accs: &mut Vec<Vec<Acc>>| {
        if seen.len() < width {
            seen.resize(width, false);
            accs.iter_mut().for_each(|a| a.resize(width, Acc::new()));
        }
    };
    grow(slots.len(), &mut seen, &mut accs);
    let (mut pos, mut slot_buf, mut code_buf) =
        (Vec::with_capacity(BLOCK), [0u32; BLOCK], [0u32; BLOCK]);
    for start in (0..n).step_by(BLOCK) {
        let len = BLOCK.min(n - start);
        select_block(selection, start, len, &mut pos);
        if pos.is_empty() {
            continue;
        }
        let block_slots = slots.fill(start, &mut pos, &mut slot_buf[..len]);
        grow(slots.len(), &mut seen, &mut accs);
        if let (Some(s), None) = (block_slots, counted) {
            for &p in &pos {
                seen[s[p as usize] as usize] = true;
            }
        }
        for ((m, agg), acc) in measures.iter().zip(aggregates).zip(&mut accs) {
            m.fold(
                agg.func,
                start,
                &pos,
                block_slots,
                acc,
                &mut code_buf[..len],
            );
        }
    }
    (0..slots.len())
        .filter(|&s| match counted {
            _ if matches!(slots, Slots::One) => true,
            Some(k) => accs[k][s].count > 0,
            None => seen[s],
        })
        .map(|s| (slots.key(s), accs.iter().map(|a| a[s]).collect()))
        .collect()
}

// ---------------------------------------------------------------------------
// Join aggregation (fact ⋈ dim)

// Out of line, for the same reason as `exec_aggregate`.
#[inline(never)]
fn exec_join_aggregate(
    db: &HybridDatabase,
    q: &AggregateQuery,
    join: &JoinSpec,
) -> Result<QueryOutput> {
    // Two-table read: pin both shards, in lexicographic table-name order
    // so concurrent joins can never deadlock against queued writers
    // (self-joins share one pin).
    let fact_shard = db.shard(&q.table)?;
    let dim_shard = db.shard(&join.dim_table)?;
    let (fact_pin, dim_pin);
    if std::sync::Arc::ptr_eq(&fact_shard, &dim_shard) {
        fact_pin = fact_shard.pin();
        dim_pin = None;
    } else if q.table <= join.dim_table {
        fact_pin = fact_shard.pin();
        dim_pin = Some(dim_shard.pin());
    } else {
        let d = dim_shard.pin();
        fact_pin = fact_shard.pin();
        dim_pin = Some(d);
    }
    let dim: &TableData = dim_pin.as_deref().unwrap_or(&fact_pin);
    let fact: &TableData = &fact_pin;
    validate_agg_columns(fact, q)?;
    check_column(fact, &q.table, join.fact_fk)?;
    for col in std::iter::once(join.dim_pk).chain(join.group_by_dim) {
        check_column(dim, &join.dim_table, col)?;
    }
    let dim_parts = parts_of(
        dim,
        &scan_columns(&[], std::iter::once(join.dim_pk).chain(join.group_by_dim)),
    )?;
    let (dim_keys, keys) = build_dim_keys(&dim_parts, join);
    let scanned = std::iter::once(join.fact_fk).chain(q.aggregates.iter().map(|a| a.column));
    let parts = parts_of_pruned(fact, &q.filter, &scan_columns(&q.filter, scanned))?;
    let grouping = Grouping::Join {
        fk: join.fact_fk,
        dim: dim_keys,
        keys,
    };
    Ok(aggregate_parts(&parts, q, &grouping))
}

/// Group index of a join key no dimension row holds: the inner join drops
/// the fact rows that carry it.
const UNMATCHED: u32 = u32::MAX;

/// One dimension part's join index: primary key -> dense group index.
enum DimKeys<'a> {
    /// Column-store part (resident or a disk view), indexed by primary-key
    /// *code*: `gi[code]` is the group index of the row holding that key,
    /// [`UNMATCHED`] for dictionary entries no row holds any more.
    Codes { pk: &'a Dictionary, gi: Vec<u32> },
    /// Row-store or vertical-pair part: borrowed key value -> group index.
    Hash(HashMap<&'a Value, u32>),
}

/// Group index of the dimension row holding `key`: the last part holding it
/// wins, as a later row would in one index.
fn probe_dim(dim: &[DimKeys<'_>], key: &Value) -> Option<u32> {
    dim.iter().rev().find_map(|keys| match keys {
        DimKeys::Codes { pk, gi } => pk
            .code_for(key)
            .map(|c| gi[c as usize])
            .filter(|&g| g != UNMATCHED),
        DimKeys::Hash(map) => map.get(key).copied(),
    })
}

/// The join index of every dimension part, in part order, plus the group
/// keys their group indexes name (one `None` group without `group_by_dim`).
///
/// A column-store part never decodes a row: group values are interned once
/// per group-dictionary entry, then one block-decoded pass over the pk and
/// group code columns writes each row's group index at its pk code. Other
/// parts build a hash map keyed by borrowed values (no per-row key clone).
fn build_dim_keys<'a>(
    parts: &'a [Part<'a>],
    join: &JoinSpec,
) -> (Vec<DimKeys<'a>>, Vec<Option<Value>>) {
    let mut group_keys: Vec<Option<Value>> = Vec::new();
    if join.group_by_dim.is_none() {
        group_keys.push(None);
    }
    let mut group_index: HashMap<&Value, u32> = HashMap::new();
    let mut intern = |v: &'a Value| {
        *group_index.entry(v).or_insert_with(|| {
            group_keys.push(Some(v.clone()));
            group_keys.len() as u32 - 1
        })
    };
    let keys = parts
        .iter()
        .map(|part| match part.columnar() {
            Some(ct) => {
                let pk = ct.column(join.dim_pk);
                let gcol = join.group_by_dim.map(|g| ct.column(g));
                let code_gi: Vec<u32> = gcol
                    .into_iter()
                    .flat_map(|g| g.dictionary().values())
                    .map(&mut intern)
                    .collect();
                let mut gi = vec![UNMATCHED; pk.dictionary().len()];
                let (mut pks, mut groups) = ([0u32; BLOCK], [0u32; BLOCK]);
                let n = ct.row_count();
                for start in (0..n).step_by(BLOCK) {
                    let len = BLOCK.min(n - start);
                    pk.decode_codes_into(start, &mut pks[..len]);
                    if let Some(g) = gcol {
                        g.decode_codes_into(start, &mut groups[..len]);
                    }
                    for (&p, &g) in pks[..len].iter().zip(&groups) {
                        gi[p as usize] = gcol.map_or(0, |_| code_gi[g as usize]);
                    }
                }
                DimKeys::Codes {
                    pk: pk.dictionary(),
                    gi,
                }
            }
            None => {
                let mut map = HashMap::with_capacity(part.row_count());
                for idx in 0..part.row_count() as u32 {
                    let gi = join
                        .group_by_dim
                        .map_or(0, |g| intern(part.value_at(idx, g)));
                    map.insert(part.value_at(idx, join.dim_pk), gi);
                }
                DimKeys::Hash(map)
            }
        })
        .collect();
    (keys, group_keys)
}

/// Visit every pair `(a code, b code)` of equal values in two dictionaries,
/// each pair exactly once: the sorted regions merge in one two-pointer pass
/// (both are in value order), `a`'s tail entries resolve against all of `b`
/// and `b`'s tail entries against `a`'s sorted region only.
fn merge_dictionaries(a: &Dictionary, b: &Dictionary, mut visit: impl FnMut(u32, u32)) {
    let (a_sorted, b_sorted) = (a.sorted_len() as u32, b.sorted_len() as u32);
    let (mut i, mut j) = (0, 0);
    while i < a_sorted && j < b_sorted {
        match a.decode(i).cmp(b.decode(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                visit(i, j);
                i += 1;
                j += 1;
            }
        }
    }
    for i in a_sorted..a.len() as u32 {
        if let Some(j) = b.code_for(a.decode(i)) {
            visit(i, j);
        }
    }
    for j in b_sorted..b.len() as u32 {
        if let Some(i) = a.code_for(b.decode(j)).filter(|&i| i < a_sorted) {
            visit(i, j);
        }
    }
}

/// The dictionary join of a column-store fact part: fk code -> group index
/// ([`UNMATCHED`] for dangling foreign keys), built once per part so the
/// kernel's slot block is one array read per row. Against a code-indexed
/// dimension part the fk and pk dictionaries merge
/// ([`merge_dictionaries`]); a hash part is probed once per fk dictionary
/// entry. Later parts overwrite earlier ones, as [`probe_dim`] resolves
/// them.
fn fk_groups(fk: &Dictionary, dim: &[DimKeys<'_>]) -> Vec<u32> {
    let mut lut = vec![UNMATCHED; fk.len()];
    for keys in dim {
        match keys {
            DimKeys::Codes { pk, gi } => merge_dictionaries(fk, pk, |f, p| {
                if gi[p as usize] != UNMATCHED {
                    lut[f as usize] = gi[p as usize];
                }
            }),
            DimKeys::Hash(map) => {
                for (slot, v) in lut.iter_mut().zip(fk.values()) {
                    if let Some(&gi) = map.get(v) {
                        *slot = gi;
                    }
                }
            }
        }
    }
    lut
}

// ---------------------------------------------------------------------------
// Partition-aware maintenance helpers used by the database facade

/// Collect a table's statistics. A single-store table is one table's
/// statistics; a partitioned one folds its parts' statistics column by
/// column, approximating distinct counts by the per-part maximum (exact
/// union counting would require materializing cross-part value sets).
pub(crate) fn collect_logical_stats(data: &TableData, store: &SegmentStore) -> Result<TableStats> {
    if let (None, Region::Table(t)) = (&data.spec, &data.base) {
        return Ok(TableStats::collect(t));
    }
    let rows = data.row_count();
    let mut stats = TableStats::empty(data.schema().arity());
    stats.row_count = rows;
    // Statistics read every column's dictionary: for a disk-resident cold
    // partition that is the whole-fragment path, not a per-statement view.
    let loaded;
    let parts = match &data.base {
        Region::Disk(f) => {
            loaded = f.load(store)?;
            std::iter::once(&loaded)
                .chain(&data.hot)
                .map(Part::Whole)
                .collect()
        }
        _ => parts_of(data, &[])?,
    };
    for part in parts {
        match part {
            Part::Whole(t) => {
                let part_stats = TableStats::collect(t);
                for (dst, src) in stats.columns.iter_mut().zip(&part_stats.columns) {
                    fold_column_stats(dst, src);
                }
            }
            Part::Pair(p) => {
                let row_stats = TableStats::collect(p.row_fragment());
                let col_stats = TableStats::collect(p.col_fragment());
                for (c, dst) in stats.columns.iter_mut().enumerate() {
                    let src = match p.loc(c) {
                        Loc::Row(i) => &row_stats.columns[i],
                        Loc::Col(i) => &col_stats.columns[i],
                    };
                    fold_column_stats(dst, src);
                }
            }
            Part::Cold(_) => unreachable!("disk-resident cold partitions were loaded above"),
        }
    }
    for col in &mut stats.columns {
        col.compression_rate = if rows == 0 {
            0.0
        } else {
            (1.0 - col.distinct as f64 / rows as f64).max(0.0)
        };
    }
    Ok(stats)
}

/// Fold one part's statistics of a column into the table's.
fn fold_column_stats(dst: &mut ColumnStats, src: &ColumnStats) {
    dst.distinct = dst.distinct.max(src.distinct);
    match (&dst.min, &src.min) {
        (None, Some(v)) => dst.min = Some(v.clone()),
        (Some(a), Some(v)) if v < a => dst.min = Some(v.clone()),
        _ => {}
    }
    match (&dst.max, &src.max) {
        (None, Some(v)) => dst.max = Some(v.clone()),
        (Some(a), Some(v)) if v > a => dst.max = Some(v.clone()),
        _ => {}
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hsd_catalog::{HorizontalSpec, PartitionSpec, TablePlacement, VerticalSpec};
    use hsd_query::{AggregateQuery, SelectQuery};
    use hsd_storage::StoreKind;
    use hsd_types::{ColumnDef, ColumnType, TableSchema};

    pub(crate) fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("kf", ColumnType::Double),
                ColumnDef::new("grp", ColumnType::Integer),
                ColumnDef::new("st", ColumnType::Integer),
            ],
            vec![0],
        )
        .unwrap()
    }

    pub(crate) fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::BigInt(i),
                    Value::Double(i as f64),
                    Value::Int((i % 3) as i32),
                    Value::Int((i % 2) as i32),
                ]
            })
            .collect()
    }

    fn db_with(placement: TablePlacement) -> HybridDatabase {
        let db = HybridDatabase::new();
        db.create_table(schema(), placement).unwrap();
        db.bulk_load("t", rows(30)).unwrap();
        db
    }

    fn partitioned_placement() -> TablePlacement {
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(1000),
            }),
            vertical: Some(VerticalSpec { row_cols: vec![3] }),
            ..Default::default()
        })
    }

    pub(crate) fn all_placements() -> Vec<TablePlacement> {
        vec![
            TablePlacement::Single(StoreKind::Row),
            TablePlacement::Single(StoreKind::Column),
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(20),
                }),
                vertical: None,
                ..Default::default()
            }),
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: None,
                vertical: Some(VerticalSpec { row_cols: vec![3] }),
                ..Default::default()
            }),
            partitioned_placement(),
        ]
    }

    #[test]
    fn sum_agrees_across_all_layouts() {
        let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        let expect: f64 = (0..30).map(|i| i as f64).sum();
        for placement in all_placements() {
            let db = db_with(placement.clone());
            let out = db.execute(&q).unwrap();
            let aggs = out.aggregates().unwrap();
            assert_eq!(aggs.len(), 1, "{placement:?}");
            assert!((aggs[0].values[0] - expect).abs() < 1e-9, "{placement:?}");
        }
    }

    #[test]
    fn grouped_aggregates_agree_across_layouts() {
        let q = Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: vec![
                Aggregate {
                    func: AggFunc::Sum,
                    column: 1,
                },
                Aggregate {
                    func: AggFunc::Count,
                    column: 1,
                },
                Aggregate {
                    func: AggFunc::Max,
                    column: 1,
                },
            ],
            group_by: Some(2),
            filter: vec![],
            join: None,
        });
        let reference = {
            let db = db_with(TablePlacement::Single(StoreKind::Row));
            db.execute(&q).unwrap()
        };
        for placement in all_placements() {
            let db = db_with(placement.clone());
            let out = db.execute(&q).unwrap();
            assert_eq!(out, reference, "{placement:?}");
        }
    }

    #[test]
    fn dense_and_hash_group_by_agree() {
        // `kf` is unique per row, so its dictionary exceeds the dense
        // limit and grouping on it goes through the code -> slot map;
        // `grp` has three values and its codes are the slots. Both must
        // answer like the row store.
        let n = DENSE_GROUPBY_MAX_DICT as i64 + 64;
        let grouped = |group_col| {
            Query::Aggregate(AggregateQuery {
                table: "t".into(),
                aggregates: vec![
                    Aggregate {
                        func: AggFunc::Sum,
                        column: 1,
                    },
                    Aggregate {
                        func: AggFunc::Count,
                        column: 3,
                    },
                ],
                group_by: Some(group_col),
                filter: vec![ColRange::ge(0, Value::BigInt(n - 200))],
                join: None,
            })
        };
        let load = |store| {
            let db = HybridDatabase::new();
            db.create_table(schema(), TablePlacement::Single(store))
                .unwrap();
            db.bulk_load("t", rows(n)).unwrap();
            db
        };
        let (col, row) = (load(StoreKind::Column), load(StoreKind::Row));
        for (group_col, groups) in [(1, 200), (2, 3)] {
            let q = grouped(group_col);
            let out = col.execute(&q).unwrap();
            assert_eq!(out, row.execute(&q).unwrap(), "group by {group_col}");
            assert_eq!(out.aggregates().unwrap().len(), groups);
        }
    }

    #[test]
    fn filtered_aggregation() {
        let q = Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: vec![Aggregate {
                func: AggFunc::Count,
                column: 0,
            }],
            group_by: None,
            filter: vec![ColRange::ge(1, Value::Double(20.0))],
            join: None,
        });
        for placement in all_placements() {
            let db = db_with(placement.clone());
            let out = db.execute(&q).unwrap();
            assert_eq!(
                out.aggregates().unwrap()[0].values[0],
                10.0,
                "{placement:?}"
            );
        }
    }

    #[test]
    fn avg_and_min_finalize() {
        let q = Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: vec![
                Aggregate {
                    func: AggFunc::Avg,
                    column: 1,
                },
                Aggregate {
                    func: AggFunc::Min,
                    column: 1,
                },
            ],
            group_by: None,
            filter: vec![],
            join: None,
        });
        let db = db_with(TablePlacement::Single(StoreKind::Column));
        let out = db.execute(&q).unwrap();
        let row = &out.aggregates().unwrap()[0];
        assert!((row.values[0] - 14.5).abs() < 1e-9);
        assert_eq!(row.values[1], 0.0);
    }

    #[test]
    fn point_select_finds_row_in_any_partition() {
        for placement in all_placements() {
            let db = db_with(placement.clone());
            // insert lands in hot partition when horizontal split exists
            db.execute(&Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![vec![
                    Value::BigInt(5000),
                    Value::Double(1.0),
                    Value::Int(0),
                    Value::Int(0),
                ]],
            }))
            .unwrap();
            let out = db
                .execute(&Query::Select(SelectQuery::point(
                    "t",
                    0,
                    Value::BigInt(5000),
                )))
                .unwrap();
            assert_eq!(out.rows().unwrap().len(), 1, "{placement:?}");
            let out = db
                .execute(&Query::Select(SelectQuery::point("t", 0, Value::BigInt(7))))
                .unwrap();
            assert_eq!(
                out.rows().unwrap()[0][1],
                Value::Double(7.0),
                "{placement:?}"
            );
            let out = db
                .execute(&Query::Select(SelectQuery::point(
                    "t",
                    0,
                    Value::BigInt(99999),
                )))
                .unwrap();
            assert!(out.rows().unwrap().is_empty(), "{placement:?}");
        }
    }

    #[test]
    fn range_select_unions_partitions() {
        for placement in all_placements() {
            let db = db_with(placement.clone());
            let out = db
                .execute(&Query::Select(SelectQuery {
                    table: "t".into(),
                    columns: Some(vec![0]),
                    filter: vec![ColRange::between(
                        1,
                        Value::Double(10.0),
                        Value::Double(12.0),
                    )],
                }))
                .unwrap();
            let mut ids: Vec<i64> = out
                .rows()
                .unwrap()
                .iter()
                .map(|r| r[0].as_i64().unwrap())
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![10, 11, 12], "{placement:?}");
        }
    }

    #[test]
    fn updates_apply_across_layouts() {
        let upd = Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(3, Value::Int(9))],
            filter: vec![ColRange::eq(0, Value::BigInt(4))],
        });
        let check = Query::Select(SelectQuery::point("t", 0, Value::BigInt(4)));
        for placement in all_placements() {
            let db = db_with(placement.clone());
            let out = db.execute(&upd).unwrap();
            assert_eq!(out, QueryOutput::Affected(1), "{placement:?}");
            let rows = db.execute(&check).unwrap();
            assert_eq!(rows.rows().unwrap()[0][3], Value::Int(9), "{placement:?}");
        }
    }

    #[test]
    fn range_update_affects_all_partitions() {
        let upd = Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(-1.0))],
            filter: vec![ColRange::ge(0, Value::BigInt(25))],
        });
        for placement in all_placements() {
            let db = db_with(placement.clone());
            let out = db.execute(&upd).unwrap();
            assert_eq!(out, QueryOutput::Affected(5), "{placement:?}");
        }
    }

    /// Join dimension of `t`: `dk` shares the fact fk column's type
    /// (Integer), since cross-type values never join.
    fn dim_schema() -> TableSchema {
        TableSchema::new(
            "dim",
            vec![
                ColumnDef::new("dk", ColumnType::Integer),
                ColumnDef::new("region", ColumnType::Integer),
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn join_aggregation_matches_reference() {
        let fact_fk_rows: Vec<Vec<Value>> = (0..40)
            .map(|i| {
                vec![
                    Value::BigInt(i),
                    Value::Double(i as f64),
                    Value::Int((i % 4) as i32), // fk into dim (grp column doubles as fk)
                    Value::Int(0),
                ]
            })
            .collect();
        let q = Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: vec![Aggregate {
                func: AggFunc::Sum,
                column: 1,
            }],
            group_by: None,
            filter: vec![],
            join: Some(JoinSpec {
                dim_table: "dim".into(),
                fact_fk: 2,
                dim_pk: 0,
                group_by_dim: Some(1),
            }),
        });
        let mut reference: Option<QueryOutput> = None;
        for fact_store in StoreKind::BOTH {
            for dim_store in StoreKind::BOTH {
                let db = HybridDatabase::new();
                db.create_single(schema(), fact_store).unwrap();
                db.create_single(dim_schema(), dim_store).unwrap();
                db.bulk_load("t", fact_fk_rows.clone()).unwrap();
                db.bulk_load(
                    "dim",
                    // fk domain is 0..4 but dim holds only 0..3: one dangling key
                    (0..3).map(|i| vec![Value::Int(i), Value::Int(i % 2)]),
                )
                .unwrap();
                let out = db.execute(&q).unwrap();
                match &reference {
                    None => reference = Some(out),
                    Some(r) => assert_eq!(&out, r, "{fact_store:?} x {dim_store:?}"),
                }
            }
        }
        // sanity: two region groups, and dangling fk==3 rows are dropped
        let r = reference.unwrap();
        let groups = r.aggregates().unwrap().to_vec();
        assert_eq!(groups.len(), 2);
        let total: f64 = groups.iter().map(|g| g.values[0]).sum();
        let expect: f64 = (0..40).filter(|i| i % 4 != 3).map(|i| i as f64).sum();
        assert!((total - expect).abs() < 1e-9);
    }

    #[test]
    fn join_spec_out_of_range_columns_error() {
        let join = |fact_fk, dim_pk, group_by_dim| {
            Query::Aggregate(AggregateQuery {
                table: "t".into(),
                aggregates: vec![Aggregate {
                    func: AggFunc::Sum,
                    column: 1,
                }],
                group_by: None,
                filter: vec![],
                join: Some(JoinSpec {
                    dim_table: "dim".into(),
                    fact_fk,
                    dim_pk,
                    group_by_dim,
                }),
            })
        };
        // `t` has four columns and `dim` two.
        let probes = [
            (join(9, 0, Some(1)), "t[9]"),
            (join(2, 9, Some(1)), "dim[9]"),
            (join(2, 9, None), "dim[9]"),
            (join(2, 0, Some(7)), "dim[7]"),
        ];
        for store in StoreKind::BOTH {
            let db = db_with(TablePlacement::Single(store));
            db.create_single(dim_schema(), store).unwrap();
            db.bulk_load("dim", (0..3).map(|i| vec![Value::Int(i), Value::Int(i)]))
                .unwrap();
            for (q, column) in &probes {
                match db.execute(q) {
                    Err(Error::UnknownColumn(c)) => assert_eq!(&c, column, "{store:?}"),
                    other => panic!("{store:?}, {column}: {other:?}"),
                }
            }
        }
    }

    mod join_merge_props {
        use super::*;
        use proptest::prelude::*;

        /// `sorted` as a merged dictionary, then `tail` interned after it;
        /// keys are integers or, with `text`, their zero-padded spellings.
        fn dict(sorted: &[i32], tail: &[i32], text: bool) -> Dictionary {
            let key = |v: i32| {
                if text {
                    Value::text(format!("k{v:03}"))
                } else {
                    Value::Int(v)
                }
            };
            let mut d = Dictionary::from_distinct(sorted.iter().map(|&v| key(v)).collect());
            for &v in tail {
                d.intern(&key(v));
            }
            d
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            #[test]
            fn merge_dictionaries_pairs_equal_values_once(
                a_sorted in prop::collection::vec(0i32..80, 0..30),
                a_tail in prop::collection::vec(0i32..80, 0..12),
                b_sorted in prop::collection::vec(0i32..80, 0..30),
                b_tail in prop::collection::vec(0i32..80, 0..12),
                text in any::<bool>(),
            ) {
                let a = dict(&a_sorted, &a_tail, text);
                let b = dict(&b_sorted, &b_tail, text);
                let mut merged = Vec::new();
                merge_dictionaries(&a, &b, |i, j| merged.push((i, j)));
                merged.sort_unstable();
                let naive: Vec<(u32, u32)> = (0..a.len() as u32)
                    .filter_map(|i| b.code_for(a.decode(i)).map(|j| (i, j)))
                    .collect();
                prop_assert_eq!(merged, naive);
            }
        }
    }

    #[test]
    fn join_keeps_groups_matched_only_by_null_measures() {
        // Fact rows with fk 1 all carry a NULL measure; they still join
        // dimension group 11, which must appear (with SUM 0 and COUNT 0),
        // as a plain grouped aggregate keeps a group of NULLs.
        let fact = TableSchema::new(
            "f",
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::nullable("m", ColumnType::Double),
                ColumnDef::new("fk", ColumnType::Integer),
                ColumnDef::new("st", ColumnType::Integer),
            ],
            vec![0],
        )
        .unwrap();
        let rows = (0..30).map(|i| {
            let m = match i % 2 {
                0 => Value::Double(i as f64),
                _ => Value::Null,
            };
            vec![
                Value::BigInt(i),
                m,
                Value::Int((i % 2) as i32),
                Value::Int(0),
            ]
        });
        let rows: Vec<Vec<Value>> = rows.collect();
        let q = Query::Aggregate(AggregateQuery {
            table: "f".into(),
            aggregates: vec![
                Aggregate {
                    func: AggFunc::Sum,
                    column: 1,
                },
                Aggregate {
                    func: AggFunc::Count,
                    column: 1,
                },
            ],
            group_by: None,
            filter: vec![],
            join: Some(JoinSpec {
                dim_table: "dim".into(),
                fact_fk: 2,
                dim_pk: 0,
                group_by_dim: Some(1),
            }),
        });
        let even: f64 = (0..30).step_by(2).map(|i| i as f64).sum();
        for placement in all_placements() {
            for dim_store in StoreKind::BOTH {
                let db = HybridDatabase::new();
                db.create_table(fact.clone(), placement.clone()).unwrap();
                db.create_single(dim_schema(), dim_store).unwrap();
                db.bulk_load("f", rows.clone()).unwrap();
                db.bulk_load(
                    "dim",
                    (0..2).map(|i| vec![Value::Int(i), Value::Int(10 + i)]),
                )
                .unwrap();
                let out = db.execute(&q).unwrap();
                let expect = [
                    GroupRow {
                        key: Some(Value::Int(10)),
                        values: vec![even, 15.0],
                    },
                    GroupRow {
                        key: Some(Value::Int(11)),
                        values: vec![0.0, 0.0],
                    },
                ];
                assert_eq!(
                    out.aggregates().unwrap(),
                    &expect,
                    "{placement:?} x {dim_store:?}"
                );
            }
        }
    }

    /// The aggregate kernel answers every part kind alike: random tables
    /// (NULLs; Int, Decimal and Double measures; a Text column) under every
    /// placement, with rows inserted and updated after the load so column
    /// stores carry un-merged dictionary tails, must give bit-identical
    /// answers to an all-row-store copy — all five functions, grouped,
    /// ungrouped and joined, under empty, sparse and full filters. Every
    /// measure is a multiple of 1/4 small enough that the partial sums of a
    /// horizontal union are exact, so no layout may change a bit.
    mod aggregate_kernel_props {
        use super::*;
        use hsd_catalog::Tier;
        use proptest::prelude::*;

        const FUNCS: [AggFunc; 5] = [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        /// Aggregated columns: `i`, `d`, `g`, `s`, `x`.
        const MEASURES: [ColumnIdx; 5] = [1, 2, 3, 4, 5];

        /// `k`: `g` (column 3) lands in the row fragment of the vertical
        /// placements, so grouping on it stitches the two fragments.
        fn fact_schema() -> TableSchema {
            TableSchema::new(
                "k",
                vec![
                    ColumnDef::new("id", ColumnType::BigInt),
                    ColumnDef::nullable("i", ColumnType::Integer),
                    ColumnDef::nullable("d", ColumnType::Decimal),
                    ColumnDef::nullable("g", ColumnType::Integer),
                    ColumnDef::nullable("s", ColumnType::Varchar),
                    ColumnDef::nullable("x", ColumnType::Double),
                    ColumnDef::nullable("fk", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap()
        }

        /// Row `id` from five cell draws: a measure draw of 0 and an fk
        /// draw of 9 are NULL, and draws beyond the load's range give
        /// values the load's dictionaries lack.
        fn fact_row(id: i64, (i, d, g, x, fk): (u32, u32, u32, u32, u32)) -> Vec<Value> {
            let or_null = |c: u32, v: Value| if c == 0 { Value::Null } else { v };
            vec![
                Value::BigInt(id),
                or_null(i, Value::Int(i as i32 - 4)),
                or_null(d, Value::Decimal((d as i64 - 3) * 25)),
                or_null(g, Value::Int((g % 4) as i32)),
                or_null(g % 5, Value::text(format!("v{}", g % 3))),
                or_null(x, Value::Double((x as f64 - 5.0) * 0.25)),
                if fk == 9 {
                    Value::Null
                } else {
                    Value::Int(fk as i32)
                },
            ]
        }

        fn query(aggs: &[(u32, u32)], grouping: u32, filter: u32, lo: i64) -> Query {
            let join = |group_by_dim| JoinSpec {
                dim_table: "kd".into(),
                fact_fk: 6,
                dim_pk: 0,
                group_by_dim,
            };
            let (group_by, join) = match grouping {
                0 => (None, None),
                1 => (Some(3), None),
                2 => (Some(4), None),
                3 => (Some(1), None),
                4 => (None, Some(join(Some(1)))),
                _ => (None, Some(join(None))),
            };
            let filter = match filter {
                0 => vec![],
                1 => vec![ColRange::ge(0, Value::BigInt(1 << 40))],
                2 => vec![ColRange::between(
                    0,
                    Value::BigInt(lo),
                    Value::BigInt(lo + 2),
                )],
                3 => vec![ColRange::ge(0, Value::BigInt(0))],
                _ => vec![ColRange::eq(3, Value::Int(1))],
            };
            Query::Aggregate(AggregateQuery {
                table: "k".into(),
                aggregates: aggs
                    .iter()
                    .map(|&(f, c)| Aggregate {
                        func: FUNCS[f as usize],
                        column: MEASURES[c as usize],
                    })
                    .collect(),
                group_by,
                filter,
                join,
            })
        }

        type Cells = (u32, u32, u32, u32, u32);

        fn build(
            placement: TablePlacement,
            dim_store: StoreKind,
            load: &[Cells],
            inserted: &[Cells],
            dim: &[u32],
        ) -> HybridDatabase {
            let db = HybridDatabase::new();
            db.create_table(fact_schema(), placement).unwrap();
            db.bulk_load(
                "k",
                load.iter()
                    .enumerate()
                    .map(|(id, &c)| fact_row(id as i64, c)),
            )
            .unwrap();
            for (n, &c) in inserted.iter().enumerate() {
                let row = fact_row((load.len() + n) as i64, c);
                db.execute(&Query::Insert(InsertQuery {
                    table: "k".into(),
                    rows: vec![row],
                }))
                .unwrap();
            }
            // A post-load update: cold column stores grow a dictionary tail.
            db.execute(&Query::Update(UpdateQuery {
                table: "k".into(),
                sets: vec![(5, Value::Double(99.75)), (1, Value::Int(77))],
                filter: vec![ColRange::eq(0, Value::BigInt(3))],
            }))
            .unwrap();
            let dim_schema = TableSchema::new(
                "kd",
                vec![
                    ColumnDef::new("dk", ColumnType::Integer),
                    ColumnDef::nullable("region", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap();
            db.create_single(dim_schema, dim_store).unwrap();
            let dim_rows = dim.iter().enumerate().filter(|(_, &r)| r != 0);
            db.bulk_load(
                "kd",
                dim_rows.map(|(k, &r)| {
                    let region = if r == 1 {
                        Value::Null
                    } else {
                        Value::Int((r % 3) as i32)
                    };
                    vec![Value::Int(k as i32), region]
                }),
            )
            .unwrap();
            db
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn aggregate_kernel_agrees_with_row_store_everywhere(
                load in prop::collection::vec((0u32..8, 0u32..8, 0u32..8, 0u32..8, 0u32..10), 0..60),
                inserted in prop::collection::vec((0u32..14, 0u32..14, 0u32..14, 0u32..14, 0u32..10), 0..10),
                dim in prop::collection::vec(0u32..6, 9..10),
                dim_column in any::<bool>(),
                queries in prop::collection::vec(
                    (prop::collection::vec((0u32..5, 0u32..5), 1..4), 0u32..6, 0u32..5, 0i64..60),
                    4..8,
                ),
            ) {
                let dim_store = if dim_column { StoreKind::Column } else { StoreKind::Row };
                let reference = build(
                    TablePlacement::Single(StoreKind::Row),
                    dim_store,
                    &load,
                    &inserted,
                    &dim,
                );
                let disk = TablePlacement::Partitioned(PartitionSpec {
                    horizontal: Some(HorizontalSpec {
                        split_column: 0,
                        split_value: Value::BigInt(20),
                    }),
                    vertical: None,
                    cold_tier: Tier::Disk,
                });
                for placement in all_placements().into_iter().chain([disk]) {
                    let db = build(placement.clone(), dim_store, &load, &inserted, &dim);
                    for (aggs, grouping, filter, lo) in &queries {
                        let q = query(aggs, *grouping, *filter, *lo);
                        prop_assert_eq!(
                            db.execute(&q).unwrap(),
                            reference.execute(&q).unwrap(),
                            "{:?} {:?}",
                            placement,
                            q
                        );
                    }
                }
            }
        }
    }

    /// Every `all_placements()` entry plus a hot/cold split with its cold
    /// side demoted to disk, each holding `rows(30)`.
    fn placed_dbs() -> Vec<(TablePlacement, HybridDatabase)> {
        let mut dbs: Vec<_> = all_placements()
            .into_iter()
            .map(|p| (p.clone(), db_with(p)))
            .collect();
        let split = all_placements().swap_remove(2);
        let db = db_with(split.clone());
        crate::mover::demote_cold(&db, "t").unwrap();
        dbs.push((split, db));
        dbs
    }

    /// A hot/cold table refuses a key its cold partition holds, resident or
    /// on disk, instead of taking it as a second row.
    #[test]
    fn insert_of_a_cold_key_is_a_duplicate() {
        for (placement, db) in placed_dbs() {
            let insert = |id: i64| {
                let row = rows(id + 1).pop().unwrap();
                db.execute(&Query::Insert(InsertQuery {
                    table: "t".into(),
                    rows: vec![row],
                }))
            };
            let err = insert(5);
            assert!(
                matches!(err, Err(Error::DuplicateKey(_))),
                "{placement:?}: {err:?}"
            );
            assert!(insert(25).is_err(), "{placement:?}: hot key 25");
            insert(40).unwrap();
            assert_eq!(db.row_count("t").unwrap(), 31, "{placement:?}");
        }
    }

    /// A refused assignment (key column, wrong type) fails and changes
    /// nothing on every layout, whatever the filter matches: a point miss
    /// or a pruned partition does not answer `Affected(0)`, and a vertical
    /// pair does not apply its row-fragment half first.
    #[test]
    fn refused_update_fails_whatever_it_matches() {
        for (placement, db) in placed_dbs() {
            let before = db.with_table("t", |d| d.snapshot_rows(db.segment_store()));
            for sets in [
                vec![(0, Value::BigInt(7))],
                vec![(3, Value::Int(1)), (1, Value::Int(2))],
            ] {
                for filter in [
                    vec![ColRange::eq(0, Value::BigInt(99))],
                    vec![ColRange::eq(0, Value::BigInt(3))],
                    vec![ColRange::ge(0, Value::BigInt(25))],
                    vec![],
                ] {
                    let q = UpdateQuery {
                        table: "t".into(),
                        sets: sets.clone(),
                        filter,
                    };
                    let out = db.execute(&Query::Update(q.clone()));
                    assert!(out.is_err(), "{placement:?} {q:?}: {out:?}");
                }
            }
            let after = db.with_table("t", |d| d.snapshot_rows(db.segment_store()));
            assert_eq!(after.unwrap().unwrap(), before.unwrap().unwrap());
        }
    }

    /// An empty interval (start past the end) on an indexed row-store
    /// column selects nothing rather than panicking in `BTreeMap::range`.
    #[test]
    fn empty_interval_on_an_indexed_column_selects_nothing() {
        use std::ops::Bound::{Excluded, Included};
        let db = db_with(TablePlacement::Single(StoreKind::Row));
        db.create_index("t", 2).unwrap();
        let (one, two) = (Value::Int(1), Value::Int(2));
        for (lo, hi) in [
            (Included(two.clone()), Included(one.clone())),
            (Excluded(one.clone()), Excluded(one.clone())),
            (Excluded(one.clone()), Included(one)),
        ] {
            let out = db.execute(&Query::Select(SelectQuery {
                table: "t".into(),
                columns: None,
                filter: vec![ColRange::range(2, lo, hi)],
            }));
            assert_eq!(out.unwrap(), QueryOutput::Rows(vec![]));
        }
    }

    /// An ungrouped aggregate whose filter prunes every partition still
    /// answers its one row.
    #[test]
    fn ungrouped_aggregate_survives_pruning_every_part() {
        let empty = ColRange::between(0, Value::BigInt(20), Value::BigInt(-2));
        for (placement, db) in placed_dbs() {
            let mut q = AggregateQuery::simple("t", AggFunc::Count, 1);
            q.filter = vec![empty.clone()];
            let out = db.execute(&Query::Aggregate(q)).unwrap();
            let want = vec![GroupRow {
                key: None,
                values: vec![0.0],
            }];
            assert_eq!(out.aggregates().unwrap(), want, "{placement:?}");
        }
    }

    #[test]
    fn aggregate_on_unknown_column_errors() {
        let db = db_with(TablePlacement::Single(StoreKind::Row));
        let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 99));
        assert!(db.execute(&q).is_err());
    }

    /// Folded statistics of every column match the rows, on a vertical
    /// split (column 3 is the row fragment's) and on a hot/cold split whose
    /// cold side is a disk segment: `(distinct, min, max)` per column, the
    /// distinct count being the largest part's.
    #[test]
    fn logical_stats_cover_partitions() {
        let disk_split = TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(20),
            }),
            ..Default::default()
        });
        // Cold ids 0..30 (one vertical pair) plus hot id 2000.
        let pair_distinct = [30, 30, 3, 2];
        // Cold ids 0..20 on disk; hot ids 20..30 plus 2000, whose grp
        // values 0, 1, 2 and 7 are the widest part.
        let disk_distinct = [20, 20, 4, 2];
        for (placement, distinct) in [
            (partitioned_placement(), pair_distinct),
            (disk_split, disk_distinct),
        ] {
            let db = db_with(placement.clone());
            if matches!(&placement, TablePlacement::Partitioned(s) if s.vertical.is_none()) {
                crate::mover::demote_cold(&db, "t").unwrap();
                assert!(db.disk_bytes("t").unwrap() > 0);
            }
            db.execute(&Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![vec![
                    Value::BigInt(2000),
                    Value::Double(123.0),
                    Value::Int(7),
                    Value::Int(1),
                ]],
            }))
            .unwrap();
            db.refresh_stats("t").unwrap();
            let catalog = db.catalog();
            let stats = &catalog.entry_by_name("t").unwrap().stats;
            assert_eq!(stats.row_count, 31, "{placement:?}");
            let min = [
                Value::BigInt(0),
                Value::Double(0.0),
                Value::Int(0),
                Value::Int(0),
            ];
            let max = [
                Value::BigInt(2000),
                Value::Double(123.0),
                Value::Int(7),
                Value::Int(1),
            ];
            for (c, col) in stats.columns.iter().enumerate() {
                let got = (col.distinct, col.min.as_ref(), col.max.as_ref());
                let want = (distinct[c], Some(&min[c]), Some(&max[c]));
                assert_eq!(got, want, "column {c} under {placement:?}");
            }
        }
    }
}
