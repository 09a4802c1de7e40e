//! Query execution over arbitrary storage layouts.
//!
//! Partitioned tables are processed by *rewriting* (Section 4 of the paper):
//! horizontal partitions are unioned with partial-aggregate merging,
//! vertical fragments are recombined positionally over the shared primary
//! key. Store-specific fast paths mirror what real engines do: the column
//! store groups and joins on dictionary codes; the row store works
//! tuple-at-a-time.
//!
//! Column-store inner loops are *batched*: filters produce bitmap selection
//! vectors ([`SelVec`]), aggregation and join loops block-decode dictionary
//! codes ([`ColumnData::decode_codes_into`]) instead of calling
//! `code_at`/`value_at` per row, and independent partitions of a horizontal
//! union are scanned on separate threads before their partial aggregates
//! merge.
//!
//! A join between column stores stays in the dictionary domain: a
//! column-store dimension part is indexed by primary-key *code*, and a
//! column-store fact part maps its foreign-key codes to groups by merging
//! the two dictionaries' sorted regions (only unmerged tail entries are
//! looked up by value). Row-store and vertical-pair dimension parts use a
//! value hash map.

use std::collections::HashMap;

use hsd_catalog::TableStats;
use hsd_query::{
    AggFunc, Aggregate, AggregateQuery, InsertQuery, JoinSpec, Query, SelectQuery, UpdateQuery,
};
use hsd_storage::{
    ColRange, ColumnData, Columns, Dictionary, RowSel, RowTable, SegmentStore, SelVec, Table, BLOCK,
};
use hsd_types::{ColumnIdx, Error, Result, Value};

use crate::database::HybridDatabase;
use crate::durability::WalRecord;
use crate::partition::{ColdPart, ColdView, DiskFragment, Loc, TableData, VerticalPair};

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

    #[inline]
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Count a non-null, non-numeric value (only COUNT observes it).
    #[inline]
    fn add_non_numeric(&mut self) {
        self.count += 1;
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
        merge_accs(
            into.entry(key).or_insert_with(|| vec![Acc::new(); width]),
            &accs,
        );
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
    Ok(match data {
        TableData::Single(t) => vec![Part::Whole(t)],
        TableData::Partitioned { hot, cold, .. } => {
            let (use_cold, use_hot) = pruning(data, filter);
            let mut parts = Vec::with_capacity(2);
            if use_cold {
                match cold {
                    ColdPart::Single(t) => parts.push(Part::Whole(t)),
                    ColdPart::Vertical(p) => parts.push(Part::Pair(p)),
                    // Pruned-away disk partitions never touch the store —
                    // partition elimination saves the segment read itself.
                    ColdPart::DiskColumn(f) => {
                        parts.push(Part::Cold(ColdView::fetch(f, scan_cols)?))
                    }
                }
            }
            if use_hot {
                if let Some(h) = hot {
                    parts.push(Part::Whole(h));
                }
            }
            parts
        }
    })
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

impl Part<'_> {
    /// The column-store read surface, when the part has one: the batched
    /// group-by and join kernels run on it whether the columns are
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

    fn for_each_numeric_sel(&self, col: ColumnIdx, sel: Option<&SelVec>, f: impl FnMut(f64)) {
        match self {
            Part::Whole(t) => t.for_each_numeric_sel(col, sel, f),
            Part::Pair(p) => p.for_each_numeric_sel(col, sel, f),
            Part::Cold(v) => v.column(col).for_each_numeric_sel(sel, f),
        }
    }

    /// Visit decoded values of `col` for the selected rows (`None` = all).
    fn for_each_value_sel(&self, col: ColumnIdx, sel: Option<&SelVec>, mut f: impl FnMut(&Value)) {
        match sel {
            None => self.for_each_value(col, RowSel::All, f),
            Some(sv) => {
                for idx in sv.iter() {
                    f(self.value_at(idx, col));
                }
            }
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

    fn for_each_value(&self, col: ColumnIdx, sel: RowSel<'_>, f: impl FnMut(&Value)) {
        match self {
            Part::Whole(t) => t.for_each_value(col, sel, f),
            Part::Pair(p) => p.for_each_value(col, sel, f),
            Part::Cold(v) => v.column(col).for_each_value(sel, f),
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
        let needs_cold_load = disk_fragment(&data).is_some()
            && matches!(&*data, TableData::Partitioned { hot: None, .. });
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
        if let (true, Some(frag)) = (use_cold, disk_fragment(data)) {
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

/// The table's disk-resident cold partition, if it has one.
fn disk_fragment(data: &TableData) -> Option<&DiskFragment> {
    match data {
        TableData::Partitioned {
            cold: ColdPart::DiskColumn(f),
            ..
        } => Some(f),
        _ => None,
    }
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
    matches!(
        data,
        TableData::Partitioned { hot: Some(h), .. } if h.point_lookup(key).is_some()
    )
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
    match data {
        TableData::Single(t) => {
            let rows = t.filter_rows(&q.filter);
            affected += t.update_rows(&rows, &q.sets)?;
        }
        TableData::Partitioned { hot, cold, .. } => {
            if use_cold {
                match cold {
                    ColdPart::Single(t) => {
                        let rows = t.filter_rows(&q.filter);
                        affected += t.update_rows(&rows, &q.sets)?;
                    }
                    ColdPart::Vertical(p) => {
                        let rows = p.filter_rows(&q.filter);
                        affected += p.update_rows(&rows, &q.sets)?;
                    }
                    ColdPart::DiskColumn(f) => {
                        return Err(Error::InvalidOperation(format!(
                            "update reached disk-resident cold partition of {} \
                             without write-through load",
                            f.reader().schema().name
                        )));
                    }
                }
            }
            if use_hot {
                if let Some(h) = hot {
                    let rows = h.filter_rows(&q.filter);
                    affected += h.update_rows(&rows, &q.sets)?;
                }
            }
        }
    }
    Ok(affected)
}

/// If the filter is exactly an equality on every primary-key column (and
/// nothing else), return the key in PK order.
fn pk_point_key(data: &TableData, filter: &[ColRange]) -> Option<Vec<Value>> {
    let schema = data.schema();
    let pk = &schema.primary_key;
    if filter.len() != pk.len() {
        return None;
    }
    let mut key = Vec::with_capacity(pk.len());
    for col in pk {
        let range = filter.iter().find(|r| r.column == *col)?;
        key.push(range.as_eq()?.clone());
    }
    Some(key)
}

fn update_point(
    data: &mut TableData,
    key: &[Value],
    sets: &[(ColumnIdx, Value)],
    use_cold: bool,
) -> Result<usize> {
    match data {
        TableData::Single(t) => match t.point_lookup(key) {
            Some(idx) => t.update_rows(&[idx], sets),
            None => Ok(0),
        },
        TableData::Partitioned { hot, cold, .. } => {
            if let Some(h) = hot {
                if let Some(idx) = h.point_lookup(key) {
                    return h.update_rows(&[idx], sets);
                }
            }
            if !use_cold {
                return Ok(0);
            }
            match cold {
                ColdPart::Single(t) => match t.point_lookup(key) {
                    Some(idx) => t.update_rows(&[idx], sets),
                    None => Ok(0),
                },
                ColdPart::Vertical(p) => match p.point_lookup(key) {
                    Some(idx) => p.update_rows(&[idx], sets),
                    None => Ok(0),
                },
                ColdPart::DiskColumn(f) => Err(Error::InvalidOperation(format!(
                    "point update reached disk-resident cold partition of {} \
                     without write-through load",
                    f.reader().schema().name
                ))),
            }
        }
    }
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
        if let TableData::Partitioned { hot: Some(h), .. } = data {
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
// Aggregation (single table)

// Out of line: inlined OLAP paths double `execute` and slow the OLTP ones.
#[inline(never)]
fn exec_aggregate(db: &HybridDatabase, q: &AggregateQuery) -> Result<QueryOutput> {
    let shard = db.shard(&q.table)?;
    let pin = shard.pin();
    let data = &*pin;
    validate_agg_columns(data, q)?;
    let scanned = q.aggregates.iter().map(|a| a.column).chain(q.group_by);
    let parts = parts_of_pruned(data, &q.filter, &scan_columns(&q.filter, scanned))?;
    let scan_part = |part: &Part<'_>| -> Groups {
        let selection = if q.filter.is_empty() {
            None
        } else {
            Some(part.filter_selvec(&q.filter))
        };
        let mut groups = Groups::new();
        aggregate_part(
            part,
            selection.as_ref(),
            &q.aggregates,
            q.group_by,
            &mut groups,
        );
        groups
    };
    // Horizontal union: scan each partition (on its own thread when large
    // enough), then merge the partial aggregates (the paper's union
    // rewrite).
    let mut groups: Groups = HashMap::new();
    for partial in scan_parts(&parts, scan_part) {
        merge_groups(&mut groups, partial, q.aggregates.len());
    }
    Ok(QueryOutput::Aggregates(finalize_groups(
        groups,
        &q.aggregates,
    )))
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

fn aggregate_part(
    part: &Part<'_>,
    selection: Option<&SelVec>,
    aggregates: &[Aggregate],
    group_by: Option<ColumnIdx>,
    groups: &mut Groups,
) {
    match group_by {
        None => aggregate_part_ungrouped(part, selection, aggregates, groups),
        Some(g) => match part {
            Part::Whole(Table::Column(ct)) => {
                aggregate_column_grouped(ct, selection, aggregates, g, groups)
            }
            Part::Cold(view) => aggregate_column_grouped(view, selection, aggregates, g, groups),
            Part::Whole(Table::Row(rt)) => {
                aggregate_row_grouped(rt, selection, aggregates, g, groups)
            }
            Part::Pair(p) => aggregate_pair_grouped(p, selection, aggregates, g, groups),
        },
    }
}

fn aggregate_part_ungrouped(
    part: &Part<'_>,
    selection: Option<&SelVec>,
    aggregates: &[Aggregate],
    groups: &mut Groups,
) {
    let accs = groups
        .entry(None)
        .or_insert_with(|| vec![Acc::new(); aggregates.len()]);
    for (k, agg) in aggregates.iter().enumerate() {
        let acc = &mut accs[k];
        let numeric = is_numeric_col(part, agg.column);
        if numeric || agg.func != AggFunc::Count {
            part.for_each_numeric_sel(agg.column, selection, |v| acc.add(v));
        } else {
            // COUNT over a non-numeric column counts non-null values.
            part.for_each_value_sel(agg.column, selection, |v| {
                if !v.is_null() {
                    acc.add_non_numeric();
                }
            });
        }
    }
}

fn is_numeric_col(part: &Part<'_>, col: ColumnIdx) -> bool {
    let schema = match part {
        Part::Whole(t) => t.schema(),
        Part::Cold(v) => v.reader().schema(),
        Part::Pair(p) => {
            return match p.loc(col) {
                Loc::Row(i) => p.row_fragment().schema().columns[i].ty.is_numeric(),
                Loc::Col(i) => p.col_fragment().schema().columns[i].ty.is_numeric(),
            }
        }
    };
    schema.columns[col].ty.is_numeric()
}

/// Largest group dictionary the dense per-code accumulator path handles;
/// beyond this the hash-map path bounds memory to the groups actually seen.
const DENSE_GROUPBY_MAX_DICT: usize = 1 << 16;

/// Fold one selected row into its group's accumulators (shared by the
/// dense and hash-map grouped-aggregation paths).
#[inline]
fn accumulate_row(
    accs: &mut [Acc],
    aggregates: &[Aggregate],
    agg_cols: &[&ColumnData],
    luts: &[Vec<Option<f64>>],
    bufs: &[Vec<u32>],
    start: usize,
    i: usize,
) {
    for (k, col) in agg_cols.iter().enumerate() {
        if let Some(v) = luts[k][bufs[k + 1][i] as usize] {
            accs[k].add(v);
        } else if aggregates[k].func == AggFunc::Count && !col.value_at(start + i).is_null() {
            accs[k].add_non_numeric();
        }
    }
}

/// Column-store grouped aggregation: group on dictionary codes, decode keys
/// once at the end.
///
/// The hot loop is batched: the group column and every aggregate column are
/// block-decoded together (word-level unpacking), and the selection vector
/// is consumed word-at-a-time — an all-zero word skips 64 rows, a block
/// with no surviving candidate skips the decode entirely.
///
/// When the group dictionary is small (the common low-cardinality grouping
/// case), accumulators live in a dense array indexed by group code — the
/// per-row group lookup is one bounds-checked index instead of a hash-map
/// probe. Large (near-unique) group dictionaries fall back to the hash map.
fn aggregate_column_grouped(
    ct: &dyn Columns,
    selection: Option<&SelVec>,
    aggregates: &[Aggregate],
    group_col: ColumnIdx,
    groups: &mut Groups,
) {
    let gcol = ct.column(group_col);
    let luts: Vec<Vec<Option<f64>>> = aggregates
        .iter()
        .map(|a| ct.column(a.column).numeric_lut())
        .collect();
    let agg_cols: Vec<&ColumnData> = aggregates.iter().map(|a| ct.column(a.column)).collect();
    // bufs[0] holds the group codes, bufs[1..] the aggregate columns'.
    let mut cols: Vec<&ColumnData> = Vec::with_capacity(agg_cols.len() + 1);
    cols.push(gcol);
    cols.extend(agg_cols.iter().copied());
    let n_aggs = aggregates.len();
    let dict_len = gcol.dictionary().len();
    if dict_len <= DENSE_GROUPBY_MAX_DICT {
        // Dense path: one flat Acc row per group code, plus a seen-bitmap so
        // groups whose every aggregate input is NULL still appear.
        let mut accs: Vec<Acc> = vec![Acc::new(); dict_len * n_aggs];
        let mut seen = vec![false; dict_len];
        for_each_selected_block(ct.row_count(), selection, &cols, |start, i, bufs| {
            let code = bufs[0][i] as usize;
            seen[code] = true;
            accumulate_row(
                &mut accs[code * n_aggs..(code + 1) * n_aggs],
                aggregates,
                &agg_cols,
                &luts,
                bufs,
                start,
                i,
            );
        });
        for (code, seen) in seen.iter().enumerate() {
            if !seen {
                continue;
            }
            let key = Some(gcol.dictionary().decode(code as u32).clone());
            merge_accs(
                groups
                    .entry(key)
                    .or_insert_with(|| vec![Acc::new(); n_aggs]),
                &accs[code * n_aggs..(code + 1) * n_aggs],
            );
        }
    } else {
        let mut code_groups: HashMap<u32, Vec<Acc>> = HashMap::new();
        for_each_selected_block(ct.row_count(), selection, &cols, |start, i, bufs| {
            let accs = code_groups
                .entry(bufs[0][i])
                .or_insert_with(|| vec![Acc::new(); n_aggs]);
            accumulate_row(accs, aggregates, &agg_cols, &luts, bufs, start, i);
        });
        for (code, accs) in code_groups {
            let key = Some(gcol.dictionary().decode(code).clone());
            merge_accs(
                groups
                    .entry(key)
                    .or_insert_with(|| vec![Acc::new(); n_aggs]),
                &accs,
            );
        }
    }
}

/// Block-scan driver shared by the column-store grouped-aggregation and
/// join hot loops: decodes each of `cols` into a per-column [`BLOCK`]
/// buffer and calls `visit(block_start, i, bufs)` for every selected row
/// (`i` block-local, `bufs` in `cols` order), skipping blocks — and 64-row
/// words within them — that have no selected candidate.
fn for_each_selected_block(
    n: usize,
    selection: Option<&SelVec>,
    cols: &[&ColumnData],
    mut visit: impl FnMut(usize, usize, &[Vec<u32>]),
) {
    let mut bufs: Vec<Vec<u32>> = vec![vec![0u32; BLOCK]; cols.len()];
    let mut start = 0;
    while start < n {
        let len = BLOCK.min(n - start);
        let word_base = start / 64; // exact: BLOCK is a multiple of 64
        let word_end = (start + len).div_ceil(64);
        if let Some(sv) = selection {
            if sv.words()[word_base..word_end].iter().all(|&w| w == 0) {
                start += len;
                continue;
            }
        }
        for (col, buf) in cols.iter().zip(&mut bufs) {
            col.decode_codes_into(start, &mut buf[..len]);
        }
        match selection {
            None => {
                for i in 0..len {
                    visit(start, i, &bufs);
                }
            }
            Some(sv) => {
                for wi in word_base..word_end {
                    let mut bits = sv.words()[wi];
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        visit(start, wi * 64 + b - start, &bufs);
                    }
                }
            }
        }
        start += len;
    }
}

/// Row-store grouped aggregation: tuple-at-a-time over row slices.
fn aggregate_row_grouped(
    rt: &RowTable,
    selection: Option<&SelVec>,
    aggregates: &[Aggregate],
    group_col: ColumnIdx,
    groups: &mut Groups,
) {
    let mut visit = |idx: u32| {
        let row = rt.row(idx);
        let key = Some(row[group_col].clone());
        let accs = groups
            .entry(key)
            .or_insert_with(|| vec![Acc::new(); aggregates.len()]);
        for (k, agg) in aggregates.iter().enumerate() {
            match row[agg.column].as_f64() {
                Some(v) => accs[k].add(v),
                None => {
                    if agg.func == AggFunc::Count && !row[agg.column].is_null() {
                        accs[k].add_non_numeric();
                    }
                }
            }
        }
    };
    match selection {
        None => {
            for idx in 0..rt.row_count() as u32 {
                visit(idx);
            }
        }
        Some(sv) => {
            for idx in sv.iter() {
                visit(idx);
            }
        }
    }
}

/// Vertical pair grouped aggregation. When every referenced column lives in
/// one fragment, delegate to that fragment's fast path; otherwise stitch
/// row-at-a-time.
fn aggregate_pair_grouped(
    p: &VerticalPair,
    selection: Option<&SelVec>,
    aggregates: &[Aggregate],
    group_col: ColumnIdx,
    groups: &mut Groups,
) {
    let all_in_col = std::iter::once(group_col)
        .chain(aggregates.iter().map(|a| a.column))
        .all(|c| matches!(p.loc(c), Loc::Col(_)));
    let all_in_row = std::iter::once(group_col)
        .chain(aggregates.iter().map(|a| a.column))
        .all(|c| matches!(p.loc(c), Loc::Row(_)));
    if all_in_col || all_in_row {
        let translate = |c: ColumnIdx| match p.loc(c) {
            Loc::Row(i) | Loc::Col(i) => i,
        };
        let t_aggs: Vec<Aggregate> = aggregates
            .iter()
            .map(|a| Aggregate {
                func: a.func,
                column: translate(a.column),
            })
            .collect();
        let frag = if all_in_col {
            p.col_fragment()
        } else {
            p.row_fragment()
        };
        aggregate_part(
            &Part::Whole(frag),
            selection,
            &t_aggs,
            Some(translate(group_col)),
            groups,
        );
        return;
    }
    // Mixed fragments: generic stitched path.
    let mut visit = |idx: u32| {
        let key = Some(p.value_at(idx, group_col).clone());
        let accs = groups
            .entry(key)
            .or_insert_with(|| vec![Acc::new(); aggregates.len()]);
        for (k, agg) in aggregates.iter().enumerate() {
            let v = p.value_at(idx, agg.column);
            match v.as_f64() {
                Some(x) => accs[k].add(x),
                None => {
                    if agg.func == AggFunc::Count && !v.is_null() {
                        accs[k].add_non_numeric();
                    }
                }
            }
        }
    };
    match selection {
        None => {
            for idx in 0..p.row_count() as u32 {
                visit(idx);
            }
        }
        Some(sv) => {
            for idx in sv.iter() {
                visit(idx);
            }
        }
    }
}

fn merge_accs(into: &mut [Acc], from: &[Acc]) {
    for (a, b) in into.iter_mut().zip(from) {
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
    let (dim_keys, group_keys) = build_dim_keys(&dim_parts, join);
    // Dense accumulators per group index, merged into value-keyed groups at
    // the end: the per-row hot loop never hashes a `Value`.
    let scanned = std::iter::once(join.fact_fk).chain(q.aggregates.iter().map(|a| a.column));
    let parts = parts_of_pruned(fact, &q.filter, &scan_columns(&q.filter, scanned))?;
    let scan_part = |part: &Part<'_>| -> Vec<Vec<Acc>> {
        let mut accs: Vec<Vec<Acc>> = vec![vec![Acc::new(); q.aggregates.len()]; group_keys.len()];
        let selection = if q.filter.is_empty() {
            None
        } else {
            Some(part.filter_selvec(&q.filter))
        };
        match (part.columnar(), part) {
            (Some(ct), _) => {
                join_aggregate_column(ct, selection.as_ref(), q, join, &dim_keys, &mut accs)
            }
            (None, Part::Pair(p)) => {
                // When the join key and every aggregate resolve in the
                // column fragment (PKs live in both fragments), run the
                // dictionary-join fast path against the fragment; row
                // indexes are positionally aligned across fragments.
                let fk = p.col_fragment_position(join.fact_fk);
                let agg_pos: Option<Vec<usize>> = q
                    .aggregates
                    .iter()
                    .map(|a| p.col_fragment_position(a.column))
                    .collect();
                match (fk, agg_pos, p.col_fragment()) {
                    (Some(fk), Some(agg_cols), Table::Column(ct)) => {
                        let tq = AggregateQuery {
                            aggregates: q
                                .aggregates
                                .iter()
                                .zip(&agg_cols)
                                .map(|(a, &c)| hsd_query::Aggregate {
                                    func: a.func,
                                    column: c,
                                })
                                .collect(),
                            ..q.clone()
                        };
                        let tjoin = JoinSpec {
                            fact_fk: fk,
                            ..join.clone()
                        };
                        join_aggregate_column(
                            ct,
                            selection.as_ref(),
                            &tq,
                            &tjoin,
                            &dim_keys,
                            &mut accs,
                        )
                    }
                    _ => join_aggregate_generic(
                        &Part::Pair(p),
                        selection.as_ref(),
                        q,
                        join,
                        &dim_keys,
                        &mut accs,
                    ),
                }
            }
            (None, other) => {
                join_aggregate_generic(other, selection.as_ref(), q, join, &dim_keys, &mut accs)
            }
        }
        accs
    };
    let mut accs: Vec<Vec<Acc>> = vec![vec![Acc::new(); q.aggregates.len()]; group_keys.len()];
    for partial in scan_parts(&parts, scan_part) {
        for (into, from) in accs.iter_mut().zip(partial) {
            merge_accs(into, &from);
        }
    }
    let mut groups: Groups = HashMap::new();
    for (key, acc) in group_keys.into_iter().zip(accs) {
        // Inner join: groups no fact row matched stay absent.
        if acc.iter().any(|a| a.count > 0) {
            groups.insert(key, acc);
        }
    }
    Ok(QueryOutput::Aggregates(finalize_groups(
        groups,
        &q.aggregates,
    )))
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
                let cols: Vec<&ColumnData> = std::iter::once(pk).chain(gcol).collect();
                let mut gi = vec![UNMATCHED; pk.dictionary().len()];
                for_each_selected_block(ct.row_count(), None, &cols, |_, i, bufs| {
                    gi[bufs[0][i] as usize] = bufs.get(1).map_or(0, |g| code_gi[g[i] as usize]);
                });
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

/// Column-store fact side: translate the foreign-key dictionary to group
/// indexes once (dictionary join), then the hot loop is code lookups only —
/// block-decoded, like the grouped aggregation path.
///
/// Against a code-indexed dimension part the translation merges the fk and
/// pk dictionaries ([`merge_dictionaries`]); a hash part is probed once per
/// fk dictionary entry. Later parts overwrite earlier ones, as
/// [`probe_dim`] resolves them.
fn join_aggregate_column(
    ct: &dyn Columns,
    selection: Option<&SelVec>,
    q: &AggregateQuery,
    join: &JoinSpec,
    dim: &[DimKeys<'_>],
    accs: &mut [Vec<Acc>],
) {
    let fk = ct.column(join.fact_fk);
    // fk code -> group index (UNMATCHED for dangling foreign keys).
    let mut fk_lut = vec![UNMATCHED; fk.dictionary().len()];
    for keys in dim {
        match keys {
            DimKeys::Codes { pk, gi } => merge_dictionaries(fk.dictionary(), pk, |f, p| {
                if gi[p as usize] != UNMATCHED {
                    fk_lut[f as usize] = gi[p as usize];
                }
            }),
            DimKeys::Hash(map) => {
                for (slot, v) in fk_lut.iter_mut().zip(fk.dictionary().values()) {
                    if let Some(&gi) = map.get(v) {
                        *slot = gi;
                    }
                }
            }
        }
    }
    let luts: Vec<Vec<Option<f64>>> = q
        .aggregates
        .iter()
        .map(|a| ct.column(a.column).numeric_lut())
        .collect();
    let agg_cols: Vec<&ColumnData> = q.aggregates.iter().map(|a| ct.column(a.column)).collect();
    // bufs[0] holds the foreign-key codes, bufs[1..] the aggregate columns'.
    let mut cols: Vec<&ColumnData> = Vec::with_capacity(agg_cols.len() + 1);
    cols.push(fk);
    cols.extend(agg_cols.iter().copied());
    for_each_selected_block(ct.row_count(), selection, &cols, |start, i, bufs| {
        let gi = fk_lut[bufs[0][i] as usize];
        if gi == UNMATCHED {
            return; // inner join: dangling foreign keys drop out
        }
        let acc = &mut accs[gi as usize];
        for (k, col) in agg_cols.iter().enumerate() {
            if let Some(v) = luts[k][bufs[k + 1][i] as usize] {
                acc[k].add(v);
            } else if q.aggregates[k].func == AggFunc::Count && !col.value_at(start + i).is_null() {
                acc[k].add_non_numeric();
            }
        }
    });
}

/// Generic fact side (row store or vertical pair): one probe per tuple — a
/// hash lookup, or `code_for` plus an array read against a code-indexed
/// dimension part.
fn join_aggregate_generic(
    part: &Part<'_>,
    selection: Option<&SelVec>,
    q: &AggregateQuery,
    join: &JoinSpec,
    dim: &[DimKeys<'_>],
    accs: &mut [Vec<Acc>],
) {
    let mut visit = |idx: u32| {
        let Some(gi) = probe_dim(dim, part.value_at(idx, join.fact_fk)) else {
            return; // inner join: dangling foreign keys drop out
        };
        let acc = &mut accs[gi as usize];
        for (k, agg) in q.aggregates.iter().enumerate() {
            let v = part.value_at(idx, agg.column);
            match v.as_f64() {
                Some(x) => acc[k].add(x),
                None => {
                    if agg.func == AggFunc::Count && !v.is_null() {
                        acc[k].add_non_numeric();
                    }
                }
            }
        }
    };
    match selection {
        None => {
            for idx in 0..part.row_count() as u32 {
                visit(idx);
            }
        }
        Some(sv) => {
            for idx in sv.iter() {
                visit(idx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Partition-aware maintenance helpers used by the database facade

/// Collect logical statistics over a partitioned table. Distinct counts are
/// approximated by the per-part maximum (exact union counting would require
/// materializing cross-part value sets).
pub(crate) fn collect_logical_stats(data: &TableData, store: &SegmentStore) -> Result<TableStats> {
    let arity = data.schema().arity();
    let rows = data.row_count();
    let mut stats = TableStats::empty(arity);
    stats.row_count = rows;
    // Statistics read every column's dictionary: for a disk-resident cold
    // partition that is the whole-fragment path, not a per-statement view.
    let loaded;
    let parts = match data {
        TableData::Partitioned {
            hot,
            cold: ColdPart::DiskColumn(f),
            ..
        } => {
            loaded = f.load(store)?;
            std::iter::once(&loaded)
                .chain(hot)
                .map(Part::Whole)
                .collect()
        }
        _ => parts_of(data, &[])?,
    };
    for part in parts {
        let (part_stats, map): (TableStats, Vec<Option<(usize, usize)>>) = match &part {
            Part::Whole(t) => (
                TableStats::collect(t),
                (0..arity).map(|c| Some((0, c))).collect(),
            ),
            Part::Cold(_) => unreachable!("disk-resident cold partitions were loaded above"),
            Part::Pair(p) => {
                let row_stats = TableStats::collect(p.row_fragment());
                let col_stats = TableStats::collect(p.col_fragment());
                let map: Vec<Option<(usize, usize)>> = (0..arity)
                    .map(|c| match p.loc(c) {
                        Loc::Row(i) => Some((1usize, i)),
                        Loc::Col(i) => Some((2usize, i)),
                    })
                    .collect();
                // stash both fragment stats: encode via a merged vec below
                let mut merged = TableStats::empty(0);
                merged.row_count = row_stats.row_count;
                merged.columns = row_stats.columns;
                merged.columns.extend(col_stats.columns);
                // map indexes: frag 1 -> offset 0, frag 2 -> offset row_arity
                let row_arity = p.row_fragment().schema().arity();
                let map: Vec<Option<(usize, usize)>> = map
                    .into_iter()
                    .map(|m| {
                        m.map(|(frag, i)| {
                            if frag == 1 {
                                (0, i)
                            } else {
                                (0, row_arity + i)
                            }
                        })
                    })
                    .collect();
                (merged, map)
            }
        };
        for (c, m) in map.iter().enumerate() {
            if let Some((_, i)) = m {
                let src = &part_stats.columns[*i];
                let dst = &mut stats.columns[c];
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

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_catalog::{HorizontalSpec, PartitionSpec, TablePlacement, VerticalSpec};
    use hsd_query::{AggregateQuery, SelectQuery};
    use hsd_storage::StoreKind;
    use hsd_types::{ColumnDef, ColumnType, TableSchema};

    fn schema() -> TableSchema {
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

    fn rows(n: i64) -> Vec<Vec<Value>> {
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

    fn all_placements() -> Vec<TablePlacement> {
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
        // path's limit and grouping on it takes the hash map; `grp` has
        // three values and takes the dense array. Both must answer like
        // the row store.
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
    fn aggregate_on_unknown_column_errors() {
        let db = db_with(TablePlacement::Single(StoreKind::Row));
        let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 99));
        assert!(db.execute(&q).is_err());
    }

    #[test]
    fn logical_stats_cover_partitions() {
        let db = db_with(partitioned_placement());
        // put rows into the hot partition too
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
        assert_eq!(stats.row_count, 31);
        assert_eq!(stats.columns[0].max, Some(Value::BigInt(2000)));
        assert_eq!(stats.columns[1].max, Some(Value::Double(123.0)));
    }
}
