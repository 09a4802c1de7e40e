//! Query- and workload-cost estimation against hypothetical layouts.
//!
//! This is the evaluation half of Section 3: given the calibrated model,
//! "the storage advisor can estimate and compare the workload runtimes for
//! managing the tables in the row store and in the column store".

use std::collections::BTreeMap;
use std::ops::Bound;

use hsd_catalog::{StorageLayout, TablePlacement, TableStats};
use hsd_query::{AggregateQuery, Query, SelectQuery, UpdateQuery, Workload};
use hsd_storage::{pk_point, ColRange, StoreKind};
use hsd_types::{ColumnIdx, ColumnType, Value};

use crate::cost::{store_index, CostModel, StoreModel};

/// Per-table estimation inputs: basic statistics plus index annotations —
/// exactly the catalog contents of Figure 4.
#[derive(Debug, Clone)]
pub struct TableCtx {
    /// Basic table statistics.
    pub stats: TableStats,
    /// Columns carrying a row-store secondary index.
    pub indexed: Vec<ColumnIdx>,
    /// Column types (schema order).
    pub column_types: Vec<ColumnType>,
    /// Primary-key column indexes (point-query detection).
    pub pk_columns: Vec<ColumnIdx>,
    /// Accumulated dictionary-tail entries of the table's column-store
    /// partitions (0 when unknown or row-store resident). Feeds the
    /// `f_tail` scan-degradation adjustment for tail-aware estimates. The
    /// advisor's placement search deliberately leaves this at 0 — a tail is
    /// a transient condition whose remedy is a scheduled merge, not a store
    /// migration (see `advisor::catalog_ctx`).
    pub delta_tail: usize,
    /// Observed dictionary-tail entries per write statement, from the
    /// recorder's live sampling
    /// (`hsd_catalog::TableActivity::observed_tail_rate`). `None` when no
    /// live observation exists (offline mode, row-store residency); the
    /// maintenance drivers then fall back to the static
    /// one-entry-per-assignment upper bound.
    pub observed_tail_rate: Option<f64>,
}

/// Estimation context: statistics for every table the workload touches.
#[derive(Debug, Clone, Default)]
pub struct EstimationCtx {
    /// Per-table inputs, keyed by table name.
    pub tables: BTreeMap<String, TableCtx>,
}

impl EstimationCtx {
    /// Empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table.
    pub fn insert(&mut self, name: impl Into<String>, ctx: TableCtx) {
        self.tables.insert(name.into(), ctx);
    }

    fn table(&self, name: &str) -> Option<&TableCtx> {
        self.tables.get(name)
    }
}

/// One table as a cost formula sees it: its context and the row count the
/// formula scales with — the whole table, or one side of a hot/cold split.
#[derive(Clone, Copy)]
struct Part<'a> {
    t: &'a TableCtx,
    rows: usize,
}

impl<'a> Part<'a> {
    fn whole(t: &'a TableCtx) -> Self {
        Part {
            t,
            rows: t.stats.row_count,
        }
    }

    /// The `fraction` of the table's rows a horizontal split routes here.
    fn scaled(t: &'a TableCtx, fraction: f64) -> Self {
        Part {
            t,
            rows: (t.stats.row_count as f64 * fraction).round() as usize,
        }
    }
}

/// Estimated selectivity (matched-row count) of a conjunctive filter.
fn estimate_matches(part: Part, filter: &[ColRange]) -> f64 {
    let mut sel = 1.0;
    for r in filter {
        let (lo, hi) = range_bounds(part.t, r);
        sel *= part.t.stats.estimate_range_selectivity(r.column, lo, hi);
    }
    (sel * part.rows as f64).max(0.0)
}

fn range_bounds<'a>(ctx: &'a TableCtx, r: &'a ColRange) -> (&'a Value, &'a Value) {
    static NULL: Value = Value::Null;
    let col = ctx.stats.columns.get(r.column);
    let lo = match r.lo_ref() {
        Bound::Included(v) | Bound::Excluded(v) => v,
        Bound::Unbounded => col.and_then(|c| c.min.as_ref()).unwrap_or(&NULL),
    };
    let hi = match r.hi_ref() {
        Bound::Included(v) | Bound::Excluded(v) => v,
        Bound::Unbounded => col.and_then(|c| c.max.as_ref()).unwrap_or(&NULL),
    };
    (lo, hi)
}

/// The scan-degradation multiplier for the table's accumulated dictionary
/// tail (`f_tail`), clamped to never *reward* a tail. The row store's
/// neutral constant 1 makes this a no-op there.
fn tail_factor(m: &StoreModel, part: Part) -> f64 {
    if part.t.delta_tail == 0 {
        return 1.0;
    }
    let frac = part.t.delta_tail as f64 / part.rows.max(1) as f64;
    m.f_tail.eval(frac).max(1.0)
}

/// Whether the filter is a point predicate on the table's full primary key
/// ([`pk_point`]).
fn is_pk_point(ctx: &TableCtx, filter: &[ColRange]) -> bool {
    pk_point(&ctx.pk_columns, filter).is_some()
}

/// The store a *join dimension* is priced in: a partitioned dimension is
/// approximated by the row store, its point-access fragment.
pub(crate) fn dim_store_of(placement: &TablePlacement) -> StoreKind {
    match placement {
        TablePlacement::Single(s) => *s,
        TablePlacement::Partitioned(_) => StoreKind::Row,
    }
}

/// Estimate one query's runtime (ms) given the placement of its own table
/// and the store of its join dimension (ignored by join-free queries).
///
/// This is the one pricing routine; every public entry point resolves the
/// (at most two) placements a query depends on and calls it. A query's
/// estimate therefore depends on nothing else in the layout or the context
/// — the locality the advisor's per-query memo relies on — and costs the
/// same whether the catalog holds eight tables or eight hundred.
pub(crate) fn estimate_query_placed(
    model: &CostModel,
    ctx: &EstimationCtx,
    query: &Query,
    placement: &TablePlacement,
    dim_store: StoreKind,
) -> f64 {
    let tctx = ctx.table(query.table());
    match (placement, tctx) {
        (TablePlacement::Single(s), _) => {
            estimate_single(model, ctx, query, tctx.map(Part::whole), *s, dim_store)
        }
        // No statistics for the table: fall back to the single-store
        // estimate instead of pricing the partitioned placement as free — a
        // stats-less table must cost the *same* under every layout, not bias
        // the comparison toward partitioning.
        (TablePlacement::Partitioned(_), None) => {
            estimate_single(model, ctx, query, None, StoreKind::Row, dim_store)
        }
        (TablePlacement::Partitioned(spec), Some(t)) => {
            estimate_partitioned(model, ctx, query, t, spec, dim_store)
        }
    }
}

/// Single-store estimate over `part` of the query's table (`None`: the
/// table has no statistics).
fn estimate_single(
    model: &CostModel,
    ctx: &EstimationCtx,
    query: &Query,
    part: Option<Part>,
    store: StoreKind,
    dim_store: StoreKind,
) -> f64 {
    let m = model.store(store);
    match (query, part) {
        (Query::Insert(q), _) => {
            let n = part.map_or(0.0, |p| p.rows as f64);
            m.ins_row.eval(n).max(0.0) * q.rows.len() as f64
        }
        (Query::Aggregate(q), _) => match &q.join {
            None => part.map_or(0.0, |p| estimate_aggregate(m, p, store, q, false)),
            Some(join) => {
                let dim_rows = ctx
                    .table(&join.dim_table)
                    .map_or(0.0, |t| t.stats.row_count as f64);
                let agg = part.map_or(0.0, |p| estimate_aggregate(m, p, store, q, true));
                let build = model.dim_build[store_index(dim_store)].eval(dim_rows);
                agg * model.join_factor_of(store, dim_store) + build.max(0.0)
            }
        },
        (_, None) => 0.0,
        (Query::Select(q), Some(p)) => estimate_select(m, p, store, q),
        (Query::Update(q), Some(p)) => estimate_update(m, p, store, q),
    }
}

/// Aggregation estimate. For join queries (`joined`) the group-by may be on
/// the dimension side; the join factor is applied by the caller.
fn estimate_aggregate(
    m: &StoreModel,
    part: Part,
    store: StoreKind,
    q: &AggregateQuery,
    joined: bool,
) -> f64 {
    let tctx = part.t;
    let n = part.rows as f64;
    // Σ over aggregates of (base-cost multiplier · data-type constant) —
    // "the additional aggregate adds another base cost term including its
    // adjustment to the data type".
    let mut agg_terms = 0.0;
    let mut comp_sum = 0.0;
    for a in &q.aggregates {
        let ty = tctx
            .column_types
            .get(a.column)
            .copied()
            .unwrap_or(ColumnType::Double);
        agg_terms += m.base_agg_of(a.func) * m.c_type_of(ty);
        comp_sum += tctx
            .stats
            .columns
            .get(a.column)
            .map_or(0.0, |c| c.compression_rate);
    }
    let compression = if q.aggregates.is_empty() {
        tctx.stats.avg_compression_rate()
    } else {
        comp_sum / q.aggregates.len() as f64
    };
    let grouped =
        q.group_by.is_some() || joined && q.join.as_ref().is_some_and(|j| j.group_by_dim.is_some());
    let c_group = if grouped { m.c_group_by } else { 1.0 };
    // The accumulated delta tail degrades every column-store scan until the
    // next merge — the dictionary-tail penalty the merge scheduler trades
    // against the merge cost.
    let tail = tail_factor(m, part);
    if q.filter.is_empty() {
        agg_terms * c_group * m.f_rows.eval(n).max(0.0) * m.f_compression.eval(compression) * tail
    } else {
        // Filtered aggregation: pay the selection to locate rows, then
        // aggregate over the matched subset.
        let matched = estimate_matches(part, &q.filter);
        let locate = locate_cost(m, part, &q.filter, store);
        locate
            + agg_terms
                * c_group
                * m.f_rows.eval(matched).max(0.0)
                * m.f_compression.eval(compression)
                * tail
    }
}

/// Cost of locating the rows matching `filter` (shared by selects, updates,
/// and filtered aggregates).
fn locate_cost(m: &StoreModel, part: Part, filter: &[ColRange], store: StoreKind) -> f64 {
    if is_pk_point(part.t, filter) {
        return m.sel_point_ms;
    }
    let n = part.rows as f64;
    let matched = estimate_matches(part, filter);
    // The column store's dictionary provides the implicit index; only a
    // row-store secondary index changes the per-row price.
    let per_row =
        if store == StoreKind::Row && filter.iter().any(|r| part.t.indexed.contains(&r.column)) {
            m.sel_per_row_indexed
        } else {
            m.sel_per_row_scan
        };
    // Tail entries disable the column store's fused scan kernel for the
    // affected blocks, so predicate evaluation degrades with the tail.
    per_row * n * tail_factor(m, part) + m.sel_per_match * matched
}

fn estimate_select(m: &StoreModel, part: Part, store: StoreKind, q: &SelectQuery) -> f64 {
    let arity = part.t.column_types.len().max(1);
    let k = q.columns.as_ref().map_or(arity, Vec::len) as f64;
    let col_factor = m.f_selected_columns.eval(k).max(0.0);
    if is_pk_point(part.t, &q.filter) {
        return m.sel_point_ms * col_factor;
    }
    let matched = estimate_matches(part, &q.filter);
    let locate = locate_cost(m, part, &q.filter, store);
    // Emission: per matched row, scaled by tuple-reconstruction width.
    locate + m.sel_per_match * matched * (col_factor - 1.0).max(0.0)
}

fn estimate_update(m: &StoreModel, part: Part, store: StoreKind, q: &UpdateQuery) -> f64 {
    let matched = if is_pk_point(part.t, &q.filter) {
        1.0
    } else {
        estimate_matches(part, &q.filter)
    };
    let locate = locate_cost(m, part, &q.filter, store);
    let k = q.sets.len().max(1) as f64;
    locate + m.upd_row_ms * matched * m.f_affected_columns.eval(k).max(0.0)
}

// ---------------------------------------------------------------------------
// Maintenance drivers (delta upkeep of column-store placements)

/// Per-table maintenance drivers derived from a workload window: how much
/// the window would grow a column-store placement's dictionary tails, and
/// how many scan-type statements would pay the resulting `f_tail` penalty.
///
/// These are the inputs of maintenance-aware placement
/// ([`crate::maintenance::estimate_maintenance`]): a query-cost-only store
/// comparison cannot see that a write-heavy column table pays for its
/// merges, so the advisor derives the upkeep drivers from the same workload
/// it estimates query costs for ([`placement_fragment_drivers`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintenanceDrivers {
    /// Modeled dictionary-tail growth in entries. Each update statement
    /// interns up to one fresh value per assigned column; each inserted row
    /// interns at least its (unique) key. Repeated values intern nothing,
    /// so this is a deliberate upper bound — the direction that protects
    /// against under-charging delta upkeep.
    pub tail_growth: f64,
    /// Scan-type statements (aggregations and non-point selects) that pay
    /// the `f_tail` degradation until the next merge.
    pub scans: f64,
}

/// Maintenance drivers of the delta-carrying region of one *placement*:
/// which rows the region holds and which share of the workload's tail
/// growth and scan pressure it actually pays.
///
/// This is the fragment-level refinement of [`MaintenanceDrivers`]: a
/// single column table's region is the whole table, but a hot/cold
/// partitioned placement's only delta region is the **cold column
/// fragment** — inserts land in the hot row-store partition and intern
/// nothing there, updates routed to the hot rows or to row-fragment
/// columns intern nothing either. Billing such a placement the full-table
/// drivers systematically over-charges exactly the hybrid layouts the
/// advisor exists to find.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FragmentDrivers {
    /// Rows resident in the placement's column-store region (the cold rows
    /// for hot/cold splits; every row for a single column placement). This
    /// is the row count merge costs scale with.
    pub rows: usize,
    /// Tail growth and scan pressure charged to that region.
    pub drivers: MaintenanceDrivers,
}

/// Derive the [`FragmentDrivers`] of `table` under `placement` from the
/// statements of a workload window (those addressing other tables are
/// skipped, so callers may pass the whole window or just the table's own
/// statements). Returns `None` when the placement has no column-store
/// region (a single row-store table pays no delta upkeep).
///
/// Tail growth starts from the static upper bound — one entry per assigned
/// column / inserted row; repeated values intern nothing, so actual growth
/// can only be lower. When the context carries an **observed** tail rate
/// ([`TableCtx::observed_tail_rate`], fed back from the recorder's live
/// dictionary sampling in the online mode), the estimate is tightened to
/// `rate × write statements`, capped by the upper bound — so a skewed
/// workload that keeps re-writing the same few values is not charged as if
/// every assignment interned a fresh entry.
///
/// Routing rules, mirroring the executor and [`estimate_query_layout`]:
///
/// * **Inserts** under a horizontal split land in the hot row-store
///   partition: zero tail growth. Without a horizontal split (vertical-only
///   placements) each inserted row interns at least its key in the column
///   fragment, as for a single column table.
/// * **Updates** intern only assignments to column-fragment columns
///   (vertical split), weighted by the cold row fraction (horizontal
///   split): a point update hits the cold region with probability
///   `1 − hot_fraction`.
/// * **Scans** (aggregations, non-point selects) pay the cold fragment's
///   tail penalty — except selects a vertical split routes entirely
///   (projection *and* filter) to the row fragment.
/// * The recorder samples the cold fragment's live tail on partitioned
///   layouts, so the observed rate already reflects fragment-level growth.
pub fn placement_fragment_drivers<'q>(
    ctx: &EstimationCtx,
    queries: impl IntoIterator<Item = &'q Query>,
    table: &str,
    placement: &TablePlacement,
) -> Option<FragmentDrivers> {
    let tctx = ctx.table(table);
    let rows = tctx.map_or(0, |t| t.stats.row_count);
    let spec = match placement {
        TablePlacement::Single(StoreKind::Row) => return None,
        TablePlacement::Single(StoreKind::Column) => None,
        TablePlacement::Partitioned(spec) => Some(spec),
    };
    let hot_fraction = match (spec, tctx) {
        (Some(spec), Some(t)) => crate::partition::horizontal_hot_fraction(&t.stats, spec),
        _ => 0.0,
    };
    let cold_fraction = 1.0 - hot_fraction;
    let mut drivers = MaintenanceDrivers::default();
    let mut write_stmts = 0.0f64;
    for q in queries {
        if q.table() != table {
            continue;
        }
        match q {
            Query::Insert(i) => {
                let absorbed_by_hot = spec.is_some_and(|s| s.horizontal.is_some());
                if !absorbed_by_hot {
                    drivers.tail_growth += i.rows.len() as f64;
                    write_stmts += 1.0;
                }
            }
            Query::Update(u) => {
                let interned = match spec.and_then(|s| s.vertical.as_ref()) {
                    Some(v) => u
                        .sets
                        .iter()
                        .filter(|(c, _)| !v.row_cols.contains(c))
                        .count() as f64,
                    None => u.sets.len().max(1) as f64,
                };
                if interned > 0.0 {
                    drivers.tail_growth += interned * cold_fraction;
                    write_stmts += cold_fraction;
                }
            }
            Query::Aggregate(_) => drivers.scans += 1.0,
            Query::Select(s) => {
                let point = tctx.is_some_and(|t| is_pk_point(t, &s.filter));
                let row_only = spec.is_some_and(|s2| select_row_fragment_only(s2, s));
                if !point && !row_only {
                    drivers.scans += 1.0;
                }
            }
        }
    }
    if let Some(rate) = tctx.and_then(|t| t.observed_tail_rate) {
        drivers.tail_growth = drivers.tail_growth.min(rate.max(0.0) * write_stmts);
    }
    let fragment_rows = if spec.is_some() {
        (rows as f64 * cold_fraction).round() as usize
    } else {
        rows
    };
    Some(FragmentDrivers {
        rows: fragment_rows,
        drivers,
    })
}

/// Whether a vertical split routes the whole select — projection and
/// filter — to the row-store fragment, so the column fragment (and its
/// tail) is never touched.
fn select_row_fragment_only(spec: &hsd_catalog::PartitionSpec, q: &SelectQuery) -> bool {
    let Some(v) = &spec.vertical else {
        return false;
    };
    let cols_row = q
        .columns
        .as_ref()
        .is_some_and(|cols| cols.iter().all(|c| *c == 0 || v.row_cols.contains(c)));
    let filter_row = q
        .filter
        .iter()
        .all(|r| r.column == 0 || v.row_cols.contains(&r.column));
    cols_row && filter_row
}

// ---------------------------------------------------------------------------
// Layout-aware estimation (partitioned placements)

/// Estimate one query under a full [`StorageLayout`], approximating
/// partitioned tables by their hot/cold row fractions. Placements are
/// resolved by borrow: nothing proportional to the catalog is built.
pub fn estimate_query_layout(
    model: &CostModel,
    ctx: &EstimationCtx,
    layout: &StorageLayout,
    query: &Query,
) -> f64 {
    let dim_store = query
        .join_dim()
        .map_or(StoreKind::Row, |d| dim_store_of(layout.placement_ref(d)));
    let placement = layout.placement_ref(query.table());
    estimate_query_placed(model, ctx, query, placement, dim_store)
}

fn estimate_partitioned(
    model: &CostModel,
    ctx: &EstimationCtx,
    query: &Query,
    tctx: &TableCtx,
    spec: &hsd_catalog::PartitionSpec,
    dim_store: StoreKind,
) -> f64 {
    let hot_fraction = crate::partition::horizontal_hot_fraction(&tctx.stats, spec);
    let n = tctx.stats.row_count as f64;
    // Tier surcharge inputs: a disk-resident cold fragment adds decode
    // bandwidth to scans, fetch latency to point reads, and a segment
    // rewrite cycle to cold-routed writes (see [`crate::cost::TierModel`]).
    let disk_cold = spec.cold_tier == hsd_catalog::Tier::Disk;
    let cold_fraction = 1.0 - hot_fraction;
    let cold_mib = if disk_cold {
        n * cold_fraction * crate::budget::column_bytes_per_row(tctx) / (1024.0 * 1024.0)
    } else {
        0.0
    };
    let tier = &model.tier;
    // One side of the split, priced as a single store over its row share.
    let side = |fraction: f64, store: StoreKind| -> f64 {
        let part = Part::scaled(tctx, fraction);
        estimate_single(model, ctx, query, Some(part), store, dim_store)
    };
    match query {
        Query::Insert(_) => {
            // Inserts go to the hot row-store partition when present.
            let store = if spec.horizontal.is_some() {
                StoreKind::Row
            } else {
                StoreKind::Column
            };
            side(hot_fraction.max(0.01), store)
        }
        Query::Update(q) => {
            // Vertical split: updates touching only row-fragment columns run
            // at row-store cost; otherwise column cost dominates.
            let hot = side(hot_fraction, StoreKind::Row);
            let cold = side(cold_fraction, update_store(spec, q));
            // A point update hits exactly one partition; weight by
            // fraction. A cold-routed write against a disk-tier fragment
            // additionally fetches the segment and rewrites it whole
            // (write-through re-publication).
            let disk_write = if disk_cold {
                cold_fraction * (tier.point_ms + tier.rewrite_mib_ms * cold_mib)
            } else {
                0.0
            };
            hot * hot_fraction + cold * cold_fraction + disk_write
        }
        Query::Select(q) => {
            let hot = side(hot_fraction, StoreKind::Row);
            let cold = side(cold_fraction, select_store(spec, q));
            if is_pk_point(tctx, &q.filter) {
                // A point read lands cold with probability `cold_fraction`
                // and then pays the segment fetch latency.
                let disk_point = if disk_cold {
                    cold_fraction * tier.point_ms
                } else {
                    0.0
                };
                hot * hot_fraction + cold * cold_fraction + disk_point
            } else {
                // A ranged select is priced as a scan of the cold segment
                // (`cold_mib` is zero for memory-resident cold parts).
                hot + cold + model.union_overhead_ms + tier.scan_mib_ms * cold_mib
            }
        }
        Query::Aggregate(_) => {
            // Aggregation unions both partitions: row-store scan over the
            // hot rows plus column-store scan over the cold rows.
            let hot = if hot_fraction > 0.0 {
                side(hot_fraction, StoreKind::Row)
            } else {
                0.0
            };
            let cold = side(cold_fraction, StoreKind::Column);
            hot + cold
                + if spec.horizontal.is_some() {
                    model.union_overhead_ms
                } else {
                    0.0
                }
                + tier.scan_mib_ms * cold_mib
        }
    }
}

fn update_store(spec: &hsd_catalog::PartitionSpec, q: &UpdateQuery) -> StoreKind {
    match &spec.vertical {
        Some(v) if q.sets.iter().all(|(c, _)| v.row_cols.contains(c)) => StoreKind::Row,
        Some(_) | None => StoreKind::Column,
    }
}

fn select_store(spec: &hsd_catalog::PartitionSpec, q: &SelectQuery) -> StoreKind {
    match (&spec.vertical, &q.columns) {
        (Some(v), Some(cols)) if cols.iter().all(|c| *c == 0 || v.row_cols.contains(c)) => {
            StoreKind::Row
        }
        _ => StoreKind::Column,
    }
}

/// Estimate a whole workload under a full layout.
pub fn estimate_workload_layout(
    model: &CostModel,
    ctx: &EstimationCtx,
    layout: &StorageLayout,
    workload: &Workload,
) -> f64 {
    workload
        .queries
        .iter()
        .map(|q| estimate_query_layout(model, ctx, layout, q))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AdjustmentFn;
    use hsd_catalog::ColumnStats;
    use hsd_query::{AggFunc, AggregateQuery, InsertQuery};

    fn tctx(rows: usize) -> TableCtx {
        TableCtx {
            stats: TableStats {
                row_count: rows,
                columns: vec![
                    ColumnStats {
                        distinct: rows,
                        min: Some(Value::BigInt(0)),
                        max: Some(Value::BigInt(rows as i64 - 1)),
                        compression_rate: 0.0,
                    },
                    ColumnStats {
                        distinct: 100,
                        min: Some(Value::Double(0.0)),
                        max: Some(Value::Double(100.0)),
                        compression_rate: 0.7,
                    },
                ],
            },
            indexed: vec![],
            column_types: vec![ColumnType::BigInt, ColumnType::Double],
            pk_columns: vec![0],
            delta_tail: 0,
            observed_tail_rate: None,
        }
    }

    fn model() -> CostModel {
        let mut m = CostModel::neutral();
        // RS aggregation: 1 µs/row; CS: 0.1 µs/row
        m.row.f_rows = AdjustmentFn::Linear {
            slope: 1e-3,
            intercept: 0.1,
        };
        m.column.f_rows = AdjustmentFn::Linear {
            slope: 1e-4,
            intercept: 0.2,
        };
        // inserts: RS cheap, CS 5x
        m.row.ins_row = AdjustmentFn::Constant(0.001);
        m.column.ins_row = AdjustmentFn::Constant(0.005);
        m.row.sel_point_ms = 0.002;
        m.column.sel_point_ms = 0.01;
        m.row.upd_row_ms = 0.002;
        m.column.upd_row_ms = 0.01;
        m
    }

    fn ctx() -> EstimationCtx {
        let mut c = EstimationCtx::new();
        c.insert("t", tctx(10_000));
        c
    }

    fn assign(s: StoreKind) -> StorageLayout {
        StorageLayout::uniform(["t"], s)
    }

    #[test]
    fn aggregation_prefers_column_store() {
        let m = model();
        let c = ctx();
        let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        let rs = estimate_query_layout(&m, &c, &assign(StoreKind::Row), &q);
        let cs = estimate_query_layout(&m, &c, &assign(StoreKind::Column), &q);
        assert!(rs > cs, "rs={rs} cs={cs}");
        // linear in rows: doubling rows roughly doubles cost
        let mut big = EstimationCtx::new();
        big.insert("t", tctx(20_000));
        let rs2 = estimate_query_layout(&m, &big, &assign(StoreKind::Row), &q);
        assert!(rs2 > rs * 1.8 && rs2 < rs * 2.2);
    }

    #[test]
    fn multiple_aggregates_add_base_terms() {
        let m = model();
        let c = ctx();
        let one = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        let mut two_q = AggregateQuery::simple("t", AggFunc::Sum, 1);
        two_q.aggregates.push(hsd_query::Aggregate {
            func: AggFunc::Avg,
            column: 1,
        });
        let two = Query::Aggregate(two_q);
        let c1 = estimate_query_layout(&m, &c, &assign(StoreKind::Column), &one);
        let c2 = estimate_query_layout(&m, &c, &assign(StoreKind::Column), &two);
        assert!(
            (c2 / c1 - 2.0).abs() < 1e-6,
            "two aggregates cost twice the base term"
        );
    }

    #[test]
    fn group_by_applies_constant() {
        let mut m = model();
        m.column.c_group_by = 3.0;
        let c = ctx();
        let mut q = AggregateQuery::simple("t", AggFunc::Sum, 1);
        let without = estimate_query_layout(
            &m,
            &c,
            &assign(StoreKind::Column),
            &Query::Aggregate(q.clone()),
        );
        q.group_by = Some(1);
        let with = estimate_query_layout(&m, &c, &assign(StoreKind::Column), &Query::Aggregate(q));
        assert!((with / without - 3.0).abs() < 1e-6);
    }

    #[test]
    fn inserts_prefer_row_store() {
        let m = model();
        let c = ctx();
        let q = Query::Insert(InsertQuery {
            table: "t".into(),
            rows: vec![vec![Value::BigInt(1), Value::Double(0.0)]; 10],
        });
        let rs = estimate_query_layout(&m, &c, &assign(StoreKind::Row), &q);
        let cs = estimate_query_layout(&m, &c, &assign(StoreKind::Column), &q);
        assert!(cs > rs);
        assert!((rs - 0.01).abs() < 1e-9); // 10 rows × 0.001
    }

    #[test]
    fn point_queries_hit_point_path() {
        let m = model();
        let c = ctx();
        let q = Query::Select(SelectQuery::point("t", 0, Value::BigInt(5)));
        let rs = estimate_query_layout(&m, &c, &assign(StoreKind::Row), &q);
        assert!((rs - 0.002).abs() < 1e-9);
    }

    #[test]
    fn update_cost_scales_with_affected_rows() {
        let mut m = model();
        m.row.sel_per_row_scan = 1e-5;
        let c = ctx();
        let point = Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(0.0))],
            filter: vec![ColRange::eq(0, Value::BigInt(3))],
        });
        let range = Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(0.0))],
            filter: vec![ColRange::between(0, Value::BigInt(0), Value::BigInt(4999))],
        });
        let p = estimate_query_layout(&m, &c, &assign(StoreKind::Row), &point);
        let r = estimate_query_layout(&m, &c, &assign(StoreKind::Row), &range);
        assert!(r > p * 100.0, "range update much dearer than point update");
    }

    #[test]
    fn delta_tail_degrades_column_store_estimates_only() {
        let mut m = model();
        m.column.f_tail = AdjustmentFn::Linear {
            slope: 10.0,
            intercept: 1.0,
        };
        let clean = ctx();
        let mut tailed = EstimationCtx::new();
        let mut t = tctx(10_000);
        t.delta_tail = 1_000; // 10% tail -> factor 2.0
        tailed.insert("t", t);
        let agg = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        let cs_clean = estimate_query_layout(&m, &clean, &assign(StoreKind::Column), &agg);
        let cs_tailed = estimate_query_layout(&m, &tailed, &assign(StoreKind::Column), &agg);
        assert!(
            (cs_tailed / cs_clean - 2.0).abs() < 1e-9,
            "10% tail at slope 10 doubles the column scan estimate"
        );
        // The row store has no delta region: neutral f_tail, unchanged cost.
        let rs_clean = estimate_query_layout(&m, &clean, &assign(StoreKind::Row), &agg);
        let rs_tailed = estimate_query_layout(&m, &tailed, &assign(StoreKind::Row), &agg);
        assert!((rs_tailed - rs_clean).abs() < 1e-12);
        // Filtered scans pay the tail in the locate term as well.
        let mut m2 = m.clone();
        m2.column.sel_per_row_scan = 1e-4;
        let filtered = Query::Select(SelectQuery {
            table: "t".into(),
            columns: None,
            filter: vec![ColRange::ge(1, Value::Double(50.0))],
        });
        let f_clean = estimate_query_layout(&m2, &clean, &assign(StoreKind::Column), &filtered);
        let f_tailed = estimate_query_layout(&m2, &tailed, &assign(StoreKind::Column), &filtered);
        assert!(f_tailed > f_clean);
    }

    #[test]
    fn workload_estimate_sums_queries() {
        let m = model();
        let c = ctx();
        let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        let w = Workload::from_queries(vec![q.clone(), q.clone()]);
        let single = estimate_query_layout(&m, &c, &assign(StoreKind::Column), &w.queries[0]);
        let total = estimate_workload_layout(&m, &c, &assign(StoreKind::Column), &w);
        assert!((total - 2.0 * single).abs() < 1e-9);
    }

    #[test]
    fn observed_tail_rate_tightens_the_static_upper_bound() {
        use hsd_query::UpdateQuery;
        // Skewed-column workload: 100 update statements, each assigning 3
        // columns — the static upper bound charges 300 tail entries, but
        // the (observed) dictionaries only ever intern a handful of
        // distinct values.
        let queries: Vec<Query> = (0..100)
            .map(|i| {
                Query::Update(UpdateQuery {
                    table: "t".into(),
                    sets: vec![
                        (1, Value::Double(1.0)),
                        (1, Value::Double(2.0)),
                        (1, Value::Double(3.0)),
                    ],
                    filter: vec![ColRange::eq(0, Value::BigInt(i))],
                })
            })
            .chain(std::iter::once(Query::Aggregate(AggregateQuery::simple(
                "t",
                AggFunc::Sum,
                1,
            ))))
            .collect();
        let column = TablePlacement::Single(StoreKind::Column);
        let drivers = |c: &EstimationCtx| {
            placement_fragment_drivers(c, &queries, "t", &column)
                .unwrap()
                .drivers
        };
        // Without feedback: the upper bound.
        let blind = drivers(&ctx());
        assert_eq!(blind.tail_growth, 300.0);
        assert_eq!(blind.scans, 1.0);
        // With an observed rate of 0.05 entries per write statement the
        // estimate collapses to 100 × 0.05 = 5 — the two diverge by 60×.
        let mut observed = ctx();
        observed.tables.get_mut("t").unwrap().observed_tail_rate = Some(0.05);
        let fed = drivers(&observed);
        assert_eq!(fed.tail_growth, 5.0);
        assert_eq!(fed.scans, 1.0);
        // The observed rate can only tighten, never exceed, the bound.
        let mut inflated = ctx();
        inflated.tables.get_mut("t").unwrap().observed_tail_rate = Some(50.0);
        assert_eq!(drivers(&inflated).tail_growth, 300.0);
    }

    #[test]
    fn layout_estimation_partitioned_aggregate() {
        let m = model();
        let c = ctx();
        let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        // 10% hot horizontal partition
        let mut layout = StorageLayout::new();
        layout.set(
            "t",
            TablePlacement::Partitioned(hsd_catalog::PartitionSpec {
                horizontal: Some(hsd_catalog::HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(9000),
                }),
                vertical: None,
                ..Default::default()
            }),
        );
        let partitioned = estimate_query_layout(&m, &c, &layout, &q);
        let mut cs_layout = StorageLayout::new();
        cs_layout.set("t", TablePlacement::Single(StoreKind::Column));
        let cs = estimate_query_layout(&m, &c, &cs_layout, &q);
        let mut rs_layout = StorageLayout::new();
        rs_layout.set("t", TablePlacement::Single(StoreKind::Row));
        let rs = estimate_query_layout(&m, &c, &rs_layout, &q);
        assert!(partitioned > cs, "partition pays RS scan on the hot 10%");
        assert!(partitioned < rs, "but stays far below full row store");
    }

    /// Disk-tier cold fragments pay the [`crate::cost::TierModel`]
    /// surcharges: scans a decode-bandwidth term, point reads a
    /// cold-weighted fetch latency, updates a segment rewrite cycle — and
    /// a memory-tier twin of the same split pays none of them.
    #[test]
    fn disk_tier_surcharges_scans_points_and_updates() {
        use hsd_query::{SelectQuery, UpdateQuery};
        let mut m = model();
        m.tier = crate::cost::TierModel::default_disk();
        let c = ctx();
        let layout_with = |tier: hsd_catalog::Tier| {
            let mut layout = StorageLayout::new();
            layout.set(
                "t",
                TablePlacement::Partitioned(hsd_catalog::PartitionSpec {
                    horizontal: Some(hsd_catalog::HorizontalSpec {
                        split_column: 0,
                        split_value: Value::BigInt(9000),
                    }),
                    vertical: None,
                    cold_tier: tier,
                }),
            );
            layout
        };
        let mem = layout_with(hsd_catalog::Tier::Memory);
        let disk = layout_with(hsd_catalog::Tier::Disk);

        let scan = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        let point = Query::Select(SelectQuery::point("t", 0, Value::BigInt(42)));
        let update = Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(1.0))],
            filter: vec![hsd_storage::ColRange::eq(0, Value::BigInt(42))],
        });
        for q in [&scan, &point, &update] {
            let on_mem = estimate_query_layout(&m, &c, &mem, q);
            let on_disk = estimate_query_layout(&m, &c, &disk, q);
            assert!(
                on_disk > on_mem,
                "disk tier must surcharge {q:?}: {on_disk} vs {on_mem}"
            );
        }
        // The rewrite cycle dwarfs a point fetch: the update surcharge must
        // exceed the point-select surcharge.
        let upd_delta = estimate_query_layout(&m, &c, &disk, &update)
            - estimate_query_layout(&m, &c, &mem, &update);
        let point_delta = estimate_query_layout(&m, &c, &disk, &point)
            - estimate_query_layout(&m, &c, &mem, &point);
        assert!(upd_delta > point_delta, "{upd_delta} > {point_delta}");
        // A neutral tier model prices the two tiers identically (back-compat
        // for models serialized before tier pricing existed).
        let neutral = model();
        for q in [&scan, &point, &update] {
            assert_eq!(
                estimate_query_layout(&neutral, &c, &mem, q),
                estimate_query_layout(&neutral, &c, &disk, q),
            );
        }
    }

    /// Satellite regression: a table with no [`TableCtx`] used to be priced
    /// as *free* under a partitioned placement, biasing every layout
    /// comparison toward partitioning. It must fall back to the single-store
    /// estimate instead — the same (nonzero, where the model charges one)
    /// price every other layout gets.
    #[test]
    fn stats_less_table_falls_back_to_single_store_estimate() {
        let m = model();
        let c = ctx(); // knows "t" but not "ghost"
        let ins = Query::Insert(InsertQuery {
            table: "ghost".into(),
            rows: vec![vec![Value::BigInt(1), Value::Double(0.0)]; 10],
        });
        let mut layout = StorageLayout::new();
        layout.set(
            "ghost",
            TablePlacement::Partitioned(hsd_catalog::PartitionSpec {
                horizontal: Some(hsd_catalog::HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(0),
                }),
                vertical: None,
                ..Default::default()
            }),
        );
        let partitioned = estimate_query_layout(&m, &c, &layout, &ins);
        let single = estimate_query_layout(&m, &c, &StorageLayout::new(), &ins);
        assert!(single > 0.0, "row-store insert estimate is nonzero");
        assert_eq!(
            partitioned, single,
            "a stats-less table must cost the same under every layout"
        );
    }

    /// Satellite regression: a horizontal split column with *missing*
    /// statistics used to feed `Null` into the selectivity estimate, whose
    /// whole-domain fallback of 1.0 priced the partition as 100 % hot row
    /// store. Missing stats must mean "no horizontal split information"
    /// (hot fraction 0 — everything cold).
    #[test]
    fn missing_split_stats_price_partition_all_cold() {
        let m = model();
        let mut c = EstimationCtx::new();
        let mut t = tctx(10_000);
        t.stats.columns[0].min = None;
        t.stats.columns[0].max = None;
        c.insert("t", t);
        let q = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        let mut part = StorageLayout::new();
        part.set(
            "t",
            TablePlacement::Partitioned(hsd_catalog::PartitionSpec {
                horizontal: Some(hsd_catalog::HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(9000),
                }),
                vertical: None,
                ..Default::default()
            }),
        );
        let partitioned = estimate_query_layout(&m, &c, &part, &q);
        let cs = estimate_query_layout(&m, &c, &assign(StoreKind::Column), &q);
        let rs = estimate_query_layout(&m, &c, &assign(StoreKind::Row), &q);
        assert!(
            (partitioned - cs).abs() < 1e-9,
            "hot fraction 0: the aggregate scans only the cold column \
             fragment ({partitioned} vs cs {cs})"
        );
        assert!(partitioned < rs, "must not degrade to the row-store price");
    }

    #[test]
    fn fragment_drivers_route_hot_cold_and_vertical() {
        use hsd_catalog::{HorizontalSpec, PartitionSpec, VerticalSpec};
        use hsd_query::{InsertQuery, UpdateQuery};
        let c = ctx(); // "t": 10k rows, pk col 0
        let queries: Vec<Query> = (0..100)
            .map(|i| {
                Query::Insert(InsertQuery {
                    table: "t".into(),
                    rows: vec![vec![Value::BigInt(10_000 + i), Value::Double(0.0)]],
                })
            })
            .chain((0..40).map(|i| {
                Query::Update(UpdateQuery {
                    table: "t".into(),
                    sets: vec![(1, Value::Double(1e6 + i as f64))],
                    filter: vec![ColRange::eq(0, Value::BigInt(i))],
                })
            }))
            .chain(std::iter::repeat_n(
                Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1)),
                10,
            ))
            .collect();
        let w = &queries;
        // Single row store: no column region, no drivers.
        assert!(
            placement_fragment_drivers(&c, w, "t", &TablePlacement::Single(StoreKind::Row))
                .is_none()
        );
        // Single column store: the full-table drivers (one entry per
        // inserted row + one per update assignment; every aggregate scans).
        let full =
            placement_fragment_drivers(&c, w, "t", &TablePlacement::Single(StoreKind::Column))
                .unwrap();
        assert_eq!(full.rows, 10_000);
        assert_eq!(full.drivers.tail_growth, 140.0);
        assert_eq!(full.drivers.scans, 10.0);
        // Hot/cold split at 90 %: inserts are absorbed by the hot row-store
        // partition, update growth scales by the cold fraction, the cold
        // fragment holds ~90 % of the rows, and scans still pay in full.
        let hot_cold = TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(9000),
            }),
            vertical: None,
            ..Default::default()
        });
        let frag = placement_fragment_drivers(&c, w, "t", &hot_cold).unwrap();
        let hot = crate::partition::horizontal_hot_fraction(
            &c.table("t").unwrap().stats,
            match &hot_cold {
                TablePlacement::Partitioned(s) => s,
                _ => unreachable!(),
            },
        );
        assert!(hot > 0.05 && hot < 0.15, "≈10% hot, got {hot}");
        assert_eq!(frag.rows, (10_000.0 * (1.0 - hot)).round() as usize);
        assert!(
            (frag.drivers.tail_growth - 40.0 * (1.0 - hot)).abs() < 1e-9,
            "inserts absorbed, updates scaled: {}",
            frag.drivers.tail_growth
        );
        assert_eq!(frag.drivers.scans, 10.0);
        // Vertical split putting the updated column into the row fragment:
        // the updates intern nothing in the column fragment either.
        let vertical = TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(9000),
            }),
            vertical: Some(VerticalSpec { row_cols: vec![1] }),
            ..Default::default()
        });
        let v = placement_fragment_drivers(&c, w, "t", &vertical).unwrap();
        assert_eq!(v.drivers.tail_growth, 0.0);
        assert_eq!(v.drivers.scans, 10.0);
    }

    #[test]
    fn join_estimation_uses_combo_factor() {
        let mut m = model();
        m.join_factor = [[2.0, 4.0], [1.2, 1.5]];
        let mut c = ctx();
        c.insert("dim", tctx(100));
        let mut q = AggregateQuery::simple("t", AggFunc::Sum, 1);
        q.join = Some(hsd_query::JoinSpec {
            dim_table: "dim".into(),
            fact_fk: 0,
            dim_pk: 0,
            group_by_dim: Some(1),
        });
        let q = Query::Aggregate(q);
        let mut a = assign(StoreKind::Row);
        a.set("dim", TablePlacement::Single(StoreKind::Row));
        let rr = estimate_query_layout(&m, &c, &a, &q);
        a.set("dim", TablePlacement::Single(StoreKind::Column));
        let rc = estimate_query_layout(&m, &c, &a, &q);
        assert!(rc > rr, "factor 4 vs 2 for dim in CS");
    }
}
