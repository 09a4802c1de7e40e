//! Statistics recorder: accumulates the online mode's extended workload
//! statistics as queries execute.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use hsd_catalog::{ExtendedStats, TablePlacement, Tier};
use hsd_query::{Query, SelectQuery, UpdateQuery};
use hsd_storage::{pk_point, StoreKind};
use hsd_types::TableSchema;

use crate::database::HybridDatabase;

/// Operator class a [`TimingSample`] belongs to. Mirrors the estimator's
/// cost formulas, so each class maps onto one family of model coefficients
/// the online calibrator can re-fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// Unfiltered, join-free aggregate: a full scan of the aggregated
    /// columns (the `f_rows`/`f_tail` families).
    Scan,
    /// Filtered or joined read: scan plus locate/probe terms.
    FilteredScan,
    /// Primary-key point select (the `sel_point_ms` family).
    Point,
    /// Row insert (the `ins_row` family).
    Insert,
    /// Predicate update (locate + `upd_row_ms` families).
    Update,
}

/// One predicted-vs-measured observation: a query's wall-clock execution
/// time tagged with everything the online calibrator needs to reproduce the
/// model's prediction for it (table, placement, operator class, live row
/// count and dictionary tail at execution time).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSample {
    /// Queried table.
    pub table: String,
    /// Store the query executed against (`Column` for partitioned layouts,
    /// whose scans are served by the column fragments).
    pub store: StoreKind,
    /// Whether the table was under a partitioned placement.
    pub partitioned: bool,
    /// Whether the placement's cold partition is disk-resident (the
    /// `TierModel` surcharge applies).
    pub disk_cold: bool,
    /// Operator class (selects the coefficient family).
    pub op: OpClass,
    /// Live row count at execution time.
    pub rows: usize,
    /// Live dictionary-tail size at execution time.
    pub tail: usize,
    /// The cost model's prediction for this query under the layout it
    /// executed on, in milliseconds. Computed by the caller (the recorder
    /// has no model); `measured / predicted` is the residual the online
    /// calibrator re-fits from.
    pub predicted_ms: f64,
    /// Measured wall-clock execution time in milliseconds.
    pub measured_ms: f64,
}

/// One merge slice's measured cost: rows remapped and wall-clock spent, the
/// observation the `merge_ms` coefficient family is re-fit from (and the
/// calibration groundwork a wall-clock merge pacer needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSliceSample {
    /// Merged table.
    pub table: String,
    /// Rows remapped by the slice.
    pub rows_remapped: usize,
    /// Wall-clock nanoseconds the slice took.
    pub elapsed_ns: u64,
}

/// Bound on buffered timing/merge samples per observation interval; beyond
/// it new samples are dropped (the calibrator drains far more often than
/// this fills, and a decayed fit prefers fresh samples anyway).
const TIMING_CAP: usize = 4096;

/// Records per-table / per-attribute activity ("Record extended statistics"
/// in Figure 5 of the paper).
#[derive(Debug, Default)]
pub struct StatisticsRecorder {
    stats: ExtendedStats,
    /// Last sampled `(merge_epoch, delta_tail)` per table — the cursor the
    /// observed-tail-growth counter diffs against. A moved epoch means a
    /// merge folded the old tail, so growth restarts from zero instead of
    /// producing a bogus negative delta.
    tail_cursor: BTreeMap<String, (u64, usize)>,
    /// Buffered observed-timing samples (drained by the online calibrator).
    timing: Vec<TimingSample>,
    /// Buffered per-merge-slice timings (drained by the online calibrator).
    merge_slices: Vec<MergeSliceSample>,
}

impl StatisticsRecorder {
    /// Fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &ExtendedStats {
        &self.stats
    }

    /// Consume the recorder, yielding its statistics.
    pub fn into_stats(self) -> ExtendedStats {
        self.stats
    }

    /// Reset all counters (a new observation interval).
    pub fn reset(&mut self) {
        self.stats = ExtendedStats::new();
        self.tail_cursor.clear();
        self.timing.clear();
        self.merge_slices.clear();
    }

    /// Record one query *with* its measured wall-clock execution time: the
    /// usual extended statistics plus an observed-timing sample tagged by
    /// table, placement, and operator class. The sample is what the online
    /// calibrator pairs against the model's prediction — the same
    /// generalization of the PR 4 observed-tail-rate pattern, applied to
    /// latency instead of dictionary growth.
    pub fn record_timed(
        &mut self,
        db: &HybridDatabase,
        query: &Query,
        predicted_ms: f64,
        measured_ms: f64,
    ) {
        let probe = Probe::of(db, query);
        self.record_probed(&probe, query);
        if self.timing.len() >= TIMING_CAP {
            return;
        }
        let Some(entry) = &probe.entry else {
            return;
        };
        let live = probe.live.unwrap_or_default();
        self.timing.push(TimingSample {
            table: query.table().to_string(),
            store: entry.store,
            partitioned: entry.partitioned,
            disk_cold: entry.disk_cold,
            op: classify(&entry.schema, query),
            rows: live.rows,
            tail: live.tail,
            predicted_ms,
            measured_ms,
        });
    }

    /// Record one merge slice's measured cost (rows remapped over wall-clock
    /// nanoseconds) — the observation channel for the `merge_ms` family.
    pub fn observe_merge_slice(&mut self, table: &str, rows_remapped: usize, elapsed_ns: u64) {
        if rows_remapped == 0 || self.merge_slices.len() >= TIMING_CAP {
            return;
        }
        self.merge_slices.push(MergeSliceSample {
            table: table.to_string(),
            rows_remapped,
            elapsed_ns,
        });
    }

    /// Drain the buffered observed-timing samples.
    pub fn take_timing_samples(&mut self) -> Vec<TimingSample> {
        std::mem::take(&mut self.timing)
    }

    /// Drain the buffered per-merge-slice timings.
    pub fn take_merge_slice_samples(&mut self) -> Vec<MergeSliceSample> {
        std::mem::take(&mut self.merge_slices)
    }

    /// The offline mode's workload analysis: every query recorded against
    /// the table schemas alone. Arities come from `schemas` (the first
    /// schema of a name wins); no engine is consulted and no live counter
    /// is sampled.
    pub fn analyze(schemas: &[Arc<TableSchema>], queries: &[Query]) -> ExtendedStats {
        let mut by_name: HashMap<&str, &Arc<TableSchema>> = HashMap::new();
        for schema in schemas {
            by_name.entry(schema.name.as_str()).or_insert(schema);
        }
        let mut recorder = StatisticsRecorder::new();
        for query in queries {
            recorder.record_probed(&Probe::offline(&by_name, query), query);
        }
        recorder.into_stats()
    }

    /// Record one query. The database is consulted for schema arity and for
    /// sampling the live dictionary-tail size (observed tail growth) — one
    /// catalog guard and one pin of the query's own table, whatever the
    /// size of the catalog.
    pub fn record(&mut self, db: &HybridDatabase, query: &Query) {
        self.record_probed(&Probe::of(db, query), query);
    }

    fn record_probed(&mut self, probe: &Probe, query: &Query) {
        self.stats.total_statements += 1;
        self.observe_tail(probe, query);
        let schema = probe.entry.as_ref().map(|e| &*e.schema);
        let arity = schema.map_or(0, TableSchema::arity);
        match query {
            Query::Insert(q) => {
                let t = self.stats.table_mut(&q.table, arity);
                t.inserts += 1;
            }
            Query::Update(q) => self.record_update(schema, q),
            Query::Select(q) => self.record_select(arity, q),
            Query::Aggregate(q) => {
                let t = self.stats.table_mut(&q.table, arity);
                t.aggregations += 1;
                for a in &q.aggregates {
                    if a.column < t.columns.len() {
                        t.columns[a.column].aggregates += 1;
                    }
                }
                if let Some(g) = q.group_by {
                    if g < t.columns.len() {
                        t.columns[g].group_bys += 1;
                    }
                }
                for r in &q.filter {
                    if r.column < t.columns.len() {
                        t.columns[r.column].select_preds += 1;
                    }
                }
                if let Some(join) = &q.join {
                    *t.join_partners.entry(join.dim_table.clone()).or_insert(0) += 1;
                    let d = self.stats.table_mut(&join.dim_table, probe.dim_arity);
                    *d.join_partners.entry(q.table.clone()).or_insert(0) += 1;
                    if let Some(g) = join.group_by_dim {
                        if g < d.columns.len() {
                            d.columns[g].group_bys += 1;
                        }
                    }
                }
            }
        }
    }

    /// Sample the query's table for live tail growth: positive deltas of
    /// `delta_tail` since the last sample accumulate into
    /// `observed_tail_growth`, and write statements against a *fully
    /// columnar* table count into `observed_write_statements` — the two
    /// sides of the observed tail rate that tightens the advisor's static
    /// one-entry-per-assignment upper bound.
    ///
    /// Sampling is cursor-based (per-statement diffs), seeded with the
    /// current tail so pre-existing delta (from before this recorder — or
    /// this observation interval — started) is never mis-counted as
    /// observed growth. Growth caused by a write is attributed when the
    /// *next* statement on the table is recorded — exact over any window
    /// longer than one statement. A selective per-column merge both bumps
    /// the epoch and leaves other columns' tails in place; the reset then
    /// re-counts the survivors, a slight overcount in the conservative
    /// (upper-bound) direction.
    ///
    /// Only `Single(Column)` placements accumulate write statements: on a
    /// partitioned layout most writes land in the hot row partition and
    /// grow no tail, so counting them would report a near-zero rate that
    /// the advisor would then wrongly apply when pricing a full
    /// column-store candidate. Partitioned tables simply fall back to the
    /// static upper bound (`observed_tail_rate` stays `None`).
    fn observe_tail(&mut self, probe: &Probe, query: &Query) {
        let table = query.table();
        let Some(Live { tail, epoch, .. }) = probe.live else {
            return;
        };
        let cursor = match self.tail_cursor.get_mut(table) {
            Some(cursor) => Some(std::mem::replace(cursor, (epoch, tail))),
            None => self.tail_cursor.insert(table.to_string(), (epoch, tail)),
        };
        let grown = match cursor {
            // First sample: establish the baseline; whatever tail already
            // exists predates observation and must not count as growth.
            None => 0,
            Some((prev_epoch, prev_tail)) => {
                let base = if prev_epoch == epoch { prev_tail } else { 0 };
                tail.saturating_sub(base) as u64
            }
        };
        let columnar = probe
            .entry
            .as_ref()
            .is_some_and(|e| !e.partitioned && e.store == StoreKind::Column);
        let is_write = matches!(query, Query::Insert(_) | Query::Update(_));
        if grown == 0 && !(columnar && is_write) {
            return;
        }
        let arity = probe.entry.as_ref().map_or(0, |e| e.schema.arity());
        let t = self.stats.table_mut(table, arity);
        t.observed_tail_growth += grown;
        if columnar && is_write {
            t.observed_write_statements += 1;
        }
    }

    fn record_update(&mut self, schema: Option<&TableSchema>, q: &UpdateQuery) {
        let arity = schema.map_or(q.sets.len() + 1, |s| s.arity());
        let non_key = schema.map_or(arity, |s| s.arity() - s.primary_key.len());
        let t = self.stats.table_mut(&q.table, arity);
        t.updates += 1;
        // "updates that are addressing many attributes": a strict majority
        // of the non-key attributes assigned.
        if q.sets.len() * 2 > non_key.max(1) {
            t.whole_tuple_updates += 1;
        }
        for (col, _) in &q.sets {
            if *col < t.columns.len() {
                t.columns[*col].update_sets += 1;
            }
        }
        for r in &q.filter {
            if r.column < t.columns.len() {
                t.columns[r.column].update_preds += 1;
            }
            // Envelope of updated key ranges, for the hot-region heuristic.
            let lo = match r.lo_ref() {
                std::ops::Bound::Included(v) | std::ops::Bound::Excluded(v) => Some(v),
                std::ops::Bound::Unbounded => None,
            };
            let hi = match r.hi_ref() {
                std::ops::Bound::Included(v) | std::ops::Bound::Excluded(v) => Some(v),
                std::ops::Bound::Unbounded => None,
            };
            if let (Some(lo), Some(hi)) = (lo, hi) {
                t.update_envelopes
                    .entry(r.column)
                    .or_default()
                    .observe(lo, hi);
            }
        }
    }

    fn record_select(&mut self, arity: usize, q: &SelectQuery) {
        let t = self.stats.table_mut(&q.table, arity);
        t.selects += 1;
        for r in &q.filter {
            if r.column < t.columns.len() {
                t.columns[r.column].select_preds += 1;
            }
        }
        match &q.columns {
            Some(cols) => {
                for &c in cols {
                    if c < t.columns.len() {
                        t.columns[c].select_projs += 1;
                    }
                }
            }
            None => {
                // SELECT *: every column is projected.
                for c in &mut t.columns {
                    c.select_projs += 1;
                }
            }
        }
    }
}

/// The catalog side of a [`Probe`].
#[derive(Debug)]
struct ProbedEntry {
    schema: Arc<TableSchema>,
    /// Store the table's scans run against (`Column` for partitioned
    /// layouts, whose scans are served by the column fragments).
    store: StoreKind,
    partitioned: bool,
    /// Whether the cold partition is disk-resident (the `TierModel`
    /// surcharge applies).
    disk_cold: bool,
}

/// The shard side of a [`Probe`], read under one pin.
#[derive(Debug, Clone, Copy, Default)]
struct Live {
    tail: usize,
    epoch: u64,
    rows: usize,
}

/// Everything one statement's bookkeeping reads from the engine: the
/// statement's own table (and the arity of its join dimension) under one
/// catalog guard, then the table's live counters under one pin. The guard
/// is released before the pin (lock order: catalog → shard, never held
/// together here).
#[derive(Debug)]
struct Probe {
    entry: Option<ProbedEntry>,
    dim_arity: usize,
    live: Option<Live>,
}

impl Probe {
    /// A probe over schemas alone: a single row-store table each, with no
    /// live side.
    fn offline(schemas: &HashMap<&str, &Arc<TableSchema>>, query: &Query) -> Self {
        let entry = schemas.get(query.table()).map(|schema| ProbedEntry {
            schema: Arc::clone(schema),
            store: StoreKind::Row,
            partitioned: false,
            disk_cold: false,
        });
        let dim_arity = query
            .join_dim()
            .and_then(|d| schemas.get(d))
            .map_or(0, |schema| schema.arity());
        Probe {
            entry,
            dim_arity,
            live: None,
        }
    }

    fn of(db: &HybridDatabase, query: &Query) -> Self {
        let table = query.table();
        let (entry, dim_arity) = {
            let catalog = db.catalog();
            let entry = catalog.entry_by_name(table).ok().map(|e| {
                let (store, partitioned, disk_cold) = match &e.placement {
                    TablePlacement::Single(s) => (*s, false, false),
                    TablePlacement::Partitioned(spec) => {
                        (StoreKind::Column, true, spec.cold_tier == Tier::Disk)
                    }
                };
                ProbedEntry {
                    schema: e.schema.clone(),
                    store,
                    partitioned,
                    disk_cold,
                }
            });
            let dim_arity = query
                .join_dim()
                .and_then(|d| catalog.entry_by_name(d).ok())
                .map_or(0, |e| e.schema.arity());
            (entry, dim_arity)
        };
        let live = db
            .with_table(table, |d| Live {
                tail: d.delta_tail(),
                epoch: d.merge_epoch(),
                rows: d.row_count(),
            })
            .ok();
        Probe {
            entry,
            dim_arity,
            live,
        }
    }
}

/// Map a query onto the coefficient family its measured time calibrates.
/// Mirrors the estimator's case analysis: an unfiltered, join-free
/// aggregate is a pure scan; a select whose filter is exactly an equality
/// on every primary-key column is a point lookup; everything else that
/// reads is a filtered scan.
fn classify(schema: &TableSchema, query: &Query) -> OpClass {
    match query {
        Query::Insert(_) => OpClass::Insert,
        Query::Update(_) => OpClass::Update,
        Query::Aggregate(q) => {
            if q.filter.is_empty() && q.join.is_none() {
                OpClass::Scan
            } else {
                OpClass::FilteredScan
            }
        }
        Query::Select(q) => {
            if pk_point(&schema.primary_key, &q.filter).is_some() {
                OpClass::Point
            } else {
                OpClass::FilteredScan
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_query::{AggFunc, Aggregate, AggregateQuery, InsertQuery, JoinSpec};
    use hsd_storage::{ColRange, StoreKind};
    use hsd_types::{ColumnDef, ColumnType, Value};

    fn db() -> HybridDatabase {
        let db = HybridDatabase::new();
        db.create_single(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::BigInt),
                    ColumnDef::new("kf", ColumnType::Double),
                    ColumnDef::new("st", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap(),
            StoreKind::Row,
        )
        .unwrap();
        db.create_single(
            TableSchema::new(
                "dim",
                vec![
                    ColumnDef::new("dk", ColumnType::BigInt),
                    ColumnDef::new("region", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap(),
            StoreKind::Row,
        )
        .unwrap();
        db
    }

    #[test]
    fn records_inserts_updates_selects() {
        let db = db();
        let mut rec = StatisticsRecorder::new();
        rec.record(
            &db,
            &Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![],
            }),
        );
        rec.record(
            &db,
            &Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(2, Value::Int(1))],
                filter: vec![ColRange::eq(0, Value::BigInt(7))],
            }),
        );
        rec.record(
            &db,
            &Query::Select(SelectQuery {
                table: "t".into(),
                columns: Some(vec![2]),
                filter: vec![ColRange::eq(0, Value::BigInt(7))],
            }),
        );
        let t = rec.stats().table("t").unwrap();
        assert_eq!(t.inserts, 1);
        assert_eq!(t.updates, 1);
        assert_eq!(t.selects, 1);
        assert_eq!(t.columns[2].update_sets, 1);
        assert_eq!(t.columns[2].select_projs, 1);
        assert_eq!(t.columns[0].update_preds, 1);
        assert_eq!(t.columns[0].select_preds, 1);
        let env = &t.update_envelopes[&0];
        assert_eq!(env.lo, Some(Value::BigInt(7)));
        assert_eq!(env.hi, Some(Value::BigInt(7)));
        assert_eq!(rec.stats().total_statements, 3);
    }

    #[test]
    fn whole_tuple_update_detection() {
        let db = db();
        let mut rec = StatisticsRecorder::new();
        // schema has 2 non-key columns; assigning both is a whole-tuple update
        rec.record(
            &db,
            &Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(0.0)), (2, Value::Int(1))],
                filter: vec![ColRange::eq(0, Value::BigInt(3))],
            }),
        );
        // single-column update is not
        rec.record(
            &db,
            &Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(2, Value::Int(1))],
                filter: vec![ColRange::eq(0, Value::BigInt(3))],
            }),
        );
        let t = rec.stats().table("t").unwrap();
        assert_eq!(t.updates, 2);
        assert_eq!(t.whole_tuple_updates, 1);
    }

    #[test]
    fn records_aggregations_and_joins() {
        let db = db();
        let mut rec = StatisticsRecorder::new();
        rec.record(
            &db,
            &Query::Aggregate(AggregateQuery {
                table: "t".into(),
                aggregates: vec![Aggregate {
                    func: AggFunc::Sum,
                    column: 1,
                }],
                group_by: Some(2),
                filter: vec![],
                join: Some(JoinSpec {
                    dim_table: "dim".into(),
                    fact_fk: 2,
                    dim_pk: 0,
                    group_by_dim: Some(1),
                }),
            }),
        );
        let t = rec.stats().table("t").unwrap();
        assert_eq!(t.aggregations, 1);
        assert_eq!(t.columns[1].aggregates, 1);
        assert_eq!(t.columns[2].group_bys, 1);
        assert_eq!(t.join_partners["dim"], 1);
        let d = rec.stats().table("dim").unwrap();
        assert_eq!(d.join_partners["t"], 1);
        assert_eq!(d.columns[1].group_bys, 1);
    }

    #[test]
    fn observed_tail_growth_tracks_live_dictionaries_not_the_upper_bound() {
        let row_db = db();
        let db = HybridDatabase::new();
        db.create_single(
            TableSchema::new(
                "c",
                vec![
                    ColumnDef::new("id", ColumnType::BigInt),
                    ColumnDef::new("kf", ColumnType::Double),
                ],
                vec![0],
            )
            .unwrap(),
            StoreKind::Column,
        )
        .unwrap();
        db.bulk_load(
            "c",
            (0..50).map(|i| vec![Value::BigInt(i), Value::Double(0.0)]),
        )
        .unwrap();
        db.set_merge_config(crate::maintenance::MergeConfig::disabled());
        // Pre-existing tail from before recording starts: the first sample
        // must treat it as baseline, not observed growth.
        db.execute(&Query::Update(UpdateQuery {
            table: "c".into(),
            sets: vec![(1, Value::Double(555.0))],
            filter: vec![ColRange::eq(0, Value::BigInt(40))],
        }))
        .unwrap();
        let mut rec = StatisticsRecorder::new();
        // Skewed column workload: 20 updates alternating between only TWO
        // fresh values — the dictionary interns two entries, while the
        // static upper bound would charge one tail entry per assignment.
        for i in 0..20 {
            let q = Query::Update(UpdateQuery {
                table: "c".into(),
                sets: vec![(1, Value::Double(777.0 + (i % 2) as f64))],
                filter: vec![ColRange::eq(0, Value::BigInt(i))],
            });
            db.execute(&q).unwrap();
            rec.record(&db, &q);
        }
        let t = rec.stats().table("c").unwrap();
        // The pre-existing tail entry and the first statement's intern are
        // baseline (seeded by the first sample); only the second distinct
        // value registers as observed growth — two orders of magnitude
        // below the 20-assignment upper bound.
        assert_eq!(t.observed_tail_growth, 1);
        assert_eq!(t.observed_write_statements, 20);
        assert!(t.observed_tail_rate().unwrap() < 0.1);
        // A merge folds the tail (epoch handoff); the cursor resets instead
        // of producing a negative delta, and fresh growth counts again.
        crate::mover::merge_delta(&db, "c", crate::MergePartition::Whole).unwrap();
        for i in 0..3 {
            let q = Query::Update(UpdateQuery {
                table: "c".into(),
                sets: vec![(1, Value::Double(1000.0 + i as f64))],
                filter: vec![ColRange::eq(0, Value::BigInt(i))],
            });
            db.execute(&q).unwrap();
            rec.record(&db, &q);
        }
        let t = rec.stats().table("c").unwrap();
        assert_eq!(t.observed_tail_growth, 4, "1 before the merge + 3 after");
        assert_eq!(t.observed_write_statements, 23);
        // Row-store tables have no delta: nothing is observed.
        let mut rec2 = StatisticsRecorder::new();
        let q = Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(1.0))],
            filter: vec![ColRange::eq(0, Value::BigInt(1))],
        });
        rec2.record(&row_db, &q);
        let t = rec2.stats().table("t").unwrap();
        assert_eq!(t.observed_tail_growth, 0);
        assert_eq!(t.observed_write_statements, 0);
        assert!(t.observed_tail_rate().is_none());
        // Partitioned placements don't accumulate write statements either:
        // most writes land in the hot row partition and grow no tail, so a
        // measured rate there would wrongly price a full-column candidate.
        crate::mover::move_table(
            &db,
            "c",
            &hsd_catalog::TablePlacement::Partitioned(hsd_catalog::PartitionSpec {
                horizontal: Some(hsd_catalog::HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(40),
                }),
                vertical: None,
                ..Default::default()
            }),
        )
        .unwrap();
        let mut rec3 = StatisticsRecorder::new();
        let q = Query::Insert(hsd_query::InsertQuery {
            table: "c".into(),
            rows: vec![vec![Value::BigInt(100), Value::Double(1.0)]],
        });
        db.execute(&q).unwrap();
        rec3.record(&db, &q);
        let t = rec3.stats().table("c").unwrap();
        assert_eq!(
            t.observed_write_statements, 0,
            "hot-partition writes must not dilute the observed rate"
        );
        assert!(t.observed_tail_rate().is_none());
    }

    #[test]
    fn reset_clears() {
        let db = db();
        let mut rec = StatisticsRecorder::new();
        rec.record(
            &db,
            &Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![],
            }),
        );
        rec.reset();
        assert_eq!(rec.stats().total_statements, 0);
        assert!(rec.stats().table("t").is_none());
    }
}
