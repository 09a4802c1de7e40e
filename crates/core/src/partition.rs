//! Store-aware partitioning heuristic (Section 3.2 / 4 of the paper).
//!
//! Exhaustively searching partitionings is "prohibitive expensive", so the
//! paper proposes a heuristic with (up to) two horizontal and (up to) two
//! vertical partitions per table:
//!
//! * **horizontal** — if the insert fraction is "sufficiently high", a
//!   row-store partition for newly arriving tuples; if some tuples are
//!   "frequently updated as a whole", a row-store partition covering them
//!   (located via the recorded update-predicate envelopes);
//! * **vertical** — attributes "mainly and often used for updates or point
//!   queries rather than analyses" go to a row-store fragment.

use hsd_catalog::{HorizontalSpec, PartitionSpec, TableActivity, TableStats, VerticalSpec};
use hsd_types::{ColumnIdx, TableSchema, Value};

/// Thresholds of the partitioning heuristic.
#[derive(Debug, Clone)]
pub struct PartitionAdvisorConfig {
    /// Minimum insert fraction for a hot insert partition ("if it is
    /// sufficiently high a row-store partition ... will be recommended").
    pub min_insert_fraction: f64,
    /// Minimum number of updates before the update envelope is trusted.
    pub min_updates: u64,
    /// The hot region must cover at most this fraction of the table.
    pub max_hot_fraction: f64,
    /// Minimum OLAP queries on the table before partitioning is considered
    /// (a pure-OLTP table is better served by a plain row-store table).
    pub min_aggregations: u64,
    /// A column is an "OLTP attribute" when its OLTP uses exceed
    /// `oltp_dominance ×` its OLAP uses. The default is deliberately high:
    /// one aggregation or grouping reads *every* row while one update
    /// touches ~one, so a column with any regular analytical use belongs to
    /// the column fragment (the paper: "mainly and often used for updates
    /// or point queries *rather than analyses*").
    pub oltp_dominance: f64,
    /// Minimum OLTP statements before vertical partitioning is considered.
    pub min_oltp_statements: u64,
}

impl Default for PartitionAdvisorConfig {
    fn default() -> Self {
        PartitionAdvisorConfig {
            min_insert_fraction: 0.05,
            min_updates: 8,
            max_hot_fraction: 0.5,
            min_aggregations: 1,
            oltp_dominance: 64.0,
            min_oltp_statements: 8,
        }
    }
}

/// Estimated fraction of a table's rows that live in the **hot** row-store
/// partition of `spec`'s horizontal split (`split_column >= split_value`),
/// from basic statistics — the selectivity split both the layout estimator
/// and fragment-level maintenance costing use, so the same candidate is
/// priced with the same hot/cold masses everywhere.
///
/// Missing information degrades to **no horizontal split** (`0.0`, i.e.
/// everything cold): no horizontal spec, no statistics for the split
/// column, or a split column whose max is unknown. (Feeding a `Null` max
/// into the selectivity estimate would return the whole-domain fallback of
/// 1.0 and price the partition as 100 % hot row store — garbage in the
/// direction that hides the cold column fragment entirely.)
pub fn horizontal_hot_fraction(stats: &TableStats, spec: &PartitionSpec) -> f64 {
    let Some(h) = &spec.horizontal else {
        return 0.0;
    };
    let Some(col) = stats.columns.get(h.split_column) else {
        return 0.0;
    };
    let Some(max) = col.max.as_ref() else {
        return 0.0;
    };
    stats
        .estimate_range_selectivity(h.split_column, &h.split_value, max)
        .clamp(0.0, 1.0)
}

/// Recommend a partitioning for one table, or `None` when the heuristic
/// finds nothing beneficial.
pub fn recommend_partition(
    schema: &TableSchema,
    stats: &TableStats,
    activity: &TableActivity,
    cfg: &PartitionAdvisorConfig,
) -> Option<PartitionSpec> {
    // Partitioning only pays off for mixed workloads: a table never
    // aggregated belongs wholly to the row store (table-level decision).
    if activity.aggregations < cfg.min_aggregations {
        return None;
    }
    let horizontal = recommend_horizontal(schema, stats, activity, cfg);
    let vertical = recommend_vertical(schema, activity, cfg);
    if horizontal.is_none() && vertical.is_none() {
        return None;
    }
    Some(PartitionSpec {
        horizontal,
        vertical,
        ..Default::default()
    })
}

/// Horizontal split: prefer the update-envelope hot region; fall back to an
/// insert-only partition boundary above the current maximum.
fn recommend_horizontal(
    schema: &TableSchema,
    stats: &TableStats,
    activity: &TableActivity,
    cfg: &PartitionAdvisorConfig,
) -> Option<HorizontalSpec> {
    // "Get tuples that are frequently updated as a whole."
    if activity.updates >= cfg.min_updates {
        if let Some((col, env)) = activity
            .update_envelopes
            .iter()
            .filter(|(_, e)| e.count >= cfg.min_updates)
            .max_by_key(|(_, e)| e.count)
        {
            if let Some(lo) = &env.lo {
                if let Some(max) = stats.columns.get(*col).and_then(|c| c.max.as_ref()) {
                    let fraction = stats.estimate_range_selectivity(*col, lo, max);
                    if fraction <= cfg.max_hot_fraction && fraction > 0.0 {
                        return Some(HorizontalSpec {
                            split_column: *col,
                            split_value: lo.clone(),
                        });
                    }
                }
            }
        }
    }
    // "Get fraction of insert queries to determine if a partition for
    // inserts is meaningful."
    if activity.insert_fraction() >= cfg.min_insert_fraction {
        let pk_col = schema.primary_key[0];
        if let Some(split) = stats
            .columns
            .get(pk_col)
            .and_then(|c| c.max.as_ref())
            .and_then(next_value)
        {
            return Some(HorizontalSpec {
                split_column: pk_col,
                split_value: split,
            });
        }
    }
    None
}

/// Vertical split: collect the OLTP attributes.
fn recommend_vertical(
    schema: &TableSchema,
    activity: &TableActivity,
    cfg: &PartitionAdvisorConfig,
) -> Option<VerticalSpec> {
    let oltp_statements = activity.updates + activity.selects;
    if oltp_statements < cfg.min_oltp_statements {
        return None;
    }
    let mut row_cols: Vec<ColumnIdx> = Vec::new();
    let mut olap_cols = 0usize;
    for (col, a) in activity.columns.iter().enumerate() {
        if schema.is_pk_column(col) {
            continue;
        }
        let oltp = a.oltp_score() as f64;
        let olap = a.olap_score() as f64;
        if olap > 0.0 && oltp <= olap {
            olap_cols += 1;
        }
        if oltp > 0.0 && oltp > cfg.oltp_dominance * olap {
            row_cols.push(col);
        }
    }
    let non_key = schema.arity() - schema.primary_key.len();
    // No OLTP attributes, or nothing analytical left for the column
    // fragment: vertical partitioning is pointless.
    if row_cols.is_empty() || row_cols.len() >= non_key || olap_cols == 0 {
        return None;
    }
    Some(VerticalSpec { row_cols })
}

/// The smallest value strictly greater than `v` (for placing an empty hot
/// partition above the current domain).
fn next_value(v: &Value) -> Option<Value> {
    match v {
        Value::Int(x) => Some(Value::Int(x.checked_add(1)?)),
        Value::BigInt(x) => Some(Value::BigInt(x.checked_add(1)?)),
        Value::Date(x) => Some(Value::Date(x.checked_add(1)?)),
        Value::Decimal(x) => Some(Value::Decimal(x.checked_add(1)?)),
        Value::Double(x) => Some(Value::Double(x + f64::EPSILON * x.abs().max(1.0))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_catalog::ColumnStats;
    use hsd_types::{ColumnDef, ColumnType};

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

    fn stats(rows: usize) -> TableStats {
        TableStats {
            row_count: rows,
            columns: (0..4)
                .map(|c| ColumnStats {
                    distinct: if c == 0 { rows } else { 100 },
                    min: Some(Value::BigInt(0)),
                    max: Some(Value::BigInt(rows as i64 - 1)),
                    compression_rate: 0.5,
                })
                .collect(),
        }
    }

    fn base_activity() -> TableActivity {
        let mut a = TableActivity::new(4);
        a.aggregations = 20;
        a.columns[1].aggregates = 20;
        a.columns[2].group_bys = 10;
        a
    }

    #[test]
    fn no_partition_without_olap() {
        let mut a = TableActivity::new(4);
        a.updates = 100;
        a.columns[3].update_sets = 100;
        let spec = recommend_partition(&schema(), &stats(1000), &a, &Default::default());
        assert!(spec.is_none(), "pure OLTP tables are not partitioned");
    }

    #[test]
    fn hot_update_region_becomes_horizontal_partition() {
        let mut a = base_activity();
        a.updates = 50;
        a.columns[3].update_sets = 50;
        // updates concentrate on ids >= 900 of 1000
        a.update_envelopes
            .entry(0)
            .or_default()
            .observe(&Value::BigInt(900), &Value::BigInt(999));
        a.update_envelopes.get_mut(&0).unwrap().count = 50;
        let spec = recommend_partition(&schema(), &stats(1000), &a, &Default::default()).unwrap();
        let h = spec.horizontal.expect("horizontal split expected");
        assert_eq!(h.split_column, 0);
        assert_eq!(h.split_value, Value::BigInt(900));
    }

    #[test]
    fn wide_update_envelope_rejected() {
        let mut a = base_activity();
        a.updates = 50;
        // updates touch everything: no meaningful hot region
        a.update_envelopes
            .entry(0)
            .or_default()
            .observe(&Value::BigInt(0), &Value::BigInt(999));
        a.update_envelopes.get_mut(&0).unwrap().count = 50;
        let spec = recommend_partition(&schema(), &stats(1000), &a, &Default::default());
        assert!(spec.is_none_or(|s| s.horizontal.is_none()));
    }

    #[test]
    fn insert_heavy_workload_gets_empty_hot_partition() {
        let mut a = base_activity();
        a.inserts = 50;
        a.selects = 10;
        let spec = recommend_partition(&schema(), &stats(1000), &a, &Default::default()).unwrap();
        let h = spec.horizontal.expect("insert partition expected");
        assert_eq!(h.split_column, 0);
        // boundary sits just above the current max id (999)
        assert_eq!(h.split_value, Value::BigInt(1000));
    }

    #[test]
    fn oltp_attributes_go_to_row_fragment() {
        let mut a = base_activity();
        a.updates = 30;
        a.selects = 10;
        a.columns[3].update_sets = 30;
        a.columns[3].select_projs = 10;
        let spec = recommend_partition(&schema(), &stats(1000), &a, &Default::default()).unwrap();
        let v = spec.vertical.expect("vertical split expected");
        assert_eq!(v.row_cols, vec![3]);
    }

    #[test]
    fn no_vertical_when_everything_is_oltp() {
        let mut a = base_activity();
        a.updates = 30;
        a.selects = 10;
        // every non-key column is OLTP-dominant
        for c in 1..4 {
            a.columns[c].update_sets = 100;
            a.columns[c].aggregates = 0;
            a.columns[c].group_bys = 0;
        }
        a.columns[1].aggregates = 0;
        a.columns[2].group_bys = 0;
        let spec = recommend_partition(&schema(), &stats(1000), &a, &Default::default());
        assert!(spec.is_none_or(|s| s.vertical.is_none()));
    }

    #[test]
    fn hot_fraction_from_split_selectivity() {
        let spec = PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(900),
            }),
            vertical: None,
            ..Default::default()
        };
        let f = horizontal_hot_fraction(&stats(1000), &spec);
        assert!((f - 99.0 / 999.0).abs() < 1e-9, "got {f}");
        // No horizontal split -> nothing hot.
        assert_eq!(
            horizontal_hot_fraction(&stats(1000), &PartitionSpec::default()),
            0.0
        );
    }

    /// Regression: a split column with missing statistics must mean "no
    /// horizontal split information" (hot fraction 0), not the selectivity
    /// estimator's whole-domain fallback of 1.0 that priced the partition
    /// as 100 % hot row store.
    #[test]
    fn missing_split_stats_mean_no_hot_fraction() {
        let spec = PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(900),
            }),
            vertical: None,
            ..Default::default()
        };
        // Empty stats: the split column exists but min/max are unknown.
        assert_eq!(horizontal_hot_fraction(&TableStats::empty(4), &spec), 0.0);
        // Split column out of range of the stats vector.
        assert_eq!(horizontal_hot_fraction(&TableStats::empty(0), &spec), 0.0);
    }

    #[test]
    fn next_value_variants() {
        assert_eq!(next_value(&Value::Int(5)), Some(Value::Int(6)));
        assert_eq!(next_value(&Value::BigInt(5)), Some(Value::BigInt(6)));
        assert_eq!(next_value(&Value::Date(5)), Some(Value::Date(6)));
        assert!(next_value(&Value::text("x")).is_none());
        let d = next_value(&Value::Double(1.0)).unwrap();
        assert!(matches!(d, Value::Double(x) if x > 1.0));
    }
}
