//! Delta-merge maintenance policy.
//!
//! Column-store partitions accumulate unsorted dictionary tails as writes
//! intern new values; folding them back in (the delta merge) restores scan
//! locality at an O(rows) remap cost. This module owns the *when*: the
//! engine-level fallback policy ([`MergeConfig`]) that every write statement
//! consults, and the explicit entry points the advisor's scheduled merges go
//! through ([`crate::mover::merge_delta`],
//! [`crate::database::HybridDatabase::set_merge_config`]).
//!
//! The fallback is **hysteretic**: a merge only fires once the accumulated
//! tail crosses the *high* watermark, and when it fires only the columns
//! whose own tail exceeds the *low* watermark are compacted. The band
//! between the residual small tails and the high watermark is what keeps a
//! hot write loop from re-triggering an O(rows) merge on every statement —
//! the size-only policy this replaces re-evaluated one fixed threshold after
//! each write and paid a full-table remap (every column, even those with a
//! one-entry tail) whenever it tripped.

use crate::partition::TableData;

/// Configuration of the engine-level delta-merge fallback.
///
/// The watermarks are expressed as fractions of the partition's row count
/// with absolute floors, so small tables are not merged on every handful of
/// fresh values and large tables are not allowed to accumulate
/// proportionally unbounded tails. The two extremes are watermark
/// settings, not separate modes: [`MergeConfig::always`] zeroes both
/// watermarks, [`MergeConfig::disabled`] raises the trigger floor out of
/// reach.
///
/// # Example
///
/// ```
/// use hsd_engine::MergeConfig;
///
/// // The default policy is hysteretic: merge once the tail crosses the
/// // high watermark, compacting only columns above the low watermark.
/// let cfg = MergeConfig::default();
/// assert_eq!(cfg.high_watermark(1 << 20), (1 << 20) / 32);
/// assert_eq!(cfg.high_watermark(0), cfg.min_tail); // absolute floor
///
/// // An advisor that schedules merges itself runs the engine with the
/// // fallback disabled (`db.set_merge_config(MergeConfig::disabled())`):
/// // no tail ever exceeds its trigger.
/// assert_eq!(MergeConfig::disabled().high_watermark(1 << 20), usize::MAX);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// High watermark as a fraction of the row count: the merge trigger.
    /// A table's accumulated tail must exceed
    /// `max(min_tail, high_fraction · rows)` before any compaction happens.
    pub high_fraction: f64,
    /// Low watermark as a fraction of the row count: the per-column floor.
    /// When a merge fires, only columns whose own tail exceeds
    /// `max(min_col_tail, low_fraction · rows)` are compacted; smaller
    /// tails ride along until a later merge.
    pub low_fraction: f64,
    /// Absolute floor of the high watermark (entries).
    pub min_tail: usize,
    /// Absolute floor of the per-column low watermark (entries).
    pub min_col_tail: usize,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            // Trigger point matches the historical size-only policy
            // (rows/32, floor 4096), so default write amortization — and the
            // calibration that measures it — is unchanged.
            high_fraction: 1.0 / 32.0,
            low_fraction: 1.0 / 512.0,
            min_tail: 4096,
            min_col_tail: 64,
        }
    }
}

impl MergeConfig {
    /// Policy that merges after every write (ablation baseline): both
    /// watermarks at 0, so any tail triggers a merge that folds every
    /// column with a tail.
    pub fn always() -> Self {
        MergeConfig {
            high_fraction: 0.0,
            low_fraction: 0.0,
            min_tail: 0,
            min_col_tail: 0,
        }
    }

    /// Policy that never merges automatically (advisor-scheduled mode):
    /// the trigger floor is `usize::MAX`, which no tail exceeds.
    pub fn disabled() -> Self {
        MergeConfig {
            min_tail: usize::MAX,
            ..Default::default()
        }
    }

    /// The merge-trigger threshold for a partition of `rows` rows.
    pub fn high_watermark(&self, rows: usize) -> usize {
        ((rows as f64 * self.high_fraction) as usize).max(self.min_tail)
    }

    /// The per-column compaction floor for a partition of `rows` rows.
    pub fn low_watermark(&self, rows: usize) -> usize {
        ((rows as f64 * self.low_fraction) as usize).max(self.min_col_tail)
    }
}

/// Run the fallback merge policy on `data`'s delta region after a write
/// statement. Returns whether any compaction actually happened (the
/// durability layer logs a merge record only then).
pub(crate) fn after_write(data: &mut TableData, cfg: &MergeConfig) -> bool {
    let Some(ct) = data.delta_region_mut() else {
        return false;
    };
    let rows = ct.row_count();
    if ct.tail_total() <= cfg.high_watermark(rows) {
        return false;
    }
    if ct.compact_columns_over(cfg.low_watermark(rows)) == 0 {
        // The total crossed the high watermark but every individual tail
        // sits below the low watermark: fold everything so the tail stays
        // bounded.
        ct.compact();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::HybridDatabase;
    use crate::mover;
    use hsd_query::{Query, UpdateQuery};
    use hsd_storage::{ColRange, StoreKind};
    use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};

    fn column_db() -> HybridDatabase {
        let db = HybridDatabase::new();
        db.create_single(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::BigInt),
                    ColumnDef::new("a", ColumnType::Double),
                    ColumnDef::new("b", ColumnType::Double),
                ],
                vec![0],
            )
            .unwrap(),
            StoreKind::Column,
        )
        .unwrap();
        db.bulk_load(
            "t",
            (0..100).map(|i| {
                vec![
                    Value::BigInt(i),
                    Value::Double(i as f64),
                    Value::Double(i as f64),
                ]
            }),
        )
        .unwrap();
        db
    }

    /// Point update writing a fresh (never-seen) value into `col`.
    fn fresh_update(db: &HybridDatabase, id: i64, col: usize, salt: f64) {
        db.execute(&Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(col, Value::Double(10_000.0 + salt))],
            filter: vec![ColRange::eq(0, Value::BigInt(id))],
        }))
        .unwrap();
    }

    #[test]
    fn always_mode_merges_after_every_write() {
        let db = column_db();
        db.set_merge_config(MergeConfig::always());
        for i in 0..5 {
            fresh_update(&db, i, 1, i as f64);
            assert_eq!(db.delta_tail("t").unwrap(), 0);
        }
    }

    #[test]
    fn disabled_mode_accumulates_until_explicit_merge() {
        let db = column_db();
        db.set_merge_config(MergeConfig::disabled());
        for i in 0..20 {
            fresh_update(&db, i, 1, i as f64);
        }
        assert_eq!(db.delta_tail("t").unwrap(), 20);
        let merged = mover::merge_delta(&db, "t", crate::MergePartition::Whole).unwrap();
        assert_eq!(merged, 20);
        assert_eq!(db.delta_tail("t").unwrap(), 0);
    }

    #[test]
    fn auto_mode_is_hysteretic_and_selective() {
        let db = column_db();
        db.set_merge_config(MergeConfig {
            high_fraction: 0.0,
            low_fraction: 0.0,
            min_tail: 8,
            min_col_tail: 2,
        });
        // Grow column `a`'s tail to exactly the high watermark: no merge.
        for i in 0..8 {
            fresh_update(&db, i, 1, i as f64);
        }
        assert_eq!(db.delta_tail("t").unwrap(), 8, "at watermark, not above");
        // One fresh value in column `b` crosses the high watermark. The
        // merge fires, but only column `a` (tail 8 > low watermark 2) is
        // compacted — `b`'s one-entry tail rides along.
        fresh_update(&db, 0, 2, 99.0);
        assert_eq!(
            db.delta_tail("t").unwrap(),
            1,
            "column a folded, column b's small tail kept"
        );
        // The band below the high watermark absorbs further writes without
        // re-triggering a merge on every statement.
        fresh_update(&db, 1, 2, 100.0);
        assert_eq!(db.delta_tail("t").unwrap(), 2);
    }

    #[test]
    fn auto_mode_folds_everything_when_tails_are_spread_thin() {
        let db = column_db();
        db.set_merge_config(MergeConfig {
            high_fraction: 0.0,
            low_fraction: 0.0,
            min_tail: 2,
            min_col_tail: 8,
        });
        // Total tail (3) crosses high (2) but each column is below the
        // per-column floor (8): the bounded-growth fallback folds all.
        fresh_update(&db, 0, 1, 1.0);
        fresh_update(&db, 1, 2, 2.0);
        assert_eq!(db.delta_tail("t").unwrap(), 2);
        fresh_update(&db, 2, 2, 3.0);
        assert_eq!(db.delta_tail("t").unwrap(), 0);
    }

    #[test]
    fn watermarks_scale_with_rows() {
        let cfg = MergeConfig::default();
        assert_eq!(cfg.high_watermark(0), 4096);
        assert_eq!(cfg.high_watermark(1 << 20), (1 << 20) / 32);
        assert_eq!(cfg.low_watermark(0), 64);
        assert_eq!(cfg.low_watermark(1 << 20), (1 << 20) / 512);
    }

    #[test]
    fn mode_constructors() {
        let always = MergeConfig::always();
        assert_eq!(always.high_watermark(1 << 20), 0);
        assert_eq!(always.low_watermark(1 << 20), 0);
        assert_eq!(MergeConfig::disabled().high_watermark(1 << 20), usize::MAX);
    }
}
