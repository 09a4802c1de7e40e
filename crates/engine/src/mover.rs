//! The data mover: physically applies a recommended storage layout.
//!
//! The paper presents recommendations "including the respective statements
//! to move the data into the recommended store"; this module is the engine
//! half of that — given a [`StorageLayout`], it rebuilds each table whose
//! placement changed, preserving every logical row.
//!
//! Every entry point takes `&HybridDatabase` and serializes against other
//! writers through the target table's shard latch, never a database-wide
//! lock: a merge slice on one table runs concurrently with scans and
//! writes on every other table. WAL records are appended while the latch
//! is held, so the per-table log order equals the apply order (the
//! recovery contract of [`crate::durability`]).

use hsd_catalog::{StorageLayout, TablePlacement, Tier};
use hsd_storage::{ColumnTable, MergeProgress, SegmentStore, Table};
use hsd_types::{Error, Result, Value};

use crate::database::HybridDatabase;
use crate::durability::WalRecord;
use crate::partition::{DiskFragment, MergePartition, Region, TableData};

/// Segment name a table's demoted cold partition is stored under. One
/// stable name per table: demotion and every write-through republish
/// overwrite it atomically, so there is no segment garbage to collect.
pub(crate) fn cold_segment_name(table: &str) -> String {
    format!("{table}.cold")
}

/// Log a completed delta merge on a region (a one-shot fold or the final
/// slice of an incremental merge), reading the epoch from the *latched*
/// table data so the record is appended in apply order. No-op when no WAL
/// is attached.
fn log_merge_complete(
    db: &HybridDatabase,
    table: &str,
    partition: MergePartition,
    data: &TableData,
) -> Result<()> {
    if !db.wal_active() {
        return Ok(());
    }
    db.log_record(&WalRecord::MergeComplete {
        table: table.to_string(),
        partition,
        merge_epoch: data.merge_epoch(),
    })
}

/// Bring the catalog's placement annotation of a partitioned `table` in
/// line with its physical spec. Call with no shard latch held: catalog
/// locks are acquired strictly outside shard latches.
pub(crate) fn sync_partition_spec(db: &HybridDatabase, table: &str) -> Result<()> {
    let spec = db.with_table(table, |data| data.spec.clone())?;
    if let Some(spec) = spec {
        let id = db.catalog().id_of(table)?;
        db.catalog_mut()
            .set_placement(id, TablePlacement::Partitioned(spec))?;
    }
    Ok(())
}

/// Apply `layout` to the database. Tables whose placement already matches
/// are left untouched. Returns the names of the tables that were rebuilt.
pub fn apply_layout(db: &HybridDatabase, layout: &StorageLayout) -> Result<Vec<String>> {
    let mut moved = Vec::new();
    let names = db.table_names();
    for name in names {
        let target = layout.placement(&name);
        let current = db.catalog().entry_by_name(&name)?.placement.clone();
        if current == target {
            continue;
        }
        move_table(db, &name, &target)?;
        moved.push(name);
    }
    Ok(moved)
}

/// Rebuild one table under a new placement, preserving all rows.
///
/// The rebuild happens in place under the table's write latch (readers of
/// *other* tables are unaffected; readers of this table wait out the
/// rebuild), and the catalog annotation is updated only after the latch is
/// released — the mandatory lock order acquires catalog locks strictly
/// outside shard latches.
///
/// A disk-tier target whose segment cannot be published keeps the rebuilt
/// cold partition in memory: the move is logged and cataloged with a
/// memory tier, and the publish error is returned (as a failed
/// write-through republish does).
pub fn move_table(db: &HybridDatabase, table: &str, target: &TablePlacement) -> Result<()> {
    db.check_writable(table)?;
    let (schema, indexed) = {
        let catalog = db.catalog();
        let entry = catalog.entry_by_name(table)?;
        (entry.schema.clone(), entry.indexed_columns.clone())
    };
    let shard = db.shard(table)?;
    let store = db.segment_store().clone();
    let target_is_disk = matches!(
        target,
        TablePlacement::Partitioned(spec) if spec.cold_tier == Tier::Disk
    );
    // A placement the builder refuses is refused before the table is
    // drained, so the table stays as it was.
    TableData::new(schema.clone(), target)?;
    let had_segment;
    let (placement, demoted) = {
        let mut guard = shard.latch();
        // A disk-resident cold partition is promoted back to memory before
        // the drain (the Move record re-derives everything from the logical
        // rows, so no separate Promote record is needed — replay's
        // move_table does the same load).
        had_segment = promote_in_place(&mut guard, &store)?;
        // Drain the existing physical data straight into the target's
        // builders (draining cannot fail: the cold partition was promoted
        // just above; nor can the build: the rows are the table's own,
        // valid and unique under its schema, and the placement was checked
        // above). Built column stores carry no delta tail; row-store parts
        // get the catalog's secondary indexes back.
        let old = guard.take();
        *guard = TableData::build(schema, target, &indexed, old)?;
        let demoted = match target_is_disk {
            true => demote_in_place(&mut guard, table, &store).map(drop),
            false => Ok(()),
        };
        if let (Err(_), Some(spec)) = (&demoted, &mut guard.spec) {
            spec.cold_tier = Tier::Memory;
        }
        let placement = guard.placement();
        db.log_record(&WalRecord::Move {
            table: table.to_string(),
            placement: placement.clone(),
        })?;
        (placement, demoted)
    };
    // The segment file is a derived cache; dropping it outside the latch is
    // safe (demotion re-published under the same name if the table stays
    // disk-resident).
    if had_segment && (demoted.is_err() || !target_is_disk) {
        store.remove(&cold_segment_name(table))?;
    }
    let id = db.catalog().id_of(table)?;
    db.catalog_mut().set_placement(id, placement)?;
    db.refresh_stats(table)?;
    demoted
}

/// If `data`'s cold partition is disk-resident, load it back into memory in
/// place. Returns whether a segment was loaded (its name stays in the
/// store; the caller decides whether to drop or overwrite it).
fn promote_in_place(data: &mut TableData, store: &SegmentStore) -> Result<bool> {
    let (Region::Disk(frag), Some(spec)) = (&data.base, &mut data.spec) else {
        return Ok(false);
    };
    let loaded = frag.load(store)?;
    spec.cold_tier = Tier::Memory;
    data.base = Region::Table(loaded);
    Ok(true)
}

/// Demote `data`'s (memory-resident, unsplit, column-store) cold partition
/// to a segment in place: publish it and swap the fragment in. The cold
/// partition should be compacted first — demotion encodes whatever delta
/// tail exists, but a folded dictionary packs tighter.
fn demote_in_place(data: &mut TableData, table: &str, store: &SegmentStore) -> Result<u64> {
    let Some(spec) = &mut data.spec else {
        return Err(Error::InvalidOperation(format!(
            "table {table} is not partitioned; move it to a partitioned \
             placement before demoting"
        )));
    };
    match &data.base {
        Region::Disk(f) => Ok(f.disk_bytes), // already demoted
        Region::Pair(_) => Err(Error::InvalidOperation(format!(
            "table {table}: a vertically split cold partition cannot be \
             demoted (its row fragment serves point reads)"
        ))),
        Region::Table(Table::Row(_)) => Err(Error::InvalidOperation(format!(
            "table {table}: cold partition is row-store resident; segments \
             hold column-store data only"
        ))),
        Region::Table(Table::Column(ct)) => {
            let frag = DiskFragment::publish(store, &cold_segment_name(table), ct)?;
            let disk_bytes = frag.disk_bytes;
            data.base = Region::Disk(frag);
            spec.cold_tier = Tier::Disk;
            Ok(disk_bytes)
        }
    }
}

/// Demote `table`'s cold partition to an on-disk segment (the tier
/// counterpart of a store flip): compact the cold partition, encode it in
/// the segment format, publish atomically, and keep only a stub resident.
/// Idempotent — an already-demoted table just reports its segment size.
/// Returns the encoded segment's size in bytes.
///
/// Requires a partitioned layout whose cold partition is an unsplit column
/// store; vertically split cold partitions are rejected (the advisor never
/// proposes demoting them — their row fragment exists to serve point reads,
/// which disk residency would defeat).
pub fn demote_cold(db: &HybridDatabase, table: &str) -> Result<u64> {
    db.check_writable(table)?;
    let shard = db.shard(table)?;
    let store = db.segment_store().clone();
    let disk_bytes = {
        let mut guard = shard.latch();
        if guard.base.as_disk().is_some() {
            // Already demoted: no state change, no WAL record.
            return Ok(guard.disk_bytes());
        }
        // Abandon in-flight shadow merges (their state is volatile and
        // unlogged) and fold the delta tail so the segment packs tight.
        if let Some(ct) = guard.delta_region_mut() {
            ct.cancel_merge();
            ct.compact();
        }
        let disk_bytes = demote_in_place(&mut guard, table, &store)?;
        db.log_record(&WalRecord::Demote {
            table: table.to_string(),
        })?;
        disk_bytes
    };
    sync_partition_spec(db, table)?;
    Ok(disk_bytes)
}

/// Promote `table`'s disk-resident cold partition back to memory, deleting
/// the segment. Idempotent — a memory-resident cold partition is a no-op.
pub fn promote_cold(db: &HybridDatabase, table: &str) -> Result<()> {
    db.check_writable(table)?;
    let shard = db.shard(table)?;
    let store = db.segment_store().clone();
    {
        let mut guard = shard.latch();
        if !promote_in_place(&mut guard, &store)? {
            return Ok(());
        }
        db.log_record(&WalRecord::Promote {
            table: table.to_string(),
        })?;
    }
    store.remove(&cold_segment_name(table))?;
    sync_partition_spec(db, table)
}

/// The one-shot delta-merge entry point: fold the dictionary tail of
/// `table`'s delta region ([`TableData::delta_region`]) back into the
/// sorted region, returning how many tail entries were merged. `partition`
/// only labels the [`WalRecord::MergeComplete`] record.
///
/// This is the engine half of advisor-scheduled maintenance — the online
/// advisor emits a merge action when the modeled scan savings exceed the
/// modeled merge cost, and applying that action lands here (with the
/// executor's auto-merge demoted to a fallback via
/// [`crate::maintenance::MergeConfig`]).
pub fn merge_delta(db: &HybridDatabase, table: &str, partition: MergePartition) -> Result<usize> {
    db.check_writable(table)?;
    let shard = db.shard(table)?;
    let mut data = shard.latch();
    let folded = data.delta_region_mut().map_or(0, ColumnTable::compact);
    if folded > 0 {
        log_merge_complete(db, table, partition, &data)?;
    }
    Ok(folded)
}

/// One bounded slice of an **incremental** delta merge: remap at most
/// `budget_rows` code-vector entries of `table`'s delta region, then return
/// control to the caller. `partition` only labels the completion record.
///
/// The merge state is resumable — repeated calls continue where the last one
/// stopped, and queries executed between slices observe a fully consistent
/// table (the shadow-rebuild protocol of
/// [`hsd_storage::ColumnTable::compact_step`]). This is how very large
/// tables avoid the full-table stop-the-world remap of [`merge_delta`]: the
/// same total work is spread over many short pauses, each bounded by the
/// remap-cost budget.
///
/// A slice runs in a **concurrent plan phase and a brief install phase**.
/// Phase 1 computes dictionary rebuild plans ([`hsd_storage::MergePlan`])
/// under a shared read pin: the sort-heavy half of starting a merge runs
/// *concurrently with scans* on the same table. Phase 2 takes the
/// exclusive latch only to adopt the plans (stale ones — a dictionary
/// handoff completed in between — are discarded and replanned in the
/// latch) and remap one `budget_rows`-bounded slice. The latch hold time is
/// therefore O(budget), never O(distinct values · log) for the sort.
///
/// An incremental merge is logged only at completion: in-flight shadow
/// state is deliberately volatile (recovery discards it losslessly and
/// re-merges from the completion record instead).
pub fn merge_slice(
    db: &HybridDatabase,
    table: &str,
    partition: MergePartition,
    budget_rows: usize,
) -> Result<MergeProgress> {
    db.check_writable(table)?;
    let shard = db.shard(table)?;
    // Phase 1 (concurrent with scans): plan under a shared read pin.
    let plans = shard
        .pin()
        .delta_region()
        .map_or_else(Vec::new, ColumnTable::plan_compact);
    // Phase 2 (brief): install + one budgeted slice under the latch.
    let mut data = shard.latch();
    let Some(ct) = data.delta_region_mut() else {
        return Ok(MergeProgress {
            done: true,
            ..MergeProgress::default()
        });
    };
    if !plans.is_empty() {
        ct.install_plans(plans);
    }
    let progress = ct.compact_step(budget_rows);
    if progress.done && (progress.entries_folded > 0 || progress.rows_remapped > 0) {
        log_merge_complete(db, table, partition, &data)?;
    }
    Ok(progress)
}

/// Cancel an in-flight incremental delta merge on `table`, abandoning the
/// shadow rebuild (the live dictionary and codes stayed authoritative
/// throughout, so no data is lost — only the remap work done so far).
///
/// This is the engine half of a retracted maintenance decision: when the
/// advisor withdraws a scheduled merge whose justification evaporated (see
/// `hsd_core`'s `MaintenanceAction::Retract`), the worker lands here.
/// Returns how many columns had a merge to cancel.
pub fn cancel_merge(db: &HybridDatabase, table: &str) -> Result<usize> {
    let shard = db.shard(table)?;
    let cancelled = shard
        .latch()
        .delta_region_mut()
        .map_or(0, ColumnTable::cancel_merge);
    Ok(cancelled)
}

/// Move rows that have aged out of the hot partition into the cold
/// partition ("in certain intervals, data is moved from the row-store
/// partition to the column-store partition"): the table is rebuilt under
/// the new split value, so the cold partition keeps its rows in order and
/// takes the aged ones after them, while rows still satisfying the hot
/// predicate stay hot. Returns how many rows changed partition.
pub fn rebalance_horizontal(
    db: &HybridDatabase,
    table: &str,
    new_split_value: &Value,
) -> Result<usize> {
    db.check_writable(table)?;
    let indexed = db.catalog().entry_by_name(table)?.indexed_columns.clone();
    let shard = db.shard(table)?;
    let moved = {
        let mut guard = shard.latch();
        let (Some(hot), Some(spec)) = (&guard.hot, &guard.spec) else {
            return Err(hsd_types::Error::InvalidOperation(format!(
                "table {table} has no hot partition to rebalance"
            )));
        };
        // Checked before anything is drained: the rebuilt cold partition
        // must be in memory, and a segment is not.
        if guard.base.as_disk().is_some() {
            return Err(Error::InvalidOperation(format!(
                "table {table}: promote the disk-resident cold partition before rebalancing"
            )));
        }
        let mut spec = spec.clone();
        let Some(h) = spec.horizontal.as_mut() else {
            return Err(hsd_types::Error::InvalidOperation(format!(
                "table {table} has no horizontal spec"
            )));
        };
        h.split_value = new_split_value.clone();
        let hot_rows = hot.row_count();
        let old = guard.take();
        let placement = TablePlacement::Partitioned(spec);
        *guard = TableData::build(old.schema.clone(), &placement, &indexed, old)?;
        let hot = guard
            .hot
            .as_ref()
            .expect("a horizontal spec builds a hot partition");
        let moved = hot_rows.abs_diff(hot.row_count());
        db.log_record(&WalRecord::Rebalance {
            table: table.to_string(),
            split_value: new_split_value.clone(),
        })?;
        moved
    };
    sync_partition_spec(db, table)?;
    db.refresh_stats(table)?;
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_catalog::{HorizontalSpec, PartitionSpec, VerticalSpec};
    use hsd_storage::StoreKind;
    use hsd_types::{ColumnDef, ColumnType, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("v", ColumnType::Double),
                ColumnDef::new("st", ColumnType::Integer),
            ],
            vec![0],
        )
        .unwrap()
    }

    fn loaded_db() -> HybridDatabase {
        let db = HybridDatabase::new();
        db.create_single(schema(), StoreKind::Row).unwrap();
        db.bulk_load(
            "t",
            (0..100).map(|i| vec![Value::BigInt(i), Value::Double(i as f64), Value::Int(0)]),
        )
        .unwrap();
        db
    }

    /// A move the builder refuses (a disk-resident vertical split, a split
    /// column the schema lacks) fails before the table is drained: rows and
    /// catalog entry stay.
    #[test]
    fn refused_move_keeps_the_table() {
        let db = loaded_db();
        let split = |split_column, vertical: Option<VerticalSpec>, cold_tier| {
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column,
                    split_value: Value::BigInt(50),
                }),
                vertical,
                cold_tier,
            })
        };
        let row_cols = Some(VerticalSpec { row_cols: vec![2] });
        for target in [split(0, row_cols, Tier::Disk), split(7, None, Tier::Memory)] {
            assert!(move_table(&db, "t", &target).is_err(), "{target:?}");
            assert_eq!(db.row_count("t").unwrap(), 100, "{target:?}");
            let placement = db.catalog().entry_by_name("t").unwrap().placement.clone();
            assert_eq!(placement, TablePlacement::Single(StoreKind::Row));
        }
    }

    fn checksum(db: &HybridDatabase) -> f64 {
        use hsd_query::{AggFunc, AggregateQuery, Query};
        let out = db
            .execute(&Query::Aggregate(AggregateQuery::simple(
                "t",
                AggFunc::Sum,
                1,
            )))
            .unwrap();
        out.aggregates().unwrap()[0].values[0]
    }

    #[test]
    fn move_single_to_single() {
        let db = loaded_db();
        let before = checksum(&db);
        let mut layout = StorageLayout::new();
        layout.set("t", TablePlacement::Single(StoreKind::Column));
        let moved = apply_layout(&db, &layout).unwrap();
        assert_eq!(moved, vec!["t".to_string()]);
        assert_eq!(
            db.catalog().single_store_of("t").unwrap(),
            StoreKind::Column
        );
        assert_eq!(checksum(&db), before);
        assert_eq!(db.row_count("t").unwrap(), 100);
        // applying again is a no-op
        assert!(apply_layout(&db, &layout).unwrap().is_empty());
    }

    #[test]
    fn move_to_partitioned_splits_rows() {
        let db = loaded_db();
        let before = checksum(&db);
        let placement = TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(90),
            }),
            vertical: Some(VerticalSpec { row_cols: vec![2] }),
            ..Default::default()
        });
        let mut layout = StorageLayout::new();
        layout.set("t", placement);
        apply_layout(&db, &layout).unwrap();
        assert_eq!(checksum(&db), before);
        let shard = db.shard("t").unwrap();
        let pin = shard.pin();
        assert_eq!(pin.hot.as_ref().map(Table::row_count), Some(10));
        assert_eq!(pin.base.row_count(), 90);
        match &pin.base {
            Region::Pair(p) => p.check_alignment().unwrap(),
            other => panic!("expected vertical cold partition, got {other:?}"),
        }
    }

    #[test]
    fn move_back_to_single_restores_all_rows() {
        let db = loaded_db();
        let before = checksum(&db);
        let mut layout = StorageLayout::new();
        layout.set(
            "t",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(50),
                }),
                vertical: None,
                ..Default::default()
            }),
        );
        apply_layout(&db, &layout).unwrap();
        let mut back = StorageLayout::new();
        back.set("t", TablePlacement::Single(StoreKind::Row));
        apply_layout(&db, &back).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 100);
        assert_eq!(checksum(&db), before);
    }

    #[test]
    fn rebalance_moves_aged_rows() {
        let db = loaded_db();
        let mut layout = StorageLayout::new();
        layout.set(
            "t",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(80),
                }),
                vertical: None,
                ..Default::default()
            }),
        );
        apply_layout(&db, &layout).unwrap();
        // age the boundary: only ids >= 95 stay hot
        let moved = rebalance_horizontal(&db, "t", &Value::BigInt(95)).unwrap();
        assert_eq!(moved, 15);
        let shard = db.shard("t").unwrap();
        let pin = shard.pin();
        assert_eq!(pin.hot.as_ref().map(Table::row_count), Some(5));
        assert_eq!(pin.base.row_count(), 95);
        assert_eq!(db.row_count("t").unwrap(), 100);
    }

    /// Whether `table`'s row-store part holding logical column `col` (the
    /// hot partition if there is one, else the base) has an index on it,
    /// and whether the catalog lists one.
    fn index_state(db: &HybridDatabase, col: usize) -> (bool, bool) {
        let built = db
            .with_table("t", |d| match (&d.hot, &d.base) {
                (Some(Table::Row(rt)), _) | (None, Region::Table(Table::Row(rt))) => {
                    rt.has_index(col)
                }
                other => panic!("expected a row-store part, got {other:?}"),
            })
            .unwrap();
        let listed = db
            .catalog()
            .entry_by_name("t")
            .unwrap()
            .indexed_columns
            .contains(&col);
        (built, listed)
    }

    /// The estimator prices index scans from the catalog's
    /// `indexed_columns`, so every rebuild must leave the data carrying the
    /// indexes the catalog lists.
    #[test]
    fn rebuilds_keep_secondary_indexes() {
        let db = loaded_db();
        db.create_index("t", 1).unwrap();
        assert_eq!(index_state(&db, 1), (true, true));
        move_table(&db, "t", &TablePlacement::Single(StoreKind::Column)).unwrap();
        move_table(&db, "t", &TablePlacement::Single(StoreKind::Row)).unwrap();
        assert_eq!(
            index_state(&db, 1),
            (true, true),
            "moved to a column store and back"
        );

        let db = loaded_db();
        move_table(&db, "t", &split_placement(Tier::Memory)).unwrap();
        db.create_index("t", 1).unwrap();
        assert_eq!(index_state(&db, 1), (true, true));
        assert_eq!(
            rebalance_horizontal(&db, "t", &Value::BigInt(95)).unwrap(),
            5
        );
        assert_eq!(index_state(&db, 1), (true, true), "rebalanced");
        let rows = db
            .execute(&hsd_query::Query::Select(hsd_query::SelectQuery {
                table: "t".into(),
                columns: Some(vec![0]),
                filter: vec![hsd_storage::ColRange::eq(1, Value::Double(97.0))],
            }))
            .unwrap();
        assert_eq!(rows.rows().unwrap(), [vec![Value::BigInt(97)]]);
    }

    #[test]
    fn rebalance_rejects_unpartitioned_and_disk_resident() {
        let db = loaded_db();
        assert!(rebalance_horizontal(&db, "t", &Value::BigInt(5)).is_err());
        // A demoted cold partition is refused before anything is drained.
        move_table(&db, "t", &split_placement(Tier::Disk)).unwrap();
        let before = checksum(&db);
        assert!(rebalance_horizontal(&db, "t", &Value::BigInt(95)).is_err());
        assert_eq!(checksum(&db), before);
        assert_eq!(db.row_count("t").unwrap(), 100);
    }

    #[test]
    fn chunked_merge_preserves_results_and_is_resumable() {
        use hsd_query::{Query, UpdateQuery};
        use hsd_storage::ColRange;
        let db = loaded_db();
        let mut layout = StorageLayout::new();
        layout.set("t", TablePlacement::Single(StoreKind::Column));
        apply_layout(&db, &layout).unwrap();
        db.set_merge_config(crate::maintenance::MergeConfig::disabled());
        let before = checksum(&db);
        for i in 0..30 {
            db.execute(&Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(5000.0 + i as f64))],
                filter: vec![ColRange::eq(0, Value::BigInt(i))],
            }))
            .unwrap();
        }
        let tail = db.delta_tail("t").unwrap();
        assert!(tail >= 30);
        // Drive the merge in 16-row slices, querying between slices.
        let mut slices = 0;
        let mut folded = 0;
        loop {
            let p = merge_slice(&db, "t", MergePartition::Whole, 16).unwrap();
            folded += p.entries_folded;
            slices += 1;
            // Mid-merge queries must see consistent data.
            let hits = db
                .execute(&Query::Select(hsd_query::SelectQuery {
                    table: "t".into(),
                    columns: None,
                    filter: vec![ColRange::ge(1, Value::Double(5000.0))],
                }))
                .unwrap();
            assert_eq!(hits.rows().unwrap().len(), 30);
            if p.done {
                break;
            }
            assert!(slices < 100, "chunked merge must terminate");
        }
        assert!(slices > 1, "a 16-row budget over 100 rows takes slices");
        assert_eq!(folded, tail);
        assert_eq!(db.delta_tail("t").unwrap(), 0);
        let after = checksum(&db);
        assert!(
            (after
                - (before - (0..30).map(|i| i as f64).sum::<f64>()
                    + (0..30).map(|i| 5000.0 + i as f64).sum::<f64>()))
            .abs()
                < 1e-6
        );
    }

    #[test]
    fn concurrent_slice_plans_under_pin_and_installs_under_latch() {
        use hsd_query::{Query, UpdateQuery};
        use hsd_storage::ColRange;
        let db = loaded_db();
        let mut layout = StorageLayout::new();
        layout.set("t", TablePlacement::Single(StoreKind::Column));
        apply_layout(&db, &layout).unwrap();
        db.set_merge_config(crate::maintenance::MergeConfig::disabled());
        for i in 0..25 {
            db.execute(&Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(9000.0 + i as f64))],
                filter: vec![ColRange::eq(0, Value::BigInt(i))],
            }))
            .unwrap();
        }
        let tail = db.delta_tail("t").unwrap();
        assert!(tail >= 25);
        let mut folded = 0;
        let mut slices = 0;
        loop {
            let p = merge_slice(&db, "t", MergePartition::Whole, 16).unwrap();
            folded += p.entries_folded;
            slices += 1;
            if p.done {
                break;
            }
            assert!(slices < 200, "two-phase merge must terminate");
        }
        assert_eq!(folded, tail);
        assert_eq!(db.delta_tail("t").unwrap(), 0);
        assert!(!db.merge_status("t").unwrap().1);
    }

    /// Horizontal hot/cold split at id < 90 (cold gets 90 rows).
    fn split_placement(cold_tier: Tier) -> TablePlacement {
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(90),
            }),
            vertical: None,
            cold_tier,
        })
    }

    fn cold_is_disk(db: &HybridDatabase) -> bool {
        db.with_table("t", |d| d.base.as_disk().is_some()).unwrap()
    }

    #[test]
    fn demote_promote_cycle_preserves_data() {
        let db = loaded_db();
        let before = checksum(&db);
        let mut layout = StorageLayout::new();
        layout.set("t", split_placement(Tier::Memory));
        apply_layout(&db, &layout).unwrap();

        let bytes = demote_cold(&db, "t").unwrap();
        assert!(bytes > 0);
        assert!(cold_is_disk(&db));
        assert_eq!(db.disk_bytes("t").unwrap(), bytes);
        // Idempotent: a second demotion reports the same size, no rewrite.
        assert_eq!(demote_cold(&db, "t").unwrap(), bytes);
        // Catalog reflects the tier.
        match &db.catalog().entry_by_name("t").unwrap().placement {
            TablePlacement::Partitioned(spec) => assert_eq!(spec.cold_tier, Tier::Disk),
            other => panic!("expected partitioned placement, got {other:?}"),
        }
        // Queries read the segment in place.
        assert_eq!(checksum(&db), before);
        assert_eq!(db.row_count("t").unwrap(), 100);

        promote_cold(&db, "t").unwrap();
        assert!(!cold_is_disk(&db));
        assert_eq!(db.disk_bytes("t").unwrap(), 0);
        assert_eq!(checksum(&db), before);
        // The segment is gone; promoting again is a no-op.
        assert!(db.segment_store().get(&cold_segment_name("t")).is_err());
        promote_cold(&db, "t").unwrap();
    }

    #[test]
    fn write_through_update_republishes_segment() {
        use hsd_query::{Query, UpdateQuery};
        use hsd_storage::ColRange;
        let db = loaded_db();
        let mut layout = StorageLayout::new();
        layout.set("t", split_placement(Tier::Memory));
        apply_layout(&db, &layout).unwrap();
        let before = checksum(&db);
        demote_cold(&db, "t").unwrap();
        // Point update of a cold row: write-through load, apply, republish.
        db.execute(&Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(7777.0))],
            filter: vec![ColRange::eq(0, Value::BigInt(3))],
        }))
        .unwrap();
        assert!(cold_is_disk(&db), "table stays demoted after write-through");
        assert!((checksum(&db) - (before - 3.0 + 7777.0)).abs() < 1e-6);
        // Hot-partition update leaves the segment untouched.
        let seg_before = db.disk_bytes("t").unwrap();
        db.execute(&Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(8888.0))],
            filter: vec![ColRange::eq(0, Value::BigInt(95))],
        }))
        .unwrap();
        assert_eq!(db.disk_bytes("t").unwrap(), seg_before);
    }

    #[test]
    fn write_through_merges_the_tail_before_republishing() {
        use hsd_query::{Query, SelectQuery, UpdateQuery};
        use hsd_storage::ColRange;
        let db = loaded_db();
        move_table(&db, "t", &split_placement(Tier::Disk)).unwrap();
        let before = checksum(&db);
        // Mid-domain values land in the dictionary tail of the loaded cold
        // partition; the republished segment must not keep that tail.
        let fresh = |i: i64| 50.25 + i as f64;
        for i in 0..5 {
            db.execute(&Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(fresh(i)))],
                filter: vec![ColRange::eq(0, Value::BigInt(i))],
            }))
            .unwrap();
        }
        assert!(cold_is_disk(&db));
        let segment_tail = db
            .with_table("t", |d| match &d.base {
                Region::Disk(f) => f.reader().column(1).unwrap().tail_len(),
                other => panic!("expected a disk-resident cold partition, got {other:?}"),
            })
            .unwrap();
        assert_eq!(segment_tail, 0, "the published segment carries no tail");
        assert_eq!(db.delta_tail("t").unwrap(), 0);
        let expect = before - (0..5).sum::<i64>() as f64 + (0..5).map(fresh).sum::<f64>();
        assert!((checksum(&db) - expect).abs() < 1e-6);
        let rows = db
            .execute(&Query::Select(SelectQuery {
                table: "t".into(),
                columns: Some(vec![0]),
                filter: vec![ColRange::between(
                    1,
                    Value::Double(50.0),
                    Value::Double(55.0),
                )],
            }))
            .unwrap();
        let mut ids: Vec<Value> = rows.rows().unwrap().iter().map(|r| r[0].clone()).collect();
        ids.sort();
        let want: Vec<Value> = [0, 1, 2, 3, 4, 50, 51, 52, 53, 54, 55]
            .into_iter()
            .map(Value::BigInt)
            .collect();
        assert_eq!(ids, want);
    }

    fn update(filter: Vec<hsd_storage::ColRange>, st: i32) -> hsd_query::Query {
        hsd_query::Query::Update(hsd_query::UpdateQuery {
            table: "t".into(),
            sets: vec![(2, Value::Int(st))],
            filter,
        })
    }

    #[test]
    fn write_through_loads_only_when_a_cold_row_changes() {
        use hsd_storage::ColRange;
        let db = loaded_db();
        let mut layout = StorageLayout::new();
        layout.set("t", split_placement(Tier::Disk));
        apply_layout(&db, &layout).unwrap();
        let name = cold_segment_name("t");
        // The in-memory store hands out the published bytes themselves, so
        // pointer equality means "not republished".
        let published = db.segment_store().get(&name).unwrap();
        let untouched = |db: &HybridDatabase| {
            std::sync::Arc::ptr_eq(&published, &db.segment_store().get(&name).unwrap())
        };
        // A range on a non-split column cannot be pruned, but every match
        // (v >= 95 <=> id >= 95) is hot: the cold view answers "no cold
        // row" from the one filter column and nothing is loaded.
        let out = db.execute(&update(vec![ColRange::ge(1, Value::Double(95.0))], 5));
        assert_eq!(out.unwrap(), crate::QueryOutput::Affected(5));
        assert!(untouched(&db));
        // Neither is a point update of a key that exists nowhere.
        let out = db.execute(&update(vec![ColRange::eq(0, Value::BigInt(4242))], 5));
        assert_eq!(out.unwrap(), crate::QueryOutput::Affected(0));
        assert!(untouched(&db));
        // One cold match (ids 89 and 90 straddle the split) rewrites it.
        let between = ColRange::between(1, Value::Double(89.0), Value::Double(90.0));
        let out = db.execute(&update(vec![between], 6));
        assert_eq!(out.unwrap(), crate::QueryOutput::Affected(2));
        assert!(!untouched(&db));
        assert!(cold_is_disk(&db));
        let rows = db
            .execute(&hsd_query::Query::Select(hsd_query::SelectQuery {
                table: "t".into(),
                columns: Some(vec![0]),
                filter: vec![ColRange::eq(2, Value::Int(6))],
            }))
            .unwrap();
        assert_eq!(
            rows.rows().unwrap(),
            [vec![Value::BigInt(89)], vec![Value::BigInt(90)]]
        );
    }

    fn cold_tier(db: &HybridDatabase) -> Tier {
        match &db.catalog().entry_by_name("t").unwrap().placement {
            TablePlacement::Partitioned(spec) => spec.cold_tier,
            other => panic!("expected a partitioned placement, got {other:?}"),
        }
    }

    /// A move to the disk tier whose segment cannot be published keeps
    /// every row, in memory, and says so in the catalog and the log —
    /// whether the table was in memory or already on disk under another
    /// split.
    #[test]
    fn failed_demotion_keeps_the_rows_in_memory() {
        use crate::durability::DurabilityConfig;
        let dir = std::env::temp_dir().join(format!("hsd_move_demote_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let split_at = |key| {
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(key),
                }),
                vertical: None,
                cold_tier: Tier::Disk,
            })
        };
        let before;
        {
            let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
            db.create_single(schema(), StoreKind::Row).unwrap();
            db.bulk_load(
                "t",
                (0..100).map(|i| vec![Value::BigInt(i), Value::Double(i as f64), Value::Int(0)]),
            )
            .unwrap();
            before = checksum(&db);
            // The next publish cannot create its temp file.
            let blocker = dir.join("segments").join("t.cold.seg.tmp");
            std::fs::create_dir_all(&blocker).unwrap();
            let refused = |key| {
                let err = move_table(&db, "t", &split_at(key)).unwrap_err();
                assert!(matches!(err, Error::Io(_)), "{err}");
                assert_eq!(db.row_count("t").unwrap(), 100);
                assert_eq!(checksum(&db), before);
                assert!(!cold_is_disk(&db));
                assert_eq!(cold_tier(&db), Tier::Memory);
                assert_eq!(db.disk_bytes("t").unwrap(), 0);
                assert!(db.segment_store().get(&cold_segment_name("t")).is_err());
            };
            refused(90);
            // Published once the store works again; then a disk-resident
            // table fails to move to another split.
            std::fs::remove_dir(&blocker).unwrap();
            move_table(&db, "t", &split_at(95)).unwrap();
            assert!(cold_is_disk(&db));
            std::fs::create_dir(&blocker).unwrap();
            refused(50);
            db.sync_wal().unwrap();
            std::fs::remove_dir(&blocker).unwrap();
        }
        let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(checksum(&db), before);
        assert_eq!(cold_tier(&db), Tier::Memory);
        assert!(!cold_is_disk(&db));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_republish_keeps_data_flag_and_log_consistent() {
        use crate::durability::DurabilityConfig;
        use hsd_storage::ColRange;
        let dir = std::env::temp_dir().join(format!("hsd_republish_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let expect;
        {
            let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
            db.create_single(schema(), StoreKind::Row).unwrap();
            db.bulk_load(
                "t",
                (0..100).map(|i| vec![Value::BigInt(i), Value::Double(i as f64), Value::Int(0)]),
            )
            .unwrap();
            move_table(&db, "t", &split_placement(Tier::Disk)).unwrap();
            let before = checksum(&db);
            let resident = db.memory_bytes();
            // The next publish cannot create its temp file.
            let blocker = dir.join("segments").join("t.cold.seg.tmp");
            std::fs::create_dir(&blocker).unwrap();
            let err = db
                .execute(&hsd_query::Query::Update(hsd_query::UpdateQuery {
                    table: "t".into(),
                    sets: vec![(1, Value::Double(7777.0))],
                    filter: vec![ColRange::eq(0, Value::BigInt(3))],
                }))
                .unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{err}");
            // The statement is applied; the cold partition now lives in
            // memory and everything that describes its tier agrees.
            expect = before - 3.0 + 7777.0;
            assert!((checksum(&db) - expect).abs() < 1e-6);
            assert!(!cold_is_disk(&db));
            assert_eq!(cold_tier(&db), Tier::Memory);
            assert_eq!(db.disk_bytes("t").unwrap(), 0);
            assert!(db.memory_bytes() > resident);
            db.sync_wal().unwrap();
            std::fs::remove_dir(&blocker).unwrap();
        }
        // The log carries the update and the tier change: replay ends in the
        // same state.
        let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!((checksum(&db) - expect).abs() < 1e-6);
        assert_eq!(cold_tier(&db), Tier::Memory);
        assert!(!cold_is_disk(&db));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_a_disk_resident_table_is_a_typed_error() {
        let db = loaded_db();
        let mut layout = StorageLayout::new();
        layout.set("t", split_placement(Tier::Disk));
        apply_layout(&db, &layout).unwrap();
        let drained = db
            .with_table("t", |d| hsd_storage::RowSource::into_rows(d.clone()))
            .unwrap();
        assert!(matches!(drained, Err(Error::InvalidOperation(_))));
        // The mover promotes first, so moving such a table away works.
        move_table(&db, "t", &TablePlacement::Single(StoreKind::Row)).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 100);
    }

    #[test]
    fn demote_rejects_vertical_and_unpartitioned() {
        let db = loaded_db();
        assert!(demote_cold(&db, "t").is_err(), "single table: no cold part");
        let mut layout = StorageLayout::new();
        layout.set(
            "t",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(90),
                }),
                vertical: Some(VerticalSpec { row_cols: vec![2] }),
                ..Default::default()
            }),
        );
        apply_layout(&db, &layout).unwrap();
        assert!(
            demote_cold(&db, "t").is_err(),
            "vertically split cold partitions stay memory-resident"
        );
    }

    #[test]
    fn move_away_from_disk_tier_drops_segment() {
        let db = loaded_db();
        let before = checksum(&db);
        let mut layout = StorageLayout::new();
        layout.set("t", split_placement(Tier::Disk));
        apply_layout(&db, &layout).unwrap();
        assert!(
            cold_is_disk(&db),
            "move_table demotes when the spec says so"
        );
        assert_eq!(checksum(&db), before);

        // Re-split at a different boundary, still disk: segment rewritten.
        let mut resplit = StorageLayout::new();
        resplit.set(
            "t",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(50),
                }),
                vertical: None,
                cold_tier: Tier::Disk,
            }),
        );
        apply_layout(&db, &resplit).unwrap();
        assert!(cold_is_disk(&db));
        assert_eq!(checksum(&db), before);

        // Move back to a single store: the segment is deleted.
        let mut back = StorageLayout::new();
        back.set("t", TablePlacement::Single(StoreKind::Column));
        apply_layout(&db, &back).unwrap();
        assert_eq!(checksum(&db), before);
        assert_eq!(db.row_count("t").unwrap(), 100);
        assert!(db.segment_store().get(&cold_segment_name("t")).is_err());
    }
}
