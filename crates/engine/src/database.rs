//! The hybrid database: catalog + physical table data.
//!
//! # Concurrency model
//!
//! The database is a **shared-nothing collection of table shards**. Each
//! table's physical data lives in its own [`TableShard`]: an `RwLock`
//! around the [`TableData`] plus a monotonically increasing *version
//! counter* published on every write-latch release. All methods take
//! `&self`; an instance is shared across threads as a plain
//! `Arc<HybridDatabase>` — there is no global database mutex.
//!
//! * **Readers** pin a snapshot with [`TableShard::pin`]: the read latch
//!   records the shard version and scans the immutable column segments
//!   without coordinating with other tables. A debug assertion on drop
//!   verifies the version never moved under a pinned snapshot.
//! * **Writers** serialize per table with [`TableShard::latch`]: the write
//!   latch is the only mutation path, and dropping it bumps the version —
//!   the publish step that makes the mutation visible to new pins.
//! * **WAL appends happen under the table latch** (`log_record`),
//!   so each table's log order equals its apply order (recovery replays
//!   per table; see [`crate::durability`]).
//!
//! Lock order (outer → inner): catalog / tables-map / config maps →
//! table shard → WAL. A shard latch or pin must never be held while
//! acquiring the catalog or the tables map — catalog reads needed by a
//! mutation are taken (and released) before the latch.

use std::collections::{BTreeMap, HashMap};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use hsd_catalog::{Catalog, StorageLayout, TablePlacement};
use hsd_query::Query;
use hsd_storage::wal::{SyncPolicy, WalStats, WalSyncHandle, WalWriter};
use hsd_storage::{ColumnTable, RowSource, SegmentStore, StoreKind};
use hsd_types::{Error, Result, TableId, TableSchema, Value};

use crate::durability::WalRecord;
use crate::executor;
use crate::maintenance::MergeConfig;
use crate::partition::{TableData, TableDataBuilder};

/// Acquire a read guard, absorbing poison: a panicking thread never leaves
/// the database unusable (worker slice panics are already contained, this
/// covers user threads too).
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquire a write guard, absorbing poison.
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Acquire a mutex guard, absorbing poison.
pub(crate) fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Group-commit state for the attached WAL.
///
/// Appends take the state mutex briefly (they are memory writes plus an OS
/// buffered write — microseconds). Device syncs are the expensive part, so
/// they run **outside** the mutex: the syncing thread checks the writer out
/// of the cell, releases the lock, syncs, and on completion publishes the
/// covered log length in `synced`. Every record appended before a sync
/// started is durable once that sync lands, so concurrent writers that
/// arrive while a sync is in flight queue on the condvar and are usually
/// covered by the *next* single sync — N writers pay ~1 fsync, not N.
#[derive(Debug, Default)]
struct WalCell {
    state: Mutex<WalState>,
    /// Signalled when a group sync completes (writer returned to the cell,
    /// `synced` advanced) so waiting appenders/syncers re-check.
    cv: Condvar,
    /// Whether a writer is attached, readable without `state`: a database
    /// without a WAL (in-memory databases, replay targets) must not pay
    /// for encoding records nobody appends. It only
    /// gates that work; the writer itself is read under `state`.
    attached: AtomicBool,
}

#[derive(Debug, Default)]
struct WalState {
    /// `None` when durability is off — or transiently while a fallback
    /// group sync has the writer checked out (`syncing` distinguishes the
    /// two).
    writer: Option<WalWriter>,
    /// Detached device-sync half of the writer's backend, when it supports
    /// syncing concurrently with appends ([`WalWriter::sync_handle`]).
    /// With a handle, the group leader syncs while *appends keep flowing*
    /// — that concurrency is what forms batches: every record appended
    /// during the in-flight sync is covered together by the next one.
    /// Without one, the leader checks the writer out and appends stall for
    /// the sync's duration.
    handle: Option<Box<dyn WalSyncHandle>>,
    /// Log length after the most recent append: the target a group sync
    /// covers.
    appended: u64,
    /// Log length covered by the most recent completed sync.
    synced: u64,
    /// A thread is currently syncing (holding `handle` — or `writer`, in
    /// the fallback path).
    syncing: bool,
}

impl WalCell {
    /// Lock the state, waiting until the writer is in the cell so `writer`
    /// reflects attachment (Some = durable, None = in-memory). Only a
    /// fallback sync (no detachable handle) makes this wait.
    fn settled(&self) -> MutexGuard<'_, WalState> {
        let mut st = mutex_lock(&self.state);
        while st.syncing && st.writer.is_none() {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st
    }
}

/// One table's physical data plus its concurrency state: the per-table
/// write latch and the published version counter the epoch-snapshot read
/// protocol pins against.
#[derive(Debug)]
pub struct TableShard {
    data: RwLock<TableData>,
    /// Bumped on every write-latch release (the publish step). Readers pin
    /// this at snapshot start; a moved version under a live pin would mean
    /// the latch protocol was violated (checked by a debug assertion in
    /// [`TableRead::drop`]).
    version: AtomicU64,
}

impl TableShard {
    fn new(data: TableData) -> Self {
        TableShard {
            data: RwLock::new(data),
            version: AtomicU64::new(0),
        }
    }

    /// Pin an epoch snapshot for reading: scans through the returned guard
    /// see one immutable version of the table, concurrent with pins on the
    /// same table and with all activity on other tables.
    pub fn pin(&self) -> TableRead<'_> {
        let data = read_lock(&self.data);
        let pinned = self.version.load(Ordering::Acquire);
        TableRead {
            data,
            shard: self,
            pinned,
        }
    }

    /// Acquire the table's write latch: the exclusive mutation path.
    /// Dropping the guard publishes the write by bumping the version.
    pub fn latch(&self) -> TableWrite<'_> {
        let data = write_lock(&self.data);
        TableWrite { data, shard: self }
    }

    /// The currently published version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// A pinned read snapshot of one table (see [`TableShard::pin`]).
#[derive(Debug)]
pub struct TableRead<'a> {
    data: RwLockReadGuard<'a, TableData>,
    shard: &'a TableShard,
    pinned: u64,
}

impl Deref for TableRead<'_> {
    type Target = TableData;
    fn deref(&self) -> &TableData {
        &self.data
    }
}

impl Drop for TableRead<'_> {
    fn drop(&mut self) {
        // Epoch-monotonicity check: the published version must not have
        // moved while this snapshot was pinned — writers go through the
        // latch, which excludes pins. Debug builds (CI's stress step runs
        // the suite with debug assertions) verify the protocol held.
        debug_assert_eq!(
            self.shard.version.load(Ordering::Acquire),
            self.pinned,
            "table version moved under a pinned read snapshot"
        );
    }
}

/// The write latch over one table (see [`TableShard::latch`]).
#[derive(Debug)]
pub struct TableWrite<'a> {
    data: RwLockWriteGuard<'a, TableData>,
    shard: &'a TableShard,
}

impl Deref for TableWrite<'_> {
    type Target = TableData;
    fn deref(&self) -> &TableData {
        &self.data
    }
}

impl DerefMut for TableWrite<'_> {
    fn deref_mut(&mut self) -> &mut TableData {
        &mut self.data
    }
}

impl Drop for TableWrite<'_> {
    fn drop(&mut self) {
        // Publish: new pins observe the next version.
        self.shard.version.fetch_add(1, Ordering::Release);
    }
}

/// An in-memory hybrid-store database instance.
///
/// All methods take `&self`; share an instance across threads as
/// `Arc<HybridDatabase>` (see the module docs for the latching protocol).
///
/// # Example
///
/// ```
/// use hsd_engine::HybridDatabase;
/// use hsd_query::{AggFunc, AggregateQuery, Query};
/// use hsd_storage::StoreKind;
/// use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};
///
/// let db = HybridDatabase::new();
/// let schema = TableSchema::new(
///     "orders",
///     vec![
///         ColumnDef::new("id", ColumnType::BigInt),
///         ColumnDef::new("amount", ColumnType::Double),
///     ],
///     vec![0], // primary key
/// )?;
/// db.create_single(schema, StoreKind::Column)?;
/// db.bulk_load(
///     "orders",
///     (0..100i64).map(|i| vec![Value::BigInt(i), Value::Double(i as f64)]),
/// )?;
///
/// // The executor is store-agnostic: the same query runs against either
/// // store or any partitioned layout the advisor recommends.
/// let q = Query::Aggregate(AggregateQuery::simple("orders", AggFunc::Sum, 1));
/// let out = db.execute(&q)?;
/// assert_eq!(out.aggregates().unwrap()[0].values[0], 4950.0);
/// # Ok::<(), hsd_types::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct HybridDatabase {
    catalog: RwLock<Catalog>,
    /// Per-table shards, keyed by table name so shard resolution never
    /// touches the catalog lock.
    tables: RwLock<HashMap<String, Arc<TableShard>>>,
    merge_config: RwLock<MergeConfig>,
    /// Write-ahead log, when durability is enabled (see
    /// [`crate::durability`]). `None` keeps the engine purely in-memory.
    /// One log serves all tables; appends happen under the appending
    /// table's write latch, so per-table log order equals apply order.
    /// Syncs are **group-committed**: one fsync covers every record
    /// appended before it, so concurrent writers coalesce instead of
    /// paying a serialized device sync each (see [`WalCell`]).
    wal: WalCell,
    /// Tables quarantined read-only by crash recovery, with reasons.
    degraded: RwLock<BTreeMap<String, String>>,
    /// Store for demoted cold-partition segments (in-memory unless the
    /// database was opened against a directory).
    segments: Arc<SegmentStore>,
    /// On-disk layout when directory-backed (set by
    /// [`HybridDatabase::open_dir`]; enables checkpointing).
    data_dir: RwLock<Option<crate::checkpoint::DataDir>>,
}

impl HybridDatabase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store holding demoted cold-partition segments.
    pub fn segment_store(&self) -> &Arc<SegmentStore> {
        &self.segments
    }

    /// Replace the segment store. Only valid before any fragment has been
    /// demoted (directory-backed databases install their store right after
    /// construction).
    pub(crate) fn set_segment_store(&mut self, store: SegmentStore) {
        self.segments = Arc::new(store);
    }

    /// Record the directory layout this database is backed by.
    pub(crate) fn set_data_dir(&self, layout: crate::checkpoint::DataDir) {
        *write_lock(&self.data_dir) = Some(layout);
    }

    /// The directory layout, when directory-backed.
    pub(crate) fn data_dir(&self) -> Option<crate::checkpoint::DataDir> {
        read_lock(&self.data_dir).clone()
    }

    /// Create a table with the given placement.
    pub fn create_table(&self, schema: TableSchema, placement: TablePlacement) -> Result<TableId> {
        let schema = Arc::new(schema);
        let data = TableData::new(schema.clone(), &placement)?;
        let id = write_lock(&self.catalog).register(schema.clone(), placement.clone())?;
        write_lock(&self.tables).insert(schema.name.clone(), Arc::new(TableShard::new(data)));
        self.log_record(&WalRecord::CreateTable {
            schema: (*schema).clone(),
            placement,
        })?;
        Ok(id)
    }

    /// Create a single-store table (convenience).
    pub fn create_single(&self, schema: TableSchema, store: StoreKind) -> Result<TableId> {
        self.create_table(schema, TablePlacement::Single(store))
    }

    /// Bulk-load rows into a table.
    ///
    /// An empty table is rebuilt from the rows in bulk
    /// ([`TableData::build`] under its placement: a horizontal split sends
    /// rows below the split value straight to the cold partition, column
    /// stores end merged, secondary indexes are rebuilt). A table that
    /// already holds rows appends them through the statement insert path
    /// (hot partition rules apply) and merges its delta afterwards.
    ///
    /// A row that fails schema validation or repeats a key stops the load:
    /// the rows before it stay applied (there is no statement rollback),
    /// the WAL logs exactly that prefix as a plain insert so replay
    /// reproduces it, and the error is returned.
    pub fn bulk_load<I>(&self, table: &str, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        self.check_writable(table)?;
        let shard = self.shard(table)?;
        let indexed = self.catalog().entry_by_name(table)?.indexed_columns.clone();
        let wal_on = self.wal_active();
        // Collected first, so the builders are sized for the whole load
        // (growing a key map re-hashes every key it holds).
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        // Rows are kept (only while logging) so the record can name exactly
        // the prefix that stuck.
        let mut logged: Vec<Vec<Value>> = Vec::new();
        let mut rows = rows.into_iter().inspect(|row| {
            if wal_on {
                logged.push(row.clone());
            }
        });
        let failure: Option<Error>;
        let n;
        {
            let mut data = shard.latch();
            let before = data.row_count();
            if before == 0 && data.disk_bytes() == 0 {
                let mut builder = TableDataBuilder::new(
                    data.schema().clone(),
                    &data.placement(),
                    &indexed,
                    rows.rows_hint(),
                )?;
                failure = rows.drain_rows(&mut |row| builder.push(row)).err();
                *data = builder.finish()?;
            } else {
                failure = rows.find_map(|row| data.insert(&row).err());
                if failure.is_none() {
                    if let Some(ct) = data.delta_region_mut() {
                        ct.compact();
                    }
                }
            }
            n = data.row_count() - before;
            logged.truncate(n);
            if wal_on && n > 0 {
                // `load` marks the success path (replay re-runs the load);
                // a partial prefix replays as a plain insert. Logged under
                // the latch: commit order == apply order.
                self.log_record(&WalRecord::Insert {
                    table: table.to_string(),
                    rows: logged,
                    load: failure.is_none(),
                })?;
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        self.refresh_stats(table)?;
        Ok(n)
    }

    /// The system catalog (a read guard; drop it before calling any other
    /// database method that mutates the catalog).
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        read_lock(&self.catalog)
    }

    /// Mutable catalog access (used by the mover and index management).
    /// Never acquire while holding a table latch or pin.
    pub fn catalog_mut(&self) -> RwLockWriteGuard<'_, Catalog> {
        write_lock(&self.catalog)
    }

    /// Resolve a table's shard. The returned `Arc` keeps the shard alive
    /// independent of the tables map; pin or latch it for access.
    pub fn shard(&self, table: &str) -> Result<Arc<TableShard>> {
        read_lock(&self.tables)
            .get(table)
            .cloned()
            .ok_or_else(|| Error::UnknownTable(table.into()))
    }

    /// Run `f` over a pinned read snapshot of a table.
    pub fn with_table<R>(&self, table: &str, f: impl FnOnce(&TableData) -> R) -> Result<R> {
        let shard = self.shard(table)?;
        let pin = shard.pin();
        Ok(f(&pin))
    }

    /// Total logical rows of a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        self.with_table(table, TableData::row_count)
    }

    /// The engine-level delta-merge fallback policy.
    pub fn merge_config(&self) -> MergeConfig {
        *read_lock(&self.merge_config)
    }

    /// Replace the delta-merge fallback policy (e.g.
    /// [`MergeConfig::disabled`] when an online advisor schedules merges
    /// explicitly, leaving the executor's auto-merge as a safety valve
    /// only).
    pub fn set_merge_config(&self, cfg: MergeConfig) {
        *write_lock(&self.merge_config) = cfg;
    }

    /// Accumulated dictionary-tail entries of a table's column-store
    /// partitions (0 for row-store-only layouts).
    pub fn delta_tail(&self, table: &str) -> Result<usize> {
        self.with_table(table, TableData::delta_tail)
    }

    /// On-disk segment bytes of a table's demoted cold partition (0 for
    /// memory-resident layouts).
    pub fn disk_bytes(&self, table: &str) -> Result<u64> {
        self.with_table(table, TableData::disk_bytes)
    }

    /// Rows resident in the region a delta merge on `table` would remap:
    /// the whole table for single-store layouts, the cold partition for
    /// hot/cold layouts ([`TableData::merge_region_rows`]). Merge-cost
    /// models should price merges at this count, not
    /// [`HybridDatabase::row_count`].
    pub fn merge_region_rows(&self, table: &str) -> Result<usize> {
        self.with_table(table, TableData::merge_region_rows)
    }

    /// `(merge_epoch, merge_in_progress)` of a table's delta region
    /// ([`TableData::delta_region`]), read under one pinned snapshot.
    ///
    /// The epoch increases at every completed dictionary handoff
    /// (incremental shadow swap or one-shot rebuild), so observers — the
    /// online advisor, the maintenance worker — can detect that merge work
    /// completed between two looks without watching every slice. It is
    /// **column-granular** (a multi-column merge bumps it once per column
    /// handoff), so "the whole job finished" is the conjunction of a moved
    /// epoch and no merge in flight. Reading both under one pin is the
    /// race-free form observers need under concurrency: two separate reads
    /// can interleave with a worker slice completing in between, pairing a
    /// pre-completion epoch with a post-completion in-flight flag. A
    /// row-store layout reports `(0, false)`, a disk segment its footer
    /// epoch and `false`.
    pub fn merge_status(&self, table: &str) -> Result<(u64, bool)> {
        self.with_table(table, |d| {
            let in_flight = d.delta_region().is_some_and(ColumnTable::merge_in_progress);
            (d.merge_epoch(), in_flight)
        })
    }

    /// Execute a query against the current layout.
    pub fn execute(&self, query: &Query) -> Result<executor::QueryOutput> {
        executor::execute(self, query)
    }

    /// Recompute and store basic statistics for a table.
    pub fn refresh_stats(&self, table: &str) -> Result<()> {
        let shard = self.shard(table)?;
        let stats = {
            let pin = shard.pin();
            executor::collect_logical_stats(&pin, self.segment_store())?
        };
        let mut catalog = write_lock(&self.catalog);
        let id = catalog.id_of(table)?;
        catalog.set_stats(id, stats)
    }

    /// Create a row-store secondary index on a column of a single-store
    /// row table (and annotate the catalog for the cost model).
    ///
    /// The catalog lists the index before its WAL record is appended, and
    /// the append happens under the table latch: a checkpoint whose
    /// frontier lies past the record therefore finds the index listed when
    /// it re-reads the catalog after its latches ([`crate::checkpoint`]).
    pub fn create_index(&self, table: &str, col: usize) -> Result<()> {
        self.check_writable(table)?;
        let shard = self.shard(table)?;
        {
            let mut catalog = write_lock(&self.catalog);
            let id = catalog.id_of(table)?;
            let entry = catalog.entry_mut(id)?;
            entry.schema.column(col)?;
            if !entry.indexed_columns.contains(&col) {
                entry.indexed_columns.push(col);
            }
        }
        let mut data = shard.latch();
        data.create_index(col)?;
        self.log_record(&WalRecord::CreateIndex {
            table: table.to_string(),
            column: col,
        })
    }

    /// Current layout snapshot.
    pub fn current_layout(&self) -> StorageLayout {
        self.catalog().current_layout()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog()
            .entries()
            .iter()
            .map(|e| e.schema.name.clone())
            .collect()
    }

    /// Total heap bytes across all tables.
    pub fn memory_bytes(&self) -> usize {
        let shards: Vec<Arc<TableShard>> = read_lock(&self.tables).values().cloned().collect();
        shards.iter().map(|s| s.pin().memory_bytes()).sum()
    }

    /// Enable durability: every mutating operation from here on is appended
    /// to `wal` (after its in-memory apply succeeds — the durable append is
    /// the commit point; see [`crate::durability`]).
    pub fn attach_wal(&self, wal: WalWriter) {
        let mut st = self.wal.settled();
        st.appended = wal.len();
        st.synced = st.appended;
        st.handle = wal.sync_handle();
        st.writer = Some(wal);
        self.wal.attached.store(true, Ordering::Relaxed);
    }

    /// Disable durability, returning the writer (e.g. to inspect or sync
    /// it). Subsequent mutations are no longer logged.
    pub fn detach_wal(&self) -> Option<WalWriter> {
        let mut st = self.wal.settled();
        self.wal.attached.store(false, Ordering::Relaxed);
        st.handle = None;
        st.writer.take()
    }

    /// Whether a WAL is attached (no lock taken).
    pub fn wal_active(&self) -> bool {
        self.wal.attached.load(Ordering::Relaxed)
    }

    /// Counters of the attached WAL writer, if any.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.settled().writer.as_ref().map(|w| *w.stats())
    }

    /// Bytes appended to the attached WAL so far (0 without a WAL).
    pub fn wal_len(&self) -> u64 {
        self.wal.settled().writer.as_ref().map_or(0, |w| w.len())
    }

    /// Force the attached WAL to stable storage regardless of the batching
    /// policy (no-op without a WAL). Participates in group commit: if a
    /// concurrent sync already covers everything appended, this returns
    /// without touching the device.
    pub fn sync_wal(&self) -> Result<()> {
        let target = mutex_lock(&self.wal.state).appended;
        self.sync_wal_to(target)
    }

    /// Tables quarantined read-only by crash recovery: name → reason.
    pub fn degraded_tables(&self) -> BTreeMap<String, String> {
        read_lock(&self.degraded).clone()
    }

    /// Whether a table is quarantined read-only.
    pub fn is_degraded(&self, table: &str) -> bool {
        read_lock(&self.degraded).contains_key(table)
    }

    /// Operator override: lift a recovery quarantine, restoring
    /// writability. Returns whether the table was quarantined.
    pub fn clear_degraded(&self, table: &str) -> bool {
        write_lock(&self.degraded).remove(table).is_some()
    }

    /// Quarantine a table read-only (recovery's degraded mode).
    pub(crate) fn mark_degraded(&self, table: &str, reason: &str) {
        write_lock(&self.degraded).insert(table.to_string(), reason.to_string());
    }

    /// Reject mutations on quarantined tables.
    pub(crate) fn check_writable(&self, table: &str) -> Result<()> {
        match read_lock(&self.degraded).get(table) {
            Some(reason) => Err(Error::Degraded(format!("{table}: {reason}"))),
            None => Ok(()),
        }
    }

    /// Append one record to the WAL, if durability is enabled. Called
    /// *after* the in-memory apply succeeded and — for per-table mutations
    /// — **while still holding the table's write latch**, so the log's
    /// per-table record order matches the apply order under concurrency.
    /// An append failure is surfaced as [`Error::Io`] (the statement is
    /// applied in memory but not durable — callers treating the WAL as
    /// authoritative should discard the instance and recover).
    pub(crate) fn log_record(&self, rec: &WalRecord) -> Result<()> {
        if !self.wal_active() {
            return Ok(());
        }
        // Encode before taking the log lock: the lock covers the append only.
        let (tag, payload) = (rec.table_tag(), rec.to_payload());
        let io = |e: std::io::Error| Error::Io(e.to_string());
        let my_lsn = {
            let mut guard = self.wal.settled();
            let st = &mut *guard;
            let Some(w) = st.writer.as_mut() else {
                return Ok(());
            };
            // `appended` advances as soon as the bytes are in, so a sync
            // that fails below still leaves them for the next `sync_wal`.
            st.appended = w.append_unsynced(tag, &payload).map_err(io)?;
            if w.sync_policy() != SyncPolicy::Always {
                // Batched/manual policies sync rarely; let the writer apply
                // its policy inline — no group commit needed.
                return w.sync_if_due().map_err(io);
            }
            st.appended
        };
        self.sync_wal_to(my_lsn)
    }

    /// Group-commit sync: return once the log is durable through `target`.
    /// If a completed sync already covers it, return immediately; if one is
    /// in flight, wait for it and re-check; otherwise become the group
    /// leader — check the writer out, sync outside the lock (covering every
    /// record appended so far, not just `target`), and publish the result.
    fn sync_wal_to(&self, target: u64) -> Result<()> {
        let mut st = mutex_lock(&self.wal.state);
        loop {
            if st.synced >= target {
                return Ok(());
            }
            if st.syncing {
                st = self.wal.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            if st.writer.is_none() {
                // Detached while we waited: nothing left to make durable.
                return Ok(());
            }
            let covers = st.appended;
            st.syncing = true;
            let res = if let Some(mut h) = st.handle.take() {
                // Handle leader: sync the device half while the writer
                // stays in the cell, so appends keep flowing — the records
                // they add are what the *next* sync covers as one batch.
                drop(st);
                let res = h.sync();
                st = mutex_lock(&self.wal.state);
                if st.writer.is_some() {
                    st.handle = Some(h);
                }
                if res.is_ok() {
                    if let Some(w) = st.writer.as_mut() {
                        w.note_external_sync();
                    }
                }
                res
            } else {
                // Fallback leader: the backend can't sync concurrently
                // with appends, so check the writer out for the sync.
                let mut w = st.writer.take().expect("writer checked above");
                drop(st);
                let res = w.sync();
                st = mutex_lock(&self.wal.state);
                st.writer = Some(w);
                res
            };
            st.syncing = false;
            if res.is_ok() {
                st.synced = st.synced.max(covers);
            }
            self.wal.cv.notify_all();
            if let Err(e) = res {
                return Err(Error::Io(e.to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_types::{ColumnDef, ColumnType};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("v", ColumnType::Double),
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn create_and_load() {
        let db = HybridDatabase::new();
        db.create_single(schema("t"), StoreKind::Column).unwrap();
        let n = db
            .bulk_load(
                "t",
                (0..50).map(|i| vec![Value::BigInt(i), Value::Double(i as f64)]),
            )
            .unwrap();
        assert_eq!(n, 50);
        assert_eq!(db.row_count("t").unwrap(), 50);
        let stats = db.catalog().entry_by_name("t").unwrap().stats.clone();
        assert_eq!(stats.row_count, 50);
        assert_eq!(stats.columns[0].distinct, 50);
    }

    #[test]
    fn unknown_table_errors() {
        let db = HybridDatabase::new();
        assert!(db.shard("nope").is_err());
    }

    #[test]
    fn index_creation_annotates_catalog() {
        let db = HybridDatabase::new();
        db.create_single(schema("r"), StoreKind::Row).unwrap();
        db.create_index("r", 1).unwrap();
        assert_eq!(
            db.catalog().entry_by_name("r").unwrap().indexed_columns,
            vec![1]
        );
        // column-store index creation is a no-op but records the intent
        db.create_single(schema("c"), StoreKind::Column).unwrap();
        db.create_index("c", 1).unwrap();
        assert_eq!(
            db.catalog().entry_by_name("c").unwrap().indexed_columns,
            vec![1]
        );
    }

    /// A load stopped by a duplicate key or a schema-invalid row keeps
    /// exactly the rows before it, logs exactly that prefix as a plain
    /// insert, and recovery replays it to the same rows — in both stores
    /// and under horizontal splits, including a split on a non-key column
    /// that would send the duplicate to the other partition.
    #[test]
    fn failed_bulk_load_keeps_logs_and_replays_the_prefix() {
        use crate::durability::DurabilityConfig;
        use hsd_catalog::{HorizontalSpec, PartitionSpec};
        let row = |i: i64, v: f64| vec![Value::BigInt(i), Value::Double(v)];
        let split = |column, value| {
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: column,
                    split_value: value,
                }),
                ..PartitionSpec::default()
            })
        };
        let placements = [
            TablePlacement::Single(StoreKind::Row),
            TablePlacement::Single(StoreKind::Column),
            split(0, Value::BigInt(5)),
            split(1, Value::Double(5.0)),
        ];
        let bad_rows = [row(3, 50.0), vec![Value::BigInt(100), Value::text("x")]];
        let prefix: Vec<Vec<Value>> = (0..7).map(|i| row(i, i as f64)).collect();
        let rows_of = |db: &HybridDatabase| {
            let mut rows = db
                .with_table("t", |d| d.snapshot_rows(db.segment_store()))
                .unwrap()
                .unwrap();
            rows.sort();
            rows
        };
        for (p, placement) in placements.iter().enumerate() {
            for (b, bad) in bad_rows.iter().enumerate() {
                let dir = std::env::temp_dir()
                    .join(format!("hsd_load_prefix_{p}_{b}_{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let load: Vec<Vec<Value>> = prefix
                    .iter()
                    .cloned()
                    .chain([bad.clone()])
                    .chain((20..25).map(|i| row(i, 1.0)))
                    .collect();
                {
                    let (db, _) =
                        HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
                    db.create_table(schema("t"), placement.clone()).unwrap();
                    assert!(db.bulk_load("t", load).is_err(), "{placement:?}");
                    assert_eq!(rows_of(&db), prefix, "{placement:?}");
                    db.sync_wal().unwrap();
                }
                let wal = std::fs::read(dir.join("wal.log")).unwrap();
                let inserts: Vec<WalRecord> = hsd_storage::wal::scan_frames(&wal)
                    .frames
                    .iter()
                    .map(|f| WalRecord::from_payload(&f.payload).unwrap())
                    .filter(|r| matches!(r, WalRecord::Insert { .. }))
                    .collect();
                assert_eq!(
                    inserts,
                    [WalRecord::Insert {
                        table: "t".into(),
                        rows: prefix.clone(),
                        load: false,
                    }],
                    "{placement:?}"
                );
                let (db, report) =
                    HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
                assert!(report.is_clean(), "{report:?}");
                assert_eq!(rows_of(&db), prefix, "{placement:?} after replay");
                drop(db);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// A row whose column-fragment half is invalid must reach neither
    /// fragment of a vertical split — by bulk load or by statement — or
    /// the positional stitch pairs keys with the wrong values.
    #[test]
    fn refused_rows_leave_vertical_fragments_aligned() {
        use hsd_catalog::{PartitionSpec, VerticalSpec};
        use hsd_query::InsertQuery;
        let db = HybridDatabase::new();
        let placement = TablePlacement::Partitioned(PartitionSpec {
            vertical: Some(VerticalSpec { row_cols: vec![] }),
            ..PartitionSpec::default()
        });
        db.create_table(schema("t"), placement).unwrap();
        let good = |i: i64| vec![Value::BigInt(i), Value::Double(i as f64)];
        let bad = vec![Value::BigInt(100), Value::text("x")];
        let load = (0..3).map(good).chain([bad.clone()]);
        assert!(db.bulk_load("t", load).is_err());
        let insert = Query::Insert(InsertQuery {
            table: "t".into(),
            rows: vec![good(3), bad, good(4)],
        });
        assert!(db.execute(&insert).is_err());
        let rows = db
            .with_table("t", |d| d.snapshot_rows(db.segment_store()))
            .unwrap()
            .unwrap();
        assert_eq!(rows, (0..4).map(good).collect::<Vec<_>>());
        db.with_table("t", |d| match &d.base {
            crate::partition::Region::Pair(p) => p.check_alignment().unwrap(),
            other => panic!("expected a vertical split, got {other:?}"),
        })
        .unwrap();
    }

    #[test]
    fn memory_accounting() {
        let db = HybridDatabase::new();
        db.create_single(schema("t"), StoreKind::Row).unwrap();
        db.bulk_load(
            "t",
            (0..10).map(|i| vec![Value::BigInt(i), Value::Double(0.0)]),
        )
        .unwrap();
        assert!(db.memory_bytes() > 0);
    }

    #[test]
    fn shard_latch_publishes_a_new_version() {
        let db = HybridDatabase::new();
        db.create_single(schema("t"), StoreKind::Column).unwrap();
        let shard = db.shard("t").unwrap();
        let v0 = shard.version();
        {
            let pin = shard.pin();
            assert_eq!(pin.row_count(), 0);
        }
        assert_eq!(shard.version(), v0, "pins never publish");
        drop(shard.latch());
        assert_eq!(shard.version(), v0 + 1, "latch release publishes");
    }
}
