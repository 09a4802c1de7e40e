//! The hybrid-store execution engine.
//!
//! [`database::HybridDatabase`] holds the catalog plus the physical data of
//! every table, where a table is either a single [`hsd_storage::Table`] or a
//! [`partition::TableData`] combination of a row-store *hot* partition and a
//! (possibly vertically split) *cold* partition — the storage layouts the
//! advisor recommends.
//!
//! The [`executor`] runs every query type of the paper's workloads against
//! whatever layout a table currently has; partitioned tables are rewritten
//! transparently (horizontal union with partial-aggregate merging, vertical
//! recombination over the shared primary key), mirroring Section 4's
//! "query rewriting must be realized automatically and transparently".
//!
//! The [`recorder`] accumulates the extended workload statistics of the
//! online mode, [`mover`] physically applies a recommended layout,
//! [`runner`] measures workload runtimes (the quantity every figure of the
//! paper reports), and [`worker`] drains advisor-scheduled delta merges in
//! bounded slices between query admissions (cooperatively, or on a
//! `std::thread` behind a config flag).

#![deny(missing_docs)]

pub mod checkpoint;
pub mod database;
pub mod durability;
pub mod executor;
pub mod maintenance;
pub mod mover;
pub mod partition;
pub mod recorder;
pub mod runner;
pub mod worker;

pub use checkpoint::{CheckpointReport, CHECKPOINT_RETAIN, CHECKPOINT_VERSION};
pub use database::HybridDatabase;
pub use database::{TableRead, TableShard, TableWrite};
pub use durability::{DegradedTable, DurabilityConfig, RecoveryReport, WalRecord};
pub use executor::{GroupRow, QueryOutput};
pub use maintenance::MergeConfig;
pub use partition::{MergePartition, Region, TableData, VerticalPair};
pub use recorder::{MergeSliceSample, OpClass, StatisticsRecorder, TimingSample};
pub use runner::{RunReport, WorkloadRunner};
pub use worker::{
    BackgroundWorker, MaintenanceWorker, MergeJob, MergePacer, PacerConfig, SharedDatabase,
    SliceReport, WorkerConfig, WorkerHealth, WorkerStats,
};
