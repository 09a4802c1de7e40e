//! # hybrid-store-advisor
//!
//! A from-scratch reproduction of *"A Storage Advisor for Hybrid-Store
//! Databases"* (Rösch, Dannecker, Hackenbroich, Färber — SAP, PVLDB 5(12),
//! 2012): an in-memory hybrid row-/column-store database engine plus the
//! paper's cost-model-driven storage advisor.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `hsd-types` | values, schemas, errors |
//! | [`storage`] | `hsd-storage` | row store, dictionary-compressed column store |
//! | [`catalog`] | `hsd-catalog` | statistics, layouts, partition specs |
//! | [`query`] | `hsd-query` | query AST, workloads, generators |
//! | [`engine`] | `hsd-engine` | executor, partition rewriting, data mover |
//! | [`advisor`] | `hsd-core` | cost model, calibration, recommendation |
//! | [`tpch`] | `hsd-tpch` | TPC-H-like generator and mixed workload |
//!
//! ## Quickstart
//!
//! ```
//! use hybrid_store_advisor::prelude::*;
//!
//! // A hybrid database with a column-store table.
//! let db = HybridDatabase::new();
//! let schema = TableSchema::new(
//!     "orders",
//!     vec![
//!         ColumnDef::new("id", ColumnType::BigInt),
//!         ColumnDef::new("amount", ColumnType::Double),
//!     ],
//!     vec![0],
//! )
//! .unwrap();
//! db.create_single(schema, StoreKind::Column).unwrap();
//! db.bulk_load(
//!     "orders",
//!     (0..1000).map(|i| vec![Value::BigInt(i), Value::Double(i as f64)]),
//! )
//! .unwrap();
//!
//! // Aggregate through the store-agnostic executor.
//! let q = Query::Aggregate(AggregateQuery::simple("orders", AggFunc::Sum, 1));
//! let out = db.execute(&q).unwrap();
//! let sum = out.aggregates().unwrap()[0].values[0];
//! assert_eq!(sum, (0..1000).map(|i| i as f64).sum::<f64>());
//! ```

pub use hsd_catalog as catalog;
pub use hsd_core as advisor;
pub use hsd_engine as engine;
pub use hsd_query as query;
pub use hsd_storage as storage;
pub use hsd_tpch as tpch;
pub use hsd_types as types;

/// Common imports for applications.
pub mod prelude {
    pub use hsd_catalog::{
        ExtendedStats, HorizontalSpec, PartitionSpec, StorageLayout, TablePlacement, TableStats,
        Tier, VerticalSpec,
    };
    pub use hsd_core::{
        calibrate, AdaptationRecommendation, CalibrationConfig, CostModel, MaintenanceAction,
        MergePartition, OnlineAdvisor, OnlineConfig, Recommendation, StorageAdvisor,
    };
    pub use hsd_engine::{
        mover, BackgroundWorker, DegradedTable, DurabilityConfig, HybridDatabase,
        MaintenanceWorker, MergeConfig, PacerConfig, RecoveryReport, SharedDatabase,
        StatisticsRecorder, WorkerConfig, WorkerHealth, WorkloadRunner,
    };
    pub use hsd_query::{
        AggFunc, Aggregate, AggregateQuery, InsertQuery, JoinSpec, MixedWorkloadConfig, Query,
        SelectQuery, TableSpec, UpdateQuery, Workload, WorkloadGenerator,
    };
    pub use hsd_storage::{ColRange, StoreKind, SyncPolicy, WalWriter};
    pub use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};
}
