//! The catalog proper: table registry with schemas, statistics, placements,
//! and index annotations.

use std::collections::HashMap;
use std::sync::Arc;

use hsd_storage::StoreKind;
use hsd_types::{Error, Result, TableId, TableSchema};

use crate::layout::{StorageLayout, TablePlacement};
use crate::stats::TableStats;

/// Catalog entry for one table.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Table id.
    pub id: TableId,
    /// Schema (shared with the physical tables).
    pub schema: Arc<TableSchema>,
    /// Latest collected basic statistics.
    pub stats: TableStats,
    /// Current placement annotation (evaluated by the query rewriter).
    pub placement: TablePlacement,
    /// Row-store columns carrying a secondary index (advisory for the cost
    /// model's `f_selectivity`).
    pub indexed_columns: Vec<usize>,
}

/// The system catalog.
///
/// Deliberately a plain single-writer structure: the engine wraps it behind
/// its own synchronization. Keeping it lock-free here makes the advisor's
/// read paths trivial.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    entries: HashMap<TableId, TableEntry>,
    by_name: HashMap<String, TableId>,
    next_id: u32,
    /// Bumped by every mutation (see [`Catalog::generation`]).
    generation: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table, returning its id. Fails on duplicate names.
    pub fn register(
        &mut self,
        schema: Arc<TableSchema>,
        placement: TablePlacement,
    ) -> Result<TableId> {
        if self.by_name.contains_key(&schema.name) {
            return Err(Error::InvalidOperation(format!(
                "table {} already registered",
                schema.name
            )));
        }
        let id = TableId(self.next_id);
        self.next_id += 1;
        self.generation += 1;
        self.by_name.insert(schema.name.clone(), id);
        let stats = TableStats::empty(schema.arity());
        self.entries.insert(
            id,
            TableEntry {
                id,
                schema,
                stats,
                placement,
                indexed_columns: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolve a table name.
    pub fn id_of(&self, name: &str) -> Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Entry by id.
    pub fn entry(&self, id: TableId) -> Result<&TableEntry> {
        self.entries
            .get(&id)
            .ok_or_else(|| Error::UnknownTable(id.to_string()))
    }

    /// Mutation counter: moves whenever a table is registered or an entry
    /// is borrowed mutably (statistics, placement, index annotations). A
    /// reader that cached anything derived from the catalog — the online
    /// advisor's estimation context — is current exactly while the
    /// generation it read is.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Mutable entry by id. Counts as a mutation ([`Catalog::generation`]).
    pub fn entry_mut(&mut self, id: TableId) -> Result<&mut TableEntry> {
        self.generation += 1;
        self.entries
            .get_mut(&id)
            .ok_or_else(|| Error::UnknownTable(id.to_string()))
    }

    /// Entry by name.
    pub fn entry_by_name(&self, name: &str) -> Result<&TableEntry> {
        self.entry(self.id_of(name)?)
    }

    /// Iterate entries in name order (deterministic for reports).
    pub fn entries(&self) -> Vec<&TableEntry> {
        let mut out: Vec<&TableEntry> = self.entries.values().collect();
        out.sort_by(|a, b| a.schema.name.cmp(&b.schema.name));
        out
    }

    /// Update a table's statistics.
    pub fn set_stats(&mut self, id: TableId, stats: TableStats) -> Result<()> {
        self.entry_mut(id)?.stats = stats;
        Ok(())
    }

    /// Update a table's placement annotation.
    pub fn set_placement(&mut self, id: TableId, placement: TablePlacement) -> Result<()> {
        self.entry_mut(id)?.placement = placement;
        Ok(())
    }

    /// Snapshot the current layout of all tables.
    pub fn current_layout(&self) -> StorageLayout {
        let mut layout = StorageLayout::new();
        for entry in self.entries.values() {
            layout.set(entry.schema.name.clone(), entry.placement.clone());
        }
        layout
    }

    /// Convenience: the store a *single-store* table resides in.
    pub fn single_store_of(&self, name: &str) -> Result<StoreKind> {
        match &self.entry_by_name(name)?.placement {
            TablePlacement::Single(s) => Ok(*s),
            TablePlacement::Partitioned(_) => Err(Error::InvalidOperation(format!(
                "table {name} is partitioned"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_types::{ColumnDef, ColumnType};

    fn schema(name: &str) -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                name,
                vec![ColumnDef::new("id", ColumnType::Integer)],
                vec![0],
            )
            .unwrap(),
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        let id = c
            .register(schema("a"), TablePlacement::Single(StoreKind::Row))
            .unwrap();
        assert_eq!(c.id_of("a").unwrap(), id);
        assert_eq!(c.entry(id).unwrap().schema.name, "a");
        assert_eq!(c.len(), 1);
        assert!(c.id_of("b").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.register(schema("a"), TablePlacement::Single(StoreKind::Row))
            .unwrap();
        assert!(c
            .register(schema("a"), TablePlacement::Single(StoreKind::Row))
            .is_err());
    }

    #[test]
    fn placement_round_trip() {
        let mut c = Catalog::new();
        let id = c
            .register(schema("a"), TablePlacement::Single(StoreKind::Row))
            .unwrap();
        assert_eq!(c.single_store_of("a").unwrap(), StoreKind::Row);
        c.set_placement(id, TablePlacement::Single(StoreKind::Column))
            .unwrap();
        assert_eq!(c.single_store_of("a").unwrap(), StoreKind::Column);
        let layout = c.current_layout();
        assert_eq!(
            layout.placement("a"),
            TablePlacement::Single(StoreKind::Column)
        );
    }

    #[test]
    fn entries_sorted_by_name() {
        let mut c = Catalog::new();
        c.register(schema("zeta"), TablePlacement::Single(StoreKind::Row))
            .unwrap();
        c.register(schema("alpha"), TablePlacement::Single(StoreKind::Row))
            .unwrap();
        let names: Vec<&str> = c.entries().iter().map(|e| e.schema.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn every_mutation_moves_the_generation() {
        let mut c = Catalog::new();
        let g0 = c.generation();
        let id = c
            .register(schema("a"), TablePlacement::Single(StoreKind::Row))
            .unwrap();
        let g1 = c.generation();
        assert!(g1 > g0, "register");
        c.set_stats(id, TableStats::empty(1)).unwrap();
        let g2 = c.generation();
        assert!(g2 > g1, "set_stats");
        c.set_placement(id, TablePlacement::Single(StoreKind::Column))
            .unwrap();
        let g3 = c.generation();
        assert!(g3 > g2, "set_placement");
        c.entry_mut(id).unwrap().indexed_columns.push(0);
        let g4 = c.generation();
        assert!(g4 > g3, "entry_mut");
        let _ = (c.entry(id).unwrap(), c.entries(), c.current_layout());
        assert_eq!(c.generation(), g4, "reads leave it alone");
    }

    #[test]
    fn stats_update() {
        let mut c = Catalog::new();
        let id = c
            .register(schema("a"), TablePlacement::Single(StoreKind::Row))
            .unwrap();
        let mut stats = TableStats::empty(1);
        stats.row_count = 42;
        c.set_stats(id, stats.clone()).unwrap();
        assert_eq!(c.entry(id).unwrap().stats.row_count, 42);
    }
}
