//! Storage layouts: the advisor's output and the engine's partitioning
//! annotation.
//!
//! A layout assigns every table either a single store or a partition
//! specification with up to two horizontal and up to two vertical partitions
//! — the exact search space of the paper's heuristic (Section 3.2:
//! *"For each table, we consider (up to) two horizontal and (up to) two
//! vertical partitions"*).

use std::collections::BTreeMap;

use hsd_storage::StoreKind;
use hsd_types::{ColumnIdx, Json, JsonResult, Value};

/// Horizontal split: rows with `split_column >= split_value` form the *hot*
/// partition (kept in the row store for fast inserts and whole-tuple
/// updates); the remaining *historic* rows form the cold partition.
/// Inserts are routed to the hot partition.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizontalSpec {
    /// Column the split predicate applies to.
    pub split_column: ColumnIdx,
    /// Rows with `split_column >= split_value` are hot.
    pub split_value: Value,
}

/// Vertical split of a table (or of its cold horizontal partition): the
/// listed non-key columns live in a row-store fragment, every other non-key
/// column lives in a column-store fragment, and both fragments carry the
/// primary key (the paper: "the partitions are not disjoint but all contain
/// the primary key attributes").
#[derive(Debug, Clone, PartialEq)]
pub struct VerticalSpec {
    /// Non-key columns placed in the row-store fragment (the "OLTP
    /// attributes").
    pub row_cols: Vec<ColumnIdx>,
}

/// Storage tier of a fragment: where its bytes reside.
///
/// Tier is the third placement dimension next to store kind and
/// partitioning (following hStorage-DB's heterogeneity-aware placement):
/// the advisor prices memory vs disk residency per fragment and the mover
/// demotes/promotes fragments the same way it flips stores. Only the
/// *cold* region of a table can be disk-resident — the hot partition
/// exists precisely because it absorbs writes, which disk residency would
/// make pay a full segment rewrite each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Tier {
    /// Resident in memory (the default; all placements before tiering).
    #[default]
    Memory,
    /// Resident as an immutable on-disk column segment, read in place.
    Disk,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::Memory => "memory",
            Tier::Disk => "disk",
        })
    }
}

/// Partitioning of one table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionSpec {
    /// Optional horizontal hot/cold split.
    pub horizontal: Option<HorizontalSpec>,
    /// Optional vertical split (applies to the cold partition when a
    /// horizontal split is present, else to the whole table).
    pub vertical: Option<VerticalSpec>,
    /// Storage tier of the cold partition. `Tier::Disk` demotes the cold
    /// column fragment to an on-disk segment; with no horizontal split the
    /// "cold partition" is the whole table, so
    /// `PartitionSpec { cold_tier: Tier::Disk, ..Default::default() }` is
    /// the whole-table-on-disk placement. Disk residency composes with a
    /// horizontal split but not with a vertical one (the vertical pair's
    /// row fragment serves point reads, which disk residency defeats).
    pub cold_tier: Tier,
}

impl PartitionSpec {
    /// Whether the spec actually partitions anything (a disk-resident cold
    /// tier counts: it changes the physical layout even with no split).
    pub fn is_trivial(&self) -> bool {
        self.horizontal.is_none() && self.vertical.is_none() && self.cold_tier == Tier::Memory
    }
}

/// Where one table's data lives.
#[derive(Debug, Clone, PartialEq)]
pub enum TablePlacement {
    /// The whole table resides in one store.
    Single(StoreKind),
    /// The table is partitioned across stores.
    Partitioned(PartitionSpec),
}

impl TablePlacement {
    /// Short human-readable description, used in recommendation reports.
    pub fn describe(&self) -> String {
        match self {
            TablePlacement::Single(s) => format!("single ({s})"),
            TablePlacement::Partitioned(spec) => {
                let mut parts = Vec::new();
                if let Some(h) = &spec.horizontal {
                    parts.push(format!(
                        "horizontal split at col#{} >= {}",
                        h.split_column, h.split_value
                    ));
                }
                if let Some(v) = &spec.vertical {
                    parts.push(format!("vertical split, RS cols {:?}", v.row_cols));
                }
                if spec.cold_tier == Tier::Disk {
                    parts.push("cold tier: disk".to_string());
                }
                if parts.is_empty() {
                    "partitioned (trivial)".to_string()
                } else {
                    format!("partitioned ({})", parts.join("; "))
                }
            }
        }
    }
}

/// A complete storage layout: table name → placement.
///
/// Keyed by name (not id) so layouts can be serialized, diffed, and applied
/// to a freshly loaded database.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StorageLayout {
    /// Per-table placements.
    pub placements: BTreeMap<String, TablePlacement>,
}

impl StorageLayout {
    /// Empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Layout placing every listed table in the same store (the paper's
    /// "RS only" / "CS only" baselines).
    pub fn uniform<'a>(tables: impl IntoIterator<Item = &'a str>, store: StoreKind) -> Self {
        let placements = tables
            .into_iter()
            .map(|t| (t.to_string(), TablePlacement::Single(store)))
            .collect();
        StorageLayout { placements }
    }

    /// Set a table's placement.
    pub fn set(&mut self, table: impl Into<String>, placement: TablePlacement) {
        self.placements.insert(table.into(), placement);
    }

    /// Look up a table's placement (default: row store, HANA's default for
    /// newly created tables).
    pub fn placement(&self, table: &str) -> TablePlacement {
        self.placement_ref(table).clone()
    }

    /// [`StorageLayout::placement`] by borrow — the form the estimator
    /// resolves placements through, so pricing a query clones nothing.
    pub fn placement_ref(&self, table: &str) -> &TablePlacement {
        static ROW: TablePlacement = TablePlacement::Single(StoreKind::Row);
        self.placements.get(table).unwrap_or(&ROW)
    }

    /// Serialize to JSON (layouts are persisted and diffed as artifacts).
    pub fn to_json(&self) -> String {
        let placements: BTreeMap<String, Json> = self
            .placements
            .iter()
            .map(|(name, p)| (name.clone(), placement_to_json(p)))
            .collect();
        Json::obj([("placements", Json::Obj(placements))]).to_string_pretty()
    }

    /// Deserialize a layout written by [`StorageLayout::to_json`].
    pub fn from_json(s: &str) -> JsonResult<Self> {
        let root = Json::parse(s)?;
        let mut placements = BTreeMap::new();
        for (name, p) in root.get("placements")?.as_obj()? {
            placements.insert(name.clone(), placement_from_json(p)?);
        }
        Ok(StorageLayout { placements })
    }

    /// Tables whose placement differs from `other` — the "adaptation
    /// recommendations" of the online mode.
    pub fn diff<'a>(&'a self, other: &'a StorageLayout) -> Vec<&'a str> {
        let mut out = Vec::new();
        for (name, placement) in &self.placements {
            if other.placements.get(name) != Some(placement) {
                out.push(name.as_str());
            }
        }
        for name in other.placements.keys() {
            if !self.placements.contains_key(name) {
                out.push(name.as_str());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn store_to_json(s: StoreKind) -> Json {
    Json::Str(match s {
        StoreKind::Row => "Row".to_string(),
        StoreKind::Column => "Column".to_string(),
    })
}

fn store_from_json(j: &Json) -> JsonResult<StoreKind> {
    match j.as_str()? {
        "Row" => Ok(StoreKind::Row),
        "Column" => Ok(StoreKind::Column),
        other => Err(hsd_types::JsonError(format!(
            "unknown store kind `{other}`"
        ))),
    }
}

/// Encode one placement as JSON (the per-table encoding of
/// [`StorageLayout::to_json`]; also used by the engine's WAL record codec).
pub fn placement_to_json(p: &TablePlacement) -> Json {
    match p {
        TablePlacement::Single(s) => Json::obj([("Single", store_to_json(*s))]),
        TablePlacement::Partitioned(spec) => {
            let horizontal = match &spec.horizontal {
                None => Json::Null,
                Some(h) => Json::obj([
                    ("split_column", Json::Int(h.split_column as i64)),
                    ("split_value", Json::from_value(&h.split_value)),
                ]),
            };
            let vertical = match &spec.vertical {
                None => Json::Null,
                Some(v) => Json::obj([(
                    "row_cols",
                    Json::Arr(v.row_cols.iter().map(|&c| Json::Int(c as i64)).collect()),
                )]),
            };
            let cold_tier = match spec.cold_tier {
                // Omitted for memory: layouts written before tiering parse
                // identically, and tiered layouts parse under old readers'
                // `get_opt` defaults.
                Tier::Memory => Json::Null,
                Tier::Disk => Json::Str("Disk".to_string()),
            };
            Json::obj([(
                "Partitioned",
                Json::obj([
                    ("horizontal", horizontal),
                    ("vertical", vertical),
                    ("cold_tier", cold_tier),
                ]),
            )])
        }
    }
}

/// Decode a placement written by [`placement_to_json`].
pub fn placement_from_json(j: &Json) -> JsonResult<TablePlacement> {
    if let Some(s) = j.get_opt("Single") {
        return Ok(TablePlacement::Single(store_from_json(s)?));
    }
    let spec = j.get("Partitioned")?;
    let horizontal = match spec.get_opt("horizontal") {
        None => None,
        Some(h) => Some(HorizontalSpec {
            split_column: h.get("split_column")?.as_usize()?,
            split_value: h.get("split_value")?.to_value()?,
        }),
    };
    let vertical = match spec.get_opt("vertical") {
        None => None,
        Some(v) => Some(VerticalSpec {
            row_cols: v
                .get("row_cols")?
                .as_arr()?
                .iter()
                .map(Json::as_usize)
                .collect::<JsonResult<Vec<_>>>()?,
        }),
    };
    let cold_tier = match spec.get_opt("cold_tier") {
        None => Tier::Memory,
        Some(t) => match t.as_str()? {
            "Memory" => Tier::Memory,
            "Disk" => Tier::Disk,
            other => {
                return Err(hsd_types::JsonError(format!("unknown tier `{other}`")));
            }
        },
    };
    Ok(TablePlacement::Partitioned(PartitionSpec {
        horizontal,
        vertical,
        cold_tier,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout() {
        let l = StorageLayout::uniform(["a", "b"], StoreKind::Column);
        assert_eq!(l.placement("a"), TablePlacement::Single(StoreKind::Column));
        assert_eq!(l.placement("b"), TablePlacement::Single(StoreKind::Column));
        // unknown tables default to row store
        assert_eq!(l.placement("zzz"), TablePlacement::Single(StoreKind::Row));
    }

    #[test]
    fn trivial_spec_detection() {
        assert!(PartitionSpec::default().is_trivial());
        let spec = PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::Int(5),
            }),
            ..Default::default()
        };
        assert!(!spec.is_trivial());
        let disk_only = PartitionSpec {
            cold_tier: Tier::Disk,
            ..Default::default()
        };
        assert!(!disk_only.is_trivial(), "a disk cold tier changes layout");
    }

    #[test]
    fn describe_placements() {
        let single = TablePlacement::Single(StoreKind::Row);
        assert_eq!(single.describe(), "single (RS)");
        let part = TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 2,
                split_value: Value::Int(9),
            }),
            vertical: Some(VerticalSpec {
                row_cols: vec![1, 3],
            }),
            ..Default::default()
        });
        let d = part.describe();
        assert!(d.contains("col#2 >= 9"), "{d}");
        assert!(d.contains("[1, 3]"), "{d}");
        let tiered = TablePlacement::Partitioned(PartitionSpec {
            cold_tier: Tier::Disk,
            ..Default::default()
        });
        assert!(tiered.describe().contains("disk"), "{}", tiered.describe());
    }

    #[test]
    fn diff_detects_changes() {
        let mut a = StorageLayout::uniform(["x", "y"], StoreKind::Row);
        let b = a.clone();
        assert!(a.diff(&b).is_empty());
        a.set("y", TablePlacement::Single(StoreKind::Column));
        a.set("z", TablePlacement::Single(StoreKind::Row));
        let d = a.diff(&b);
        assert_eq!(d, vec!["y", "z"]);
    }

    #[test]
    fn layout_serializes() {
        let mut l = StorageLayout::new();
        l.set(
            "orders",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::Int(100),
                }),
                vertical: Some(VerticalSpec { row_cols: vec![2] }),
                ..Default::default()
            }),
        );
        l.set("small", TablePlacement::Single(StoreKind::Column));
        l.set(
            "trivial",
            TablePlacement::Partitioned(PartitionSpec::default()),
        );
        l.set(
            "archive",
            TablePlacement::Partitioned(PartitionSpec {
                cold_tier: Tier::Disk,
                ..Default::default()
            }),
        );
        let json = l.to_json();
        let back = StorageLayout::from_json(&json).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn pre_tier_layouts_still_parse() {
        // A layout written before `cold_tier` existed must decode with the
        // memory default (back-compat for committed artifacts).
        let legacy = r#"{"placements": {"orders": {"Partitioned": {
            "horizontal": {"split_column": 0, "split_value": {"Int": 5}},
            "vertical": null
        }}}}"#;
        let l = StorageLayout::from_json(legacy).unwrap();
        match l.placement("orders") {
            TablePlacement::Partitioned(spec) => assert_eq!(spec.cold_tier, Tier::Memory),
            other => panic!("unexpected {other:?}"),
        }
    }
}
