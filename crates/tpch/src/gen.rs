//! Deterministic dbgen-style data generation.
//!
//! Cardinalities follow the TPC-H ratios (per scale factor: 10k suppliers,
//! 150k customers, 200k parts, 800k partsupps, 1.5m orders, ~6m lineitems),
//! with floors so that tiny scale factors still produce runnable databases.
//! All values are pure functions of `(seed, table, row)`, so the generator
//! streams rows without materializing tables.

use hsd_catalog::TablePlacement;
use hsd_engine::HybridDatabase;
use hsd_storage::StoreKind;
use hsd_types::{Result, Value};

use crate::schema;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BAG",
    "MED BOX",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP JAR",
];
const TYPE_ADJ: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_MAT: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const NOUNS: [&str; 12] = [
    "packages",
    "requests",
    "accounts",
    "deposits",
    "instructions",
    "foxes",
    "pinto beans",
    "theodolites",
    "dependencies",
    "excuses",
    "platelets",
    "ideas",
];
const VERBS: [&str; 8] = [
    "sleep",
    "wake",
    "haggle",
    "nag",
    "detect",
    "integrate",
    "engage",
    "doze",
];

/// First order date (1992-01-01) and the order-date span in days (~6.5 y),
/// per the TPC-H specification.
pub const DATE_LO: i32 = 8035;
/// Span of order dates in days.
pub const DATE_SPAN: u64 = 2375;

/// The deterministic TPC-H-like generator.
#[derive(Debug, Clone)]
pub struct TpchGenerator {
    /// Scale factor (1.0 ≈ the paper's SF 1).
    pub sf: f64,
    /// Seed for all value functions.
    pub seed: u64,
}

impl TpchGenerator {
    /// Generator at a scale factor.
    pub fn new(sf: f64, seed: u64) -> Self {
        TpchGenerator { sf, seed }
    }

    fn h(&self, table: u64, row: u64, col: u64) -> u64 {
        splitmix64(
            self.seed
                ^ table.wrapping_mul(0xA57B_33C9_D4E2_11F7)
                ^ row.wrapping_mul(0x9E37_79B9)
                ^ (col << 48),
        )
    }

    fn scaled(&self, base: u64, floor: u64) -> usize {
        ((base as f64 * self.sf).round() as u64).max(floor) as usize
    }

    /// Rows in `supplier`.
    pub fn suppliers(&self) -> usize {
        self.scaled(10_000, 10)
    }

    /// Rows in `customer`.
    pub fn customers(&self) -> usize {
        self.scaled(150_000, 30)
    }

    /// Rows in `part`.
    pub fn parts(&self) -> usize {
        self.scaled(200_000, 25)
    }

    /// Rows in `partsupp` (4 suppliers per part).
    pub fn partsupps(&self) -> usize {
        self.parts() * 4
    }

    /// Rows in `orders`.
    pub fn orders(&self) -> usize {
        self.scaled(1_500_000, 100)
    }

    /// Lines of order `o` (1..=7, deterministic; averages ~4 like dbgen).
    pub fn lines_of_order(&self, o: u64) -> usize {
        (self.h(7, o, 99) % 7 + 1) as usize
    }

    /// Total `lineitem` rows.
    pub fn lineitems(&self) -> usize {
        (0..self.orders() as u64)
            .map(|o| self.lines_of_order(o))
            .sum()
    }

    fn comment(&self, table: u64, row: u64) -> Value {
        let h = self.h(table, row, 1000);
        let noun = NOUNS[(h % NOUNS.len() as u64) as usize];
        let verb = VERBS[((h >> 8) % VERBS.len() as u64) as usize];
        let adv = ((h >> 16) % 4) as usize;
        let advs = ["carefully", "quickly", "furiously", "blithely"];
        Value::text(format!("{} {} {}", advs[adv], noun, verb))
    }

    // --- per-table row functions -------------------------------------------

    /// Row `i` of `region`.
    pub fn region_row(&self, i: u64) -> Vec<Value> {
        vec![
            Value::BigInt(i as i64),
            Value::text(REGIONS[i as usize % 5]),
            self.comment(0, i),
        ]
    }

    /// Row `i` of `nation`.
    pub fn nation_row(&self, i: u64) -> Vec<Value> {
        vec![
            Value::BigInt(i as i64),
            Value::text(NATIONS[i as usize % 25]),
            Value::BigInt((i % 5) as i64),
            self.comment(1, i),
        ]
    }

    /// Row `i` of `supplier`.
    pub fn supplier_row(&self, i: u64) -> Vec<Value> {
        let h = self.h(2, i, 0);
        vec![
            Value::BigInt(i as i64),
            Value::text(format!("Supplier#{i:09}")),
            Value::text(format!("addr {}", h % 100_000)),
            Value::BigInt((h % 25) as i64),
            Value::text(format!("{}-{}", 10 + h % 25, h % 10_000_000)),
            Value::Decimal((h % 1_100_000) as i64 - 99_999), // -999.99 .. 10_000.00
            self.comment(2, i),
        ]
    }

    /// Row `i` of `customer`.
    pub fn customer_row(&self, i: u64) -> Vec<Value> {
        let h = self.h(3, i, 0);
        vec![
            Value::BigInt(i as i64),
            Value::text(format!("Customer#{i:09}")),
            Value::text(format!("addr {}", h % 1_000_000)),
            Value::BigInt((h % 25) as i64),
            Value::text(format!("{}-{}", 10 + h % 25, h % 10_000_000)),
            Value::Decimal((h % 1_100_000) as i64 - 99_999),
            Value::text(SEGMENTS[(h % 5) as usize]),
            self.comment(3, i),
        ]
    }

    /// Row `i` of `part`.
    pub fn part_row(&self, i: u64) -> Vec<Value> {
        let h = self.h(4, i, 0);
        let mfgr = 1 + h % 5;
        let brand = 1 + (h >> 4) % 5;
        vec![
            Value::BigInt(i as i64),
            Value::text(format!(
                "{} {}",
                NOUNS[(h % NOUNS.len() as u64) as usize],
                TYPE_MAT[((h >> 8) % 5) as usize].to_lowercase()
            )),
            Value::text(format!("Manufacturer#{mfgr}")),
            Value::text(format!("Brand#{mfgr}{brand}")),
            Value::text(format!(
                "{} {}",
                TYPE_ADJ[((h >> 12) % 6) as usize],
                TYPE_MAT[((h >> 16) % 5) as usize]
            )),
            Value::Int((1 + h % 50) as i32),
            Value::text(CONTAINERS[((h >> 20) % 8) as usize]),
            Value::Decimal((90_000 + (i % 200_000) * 10 + h % 1000) as i64 / 10), // ~900..2100
            self.comment(4, i),
        ]
    }

    /// Row `i` of `partsupp` (part `i / 4`, supplier slot `i % 4`).
    pub fn partsupp_row(&self, i: u64) -> Vec<Value> {
        let part = i / 4;
        let slot = i % 4;
        let h = self.h(5, i, 0);
        let suppliers = self.suppliers() as u64;
        // dbgen's supplier spread: deterministic, covers all suppliers.
        let supp = (part + slot * (suppliers / 4 + 1)) % suppliers;
        vec![
            Value::BigInt(part as i64),
            Value::BigInt(supp as i64),
            Value::Int((1 + h % 9999) as i32),
            Value::Decimal((100 + h % 100_000) as i64),
            self.comment(5, i),
        ]
    }

    /// Row `i` of `orders`.
    pub fn orders_row(&self, i: u64) -> Vec<Value> {
        let h = self.h(6, i, 0);
        let status = [b'F', b'O', b'P'][(h % 3) as usize] as char;
        vec![
            Value::BigInt(i as i64),
            Value::BigInt((h % self.customers() as u64) as i64),
            Value::text(status.to_string()),
            Value::Decimal((85_000 + h % 45_000_000) as i64),
            Value::Date(DATE_LO + (h % DATE_SPAN) as i32),
            Value::text(PRIORITIES[((h >> 8) % 5) as usize]),
            Value::text(format!("Clerk#{:09}", h % 1000)),
            Value::Int(0),
            self.comment(6, i),
        ]
    }

    /// Line `line` (0-based) of order `order`.
    pub fn lineitem_row(&self, order: u64, line: u64) -> Vec<Value> {
        let h = self.h(7, order * 8 + line, 0);
        let orderdate = DATE_LO + (self.h(6, order, 0) % DATE_SPAN) as i32;
        let ship = orderdate + (1 + h % 121) as i32;
        let quantity = (1 + h % 50) as i64;
        let price_per = 90_000 + (h % 120_000) as i64; // cents
        vec![
            Value::BigInt(order as i64),
            Value::Int(line as i32 + 1),
            Value::BigInt(((h >> 3) % self.parts() as u64) as i64),
            Value::BigInt(((h >> 7) % self.suppliers() as u64) as i64),
            Value::Decimal(quantity * 100),
            Value::Decimal(quantity * price_per / 100),
            Value::Decimal((h % 11) as i64), // 0.00 .. 0.10
            Value::Decimal((h % 9) as i64),  // 0.00 .. 0.08
            Value::text(["R", "A", "N"][((h >> 11) % 3) as usize]),
            Value::text(if (h >> 13).is_multiple_of(2) {
                "O"
            } else {
                "F"
            }),
            Value::Date(ship),
            Value::Date(ship + (h % 30) as i32),
            Value::Date(ship + (1 + h % 30) as i32),
            Value::text(INSTRUCTS[((h >> 17) % 4) as usize]),
            Value::text(SHIPMODES[((h >> 21) % 7) as usize]),
            self.comment(7, order * 8 + line),
        ]
    }

    /// Iterator over all lineitem rows.
    pub fn lineitem_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.orders() as u64).flat_map(move |o| {
            (0..self.lines_of_order(o) as u64).map(move |l| self.lineitem_row(o, l))
        })
    }

    /// Every row of the table named `table` (`region` … `lineitem`), in
    /// key order; no rows for any other name.
    pub fn table_rows(&self, table: &str) -> Box<dyn Iterator<Item = Vec<Value>> + '_> {
        let n = |count: usize| 0..count as u64;
        match table {
            "region" => Box::new(n(5).map(|i| self.region_row(i))),
            "nation" => Box::new(n(25).map(|i| self.nation_row(i))),
            "supplier" => Box::new(n(self.suppliers()).map(|i| self.supplier_row(i))),
            "customer" => Box::new(n(self.customers()).map(|i| self.customer_row(i))),
            "part" => Box::new(n(self.parts()).map(|i| self.part_row(i))),
            "partsupp" => Box::new(n(self.partsupps()).map(|i| self.partsupp_row(i))),
            "orders" => Box::new(n(self.orders()).map(|i| self.orders_row(i))),
            "lineitem" => Box::new(self.lineitem_rows()),
            _ => Box::new(std::iter::empty()),
        }
    }

    /// Create all tables in `db` (using `placement_of`) and load the data.
    pub fn load_into(
        &self,
        db: &HybridDatabase,
        placement_of: impl Fn(&str) -> TablePlacement,
    ) -> Result<()> {
        for schema in schema::all()? {
            let name = schema.name.clone();
            db.create_table(schema, placement_of(&name))?;
        }
        for schema in schema::all()? {
            db.bulk_load(&schema.name, self.table_rows(&schema.name))?;
        }
        Ok(())
    }

    /// Load with every table in one store (the RS-only / CS-only baselines).
    pub fn load_uniform(&self, db: &HybridDatabase, store: StoreKind) -> Result<()> {
        self.load_into(db, |_| TablePlacement::Single(store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> TpchGenerator {
        TpchGenerator::new(0.001, 42)
    }

    #[test]
    fn cardinality_ratios() {
        let g = TpchGenerator::new(0.01, 1);
        assert_eq!(g.suppliers(), 100);
        assert_eq!(g.customers(), 1_500);
        assert_eq!(g.parts(), 2_000);
        assert_eq!(g.partsupps(), 8_000);
        assert_eq!(g.orders(), 15_000);
        let li = g.lineitems();
        // ~4 lines per order
        assert!(li > 3 * g.orders() && li < 5 * g.orders(), "lineitems {li}");
    }

    #[test]
    fn floors_apply_at_tiny_scale() {
        let g = TpchGenerator::new(0.00001, 1);
        assert!(g.suppliers() >= 10);
        assert!(g.customers() >= 30);
        assert!(g.orders() >= 100);
    }

    #[test]
    fn rows_match_schemas() {
        let g = g();
        let schemas = schema::all().unwrap();
        let checks: Vec<(usize, Vec<Value>)> = vec![
            (0, g.region_row(2)),
            (1, g.nation_row(7)),
            (2, g.supplier_row(3)),
            (3, g.customer_row(9)),
            (4, g.part_row(11)),
            (5, g.partsupp_row(13)),
            (6, g.orders_row(17)),
            (7, g.lineitem_row(17, 2)),
        ];
        for (idx, row) in checks {
            schemas[idx].validate_row(&row).unwrap_or_else(|e| {
                panic!("row for {} invalid: {e}", schemas[idx].name);
            });
        }
    }

    #[test]
    fn determinism() {
        let g1 = g();
        let g2 = g();
        assert_eq!(g1.orders_row(5), g2.orders_row(5));
        assert_ne!(
            TpchGenerator::new(0.001, 1).orders_row(5),
            TpchGenerator::new(0.001, 2).orders_row(5)
        );
    }

    #[test]
    fn foreign_keys_in_range() {
        let g = g();
        for i in 0..50u64 {
            let o = g.orders_row(i);
            let cust = o[1].as_i64().unwrap();
            assert!((cust as usize) < g.customers());
            let l = g.lineitem_row(i, 0);
            assert!((l[2].as_i64().unwrap() as usize) < g.parts());
            assert!((l[3].as_i64().unwrap() as usize) < g.suppliers());
        }
        for i in 0..g.partsupps() as u64 {
            let ps = g.partsupp_row(i);
            assert!((ps[1].as_i64().unwrap() as usize) < g.suppliers());
        }
    }

    #[test]
    fn load_into_database() {
        let g = g();
        let db = HybridDatabase::new();
        g.load_uniform(&db, StoreKind::Column).unwrap();
        assert_eq!(db.row_count("region").unwrap(), 5);
        assert_eq!(db.row_count("nation").unwrap(), 25);
        assert_eq!(db.row_count("orders").unwrap(), g.orders());
        assert_eq!(db.row_count("lineitem").unwrap(), g.lineitems());
        // dates are plausible
        let catalog = db.catalog();
        let stats = &catalog.entry_by_name("orders").unwrap().stats;
        match (&stats.columns[4].min, &stats.columns[4].max) {
            (Some(Value::Date(lo)), Some(Value::Date(hi))) => {
                assert!(*lo >= DATE_LO && *hi <= DATE_LO + DATE_SPAN as i32);
            }
            other => panic!("unexpected date stats {other:?}"),
        }
    }
}
