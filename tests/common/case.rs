//! One generator over schema × data × statements × layout × tier × merge
//! state × crash point × threads × catalog state ([`generate`]), and the
//! runner ([`run`]) that drives the engine through a [`Case`] and checks
//! every answer, every crash-cut recovery and every end state against the
//! [`Model`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hybrid_store_advisor::advisor::AdjustmentFn;
use hybrid_store_advisor::engine::WalRecord;
use hybrid_store_advisor::storage::wal::Frame;
use hybrid_store_advisor::storage::wal::HEADER_LEN;
use hybrid_store_advisor::storage::{scan_frames, MemBackend, RetryPolicy};
use proptest::TestRng as Rng;

use super::*;

/// Draws from the proptest stand-in's seeded generator.
trait Draw {
    fn below(&mut self, n: usize) -> usize;
    fn chance(&mut self, percent: u64) -> bool;
}

impl Draw for Rng {
    fn below(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.range_u64(0, 100) < percent
    }
}

/// How merges run while the statements execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeState {
    /// After every write (`MergeConfig::always`).
    Merged,
    /// Never: dictionary tails accumulate.
    Tailed,
    /// One 7-row incremental slice per table after each statement, so
    /// reads run against half-remapped shadow rebuilds and writes land
    /// behind the copy cursor; the merges complete at the end.
    InFlight,
    /// An eager online advisor schedules merges; a maintenance worker runs
    /// them in paced slices.
    Scheduled,
}

/// What backs the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    Volatile,
    /// An in-memory WAL: a reopen recovers from the log; at the end the
    /// log is cut at every statement boundary and just inside the frame
    /// after it, and each cut recovers.
    Wal,
    /// A data directory: checkpoints and reopens happen mid-stream.
    Dir,
}

#[derive(Debug, Clone)]
pub struct TableCase {
    pub schema: TableSchema,
    pub rows: Vec<Vec<Value>>,
    pub placement: TablePlacement,
    /// Indexes created before the load.
    pub indexed: Vec<usize>,
    /// Created under its placement (bulk build) instead of loaded into a
    /// row store and moved.
    pub created_placed: bool,
}

#[derive(Debug, Clone)]
pub enum Step {
    Run(Query),
    /// A move of `table` to `to`; a `refused` one must fail and leave the
    /// table as it was.
    Move {
        table: String,
        to: TablePlacement,
        refused: bool,
    },
    Demote(String),
    Promote(String),
    Merge(String),
    Index(String, usize),
    Checkpoint,
    Reopen,
}

#[derive(Debug, Clone)]
pub struct Case {
    pub seed: u64,
    pub tables: Vec<TableCase>,
    pub steps: Vec<Step>,
    pub merge: MergeState,
    pub durability: Durability,
    /// 2: a background worker thread merges while statements run.
    pub threads: usize,
}

/// The fact table `t` (key, foreign key into `d`, payload) and the
/// dimension `d` (key, payload).
pub fn generate(seed: u64) -> Case {
    let r = &mut Rng::for_case(seed, 0);
    let dim = table(r, "d", ColumnType::Integer, vec![], 0);
    let fk = ColumnDef::nullable("fk", ColumnType::Integer);
    // Loaded foreign keys reach the dimension's loaded keys (and a few
    // dangling ones); inserted ones its inserted keys too.
    let fk_loaded = 2 * dim.rows.len() as i64 + 4;
    let fact = table(r, "t", ColumnType::BigInt, vec![fk], fk_loaded);
    let durability = [Durability::Volatile, Durability::Wal, Durability::Dir][r.below(3)];
    let tables = vec![fact, dim];
    let mut next_id = 0;
    let steps = (0..6 + r.below(30))
        .map(|_| {
            let t = &tables[usize::from(r.chance(25))];
            let name = t.schema.name.clone();
            match r.below(40) {
                0 => Step::Move {
                    table: name,
                    to: placement(r, t, None),
                    refused: false,
                },
                // A hot/cold split whose cold side is split vertically
                // cannot be disk-resident.
                7 => Step::Move {
                    table: name,
                    to: match placement(r, t, Some(5)) {
                        TablePlacement::Partitioned(spec) => {
                            TablePlacement::Partitioned(PartitionSpec {
                                cold_tier: Tier::Disk,
                                ..spec
                            })
                        }
                        single => unreachable!("shape 5 is partitioned: {single:?}"),
                    },
                    refused: true,
                },
                1 => Step::Demote(name),
                2 => Step::Promote(name),
                3 => Step::Merge(name),
                4 => Step::Index(name, 1 + r.below(t.schema.arity() - 1)),
                5 => Step::Checkpoint,
                6 => Step::Reopen,
                _ => Step::Run(statement(r, t, &mut next_id, fk_loaded + 32)),
            }
        })
        .collect();
    Case {
        seed,
        tables,
        steps,
        merge: [
            MergeState::Merged,
            MergeState::Tailed,
            MergeState::InFlight,
            MergeState::Scheduled,
        ][r.below(4)],
        durability,
        threads: 1 + usize::from(r.chance(25)),
    }
}

const TYPES: [ColumnType; 7] = [
    ColumnType::Integer,
    ColumnType::BigInt,
    ColumnType::Double,
    ColumnType::Decimal,
    ColumnType::Varchar,
    ColumnType::Date,
    ColumnType::Boolean,
];

/// A table with key column type `key_ty`, the `fixed` columns, one to three
/// random payload columns, and no, one or many rows (keys sparse and
/// shuffled; a foreign key `fk` drawn below `fk_range`).
fn table(
    r: &mut Rng,
    name: &str,
    key_ty: ColumnType,
    fixed: Vec<ColumnDef>,
    fk_range: i64,
) -> TableCase {
    let mut cols = vec![ColumnDef::new("id", key_ty)];
    cols.extend(fixed);
    for c in 0..1 + r.below(3) {
        let ty = TYPES[r.below(TYPES.len())];
        cols.push(match r.chance(50) {
            true => ColumnDef::nullable(format!("c{c}"), ty),
            false => ColumnDef::new(format!("c{c}"), ty),
        });
    }
    let schema = TableSchema::new(name, cols, vec![0]).unwrap();
    let arity = schema.arity();
    // Empty, one row, a few, or enough to cross a decode block.
    let n = match r.below(16) {
        0 | 1 => 0,
        2 | 3 => 1,
        4 => 1_000 + r.below(300),
        _ => 2 + r.below(100),
    };
    let mut ids: Vec<i64> = (0..2 * n as i64 + 2).filter(|_| r.chance(50)).collect();
    ids.truncate(n);
    for i in (1..ids.len()).rev() {
        ids.swap(i, r.below(i + 1));
    }
    let rows: Vec<Vec<Value>> = ids
        .iter()
        .map(|&id| row(r, &schema, id, fk_range))
        .collect();
    let mut t = TableCase {
        schema,
        rows,
        placement: TablePlacement::Single(StoreKind::Row),
        indexed: (1..arity).filter(|_| r.chance(20)).collect(),
        created_placed: r.chance(30),
    };
    t.placement = placement(r, &t, None);
    t
}

fn key_value(schema: &TableSchema, k: i64) -> Value {
    match schema.columns[0].ty {
        ColumnType::Integer => Value::Int(k as i32),
        _ => Value::BigInt(k),
    }
}

/// A value of `col`, NULL now and then where allowed: mostly from a small
/// domain (groups collide, dictionaries stay small against a scan), now
/// and then a fresh one that grows a dictionary tail. Doubles are exact
/// quarters, so sums agree in any order.
fn value(r: &mut Rng, col: &ColumnDef, fk_range: i64) -> Value {
    if col.nullable && r.chance(25) {
        return Value::Null;
    }
    let k = match r.chance(20) {
        true => 6 + r.below(1_000),
        false => r.below(6),
    } as i64;
    match col.ty {
        ColumnType::Integer if col.name == "fk" => Value::Int(r.below(fk_range as usize) as i32),
        ColumnType::Integer => Value::Int(k as i32),
        ColumnType::BigInt => Value::BigInt(k * 1_000_003 - 2),
        ColumnType::Double => Value::Double(k as f64 * 0.25 - 1.0),
        ColumnType::Decimal => Value::Decimal(k * 25 - 50),
        ColumnType::Varchar => match ["", "a", "b", "cc", "ddd", "e"].get(k as usize) {
            Some(s) => Value::text(s),
            None => Value::text(format!("v{k}")),
        },
        ColumnType::Date => Value::Date(19_000 + k as i32),
        ColumnType::Boolean => Value::Bool(k % 2 == 0),
    }
}

fn row(r: &mut Rng, schema: &TableSchema, id: i64, fk_range: i64) -> Vec<Value> {
    let mut row = vec![key_value(schema, id)];
    row.extend(schema.columns[1..].iter().map(|c| value(r, c, fk_range)));
    row
}

/// The key range statements aim at: the loaded keys, a margin below and
/// the fresh keys inserts take above.
fn key(r: &mut Rng, t: &TableCase) -> Value {
    key_value(&t.schema, r.below(2 * t.rows.len() + 24) as i64 - 2)
}

/// Every placement shape, the horizontal split at the given key.
pub fn shapes(split: Value, row_cols: Vec<usize>) -> Vec<TablePlacement> {
    let spec = |h: bool, v: bool, cold_tier| {
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: h.then(|| HorizontalSpec {
                split_column: 0,
                split_value: split.clone(),
            }),
            vertical: v.then(|| VerticalSpec {
                row_cols: row_cols.clone(),
            }),
            cold_tier,
        })
    };
    vec![
        TablePlacement::Single(StoreKind::Row),
        TablePlacement::Single(StoreKind::Column),
        spec(true, false, Tier::Memory),
        spec(true, false, Tier::Disk),
        spec(false, true, Tier::Memory),
        spec(true, true, Tier::Memory),
    ]
}

/// A placement of `t` of the given shape (index into [`shapes`]) or a
/// random one; splits at the smallest and largest key included.
fn placement(r: &mut Rng, t: &TableCase, shape: Option<usize>) -> TablePlacement {
    let ids: Vec<i64> = t.rows.iter().filter_map(|r| r[0].as_i64()).collect();
    let (lo, hi) = (ids.iter().min().copied(), ids.iter().max().copied());
    let split = match r.below(6) {
        0 => lo.unwrap_or(0),
        1 => hi.unwrap_or(0),
        2 => hi.map_or(1, |h| h + 1),
        _ => (lo.unwrap_or(0) + hi.unwrap_or(0)) / 2,
    };
    let arity = t.schema.arity();
    let row_cols: Vec<usize> = (1..arity).filter(|_| r.chance(50)).collect();
    let row_cols = match row_cols.is_empty() {
        true => vec![1 + r.below(arity - 1)],
        false => row_cols,
    };
    let mut shapes = shapes(key_value(&t.schema, split), row_cols);
    let shape = shape.unwrap_or_else(|| r.below(shapes.len()));
    shapes.swap_remove(shape)
}

fn filter(r: &mut Rng, t: &TableCase, fk: i64) -> Vec<ColRange> {
    use std::ops::Bound::{Excluded, Included, Unbounded};
    let arity = t.schema.arity();
    let bound = |r: &mut Rng, c: usize| {
        let v = match c {
            0 => key(r, t),
            _ => value(r, &t.schema.columns[c], fk),
        };
        [Included(v.clone()), Excluded(v), Unbounded][r.below(3)].clone()
    };
    let range = |r: &mut Rng, c: usize| match r.below(3) {
        0 => {
            let v = bound(r, c);
            match v {
                Included(v) | Excluded(v) => ColRange::eq(c, v),
                Unbounded => ColRange::eq(c, Value::Null),
            }
        }
        _ => ColRange::range(c, bound(r, c), bound(r, c)),
    };
    let payload = 1 + r.below(arity - 1);
    match r.below(7) {
        0 | 6 => vec![],
        1 | 2 => vec![ColRange::eq(0, key(r, t))],
        3 => vec![range(r, 0)],
        4 => vec![range(r, payload)],
        _ => vec![range(r, 0), range(r, payload)],
    }
}

/// One statement on `t`: inserts (fresh, duplicate and invalid rows, the
/// failing row mid-statement), updates (point, range, invalid), selects
/// (projected or not) and aggregates (grouped, filtered, joined).
fn statement(r: &mut Rng, t: &TableCase, next_id: &mut i64, fk: i64) -> Query {
    let name = t.schema.name.clone();
    let arity = t.schema.arity();
    let col = |r: &mut Rng| r.below(arity);
    let first_payload = arity
        - t.schema
            .columns
            .iter()
            .filter(|c| c.name.starts_with('c'))
            .count();
    match r.below(10) {
        0..=1 => Query::Insert(InsertQuery {
            table: name,
            rows: (0..1 + r.below(3))
                .map(|_| {
                    *next_id += 1;
                    let id = match r.chance(15) {
                        true => key(r, t).as_i64().unwrap(),
                        false => 2 * t.rows.len() as i64 + 2 + *next_id,
                    };
                    let mut row = row(r, &t.schema, id, fk);
                    if r.chance(8) {
                        let c = 1 + r.below(arity - 1);
                        row[c] = wrong(&t.schema.columns[c]);
                    }
                    if r.chance(3) {
                        row.pop();
                    }
                    row
                })
                .collect(),
        }),
        2..=4 => {
            // Mostly the last column, so writes land in a column whose
            // merge is in flight, or the second (the fact's foreign key).
            let sets = (0..1 + r.below(2))
                .map(|_| {
                    let c = match r.below(20) {
                        0 => 0,
                        1..=7 => arity - 1,
                        8..=11 => 1,
                        _ => 1 + r.below(arity - 1),
                    };
                    let v = match r.chance(5) {
                        true => wrong(&t.schema.columns[c]),
                        false => value(r, &t.schema.columns[c], fk),
                    };
                    (c, v)
                })
                .collect();
            Query::Update(UpdateQuery {
                table: name,
                sets,
                filter: filter(r, t, fk),
            })
        }
        5..=6 => Query::Select(SelectQuery {
            table: name,
            columns: r
                .chance(50)
                .then(|| (0..1 + r.below(3)).map(|_| col(r)).collect()),
            filter: filter(r, t, fk),
        }),
        _ => {
            let join = (name == "t" && r.chance(60)).then(|| JoinSpec {
                dim_table: "d".into(),
                fact_fk: 1,
                dim_pk: 0,
                group_by_dim: r.chance(60).then(|| r.below(2)),
            });
            Query::Aggregate(AggregateQuery {
                table: name,
                aggregates: (0..1 + r.below(3))
                    .map(|_| Aggregate {
                        func: AggFunc::ALL[r.below(5)],
                        column: match r.chance(70) {
                            true => first_payload + r.below(arity - first_payload),
                            false => col(r),
                        },
                    })
                    .collect(),
                group_by: (join.is_none() && r.chance(50)).then(|| col(r)),
                filter: match r.chance(40) {
                    true => vec![],
                    false => filter(r, t, fk),
                },
                join,
            })
        }
    }
}

/// A value `col` refuses: NULL where it is not nullable, else one of
/// another type.
fn wrong(col: &ColumnDef) -> Value {
    match (col.nullable, col.ty) {
        (false, _) => Value::Null,
        (true, ColumnType::Varchar) => Value::Int(1),
        (true, _) => Value::text("x"),
    }
}

/// `case` with table `table` (0: `t`, 1: `d`) loaded under shape `shape`.
pub fn reshape(mut case: Case, table: usize, shape: usize) -> Case {
    let r = &mut Rng::for_case(case.seed, 1);
    case.tables[table].placement = placement(r, &case.tables[table], Some(shape));
    case
}

/// `case` followed by a row inserted into `d` and a fact row referencing
/// it, then a join of `t` with `d` grouped by a dimension column and an
/// ungrouped one: every such case joins two non-empty tables at least once.
pub fn with_joins(mut case: Case) -> Case {
    let r = &mut Rng::for_case(case.seed, 2);
    // Above every key the generator draws.
    const KEY: i64 = 1_000_000;
    let (t, d) = (&case.tables[0].schema, &case.tables[1].schema);
    let mut fact = row(r, t, KEY, 1);
    fact[1] = Value::Int(KEY as i32);
    let insert = |table: &str, row| {
        Step::Run(Query::Insert(InsertQuery {
            table: table.into(),
            rows: vec![row],
        }))
    };
    let last = t.arity() - 1;
    let join = |group_by_dim| {
        Step::Run(Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: AggFunc::ALL
                .iter()
                .map(|&func| Aggregate { func, column: last })
                .collect(),
            group_by: None,
            filter: vec![],
            join: Some(JoinSpec {
                dim_table: "d".into(),
                fact_fk: 1,
                dim_pk: 0,
                group_by_dim,
            }),
        }))
    };
    let steps = [
        insert("d", row(r, d, KEY, 1)),
        insert("t", fact),
        join(Some(1)),
        join(None),
    ];
    case.steps.extend(steps);
    case
}

impl TableCase {
    /// `rows` loaded into a row store and moved to `placement`.
    pub fn new(schema: TableSchema, rows: Vec<Vec<Value>>, placement: TablePlacement) -> Self {
        TableCase {
            schema,
            rows,
            placement,
            indexed: vec![],
            created_placed: false,
        }
    }
}

/// A fixed stream of `queries` over `tables`: no merges, no log, one
/// thread.
pub fn fixed(tables: Vec<TableCase>, queries: &[Query]) -> Case {
    Case {
        seed: 0,
        tables,
        steps: queries.iter().cloned().map(Step::Run).collect(),
        merge: MergeState::Tailed,
        durability: Durability::Volatile,
        threads: 1,
    }
}

/// What a run did besides answering.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Merge jobs the maintenance worker completed.
    pub merges: u64,
    /// Crash cuts recovered.
    pub recoveries: usize,
    /// Of those, cuts at a boundary where a merge was in flight.
    pub cuts_mid_merge: usize,
    /// Of those, cuts inside a demotion record.
    pub cuts_in_demote: usize,
    /// Statements run while a merge was in flight.
    pub stmts_mid_merge: usize,
    /// Reopens after a crash while a merge was in flight.
    pub crashes_mid_merge: usize,
    /// Joins run while both of their tables held rows.
    pub joins: usize,
}

/// The maintenance worker: paced slices between statements, or (two
/// threads) its own thread.
enum Worker {
    Inline(Box<MaintenanceWorker>),
    Thread(BackgroundWorker),
}

impl Worker {
    fn start(case: &Case, db: &SharedDatabase) -> Self {
        let cfg = WorkerConfig {
            pacer: PacerConfig {
                initial_budget: 7,
                min_budget: 4,
                max_budget: 16,
                ..Default::default()
            },
            ..WorkerConfig::default()
        };
        match case.threads {
            2 => Worker::Thread(BackgroundWorker::spawn(
                db.clone(),
                cfg,
                std::time::Duration::from_micros(50),
            )),
            _ => Worker::Inline(Box::new(MaintenanceWorker::new(cfg))),
        }
    }

    fn apply(&mut self, db: &HybridDatabase, action: &MaintenanceAction) {
        match (action, self) {
            (MaintenanceAction::Merge { table, .. }, Worker::Inline(w)) => {
                w.enqueue(table, MergePartition::Whole);
            }
            (MaintenanceAction::Merge { table, .. }, Worker::Thread(w)) => {
                w.enqueue(table, MergePartition::Whole)
            }
            (_, Worker::Inline(w)) => drop(w.retract(db, action.table()).unwrap()),
            (_, Worker::Thread(w)) => w.retract(action.table()),
        }
    }

    /// Stop, draining the queue first or (a crash) dropping it; returns
    /// the merge jobs completed.
    fn finish(self, db: &HybridDatabase, drain: bool) -> u64 {
        match self {
            Worker::Inline(mut w) => {
                if drain {
                    w.drain(db).unwrap();
                }
                w.stats().jobs_completed
            }
            Worker::Thread(w) => w.stop(drain).jobs_completed,
        }
    }
}

/// An online advisor tuned to merge eagerly (tiny modeled merge cost,
/// punitive tail term), so scheduled merges fire inside short streams.
fn eager_advisor() -> OnlineAdvisor {
    let mut m = CostModel::neutral();
    m.column.f_rows = AdjustmentFn::Constant(1.0);
    m.column.f_tail = AdjustmentFn::Linear {
        slope: 50.0,
        intercept: 1.0,
    };
    m.column.merge_ms = AdjustmentFn::Constant(0.001);
    OnlineAdvisor::new(
        StorageAdvisor::new(m),
        OnlineConfig {
            evaluation_interval: usize::MAX,
            maintenance_interval: 3,
            merge_min_tail: 2,
            merge_safety_factor: 0.5,
            ..Default::default()
        },
    )
}

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// Drive the engine through `case`, comparing every statement's answer
/// with the model, and at the end every table's state — and, on a WAL,
/// the state every crash cut recovers.
pub fn run(case: &Case) -> Outcome {
    let ctx = |what: &dyn std::fmt::Debug| format!("seed {}: {what:?}", case.seed);
    let dir = std::env::temp_dir().join(format!(
        "hsd_oracle_{}_{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let image = MemBackend::new();
    // A reopen recovers from the directory, or from the log image and
    // goes on appending to it.
    let open = || -> HybridDatabase {
        let db = match case.durability {
            Durability::Dir => {
                let cfg = DurabilityConfig {
                    sync: SyncPolicy::Always,
                    retry: RetryPolicy::default(),
                };
                HybridDatabase::open_dir(&dir, cfg).unwrap().0
            }
            Durability::Wal => {
                let (db, report) = HybridDatabase::recover_bytes(&image.snapshot());
                assert!(report.is_clean(), "{report:?}");
                db.attach_wal(WalWriter::new(Box::new(image.share()), SyncPolicy::Always));
                db
            }
            Durability::Volatile => HybridDatabase::new(),
        };
        db.set_merge_config(match case.merge {
            MergeState::Merged => MergeConfig::always(),
            _ => MergeConfig::disabled(),
        });
        db
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut db: SharedDatabase = Arc::new(open());
    let mut model = Model::default();
    for t in &case.tables {
        let name = t.schema.name.as_str();
        let first = match t.created_placed {
            true => t.placement.clone(),
            false => TablePlacement::Single(StoreKind::Row),
        };
        db.create_table(t.schema.clone(), first).unwrap();
        for &c in &t.indexed {
            db.create_index(name, c).unwrap();
        }
        db.bulk_load(name, t.rows.clone()).unwrap();
        if !t.created_placed {
            mover::move_table(&db, name, &t.placement).unwrap();
        }
        model.create(t.schema.clone(), t.rows.clone());
        let indexed = &mut model.tables.get_mut(name).unwrap().indexed;
        indexed.extend(&t.indexed);
    }
    let in_flight = |db: &HybridDatabase, model: &Model| {
        let mut tables = model.tables.keys();
        tables.any(|t| db.merge_status(t).unwrap().1)
    };
    let mut boundaries = vec![(
        image.snapshot().len(),
        model.clone(),
        db.current_layout(),
        false,
    )];
    let mut advisor = (case.merge == MergeState::Scheduled).then(eager_advisor);
    let mut worker = Worker::start(case, &db);
    let mut outcome = Outcome::default();
    for (i, step) in case.steps.iter().enumerate() {
        let ctx = ctx(&(i, step));
        match step {
            Step::Run(q) => {
                outcome.stmts_mid_merge += usize::from(in_flight(&db, &model));
                if let Query::Aggregate(AggregateQuery {
                    join: Some(j),
                    table,
                    ..
                }) = q
                {
                    let holds_rows = |t: &str| !model.tables[t].rows.is_empty();
                    outcome.joins += usize::from(holds_rows(table) && holds_rows(&j.dim_table));
                }
                let got = db.execute(q);
                assert_outputs_close(&got, &model.execute(q), &ctx);
                if case.merge == MergeState::InFlight {
                    for t in model.tables.keys() {
                        mover::merge_slice(&db, t, MergePartition::Whole, 7).unwrap();
                    }
                }
                // A second thread merges behind every write.
                if matches!(q, Query::Insert(_) | Query::Update(_)) && case.threads == 2 {
                    let table = q.table().to_string();
                    let partition = MergePartition::Whole;
                    worker.apply(&db, &MaintenanceAction::Merge { table, partition });
                }
                if let Some(adv) = advisor.as_mut() {
                    adv.observe(&db, q).unwrap();
                    for action in adv.take_maintenance() {
                        worker.apply(&db, &action);
                    }
                }
                if let Worker::Inline(w) = &mut worker {
                    w.tick(&db).unwrap();
                }
            }
            // Layout and maintenance steps change no answer; the ones the
            // engine refuses must leave every placement as it was.
            Step::Move { table, to, refused } => {
                let before = db.current_layout();
                match (mover::move_table(&db, table, to), refused) {
                    (Ok(()), false) => {}
                    (Err(_), true) => assert_eq!(db.current_layout(), before, "{ctx}"),
                    (moved, _) => panic!("{ctx}: {moved:?}"),
                }
            }
            // Only a cold partition not split vertically can be demoted.
            Step::Demote(t) => {
                let before = db.current_layout();
                let demotable = matches!(
                    before.placement(t),
                    TablePlacement::Partitioned(s) if s.vertical.is_none()
                );
                match (mover::demote_cold(&db, t), demotable) {
                    (Ok(_), true) => {}
                    (Err(_), false) => assert_eq!(db.current_layout(), before, "{ctx}"),
                    (demoted, _) => panic!("{ctx}: {demoted:?}"),
                }
            }
            Step::Promote(t) => mover::promote_cold(&db, t).unwrap(),
            Step::Merge(t) => {
                mover::merge_delta(&db, t, MergePartition::Whole).unwrap();
            }
            Step::Index(t, c) => {
                db.create_index(t, *c).unwrap();
                model.tables.get_mut(t).unwrap().indexed.insert(*c);
            }
            Step::Checkpoint if case.durability == Durability::Dir => {
                db.checkpoint().unwrap();
            }
            // Over a log a reopen is a crash: the worker's queue and every
            // merge in flight are lost. A data directory shuts down cleanly.
            Step::Reopen if case.durability != Durability::Volatile => {
                let crash = case.durability == Durability::Wal;
                let merging = in_flight(&db, &model);
                outcome.crashes_mid_merge += usize::from(crash && merging);
                outcome.merges += worker.finish(&db, !crash);
                drop(db);
                db = Arc::new(open());
                for t in model.tables.keys() {
                    assert_state(&db, &model, t, &ctx);
                }
                worker = Worker::start(case, &db);
            }
            Step::Checkpoint | Step::Reopen => {}
        }
        if case.durability == Durability::Wal {
            let layout = db.current_layout();
            boundaries.push((
                image.snapshot().len(),
                model.clone(),
                layout,
                in_flight(&db, &model),
            ));
        }
    }
    outcome.merges += worker.finish(&db, true);
    // Merges still in flight complete: their swaps must keep every write.
    if case.merge == MergeState::InFlight {
        for t in model.tables.keys() {
            while !mover::merge_slice(&db, t, MergePartition::Whole, 64)
                .unwrap()
                .done
            {}
        }
    }
    for t in model.tables.keys() {
        assert_state(&db, &model, t, &ctx(&"end state"));
    }
    drop(db);
    if case.durability == Durability::Wal {
        let bytes = image.snapshot();
        for (i, (boundary, model, layout, in_flight)) in boundaries.iter().enumerate() {
            let (cuts, in_demote) =
                check_crash_cuts(&bytes, *boundary, i, model, layout, &ctx(&"crash"));
            outcome.recoveries += cuts;
            outcome.cuts_mid_merge += if *in_flight { cuts } else { 0 };
            outcome.cuts_in_demote += in_demote;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Cut the log at statement boundary number `index` and inside the frame
/// that follows it (every byte of a demotion record; otherwise one byte in,
/// mid-header or one byte short of its end, in turn by `index`): each cut
/// recovers exactly the rows, indexes and placements at the boundary,
/// reports a torn tail exactly when it lands mid-frame, and never comes up
/// degraded or with a merge in flight. Returns the cuts checked and how
/// many of them fell inside a demotion record.
fn check_crash_cuts(
    bytes: &[u8],
    boundary: usize,
    index: usize,
    model: &Model,
    layout: &StorageLayout,
    ctx: &str,
) -> (usize, usize) {
    let frames = scan_frames(bytes).frames;
    let end = |f: &Frame| f.offset as usize + HEADER_LEN + f.payload.len();
    let next = frames.iter().find(|f| end(f) > boundary);
    let demote = next.is_some_and(|f| {
        matches!(
            WalRecord::from_payload(&f.payload),
            Ok(WalRecord::Demote { .. })
        )
    });
    // Every byte of a demotion record; a sample of any other.
    let cuts: Vec<usize> = match next {
        None => vec![],
        Some(f) if demote => (boundary + 1..end(f)).collect(),
        Some(f) => vec![boundary + [1, HEADER_LEN / 2, end(f) - boundary - 1][index % 3]],
    };
    let mut cuts: Vec<usize> = cuts
        .into_iter()
        .filter(|&c| next.is_some_and(|f| c > boundary && c < end(f)))
        .collect();
    let in_demote = if demote { cuts.len() } else { 0 };
    cuts.push(boundary);
    for &cut in &cuts {
        let (rec, report) = HybridDatabase::recover_bytes(&bytes[..cut]);
        let ctx = format!("{ctx}: cut at {cut} (boundary {boundary})");
        assert_eq!(report.recovered_len, boundary as u64, "{ctx}");
        assert_eq!(report.torn_tail.is_some(), cut != boundary, "{ctx}");
        assert!(report.degraded.is_empty(), "{ctx}: {:?}", report.degraded);
        assert_eq!(&rec.current_layout(), layout, "{ctx}: placements");
        for t in model.tables.keys() {
            assert!(!rec.merge_status(t).unwrap().1, "{ctx}: merge in flight");
            assert_state(&rec, model, t, &ctx);
        }
    }
    (cuts.len(), in_demote)
}
