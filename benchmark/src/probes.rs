//! The traced run's layer probes and comparison arms.
//!
//! A **probe** calls one layer's public API directly, on the workload's own
//! data after `drain`, and times it — the layers are measured from outside.
//! An **arm** builds the same data under the measured configuration or
//! another (tracing off, no WAL, one client, all-row, all-column), replays
//! the head of the same stream through the same `serve` code, and is
//! compared with another arm.

use std::path::Path;

use hsd_catalog::StorageLayout;
use hsd_core::estimator::estimate_workload_layout;
use hsd_core::{OnlineConfig, StorageAdvisor};
use hsd_engine::checkpoint::restore_checkpoint;
use hsd_engine::{HybridDatabase, WalRecord};
use hsd_query::{Query, Workload};
use hsd_storage::wal::{FileBackend, SyncPolicy, WalWriter};
use hsd_storage::{decode_segment, encode_segment, ColRange, SelVec, StoreKind, Table, BLOCK};
use hsd_tpch::scenario::tenant_table;
use hsd_tpch::schema::cols::lineitem as L;
use hsd_tpch::TpchGenerator;
use hsd_types::Value;

use crate::metrics::{latencies, quantile_or_zero, Values};
use crate::run::{
    build_under, cold_bytes, decide_ms, fresh_dir, generator, serve, Measured, Res, ServeCfg,
    Served,
};
use crate::stats::median;
use crate::trace::{coverage_share, Clock, SpanId, Tracer};
use crate::workloads::{Kind, Shape, Spec, Stmt};

/// Share of the served statements each comparison arm replays.
const ARM_SHARE: f64 = 0.2;
/// Rows of the probed lineitem copies.
const PROBE_ROWS: usize = 200_000;
/// Statements the estimator probe prices.
const ESTIMATE_STMTS: usize = 100_000;

const MIB: f64 = 1024.0 * 1024.0;

/// Best of `reps` timings of `f`, nanoseconds: the cost of the code, not of
/// whatever else ran meanwhile.
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `bitpack.*`, `column_store.*`, `row_store.*`: probe the storage kernels
/// on row-store and column-store copies of the workload's own lineitem
/// (end state of tenant 0), at the code widths that data has.
pub fn storage(m: &Measured, g: &TpchGenerator) -> Res<Values> {
    let db = &m.built.db;
    let name = tenant_table(0, "lineitem");
    let mut rows = db.with_table(&name, |d| d.snapshot_rows(db.segment_store()))??;
    rows.truncate(PROBE_ROWS);
    let n = rows.len() as f64;
    let schema = db.catalog().entry_by_name(&name)?.schema.clone();
    let column = Table::from_rows(schema.clone(), StoreKind::Column, rows.iter().cloned())?;
    let row = Table::from_rows(schema, StoreKind::Row, rows.iter().cloned())?;
    let Table::Column(ct) = &column else {
        unreachable!("StoreKind::Column builds a column table")
    };

    // bitpack: decode and SWAR-match the code vectors the scans read.
    let scanned = [L::QUANTITY, L::EXTENDEDPRICE, L::DISCOUNT, L::RETURNFLAG];
    let mut block = vec![0u32; BLOCK];
    let mut bitmap = vec![0u64; rows.len().div_ceil(64)];
    let (mut decode_ns, mut match_ns, mut values) = (0.0, 0.0, 0.0);
    for col in scanned {
        let Some(codes) = ct.column(col).packed_codes() else {
            continue;
        };
        values += codes.len() as f64;
        decode_ns += best_ns(5, || {
            for start in (0..codes.len()).step_by(BLOCK) {
                let len = BLOCK.min(codes.len() - start);
                codes.decode_into(start, &mut block[..len]);
                std::hint::black_box(&block);
            }
        });
        let hi = (ct.column(col).distinct_count() as u32 / 2).max(1);
        match_ns += best_ns(5, || {
            codes.match_interval_into(0, codes.len(), 0, hi, &mut bitmap);
            std::hint::black_box(&bitmap);
        });
    }
    let per_value = |ns: f64| if values > 0.0 { ns / values } else { 0.0 };

    // store scans, filters, point lookups.
    let scan = |t: &Table| {
        best_ns(5, || {
            let mut sum = 0.0;
            t.for_each_numeric_sel(L::EXTENDEDPRICE, None, |x| sum += x);
            std::hint::black_box(sum);
        }) / n
    };
    // A range predicate about half the rows pass: the quartiles of a sample.
    let mut sample: Vec<&Value> = rows.iter().take(101).map(|r| &r[L::QUANTITY]).collect();
    sample.sort();
    let filter = [ColRange::between(
        L::QUANTITY,
        sample[sample.len() / 4].clone(),
        sample[sample.len() * 3 / 4].clone(),
    )];
    let filter_ns = best_ns(5, || {
        let sel: SelVec = column.filter_selvec(&filter);
        std::hint::black_box(sel.count());
    }) / n;
    let keys: Vec<[Value; 2]> = rows
        .iter()
        .step_by((rows.len() / 20_000).max(1))
        .map(|r| [r[L::ORDERKEY].clone(), r[L::LINENUMBER].clone()])
        .collect();
    let lookup_ns = best_ns(5, || {
        for key in &keys {
            std::hint::black_box(row.point_lookup(key));
        }
    }) / keys.len() as f64;

    // inserts of fresh orders into a copy of each store.
    let fresh: Vec<Vec<Value>> = (0..400u64)
        .flat_map(|o| {
            let order = (1u64 << 40) + o;
            (0..g.lines_of_order(order) as u64).map(move |l| (order, l))
        })
        .map(|(order, l)| g.lineitem_row(order, l))
        .collect();
    let insert = |t: &Table| -> Res<f64> {
        let mut copy = t.clone();
        let start = std::time::Instant::now();
        for r in &fresh {
            copy.insert(r)?;
        }
        Ok(start.elapsed().as_nanos() as f64 / fresh.len() as f64)
    };

    Ok(Values::from([
        ("bitpack.decode_ns_per_value", per_value(decode_ns)),
        ("bitpack.match_ns_per_value", per_value(match_ns)),
        ("column_store.scan_ns_per_row", scan(&column)),
        ("column_store.filter_ns_per_row", filter_ns),
        ("column_store.insert_ns", insert(&column)?),
        (
            "column_store.bytes_per_row",
            column.memory_bytes() as f64 / n,
        ),
        ("row_store.point_lookup_ns", lookup_ns),
        ("row_store.insert_ns", insert(&row)?),
        ("row_store.scan_ns_per_row", scan(&row)),
        ("row_store.bytes_per_row", row.memory_bytes() as f64 / n),
    ]))
}

/// `wal.append_us_per_record`, `wal.sync_us_p50`,
/// `durability.encode_us_per_record`: probe the log writer on a file in
/// the run's own directory, with the records this data produces, under the
/// flush cadence the workloads run with (one sync per 32 records).
pub fn wal(out: &Path, g: &TpchGenerator) -> Res<Values> {
    let dir = fresh_dir(out, "walprobe")?;
    let records: Vec<WalRecord> = (0..32u64)
        .map(|o| WalRecord::Insert {
            table: tenant_table(0, "lineitem"),
            rows: vec![g.lineitem_row(o, 0)],
            load: false,
        })
        .collect();
    let encode_ns = best_ns(20, || {
        for r in &records {
            std::hint::black_box(r.to_payload());
        }
    }) / records.len() as f64;
    let payloads: Vec<(u32, Vec<u8>)> = records
        .iter()
        .map(|r| (r.table_tag(), r.to_payload()))
        .collect();

    let mut writer = WalWriter::new(
        Box::new(FileBackend::open(dir.join("probe.log"))?),
        SyncPolicy::Manual,
    );
    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        let start = std::time::Instant::now();
        for (tag, payload) in &payloads {
            writer.append_unsynced(*tag, payload)?;
        }
        let appended = start.elapsed();
        writer.sync()?;
        append_us.push(appended.as_nanos() as f64 / 1e3 / payloads.len() as f64);
        sync_us.push((start.elapsed() - appended).as_nanos() as f64 / 1e3);
    }
    drop(writer);
    std::fs::remove_dir_all(&dir)?;
    Ok(Values::from([
        ("wal.append_us_per_record", median(&append_us)),
        ("wal.sync_us_p50", median(&sync_us)),
        ("durability.encode_us_per_record", encode_ns / 1e3),
    ]))
}

/// `segment.{encode,decode}_mib_s`, `segment.get_us`, `segment.cold_mib`:
/// probe the segment codec and store on the demoted lineitem partition.
pub fn segment(m: &Measured) -> Res<Values> {
    let db = &m.built.db;
    let name = tenant_table(0, "lineitem");
    let segment = format!("{name}.cold");
    let store = db.segment_store();
    let schema = db.catalog().entry_by_name(&name)?.schema.clone();
    let bytes = store.get(&segment)?;
    let mib = bytes.len() as f64 / MIB;
    let get_ns = best_ns(5, || {
        std::hint::black_box(store.get(&segment).map(|b| b.len()).unwrap_or(0));
    });
    let table = decode_segment(schema.clone(), &bytes)?;
    let decode_ns = best_ns(3, || {
        std::hint::black_box(
            decode_segment(schema.clone(), &bytes)
                .map(|t| t.row_count())
                .unwrap_or(0),
        );
    });
    let encode_ns = best_ns(3, || {
        std::hint::black_box(encode_segment(&table).len());
    });
    Ok(Values::from([
        ("segment.encode_mib_s", mib / (encode_ns / 1e9)),
        ("segment.decode_mib_s", mib / (decode_ns / 1e9)),
        ("segment.get_us", get_ns / 1e3),
        ("segment.cold_mib", cold_bytes(db) as f64 / MIB),
    ]))
}

/// `estimator.*`: the committed cost model's modeled milliseconds for the
/// statements actually served, under the layout they were served on, over
/// the milliseconds measured — the paper's estimated-vs-actual quantity
/// (its Figs. 7–8) — and how fast the estimator prices statements.
pub fn estimator(m: &Measured) -> Values {
    let served = &m.served;
    let count = served.range.len().min(ESTIMATE_STMTS);
    let head = served.range.start..served.range.start + count;
    let workload = Workload::from_queries(m.stream[head].iter().map(|s| s.query.clone()).collect());
    let model = m.built.advice.advisor.model.snapshot();
    let ctx = m.built.catalog.ctx();
    let start = std::time::Instant::now();
    let modeled_ms = estimate_workload_layout(&model, &ctx, &m.built.served_layout, &workload);
    let seconds = start.elapsed().as_secs_f64();
    let measured_ms: f64 = served.timings[..count]
        .iter()
        .map(|t| t.dur_ns as f64 / 1e6)
        .sum();
    let ratio = modeled_ms / measured_ms;
    Values::from([
        ("estimator.estimates_per_s", count as f64 / seconds),
        ("estimator.modeled_over_measured", ratio),
        ("estimator.abs_log_err", ratio.ln().abs()),
    ])
}

/// `advisor.decide_unbudgeted_ms`, `advisor.footprint_over_budget`.
pub fn advisor(m: &Measured, t: &mut Tracer, parent: SpanId) -> Res<Values> {
    let advice = &m.built.advice;
    let unbudgeted = StorageAdvisor::with_handle(advice.advisor.model.clone());
    Ok(Values::from([
        (
            "advisor.decide_unbudgeted_ms",
            median(&decide_ms(
                advice,
                &unbudgeted,
                &m.built.catalog,
                3,
                t,
                parent,
            )?),
        ),
        (
            "advisor.footprint_over_budget",
            advice
                .budget
                .map_or(0.0, |b| advice.rec.footprint_bytes / b),
        ),
    ]))
}

/// One comparison arm: the same data under `layout`, durable or not, served
/// under `cfg`.
struct Arm<'a> {
    name: &'static str,
    durable: bool,
    layout: &'a StorageLayout,
    cfg: ServeCfg,
}

/// What every arm replays: the measured run's data, stream and head.
struct Replay<'a> {
    spec: &'a Spec,
    m: &'a Measured,
    out: &'a Path,
}

impl Replay<'_> {
    /// Build the arm's database, replay the warm-up prefix unmeasured, then
    /// serve the head of the stream through the same `serve` as the
    /// measured run.
    fn run(&self, arm: &Arm, t: &mut Tracer, parent: SpanId) -> Res<Served> {
        let Replay { spec, m, out } = *self;
        let span = t.begin(parent, arm.name);
        let g = generator(spec);
        let dir = match arm.durable {
            true => Some(fresh_dir(out, arm.name)?),
            false => None,
        };
        let db = build_under(spec, &g, dir.as_deref(), arm.layout, t, span)?;
        let range = m.served.range.start..m.served.range.start + arm_len(m);
        for s in &m.stream[..range.start] {
            db.execute(&s.query)?;
        }
        let served = serve(&db, &m.stream, range, &arm.cfg, &m.built.advice, t, span);
        drop(db);
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir)?;
        }
        t.end(span);
        Ok(served)
    }
}

fn arm_len(m: &Measured) -> usize {
    ((m.served.range.len() as f64 * ARM_SHARE) as usize).max(1)
}

fn execute_ms(served: &Served, end: usize) -> f64 {
    served.timings[..end - served.range.start]
        .iter()
        .map(|t| t.dur_ns as f64 / 1e6)
        .sum()
}

fn p50(stmts: &[Stmt], served: &Served, unit_ns: f64, keep: impl Fn(&Stmt) -> bool) -> f64 {
    quantile_or_zero(&latencies(stmts, served, unit_ns, keep), 0.5)
}

fn grouped(s: &Stmt) -> bool {
    matches!(&s.query, Query::Aggregate(a) if a.group_by.is_some())
}

/// `executor.*`: statement latency by shape on a WAL-less database.
fn executor(stmts: &[Stmt], nowal: &Served) -> Values {
    Values::from([
        (
            "executor.aggregate_ms_p50",
            p50(stmts, nowal, 1e6, |s| {
                s.shape == Shape::Aggregate && !grouped(s)
            }),
        ),
        (
            "executor.grouped_ms_p50",
            p50(stmts, nowal, 1e6, |s| {
                s.shape == Shape::Aggregate && grouped(s)
            }),
        ),
        (
            "executor.join_ms_p50",
            p50(stmts, nowal, 1e6, |s| s.shape == Shape::Join),
        ),
        (
            "executor.select_us_p50",
            p50(stmts, nowal, 1e3, |s| s.shape == Shape::Select),
        ),
        (
            "executor.insert_us_p50",
            p50(stmts, nowal, 1e3, |s| s.shape == Shape::Insert),
        ),
        (
            "executor.update_us_p50",
            p50(stmts, nowal, 1e3, |s| s.shape == Shape::Update),
        ),
    ])
}

/// The comparison arms: `trace.overhead_share`, `executor.*`,
/// `durability.logging_overhead_ratio`, `database.two_client_scaling`,
/// `advisor.speedup_vs_all_{row,col}`, `advisor.winner_agrees`,
/// `online.selfcal_*`.
pub fn arms(spec: &Spec, m: &Measured, out: &Path, t: &mut Tracer, parent: SpanId) -> Res<Values> {
    let replay = Replay { spec, m, out };
    let layout = &m.built.advice.layout;
    let end = m.served.range.start + arm_len(m);
    let rate = |s: &Served| arm_len(m) as f64 / s.prefix_window_s(end);
    let mut v = Values::new();

    // Everything as measured, tracing off and on: what the trace costs. Arm
    // is compared with arm, never with the run itself: a database rebuilt at
    // the end of the process serves the same head up to 38 % slower than
    // the run did (`oltp_durable`), whatever the tracer does. (No mid-run
    // checkpoint in any arm: a fifth of the stream does not reach it.)
    let as_measured = |name| Arm {
        name,
        durable: spec.durable(),
        layout,
        cfg: ServeCfg {
            mid_checkpoint: false,
            ..ServeCfg::of(spec)
        },
    };
    let clock = Clock::new();
    let untraced = replay.run(
        &as_measured("arm.untraced"),
        &mut Tracer::new(&clock, false),
        0,
    )?;
    let traced = replay.run(&as_measured("arm.traced"), t, parent)?;
    v.insert(
        "trace.overhead_share",
        1.0 - rate(&traced) / rate(&untraced),
    );

    if !spec.durable() {
        // Already WAL-less: the measured run is the executor's own time.
        v.extend(executor(&m.stream, &m.served));
        return Ok(v);
    }

    // No WAL, one client: the executor alone, and what logging costs over it.
    let plain = |name, durable, layout| Arm {
        name,
        durable,
        layout,
        cfg: ServeCfg::plain(),
    };
    let nowal = replay.run(&plain("arm.nowal", false, layout), t, parent)?;
    v.extend(executor(&m.stream, &nowal));
    let durable_ms = if spec.clients > 1 {
        // One durable client: the base for both the logging overhead and
        // the scaling of the measured (multi-client) run.
        let one = replay.run(&plain("arm.one_client", true, layout), t, parent)?;
        v.insert("database.two_client_scaling", rate(&untraced) / rate(&one));
        execute_ms(&one, end)
    } else {
        execute_ms(&untraced, end)
    };
    v.insert(
        "durability.logging_overhead_ratio",
        durable_ms / execute_ms(&nowal, end),
    );

    if spec.kind == Kind::HtapMixed {
        // Served under advised / all-row / all-column: does the modeled
        // winner win the stopwatch?
        let tables = m.built.catalog.schemas.iter().map(|s| s.name.as_str());
        let all_row = StorageLayout::uniform(tables.clone(), StoreKind::Row);
        let all_col = StorageLayout::uniform(tables, StoreKind::Column);
        let row = replay.run(&plain("arm.all_row", false, &all_row), t, parent)?;
        let col = replay.run(&plain("arm.all_col", false, &all_col), t, parent)?;
        let (advised_s, row_s, col_s) = (nowal.window_s(), row.window_s(), col.window_s());
        let rec = &m.built.advice.rec;
        let winner = |advised: f64, row: f64, col: f64| {
            if advised <= row && advised <= col {
                "advised"
            } else if row <= col {
                "row"
            } else {
                "col"
            }
        };
        let agrees = winner(rec.estimated_ms, rec.rs_only_ms, rec.cs_only_ms)
            == winner(advised_s, row_s, col_s);
        v.extend([
            ("advisor.speedup_vs_all_row", row_s / advised_s),
            ("advisor.speedup_vs_all_col", col_s / advised_s),
            ("advisor.winner_agrees", f64::from(u8::from(agrees))),
        ]);

        // The online advisor as it ships (re-fitting its model online), on
        // the same head of the stream as the measured, frozen-model run.
        let selfcal = Arm {
            name: "arm.self_calibrating",
            durable: true,
            layout,
            cfg: ServeCfg {
                online: Some(OnlineConfig::default()),
                ..ServeCfg::plain()
            },
        };
        let selfcal = replay.run(&selfcal, t, parent)?;
        let online = selfcal.online.clone().unwrap_or_default();
        v.extend([
            ("online.selfcal_replans", online.replans as f64),
            ("online.selfcal_refits", online.model_refits as f64),
            ("online.selfcal_slowdown", rate(&untraced) / rate(&selfcal)),
        ]);
    }
    Ok(v)
}

/// Time to restore the newest checkpoint image alone, seconds (0 when the
/// run took none): separates replay cost from restore cost in `recovery_s`.
fn checkpoint_restore_s(m: &Measured) -> Res<f64> {
    let Some(dir) = &m.built.dir else {
        return Ok(0.0);
    };
    let mut images: Vec<_> = std::fs::read_dir(dir.join("checkpoints"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    images.sort();
    let Some(newest) = images.last() else {
        return Ok(0.0);
    };
    let bytes = std::fs::read(newest)?;
    let start = std::time::Instant::now();
    restore_checkpoint(&HybridDatabase::new(), &bytes)?;
    Ok(start.elapsed().as_secs_f64())
}

/// Every probe and arm of the traced run, plus `trace.coverage_share`.
pub fn all(spec: &Spec, m: &Measured, out: &Path, t: &mut Tracer, root: SpanId) -> Res<Values> {
    let g = generator(spec);
    let span = t.begin(root, "probes");
    let mut v = storage(m, &g)?;
    v.extend(estimator(m));
    v.extend(advisor(m, t, span)?);
    if spec.durable() {
        v.extend(wal(out, &g)?);
        let recovery = &m.recoveries[0];
        let replayed = recovery.records_replayed as f64;
        if replayed > 0.0 {
            let replay_s = (recovery.seconds - checkpoint_restore_s(m)?).max(0.0);
            v.insert("durability.replay_us_per_record", replay_s * 1e6 / replayed);
        }
    }
    if spec.kind == Kind::ColdTier {
        v.extend(segment(m)?);
    }
    t.end(span);
    let arms_span = t.begin(root, "arms");
    v.extend(arms(spec, m, out, t, arms_span)?);
    t.end(arms_span);
    v.insert(
        "trace.coverage_share",
        coverage_share(t.spans(), &m.served.spans),
    );
    Ok(v)
}
