//! `hsd-benchmark`: the absolute, layer-attributed benchmark of the
//! hybrid-store engine and its storage advisor. See `benchmark/README.md`.
//!
//! ```text
//! hsd-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out FILE] [--append]
//! hsd-benchmark trace ...            same as run --trace 1
//! hsd-benchmark compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit on standard error and,
//! as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod compare;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hsd_types::Json;

use metrics::{Def, Values, END_TO_END, PER_LAYER};
use run::{Plan, Res};
use trace::{Clock, Tracer};
use workloads::{Spec, SPECS};

/// Seed when none is given.
const DEFAULT_SEED: u64 = 42;
/// Length of the timed window the statement counts are frozen for; also
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    append: bool,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse(mut argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: SPECS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: out_dir().join("results.json"),
        append: false,
    };
    match argv.first().map(String::as_str) {
        Some("run") => drop(argv.remove(0)),
        Some("trace") => {
            argv.remove(0);
            args.trace = true;
        }
        _ => {}
    }
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workloads::spec(&name).ok_or(format!(
                    "unknown workload `{name}` (one of: {})",
                    SPECS.map(|s| s.name).join(", ")
                ))?;
                args.workloads = vec![*spec];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--append" => args.append = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.smoke {
        // Same code paths at a fifth of the data and a twentieth of the
        // statements: all four workloads in well under 20 s.
        args.seconds = 0.5;
        for spec in &mut args.workloads {
            spec.sf *= 0.2;
            spec.verify_prefix /= 4;
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(defs: &[Def], values: &Values) -> Json {
    Json::Obj(
        defs.iter()
            .map(|d| {
                let value = values.get(d.name).copied().unwrap_or(0.0);
                (
                    d.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn counts_json(counts: &BTreeMap<String, usize>) -> Json {
    Json::Obj(
        counts
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
            .collect(),
    )
}

/// Run one workload; returns its entry for the result set.
fn run_one(spec: &Spec, args: &Args) -> Res<Json> {
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let clock = Clock::new();
    let mut t = Tracer::new(&clock, args.trace);
    let root = t.begin(0, "run");
    let mut plan = match args.trace {
        true => Plan::traced(args.seed, args.seconds),
        false => Plan::measured(args.seed, args.seconds),
    };
    if args.smoke {
        plan.setup_reps = 1;
        plan.recovery_reps = 1;
    }
    let m = run::measure(spec, &plan, &out, &mut t, root)?;
    let (defs, values): (&[Def], Values) = if args.trace {
        let mut v = metrics::from_run(spec, &m);
        v.extend(probes::all(spec, &m, &out, &mut t, root)?);
        (&PER_LAYER, v)
    } else {
        (&END_TO_END, metrics::end_to_end(&m))
    };
    t.end(root);
    if args.trace {
        trace::write_jsonl(&out.join(format!("trace_{}.jsonl", spec.name)), t.spans())?;
    }

    // Statements attempted (warm-up + served) plus one check per table for
    // the end state and one for every crash-reopen.
    let tables = m.loaded_rows.len();
    let attempted = m.stream.len() + (1 + m.recoveries.len()) * tables;
    let failed = m.served.errors
        + m.served.online.as_ref().map_or(0, |o| o.errors)
        + m.warmup_mismatches
        + m.end_state_mismatches
        + m.recoveries.iter().map(|r| r.mismatches).sum::<usize>();

    let mut shapes: BTreeMap<String, usize> = BTreeMap::new();
    for s in &m.stream[m.served.range.clone()] {
        *shapes.entry(s.shape.name().into()).or_default() += 1;
    }
    let meta = Json::obj([
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        (
            "stream_digest",
            Json::Str(format!("{:016x}", workloads::stream_digest(&m.stream))),
        ),
        ("scale_factor", Json::Num(spec.sf)),
        ("tenants", Json::Int(spec.tenants as i64)),
        ("clients", Json::Int(spec.clients as i64)),
        ("loaded_rows", counts_json(&m.loaded_rows)),
        ("warmup_statements", Json::Int(m.served.range.start as i64)),
        ("served_statements", counts_json(&shapes)),
        ("window_s", Json::Num(m.served.window_s())),
        // The repeated measurements behind the three medians.
        ("setup_s_samples", nums(&m.setup_s)),
        (
            "recovery_s_samples",
            nums(&m.recoveries.iter().map(|r| r.seconds).collect::<Vec<_>>()),
        ),
        ("advisor_decide_ms_samples", nums(&m.decide_ms)),
        (
            "flush_policy",
            Json::Str(match spec.durable() {
                true => "DurabilityConfig::default(): SyncPolicy::EveryN(32)".into(),
                false => "no WAL".to_string(),
            }),
        ),
        (
            "memory_budget_mib",
            m.built
                .advice
                .budget
                .map_or(Json::Null, |b| Json::Num(b / 1048576.0)),
        ),
        (
            "cold_segment_mib",
            Json::Num(run::cold_bytes(&m.built.db) as f64 / 1048576.0),
        ),
        ("layout", Json::Str(m.built.served_layout.to_json())),
    ]);

    eprintln!(
        "== {}{}{}: seed {}, {} statements served in {:.2} s, {} of {} failed",
        spec.name,
        if args.trace { " (traced)" } else { "" },
        if args.smoke { " [smoke]" } else { "" },
        args.seed,
        m.served.range.len(),
        m.served.window_s(),
        failed,
        attempted,
    );
    eprintln!("   ({})", workloads::why(spec.kind));
    for d in defs {
        let value = values.get(d.name).copied().unwrap_or(0.0);
        eprintln!(
            "{:<36} {:>16.4} {:<6} ({} is better)",
            d.name,
            value,
            d.unit,
            d.better.name()
        );
    }
    for (class, unit, unit_ns, oltp) in [("oltp", "us", 1e3, true), ("olap", "ms", 1e6, false)] {
        let lat = stats::sorted(&metrics::latencies(&m.stream, &m.served, unit_ns, |s| {
            s.shape.is_oltp() == oltp
        }));
        if let Some((p, v)) = stats::highest_percentile(&lat) {
            eprintln!(
                "{class} tail: p{} = {v:.3} {unit} over {} samples",
                p * 100.0,
                lat.len()
            );
        }
    }

    Ok(Json::obj([
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics_json(defs, &values)),
        ("meta", meta),
    ]))
}

fn run_all(args: &Args) -> Res<()> {
    let mut runs = match args.append {
        true => match std::fs::read_to_string(&args.out) {
            Ok(text) => Json::parse(&text)?.get("runs")?.as_arr()?.to_vec(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        },
        false => Vec::new(),
    };
    for spec in &args.workloads {
        let run = run_one(spec, args)?;
        // The line the driver reads: exactly these four keys.
        let line = Json::obj([
            ("correct", run.get("correct")?.clone()),
            ("attempted", run.get("attempted")?.clone()),
            ("failed", run.get("failed")?.clone()),
            ("metrics", run.get("metrics")?.clone()),
        ]);
        runs.push(run);
        if let Some(parent) = args.out.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let set = Json::obj([("runs", Json::Arr(runs.clone()))]);
        std::fs::write(&args.out, set.to_string_pretty() + "\n")?;
        println!("{line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: hsd-benchmark compare <a.json> <b.json>");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hsd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run_all(&args);
    // Data directories, crash copies and probe files, whether or not the
    // run got as far as removing its own.
    let _ = std::fs::remove_dir_all(run::data_root(&out_dir()));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hsd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
