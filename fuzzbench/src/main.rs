//! fuzzbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fuzzbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! One invocation runs one workload in this process and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a separate traced run
//! with `--trace 1`. `--workload all` and `--repeat k` run each workload in
//! child processes (k seeds each) and print every metric's median and
//! quartiles. See README.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod data;
mod micro;
mod reference;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Acct, Ledger, Split, Stmt, Workload, WriteAcct};

const USAGE: &str = "usage: fuzzbench --workload <paper_join|catalogue_serving|serving_writes|\
baselines|all> --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]";

/// Database builds per run: at least `SETUP_MIN_RUNS`, and more until they
/// add up to `SETUP_MIN_SECONDS`; `setup_s` is their median.
const SETUP_MIN_RUNS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| get(k)?.parse::<f64>().map_err(|_| format!("--{k} is not a number"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|_| "--seed is not a whole number".to_string())?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        repeat: flags.get("repeat").map_or(Ok(0), |r| r.parse().map_err(|_| "bad --repeat"))?,
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if let Some(k) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "repeat"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 || args.workload == "all" {
        return repeat(&args);
    }
    let Some(w) = Workload::named(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match run(&w, &args) {
        Ok(report) => {
            println!("{}", report.context);
            println!("{}", report.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fuzzbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    context: String,
    result: String,
}

/// One timed phase: every session's account, the writer's, and the
/// database-wide deltas over the phase.
struct Phase {
    reads: Acct,
    writes: WriteAcct,
    elapsed: Duration,
    io: fuzzy_storage::IoSnapshot,
    cache: [fuzzy_db::CacheStats; 2],
    writer_lock_wait: Duration,
    tracer: Option<Tracer>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        let mut v = self.reads.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Runs the readers (and the writer, if the workload has one) for
/// `seconds`; each reader finishes the round it is in.
fn phase(
    db: &fuzzy_db::Database,
    w: &Workload,
    stmts: &[Stmt],
    seconds: f64,
    (write_db, ledger): (&fuzzy_db::Database, &mut Ledger),
    epoch: Option<Instant>,
) -> Phase {
    let io0 = db.disk().io();
    let cache0 = db.plan_cache_stats();
    let lock0 = db.serving_counters().lock_wait();
    let split = if w.writer_rate.is_some() { Split::Whole } else { Split::Calls };
    let start = Instant::now();
    let rounds = workload::Rounds::new(w.readers, start + Duration::from_secs_f64(seconds));
    let rounds = &rounds;
    let (reads, writes, tracer) = std::thread::scope(|sc| {
        let mut ledger = Some(ledger);
        let writer = w.writer_rate.map(|rate| {
            let session = write_db.session();
            let ledger = ledger.take().expect("one writer");
            sc.spawn(move || {
                let mut tr = epoch.map(Tracer::new);
                let count = (seconds * rate).round() as u64;
                let acct = workload::write_loop(&session, ledger, count, rate, start, tr.as_mut());
                (acct, tr)
            })
        });
        let readers: Vec<_> = (0..w.readers)
            .map(|k| {
                let session = db.session();
                let probe = ledger.take().map(|ledger| workload::Probe {
                    session: write_db.session(),
                    ledger,
                    every: w.probe_every,
                });
                sc.spawn(move || {
                    let mut tr = epoch.map(Tracer::new);
                    let offset = k * stmts.len() / w.readers;
                    let traced = tr.as_mut().map(|t| (t, split, (k as u64) << 40));
                    let acct = workload::read_loop(
                        &session, stmts, offset, rounds, w.think, traced, probe,
                    );
                    (acct, tr)
                })
            })
            .collect();
        let mut reads = Acct::default();
        let mut writes = WriteAcct::default();
        let mut tracer = epoch.map(Tracer::new);
        for h in readers {
            let (mut a, tr) = h.join().expect("reader thread");
            writes.absorb(std::mem::take(&mut a.writes));
            reads.latencies_ms.extend(a.latencies_ms);
            reads.by_stmt.resize(a.by_stmt.len(), Vec::new());
            for (all, mine) in reads.by_stmt.iter_mut().zip(a.by_stmt) {
                all.extend(mine);
            }
            reads.attempted += a.attempted;
            reads.failed += a.failed;
            reads.errors.extend(a.errors);
            reads.layer.merge(&a.layer);
            reads.runqueue_wait_ns += a.runqueue_wait_ns;
            if let (Some(all), Some(tr)) = (tracer.as_mut(), tr) {
                all.absorb(tr);
            }
        }
        if let Some(h) = writer {
            let (a, tr) = h.join().expect("writer thread");
            writes.absorb(a);
            if let (Some(all), Some(tr)) = (tracer.as_mut(), tr) {
                all.absorb(tr);
            }
        }
        (reads, writes, tracer)
    });
    Phase {
        elapsed: start.elapsed(),
        io: db.disk().io().since(&io0),
        cache: [cache0, db.plan_cache_stats()],
        writer_lock_wait: db.serving_counters().lock_wait().saturating_sub(lock0),
        reads,
        writes,
        tracer,
    }
}

fn run(w: &Workload, args: &Args) -> Result<Report, String> {
    let mut correct = true;
    let mut problems: Vec<String> = Vec::new();
    if let Err(e) = reference::self_test() {
        correct = false;
        problems.push(e);
    }
    let tables = w.generate(args.seed);
    let mut setup_s = Vec::new();
    let mut db = None;
    while setup_s.len() < SETUP_MIN_RUNS || setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(db.take());
        let (d, t) = workload::setup(w, &tables);
        setup_s.push(t.as_secs_f64());
        db = Some(d);
    }
    let db = db.expect("at least one setup");
    let stmts = workload::expected(w, &tables, &db)?;
    // The read-only workloads keep their database read-only: their write
    // probe goes to a database of its own.
    let probe_db = w.writer_rate.is_none().then(|| data::load(&[]));
    let write_db = probe_db.as_ref().unwrap_or(&db);
    let mut ledger = Ledger::new(args.seed);
    let (iowait0, steal0) = sys::iowait_steal_ticks();
    let rq0 = sys::thread_runqueue_wait_ns();

    // With tracing on, an untraced half-run gives the overhead reference.
    let epoch = Instant::now();
    let (base, mut main) = if args.trace {
        let base = phase(&db, w, &stmts, args.seconds / 2.0, (write_db, &mut ledger), None);
        let traced =
            phase(&db, w, &stmts, args.seconds / 2.0, (write_db, &mut ledger), Some(epoch));
        (Some(base), traced)
    } else {
        (None, phase(&db, w, &stmts, args.seconds, (write_db, &mut ledger), None))
    };
    if let Err(e) = ledger.check(write_db) {
        correct = false;
        problems.push(e);
    }
    let (iowait1, steal1) = sys::iowait_steal_ticks();

    let mut attempted = main.reads.attempted + main.writes.attempted;
    let mut failed = main.reads.failed + main.writes.failed;
    problems.extend(main.reads.errors.iter().chain(&main.writes.errors).cloned());
    for extra in base.iter().map(|b| (&b.reads, &b.writes)) {
        attempted += extra.0.attempted + extra.1.attempted;
        failed += extra.0.failed + extra.1.failed;
    }
    let writes = &main.writes;
    for p in problems.iter().take(10) {
        eprintln!("fuzzbench: {p}");
    }

    let lat = main.latencies();
    let mut wlat = writes.latencies_ms.clone();
    wlat.sort_by(f64::total_cmp);
    let mut late = writes.lateness_ms.clone();
    late.sort_by(f64::total_cmp);
    let reads = main.reads.attempted.max(1) as f64;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut trace_file = String::new();
    if let Some(base) = &base {
        let mut tr = main.tracer.take().unwrap_or_else(|| Tracer::new(epoch));
        plan_replay(&db, &stmts, &mut tr);
        let r = tables.iter().find(|t| t.name == "R").expect("table R");
        let s = tables.iter().find(|t| t.name == "S").expect("table S");
        let m = micro::run(&db, r, s, db.exec_config().sort_pages, &mut tr);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", w.name, args.seed));
        trace::write_jsonl(&path, &tr.spans).map_err(|e| format!("writing {path:?}: {e}"))?;
        trace_file = path.display().to_string();
        metrics = per_layer(w.writer_rate.is_some(), &main, base, &tr, &m);
    } else {
        let page_io = if w.writer_rate.is_some() {
            // The reader's own counts are exact here: the writer does page
            // I/O only under the exclusive catalog lock, which no read
            // statement holds at the same time.
            main.reads.layer.io_claimed as f64
        } else {
            main.io.total() as f64
        };
        // Statements against the workload's own database.
        let own_writes = if w.writer_rate.is_some() { main.writes.attempted } else { 0 };
        let completed = (main.reads.attempted + own_writes) as f64;
        metrics.extend([
            ("latency_p50_ms", sys::quantile(&lat, 0.5), "ms"),
            ("latency_p90_ms", sys::quantile(&lat, 0.9), "ms"),
            ("throughput_stmt_s", completed / main.elapsed.as_secs_f64(), "stmt/s"),
            ("write_latency_p50_ms", sys::quantile(&wlat, 0.5), "ms"),
            ("write_latency_p90_ms", sys::quantile(&wlat, 0.9), "ms"),
            ("page_io_per_stmt", page_io / reads, "pages"),
            ("peak_rss_mb", sys::peak_rss_mb(), "MB"),
            ("setup_s", sys::median(&setup_s), "s"),
        ]);
    }

    let context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \
         \"read_statements\": {}, \"write_statements\": {}, \"timed_s\": {}, \
         \"setup_runs_s\": {:?}, \"iowait_ticks\": {}, \"steal_ticks\": {}, \
         \"runqueue_wait_ms\": {}, \"writer_lateness_p50_ms\": {}, \
         \"writer_lateness_p90_ms\": {}, \"class_p50_ms\": {{{}}}, \"trace_file\": \"{}\"}}}}",
        w.name,
        args.seed,
        sys::nproc(),
        main.reads.attempted,
        writes.attempted,
        main.elapsed.as_secs_f64(),
        setup_s,
        iowait1.saturating_sub(iowait0),
        steal1.saturating_sub(steal0),
        (main.reads.runqueue_wait_ns + sys::thread_runqueue_wait_ns().saturating_sub(rq0)) as f64
            / 1e6,
        finite(sys::quantile(&late, 0.5)),
        finite(sys::quantile(&late, 0.9)),
        stmts
            .iter()
            .zip(&main.reads.by_stmt)
            .map(|(s, v)| format!("\"{}\": {}", s.class, finite(sys::median(v))))
            .collect::<Vec<_>>()
            .join(", "),
        trace_file,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", finite(*value))
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct,
        body.join(", ")
    );
    Ok(Report { context, result })
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Replays the planning a cache miss does — `build_plan`, then
/// `verify_plan` — and a cache hit's `Engine::plan_for`, for every distinct
/// unnest statement.
fn plan_replay(db: &fuzzy_db::Database, stmts: &[Stmt], tr: &mut Tracer) {
    const REPS: usize = 20;
    let root = tr.open("plan_replay", 0, None);
    let engine = db.engine();
    let config = db.exec_config();
    for s in stmts.iter().filter(|s| s.strategy == fuzzy_db::Strategy::Unnest) {
        let q = fuzzy_sql::parse(s.sql).expect("benchmark SQL parses");
        for _ in 0..REPS {
            let (plan, _) = tr.time("unnest.build_plan", 0, Some(root), || {
                fuzzy_db::engine::build_plan(&q, engine.catalog())
            });
            if let Ok(plan) = plan {
                tr.time("verify.verify_plan", 0, Some(root), || {
                    std::hint::black_box(fuzzy_db::engine::verify_plan(&plan, &config, None))
                });
            }
            let _ = tr.time("plan_cache.plan_for", 0, Some(root), || engine.plan_for(&q));
        }
    }
    tr.close(root);
}

fn per_layer<'a>(
    own_db_writes: bool,
    main: &Phase,
    base: &Phase,
    tr: &Tracer,
    m: &micro::Micro,
) -> Vec<(&'a str, f64, &'a str)> {
    let spans = trace::summarize(&tr.spans);
    let get = |n: &str| spans.get(n).copied().unwrap_or_default();
    let l = &main.reads.layer;
    let stmts = l.stmts.max(1) as f64;
    let all = (l.stmts + if own_db_writes { main.writes.attempted } else { 0 }).max(1) as f64;
    let runs = get("exec.run_planned").count.max(1) as f64;
    let op_ms = |n: &str| get(n).total.as_secs_f64() * 1e3 / runs;
    let [c0, c1] = &main.cache;
    let per = |a: u64, b: u64| (b - a) as f64 / stmts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let p50 = |p: &Phase| sys::quantile(&p.latencies(), 0.5);
    let own_writes = if own_db_writes { main.writes.io_claimed } else { 0 };
    let claimed = (l.io_claimed + own_writes) as f64;
    vec![
        ("fuzzy_sql.parse_us", get("fuzzy_sql.parse").mean_us(), "us"),
        (
            "serving.lock_wait_ms",
            (l.lock_wait + main.writer_lock_wait).as_secs_f64() * 1e3 / all,
            "ms",
        ),
        (
            "serving.peak_in_flight",
            trace::peak_overlap(&tr.spans, &["statement", "write"]) as f64,
            "count",
        ),
        ("serving.io_misattributed_pages", claimed - main.io.total() as f64, "pages"),
        ("plan_cache.lookup_us", get("plan_cache.plan_for").mean_us(), "us"),
        ("plan_cache.hits", per(c0.hits, c1.hits), "1/stmt"),
        ("plan_cache.misses", per(c0.misses, c1.misses), "1/stmt"),
        ("plan_cache.invalidations", per(c0.invalidations, c1.invalidations), "1/stmt"),
        ("unnest.build_plan_us", get("unnest.build_plan").mean_us(), "us"),
        ("verify.verify_plan_us", get("verify.verify_plan").mean_us(), "us"),
        ("exec.run_ms", get("exec.run_planned").mean_ms(), "ms"),
        ("exec.scan_ms", op_ms("exec.scan"), "ms"),
        ("exec.sort_ms", op_ms("exec.sort"), "ms"),
        ("exec.join_ms", op_ms("exec.join"), "ms"),
        ("exec.anti_ms", op_ms("exec.anti"), "ms"),
        ("exec.aggregate_ms", op_ms("exec.aggregate"), "ms"),
        ("exec.output_ms", op_ms("exec.output"), "ms"),
        ("exec.residual_ms", get("exec.run_planned").mean_self_ms(), "ms"),
        ("exec.fuzzy_comparisons", l.fuzzy_comparisons as f64 / stmts, "count"),
        ("exec.pairs_examined", l.pairs_examined as f64 / stmts, "count"),
        ("exec.pairs_pruned", l.pairs_pruned as f64 / stmts, "count"),
        ("exec.sort_comparisons", l.sort_comparisons as f64 / stmts, "count"),
        ("exec.sort_runs", l.sort_runs as f64 / stmts, "count"),
        ("exec.max_window", l.max_window_sum as f64 / stmts, "tuples"),
        ("exec.join_yield", ratio(l.join_out, l.join_pairs), "ratio"),
        ("exec.join_tuples_out", l.join_out as f64 / stmts, "count"),
        ("exec.join_pairs_examined", l.join_pairs as f64 / stmts, "count"),
        ("naive.eval_ms", get("naive.eval").mean_ms(), "ms"),
        ("nested_loop.run_ms", get("nested_loop.run").mean_ms(), "ms"),
        ("nested_loop.pairs_examined", ratio(l.nl_pairs, l.nl_stmts), "count"),
        ("storage.page_reads", main.io.reads as f64 / stmts, "pages"),
        ("storage.page_writes", main.io.writes as f64 / stmts, "pages"),
        ("storage.sort_spill_pages", l.sort_writes as f64 / stmts, "pages"),
        ("storage.buffer_hit_ratio", ratio(l.buffer_hits, l.buffer_requests), "ratio"),
        ("storage.buffer_hits", l.buffer_hits as f64 / stmts, "count"),
        ("storage.buffer_requests", l.buffer_requests as f64 / stmts, "count"),
        ("storage.external_sort_ms", m.external_sort_ms, "ms"),
        ("fuzzy_rel.decode_value_ns", m.decode_value_ns, "ns"),
        ("fuzzy_core.possibility_ns", m.possibility_ns, "ns"),
        ("fuzzy_core.interval_cmp_ns", m.interval_cmp_ns, "ns"),
        ("trace.overhead_pct", (p50(main) / p50(base) - 1.0) * 100.0, "%"),
    ]
}

/// Runs workloads in child processes — `--repeat k` seeds each (default
/// 1) — and prints every metric's median and quartiles across the runs.
fn repeat(args: &Args) -> ExitCode {
    let names: Vec<&str> = if args.workload == "all" {
        workload::WORKLOADS.to_vec()
    } else if workload::WORKLOADS.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fuzzbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let k = args.repeat.max(1);
    let mut ok = true;
    for name in names {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut shares = Vec::new();
        for i in 0..k {
            let seed = args.seed + i as u64;
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("fuzzbench: {name} seed {seed} exited with {}", o.status);
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("fuzzbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let last = stdout.lines().last().unwrap_or("");
            println!("{name} seed {seed}: {last}");
            let (correct, attempted, failed, metrics) = parse_result(last);
            ok &= correct;
            shares.push(format!("{failed}/{attempted}"));
            for (m, unit, v) in metrics {
                values.entry(m).or_insert_with(|| (unit, Vec::new())).1.push(v);
            }
        }
        println!("## {name}: {k} run(s), failed/attempted per run: {}", shares.join(" "));
        println!(
            "{:<34} {:>8} {:>14} {:>14} {:>14} {:>9}",
            "metric", "unit", "q1", "median", "q3", "iqr/med"
        );
        for (m, (unit, v)) in &values {
            let (q1, med, q3) = if v.len() >= 2 {
                let [a, b, c] = sys::quartiles(v);
                (a, b, c)
            } else {
                (v[0], v[0], v[0])
            };
            let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
            println!("{m:<34} {unit:>8} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>9.4}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads back a result line this program printed.
fn parse_result(line: &str) -> (bool, u64, u64, Vec<(String, String, f64)>) {
    let field = |key: &str| {
        line.split(&format!("\"{key}\": "))
            .nth(1)
            .map(|rest| rest.split([',', '}']).next().unwrap_or("").trim().to_string())
    };
    let correct = field("correct").as_deref() == Some("true");
    let attempted = field("attempted").and_then(|v| v.parse().ok()).unwrap_or(0);
    let failed = field("failed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let mut metrics = Vec::new();
    let parts: Vec<&str> = line.split(": {\"value\": ").collect();
    for w in parts.windows(2) {
        let name = w[0].rsplit('"').nth(1).unwrap_or("").to_string();
        let value = w[1].split(',').next().and_then(|v| v.trim().parse().ok());
        let unit = w[1].split("\"unit\": \"").nth(1).and_then(|u| u.split('"').next());
        if let (Some(v), Some(u)) = (value, unit) {
            metrics.push((name, u.to_string(), v));
        }
    }
    (correct, attempted, failed, metrics)
}
