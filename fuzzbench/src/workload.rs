//! The four workloads: their inputs, statements, expected answers, and the
//! closed-loop readers and open-loop writer that drive them.

use crate::data::{self, Payload, Table};
use crate::reference::{self as rf, Answer};
use crate::trace::Tracer;
use fuzzy_db::engine::{ExecConfig, OpKind, QueryOutcome};
use fuzzy_db::{Database, EngineError, Session, StatementResult, Strategy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How a statement's answer is checked.
#[derive(Clone, Copy)]
pub enum Check {
    /// `R.X IN S.X` (optionally correlated on `S.V = R.V`), thresholded.
    Semi {
        v: bool,
        z: f64,
    },
    /// `R.X NOT IN S.X` (optionally correlated on `S.V = R.V`).
    Anti {
        v: bool,
    },
    Chain,
    /// `G.X IN T.X AND G.X IN U.X`.
    SemiAnd,
    AboveAvg,
    AboveAll,
    /// Theorem-style property: the answer equals the one this strategy
    /// gives for the same SQL.
    Same(Strategy),
}

/// One statement of a workload's round.
pub struct Def {
    pub class: &'static str,
    pub sql: &'static str,
    pub strategy: Strategy,
    pub check: Check,
}

const fn def(class: &'static str, sql: &'static str, strategy: Strategy, check: Check) -> Def {
    Def { class, sql, strategy, check }
}

/// A workload: generated tables, the statement round, and the sessions that run it.
pub struct Workload {
    pub name: &'static str,
    pub tables: Vec<(&'static str, usize, Payload)>,
    /// Rows that size the join grid (`rows / fanout` centres).
    pub grid_rows: usize,
    pub fanout: usize,
    pub tuple_bytes: usize,
    /// Closed-loop reader sessions.
    pub readers: usize,
    /// Writes per second of the concurrent open-loop writer, if any.
    pub writer_rate: Option<f64>,
    /// On the workloads without a writer: one probe write after every this
    /// many read statements of the first reader.
    pub probe_every: u64,
    /// Readers' pause between statements (not timed).
    pub think: Duration,
    pub defs: Vec<Def>,
}

const FLAT: &str = "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3";
const N: &str = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)";
const J_ID: &str = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";
const NX: &str = "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)";
const JX_ID: &str = "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";
const JA: &str = "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)";
const CHAIN: &str =
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))";

use Strategy::{MaterializedNestedLoop as Mnl, NestedLoop as Nl, Unnest as Un};

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let uniform = Payload::Uniform;
        Some(match name {
            // R and S of 256 B tuples span 323 pages each, beyond the
            // 256-page buffer; T feeds the three-level chain.
            "paper_join" => Workload {
                name: "paper_join",
                tables: vec![("R", 10_000, uniform), ("S", 10_000, uniform), ("T", 4_000, uniform)],
                grid_rows: 10_000,
                fanout: 3,
                tuple_bytes: 256,
                readers: 1,
                writer_rate: None,
                probe_every: 1,
                think: Duration::ZERO,
                defs: vec![
                    def("flat", FLAT, Un, Check::Semi { v: false, z: 0.3 }),
                    def("N", N, Un, Check::Semi { v: false, z: 0.0 }),
                    def("J", J_ID, Un, Check::Semi { v: false, z: 0.0 }),
                    def("NX", NX, Un, Check::Anti { v: false }),
                    def("JX", JX_ID, Un, Check::Anti { v: false }),
                    def("JA", JA, Un, Check::Same(Nl)),
                    def("chain3", CHAIN, Un, Check::Chain),
                ],
            },
            // The ten unnestable classes of the serving corpus over tables
            // that fit the buffer. V holds ten crisp classes in R and S and
            // five in T, so correlations, AVG over the value set, and ALL
            // all have non-trivial answers. The chain, the costliest class,
            // runs twice a round: with eleven statements p50 falls inside
            // J/SOME and p90 inside the chain, not on a class boundary.
            "catalogue_serving" => Workload {
                name: "catalogue_serving",
                tables: vec![
                    ("R", 240, Payload::Classes(100.0)),
                    ("S", 240, Payload::Classes(100.0)),
                    ("T", 40, Payload::Classes(200.0)),
                ],
                grid_rows: 240,
                fanout: 7,
                tuple_bytes: 128,
                readers: 2,
                writer_rate: None,
                probe_every: 11,
                think: Duration::ZERO,
                defs: vec![
                    def("flat", FLAT, Un, Check::Semi { v: false, z: 0.3 }),
                    def("N", N, Un, Check::Semi { v: false, z: 0.0 }),
                    def(
                        "J",
                        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)",
                        Un,
                        Check::Semi { v: true, z: 0.0 },
                    ),
                    def(
                        "SOME",
                        "SELECT R.ID FROM R WHERE R.X = SOME (SELECT S.X FROM S WHERE S.V = R.V)",
                        Un,
                        Check::Semi { v: true, z: 0.0 },
                    ),
                    def("NX", NX, Un, Check::Anti { v: false }),
                    def(
                        "JX",
                        "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)",
                        Un,
                        Check::Anti { v: true },
                    ),
                    def(
                        "A",
                        "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)",
                        Un,
                        Check::AboveAvg,
                    ),
                    def("JA", JA, Un, Check::Same(Nl)),
                    def("chain3_b", CHAIN, Un, Check::Chain),
                    def(
                        "ALL",
                        "SELECT R.ID FROM R WHERE R.V > ALL (SELECT T.V FROM T)",
                        Un,
                        Check::AboveAll,
                    ),
                    def("chain3", CHAIN, Un, Check::Chain),
                ],
            },
            "serving_writes" => Workload {
                name: "serving_writes",
                tables: vec![("R", 2_000, uniform), ("S", 2_000, uniform)],
                grid_rows: 2_000,
                fanout: 7,
                tuple_bytes: 128,
                readers: 1,
                writer_rate: Some(WRITER_RATE),
                probe_every: 0,
                think: THINK,
                defs: vec![
                    def("N", N, Un, Check::Semi { v: false, z: 0.0 }),
                    def("J", J_ID, Un, Check::Semi { v: false, z: 0.0 }),
                    def("JX", JX_ID, Un, Check::Anti { v: false }),
                    def("JA", JA, Un, Check::Same(Nl)),
                ],
            },
            // The paper's comparison methods at sizes where they finish,
            // and the General-class statement that falls back to the naive
            // evaluator (over its own smaller tables G, T and U).
            "baselines" => Workload {
                name: "baselines",
                tables: vec![
                    ("R", 1_500, uniform),
                    ("S", 1_500, uniform),
                    ("G", 250, uniform),
                    ("T", 250, uniform),
                    ("U", 250, uniform),
                ],
                grid_rows: 1_500,
                fanout: 7,
                tuple_bytes: 128,
                readers: 1,
                writer_rate: None,
                probe_every: 1,
                think: Duration::ZERO,
                defs: vec![
                    def("nl_J", J_ID, Nl, Check::Semi { v: false, z: 0.0 }),
                    def("nl_JX", JX_ID, Nl, Check::Anti { v: false }),
                    def("nl_JA", JA, Nl, Check::Same(Un)),
                    def("mnl_J", J_ID, Mnl, Check::Semi { v: false, z: 0.0 }),
                    def("mnl_JX", JX_ID, Mnl, Check::Anti { v: false }),
                    def("mnl_JA", JA, Mnl, Check::Same(Un)),
                    def(
                        "general",
                        "SELECT G.ID FROM G WHERE G.X IN (SELECT T.X FROM T) \
                         AND G.X IN (SELECT U.X FROM U)",
                        Un,
                        Check::SemiAnd,
                    ),
                ],
            },
            _ => return None,
        })
    }

    pub fn generate(&self, seed: u64) -> Vec<Table> {
        data::tables(seed, &self.tables, self.grid_rows, self.fanout, self.tuple_bytes)
    }
}

pub const WORKLOADS: &[&str] = &["paper_join", "catalogue_serving", "serving_writes", "baselines"];

/// Writes per second of the open-loop writer.
pub const WRITER_RATE: f64 = 40.0;

/// The `serving_writes` reader's pause between statements. Without it the
/// reader's next statement can take the catalog lock before the writer it
/// just woke gets to run (see README.md, *Known wastes*), and whether a
/// write then waits behind one read statement or two varies from run to
/// run.
pub const THINK: Duration = Duration::from_millis(1);

/// One statement with its expected answer.
pub struct Stmt {
    pub class: &'static str,
    pub sql: &'static str,
    pub strategy: Strategy,
    pub expected: Answer,
    pub z: f64,
}

/// Computes every statement's expected answer: the independent reference
/// from the generated rows, or the property strategy's answer on `db`.
pub fn expected(w: &Workload, tables: &[Table], db: &Database) -> Result<Vec<Stmt>, String> {
    let rows: BTreeMap<&str, Vec<rf::Row>> =
        tables.iter().map(|t| (t.name, rf::rows(&t.tuples))).collect();
    let (r, s) = (&rows["R"], &rows["S"]);
    let t = rows.get("T");
    let t = || t.ok_or("workload has no table T");
    w.defs
        .iter()
        .map(|d| {
            let (expected, z) = match d.check {
                Check::Semi { v, z } => (rf::above(rf::semi(r, s, v), z), z),
                Check::Anti { v } => (rf::anti(r, s, v), 0.0),
                Check::Chain => (rf::chain3(r, s, t()?), 0.0),
                Check::SemiAnd => (rf::semi_and(&rows["G"], t()?, &rows["U"]), 0.0),
                Check::AboveAvg => (rf::above_avg(r, s), 0.0),
                Check::AboveAll => (rf::above_all(r, t()?), 0.0),
                Check::Same(strategy) => {
                    let out =
                        db.query(d.sql).strategy(strategy).run().map_err(|e| e.to_string())?;
                    (rf::answer_of(&out.answer), 0.0)
                }
            };
            Ok(Stmt { class: d.class, sql: d.sql, strategy: d.strategy, expected, z })
        })
        .collect()
}

/// Builds the database from the generated tables and runs one untimed
/// pass over each distinct statement; returns the database and the time.
pub fn setup(w: &Workload, tables: &[Table]) -> (Database, Duration) {
    let t0 = Instant::now();
    let mut db = data::load(tables);
    db.set_exec_config(ExecConfig { threads: 1, ..ExecConfig::default() });
    let session = db.session();
    for d in &w.defs {
        // Failures surface again, and are counted, in the timed phase.
        let _ = session.query(d.sql).strategy(d.strategy).run();
    }
    (db, t0.elapsed())
}

/// Per-statement counters read from outcomes (registry and serving info).
#[derive(Default, Clone)]
pub struct Layer {
    pub stmts: u64,
    pub lock_wait: Duration,
    pub io_claimed: u64,
    pub fuzzy_comparisons: u64,
    pub pairs_examined: u64,
    pub pairs_pruned: u64,
    pub sort_comparisons: u64,
    pub sort_runs: u64,
    pub max_window_sum: u64,
    pub join_pairs: u64,
    pub join_out: u64,
    pub sort_writes: u64,
    pub buffer_hits: u64,
    pub buffer_requests: u64,
    pub nl_stmts: u64,
    pub nl_pairs: u64,
}

impl Layer {
    fn add(&mut self, out: &QueryOutcome, strategy: Strategy) {
        self.stmts += 1;
        self.lock_wait += out.serving.lock_wait;
        self.io_claimed += out.measurement.io.total();
        let t = out.metrics.totals();
        self.fuzzy_comparisons += t.fuzzy_comparisons;
        self.pairs_examined += t.pairs_examined;
        self.pairs_pruned += t.pairs_pruned;
        self.sort_comparisons += t.sort_comparisons;
        self.sort_runs += t.sort_runs;
        self.max_window_sum += t.max_window;
        self.buffer_hits += t.buffer_hits;
        self.buffer_requests += t.buffer_requests;
        for op in out.metrics.ops() {
            match op.kind {
                OpKind::Join => {
                    self.join_pairs += op.metrics.pairs_examined;
                    self.join_out += op.metrics.tuples_out;
                }
                OpKind::Sort => self.sort_writes += op.metrics.page_writes,
                _ => {}
            }
        }
        if strategy != Strategy::Unnest {
            self.nl_stmts += 1;
            self.nl_pairs += t.pairs_examined;
        }
    }

    pub fn merge(&mut self, o: &Layer) {
        self.stmts += o.stmts;
        self.lock_wait += o.lock_wait;
        self.io_claimed += o.io_claimed;
        self.fuzzy_comparisons += o.fuzzy_comparisons;
        self.pairs_examined += o.pairs_examined;
        self.pairs_pruned += o.pairs_pruned;
        self.sort_comparisons += o.sort_comparisons;
        self.sort_runs += o.sort_runs;
        self.max_window_sum += o.max_window_sum;
        self.join_pairs += o.join_pairs;
        self.join_out += o.join_out;
        self.sort_writes += o.sort_writes;
        self.buffer_hits += o.buffer_hits;
        self.buffer_requests += o.buffer_requests;
        self.nl_stmts += o.nl_stmts;
        self.nl_pairs += o.nl_pairs;
    }
}

/// What one session did in a timed phase.
#[derive(Default)]
pub struct Acct {
    pub latencies_ms: Vec<f64>,
    /// The same latencies, by statement of the round.
    pub by_stmt: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub layer: Layer,
    pub runqueue_wait_ns: u64,
    /// The probe's writes, for the reader that sends them.
    pub writes: WriteAcct,
}

impl Acct {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Checks answers: the first answer of each statement against its expected
/// answer, later ones against that first (bit-identical) answer, falling
/// back to the full check when they differ.
struct Checker<'a> {
    stmts: &'a [Stmt],
    first: Vec<Option<fuzzy_db::rel::Relation>>,
}

impl Checker<'_> {
    fn check(&mut self, i: usize, answer: fuzzy_db::rel::Relation) -> Result<(), String> {
        if self.first[i].as_ref() == Some(&answer) {
            return Ok(());
        }
        let s = &self.stmts[i];
        rf::check(&rf::answer_of(&answer), &s.expected, s.z)
            .map_err(|e| format!("{}: {e}", s.class))?;
        self.first[i].get_or_insert(answer);
        Ok(())
    }
}

/// How a traced reader splits a statement into layer calls.
#[derive(Clone, Copy, PartialEq)]
pub enum Split {
    /// parse → `Session::engine` → `Engine::plan_for` → `Engine::run_planned`
    /// (or `Engine::run` for the baselines). Only where no writer runs:
    /// the split calls do not hold the catalog lock across the statement.
    Calls,
    /// One `Session::query` call; its serving info and registry are read
    /// back from the outcome.
    Whole,
}

/// Keeps concurrent readers in step: every reader finishes a round before
/// any starts the next, and all of them stop after the same round.
pub struct Rounds {
    barrier: Barrier,
    stop: AtomicBool,
    deadline: Instant,
}

impl Rounds {
    pub fn new(readers: usize, deadline: Instant) -> Rounds {
        Rounds { barrier: Barrier::new(readers), stop: AtomicBool::new(false), deadline }
    }

    /// Waits for the other readers; true when another round is due.
    fn next(&self) -> bool {
        if self.barrier.wait().is_leader() {
            self.stop.store(Instant::now() >= self.deadline, Ordering::SeqCst);
        }
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }
}

/// The write probe of a read-only workload: one reader sends a write to a
/// separate database after every `every` of its statements, timed from the
/// moment it is sent (its due time: the probe is never behind).
pub struct Probe<'a> {
    pub session: Session,
    pub ledger: &'a mut Ledger,
    pub every: u64,
}

/// A closed-loop reader: replays the round from `offset` in step with the
/// other readers until the deadline, always finishing the round it is in.
pub fn read_loop(
    session: &Session,
    stmts: &[Stmt],
    offset: usize,
    rounds: &Rounds,
    think: Duration,
    mut tracer: Option<(&mut Tracer, Split, u64)>,
    mut probe: Option<Probe<'_>>,
) -> Acct {
    let rq0 = crate::sys::thread_runqueue_wait_ns();
    let mut acct = Acct { by_stmt: vec![Vec::new(); stmts.len()], ..Acct::default() };
    let mut checker = Checker { stmts, first: vec![None; stmts.len()] };
    let mut sid = 0u64;
    while rounds.next() {
        for j in 0..stmts.len() {
            let i = (offset + j) % stmts.len();
            let s = &stmts[i];
            acct.attempted += 1;
            let t0 = Instant::now();
            let result = match tracer.as_mut() {
                None => session.query(s.sql).strategy(s.strategy).run(),
                Some((tr, split, base)) => {
                    sid += 1;
                    traced_query(session, s, tr, *split, *base + sid)
                }
            };
            let elapsed = t0.elapsed();
            match result {
                Ok(out) => {
                    acct.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                    acct.by_stmt[i].push(elapsed.as_secs_f64() * 1e3);
                    acct.layer.add(&out, s.strategy);
                    if let Err(e) = checker.check(i, out.answer) {
                        acct.fail(e);
                    }
                }
                Err(e) => acct.fail(format!("{}: {e}", s.class)),
            }
            if !think.is_zero() {
                std::thread::sleep(think);
            }
            if let Some(p) = probe.as_mut().filter(|p| acct.attempted.is_multiple_of(p.every)) {
                write_one(&p.session, p.ledger, Instant::now(), &mut acct.writes, None);
            }
        }
    }
    acct.runqueue_wait_ns = crate::sys::thread_runqueue_wait_ns().saturating_sub(rq0);
    acct
}

fn op_span(kind: OpKind, under_nl: bool) -> &'static str {
    match (kind, under_nl) {
        (OpKind::Naive, _) => "naive.eval",
        (_, true) => "nested_loop.op",
        (OpKind::Scan, _) => "exec.scan",
        (OpKind::Sort, _) => "exec.sort",
        (OpKind::Join, _) => "exec.join",
        (OpKind::Anti, _) => "exec.anti",
        (OpKind::Aggregate, _) => "exec.aggregate",
        (OpKind::Output, _) => "exec.output",
    }
}

/// Adds the registry's operator walls as consecutive child spans of `run`
/// (operators run one at a time, each materializing its output).
fn add_op_spans(tr: &mut Tracer, out: &QueryOutcome, sid: u64, run: usize, under_nl: bool) {
    let mut at = tr.spans[run].start;
    for op in out.metrics.ops() {
        tr.add(op_span(op.kind, under_nl), sid, Some(run), at, at + op.wall);
        at += op.wall;
    }
}

fn traced_query(
    session: &Session,
    s: &Stmt,
    tr: &mut Tracer,
    split: Split,
    sid: u64,
) -> Result<QueryOutcome, EngineError> {
    let root = tr.open("statement", sid, None);
    let (q, _) = tr.time("fuzzy_sql.parse", sid, Some(root), || fuzzy_sql::parse(s.sql));
    let q = q?;
    let out = match split {
        Split::Whole => {
            let (out, id) = tr.time("serving.query", sid, Some(root), || {
                session.query(s.sql).strategy(s.strategy).run()
            });
            let out = out?;
            // The engine's own run interval ends the call.
            let end = tr.spans[id].end;
            let name =
                if s.strategy == Strategy::Unnest { "exec.run_planned" } else { "nested_loop.run" };
            let run = tr.add(name, sid, Some(id), end.saturating_sub(out.measurement.cpu), end);
            add_op_spans(tr, &out, sid, run, s.strategy != Strategy::Unnest);
            out
        }
        Split::Calls => {
            let (engine, _) = tr.time("serving.engine", sid, Some(root), || session.engine());
            if s.strategy == Strategy::Unnest {
                let (planned, _) =
                    tr.time("plan_cache.plan_for", sid, Some(root), || engine.plan_for(&q));
                let (planned, info) = planned?;
                let (out, run) = tr.time("exec.run_planned", sid, Some(root), || {
                    engine.run_planned(&q, &planned, info)
                });
                let out = out?;
                add_op_spans(tr, &out, sid, run, false);
                out
            } else {
                let (out, run) =
                    tr.time("nested_loop.run", sid, Some(root), || engine.run(&q, s.strategy));
                let out = out?;
                add_op_spans(tr, &out, sid, run, true);
                out
            }
        }
    };
    tr.close(root);
    Ok(out)
}

/// The write target's expected contents: the rows inserted minus the rows
/// deleted, kept by the benchmark itself.
pub struct Ledger {
    pub rows: BTreeMap<i64, (rf::Trap, f64)>,
    next_id: i64,
    writes: u64,
    rng: u64,
}

/// Every `DELETE_EVERY`-th write deletes all but the newest `KEEP` rows.
const DELETE_EVERY: u64 = 20;
const KEEP: i64 = 10;

impl Ledger {
    pub fn new(seed: u64) -> Ledger {
        Ledger { rows: BTreeMap::new(), next_id: 0, writes: 0, rng: seed ^ 0x5eed_0f37_17e5 }
    }

    fn draw(&mut self, n: u64) -> u64 {
        // splitmix64
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// The next write: its SQL and the row count it must report.
    fn next(&mut self) -> (String, usize) {
        self.writes += 1;
        if self.writes.is_multiple_of(DELETE_EVERY) {
            let bound = self.next_id - KEEP;
            let gone: Vec<i64> = self.rows.range(..bound).map(|(k, _)| *k).collect();
            for k in &gone {
                self.rows.remove(k);
            }
            return (format!("DELETE FROM W WHERE W.ID < {bound}"), gone.len());
        }
        let id = self.next_id;
        self.next_id += 1;
        let centre = (self.draw(1000) * 100) as f64;
        let v = self.draw(1000) as f64;
        let (x, literal) = if self.draw(2) == 0 {
            ((centre, centre, centre, centre), format!("{centre}"))
        } else {
            let (w, e) = (1.0 + self.draw(10) as f64, 1.0 + self.draw(10) as f64);
            let t = (centre - w - e, centre - w, centre + w, centre + w + e);
            (t, format!("TRAP({}, {}, {}, {})", t.0, t.1, t.2, t.3))
        };
        self.rows.insert(id, (x, v));
        (format!("INSERT INTO W VALUES ({id}, {literal}, {v})"), 1)
    }

    /// Compares `W` as stored with the ledger.
    pub fn check(&self, db: &Database) -> Result<(), String> {
        let w = db.table_contents("W").map_err(|e| e.to_string())?;
        let stored: BTreeMap<i64, (rf::Trap, f64)> = w
            .tuples()
            .iter()
            .map(|t| {
                let id = t.values[0].as_number().expect("numeric ID") as i64;
                (id, (rf::trap(&t.values[1]), t.values[2].as_number().expect("numeric V")))
            })
            .collect();
        if w.len() != self.rows.len() || stored != self.rows {
            return Err(format!(
                "W holds {} rows, the ledger {} (inserted minus deleted)",
                w.len(),
                self.rows.len()
            ));
        }
        Ok(())
    }
}

/// How long before a write's due time the writer stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(500);

/// What the writer did.
#[derive(Default)]
pub struct WriteAcct {
    pub latencies_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub io_claimed: u64,
}

impl WriteAcct {
    pub fn absorb(&mut self, o: WriteAcct) {
        self.latencies_ms.extend(o.latencies_ms);
        self.lateness_ms.extend(o.lateness_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.io_claimed += o.io_claimed;
    }
}

/// An open-loop writer: write `i` is due at `start + i / rate` and is timed
/// from that due time, so a stall also counts against the writes behind it.
pub fn write_loop(
    session: &Session,
    ledger: &mut Ledger,
    count: u64,
    rate: f64,
    start: Instant,
    mut tracer: Option<&mut Tracer>,
) -> WriteAcct {
    let mut acct = WriteAcct::default();
    for i in 0..count {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        // Sleep to just before the due time, then spin, so the timer's
        // wake-up delay does not count against the write.
        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        write_one(session, ledger, due, &mut acct, tracer.as_deref_mut());
    }
    acct
}

/// Sends the ledger's next write, timed from `due`, and checks the row
/// count it reports.
fn write_one(
    session: &Session,
    ledger: &mut Ledger,
    due: Instant,
    acct: &mut WriteAcct,
    tracer: Option<&mut Tracer>,
) {
    let begin = Instant::now();
    let (sql, want) = ledger.next();
    acct.attempted += 1;
    let io0 = session.disk().io();
    let result = match tracer {
        None => session.execute(&sql),
        Some(tr) => {
            let sid = (1u64 << 62) + acct.attempted;
            let root = tr.open("write", sid, None);
            let _ =
                tr.time("fuzzy_sql.parse", sid, Some(root), || fuzzy_sql::parse_statement(&sql));
            let (r, _) = tr.time("serving.execute", sid, Some(root), || session.execute(&sql));
            tr.close(root);
            r
        }
    };
    let done = Instant::now();
    acct.io_claimed += session.disk().io().since(&io0).total();
    acct.lateness_ms.push(begin.duration_since(due).as_secs_f64() * 1e3);
    acct.latencies_ms.push(done.duration_since(due).as_secs_f64() * 1e3);
    let error = match result {
        Ok(StatementResult::Affected(n)) if n == want => return,
        Ok(other) => format!("{sql}: {other:?}, expected Affected({want})"),
        Err(e) => format!("{sql}: {e}"),
    };
    acct.failed += 1;
    if acct.errors.len() < 5 {
        acct.errors.push(error);
    }
}
