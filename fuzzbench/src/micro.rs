//! Micro measurements of the lowest layers on the workload's own data:
//! the external sort over R, the tuple codec, possibility, and `⪯`.

use crate::data::Table;
use crate::reference::SPACING;
use crate::trace::Tracer;
use fuzzy_core::{compare::possibility, interval_order::cmp_values_at, CmpOp, Degree, Trapezoid};
use fuzzy_db::rel::Tuple;
use fuzzy_db::Database;
use std::collections::HashMap;
use std::hint::black_box;

pub struct Micro {
    pub external_sort_ms: f64,
    pub decode_value_ns: f64,
    pub possibility_ns: f64,
    pub interval_cmp_ns: f64,
}

const REPS: usize = 5;

/// Median over `REPS` timed repetitions of `f`, each recorded as a span;
/// `per` divides each repetition's time (operations per repetition).
fn timed(tr: &mut Tracer, name: &'static str, root: usize, per: f64, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let ((), id) = tr.time(name, 0, Some(root), &mut f);
            tr.spans[id].duration().as_secs_f64() / per
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

pub fn run(db: &Database, r: &Table, s: &Table, sort_pages: usize, tr: &mut Tracer) -> Micro {
    let root = tr.open("micro", 0, None);
    let disk = db.disk();
    let catalog = db.catalog();
    let file = catalog.table(r.name).expect("table R").file().clone();
    let key = |rec: &[u8]| Tuple::decode_value_at(rec, 1).expect("sortable record");
    let external_sort_ms = timed(tr, "storage.external_sort", root, 1e-3, || {
        disk.begin_alloc_log();
        let sorted = fuzzy_storage::external_sort(disk, &file, sort_pages, |a, b| {
            cmp_values_at(&key(a), &key(b), Degree::ZERO)
        });
        black_box(sorted.expect("external sort"));
        for page in disk.take_alloc_log() {
            disk.free_page(page);
        }
    });

    let records: Vec<Vec<u8>> = r.tuples.iter().map(|t| t.encode(r.tuple_bytes)).collect();
    let decode_value_ns =
        timed(tr, "fuzzy_rel.decode_value_at", root, records.len() as f64 * 1e-9, || {
            for rec in &records {
                black_box(Tuple::decode_value_at(black_box(rec), 1).expect("decodable"));
            }
        });

    // The join pairs: R and S values around the same grid centre.
    let mut by_bucket: HashMap<i64, Vec<fuzzy_core::Value>> = HashMap::new();
    for t in &s.tuples {
        by_bucket.entry(bucket(&t.values[1])).or_default().push(t.values[1].clone());
    }
    let mut pairs = Vec::new();
    'outer: for t in &r.tuples {
        for y in by_bucket.get(&bucket(&t.values[1])).into_iter().flatten() {
            pairs.push((t.values[1].clone(), y.clone()));
            if pairs.len() == 100_000 {
                break 'outer;
            }
        }
    }
    let n = pairs.len().max(1) as f64 * 1e-9;
    let traps: Vec<(Trapezoid, Trapezoid)> = pairs
        .iter()
        .map(|(x, y)| {
            (x.as_distribution().expect("numeric"), y.as_distribution().expect("numeric"))
        })
        .collect();
    let possibility_ns = timed(tr, "fuzzy_core.possibility", root, n, || {
        for (x, y) in &traps {
            black_box(possibility(black_box(x), CmpOp::Eq, black_box(y)));
        }
    });
    let interval_cmp_ns = timed(tr, "fuzzy_core.interval_cmp", root, n, || {
        for (x, y) in &pairs {
            black_box(cmp_values_at(black_box(x), black_box(y), Degree::ZERO));
        }
    });
    tr.close(root);
    Micro { external_sort_ms, decode_value_ns, possibility_ns, interval_cmp_ns }
}

fn bucket(v: &fuzzy_core::Value) -> i64 {
    let (a, _, _, d) = crate::reference::trap(v);
    ((a + d) / 2.0 / SPACING).round() as i64
}
