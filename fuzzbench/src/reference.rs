//! The benchmark's own correctness reference.
//!
//! It computes the expected answer of every checked statement class from the
//! generated inputs alone, with a closed-form possibility of equality that
//! does not call `fuzzy_core::compare`. Values are bucketed by the
//! generator's grid (centres `SPACING` apart, supports narrower than half a
//! spacing), so two values can only match inside one bucket and every
//! reference runs in O(n·C).

use fuzzy_core::Value;
use std::collections::{BTreeMap, HashMap};

/// Grid spacing of the Section 9 generator's join domain.
pub const SPACING: f64 = 100.0;

/// Degree tolerance: the engine and the reference compute the same height
/// by different float expressions.
pub const EPS: f64 = 1e-9;

/// A numeric value as trapezoid breakpoints `(a, b, c, d)`; a crisp value
/// has `a = b = c = d`.
pub type Trap = (f64, f64, f64, f64);

/// The breakpoints of a numeric value.
pub fn trap(v: &Value) -> Trap {
    match v {
        Value::Number(x) => (*x, *x, *x, *x),
        Value::Fuzzy(t) => t.breakpoints(),
        other => panic!("reference expects numeric values, got {other:?}"),
    }
}

/// `Poss(X = Y) = sup_t min(μ_X(t), μ_Y(t))` in closed form: 1 when the
/// cores meet, 0 when the supports are disjoint, otherwise the height where
/// the left value's falling edge crosses the right value's rising edge.
pub fn poss_eq(x: Trap, y: Trap) -> f64 {
    let (l, r) = if x.2 < y.1 { (x, y) } else { (y, x) };
    if l.2 >= r.1 {
        return 1.0; // cores intersect
    }
    // l's core ends before r's core starts.
    let (lc, ld) = (l.2, l.3);
    let (ra, rb) = (r.0, r.1);
    if ld <= ra {
        return 0.0;
    }
    ((ld - ra) / ((ld - lc) + (rb - ra))).clamp(0.0, 1.0)
}

/// The grid bucket of a value: the generator keeps every value within a
/// third of a spacing of its centre.
fn bucket(t: Trap) -> i64 {
    ((t.0 + t.3) / 2.0 / SPACING).round() as i64
}

/// One generated row as the reference sees it.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The key.
    pub id: i64,
    /// The join attribute.
    pub x: Trap,
    /// The crisp payload.
    pub v: f64,
}

/// Extracts `(ID, X, V)` rows from tuples with that schema.
pub fn rows(tuples: &[fuzzy_rel::Tuple]) -> Vec<Row> {
    tuples
        .iter()
        .map(|t| Row {
            id: t.values[0].as_number().expect("numeric ID") as i64,
            x: trap(&t.values[1]),
            v: t.values[2].as_number().expect("crisp V"),
        })
        .collect()
}

/// Expected answer: key → degree, over keys with a positive degree.
pub type Answer = BTreeMap<i64, f64>;

/// Rows of the inner relation grouped by grid bucket, each with a degree
/// that inner row contributes (1 for a plain table).
struct Buckets<'a> {
    by: HashMap<i64, Vec<(&'a Row, f64)>>,
}

impl<'a> Buckets<'a> {
    fn new(inner: &'a [Row], degree: impl Fn(&Row) -> f64) -> Buckets<'a> {
        let mut by: HashMap<i64, Vec<(&Row, f64)>> = HashMap::new();
        for s in inner {
            let d = degree(s);
            if d > 0.0 {
                by.entry(bucket(s.x)).or_default().push((s, d));
            }
        }
        Buckets { by }
    }

    /// `max_s min(d_s, Poss(x = s.X))` over inner rows accepted by `keep`.
    fn best(&self, x: Trap, keep: impl Fn(&Row) -> bool) -> f64 {
        self.by
            .get(&bucket(x))
            .map(|v| {
                v.iter()
                    .filter(|(s, _)| keep(s))
                    .map(|(s, d)| d.min(poss_eq(x, s.x)))
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0)
    }
}

fn positive(outer: &[Row], degree: impl Fn(&Row) -> f64) -> Answer {
    outer
        .iter()
        .filter_map(|r| {
            let d = degree(r);
            (d > 0.0).then_some((r.id, d))
        })
        .collect()
}

/// `R.X IN (SELECT S.X FROM S [WHERE S.V = R.V])` and `= SOME`, and the
/// flat join `R, S WHERE R.X = S.X` projected on R's key.
pub fn semi(outer: &[Row], inner: &[Row], v_correlated: bool) -> Answer {
    let b = Buckets::new(inner, |_| 1.0);
    positive(outer, |r| b.best(r.x, |s| !v_correlated || s.v == r.v))
}

/// `R.X NOT IN (SELECT S.X FROM S [WHERE S.V = R.V])`: `1 − max_s Poss`.
pub fn anti(outer: &[Row], inner: &[Row], v_correlated: bool) -> Answer {
    let b = Buckets::new(inner, |_| 1.0);
    positive(outer, |r| 1.0 - b.best(r.x, |s| !v_correlated || s.v == r.v))
}

/// Three-level chain `R.X IN (S.X IN (T.X))`.
pub fn chain3(outer: &[Row], mid: &[Row], inner: &[Row]) -> Answer {
    let bt = Buckets::new(inner, |_| 1.0);
    let bs = Buckets::new(mid, |s| bt.best(s.x, |_| true));
    positive(outer, |r| bs.best(r.x, |_| true))
}

/// `R.X IN (S.X) AND R.X IN (T.X)`: the fuzzy AND of two semi-joins.
pub fn semi_and(outer: &[Row], a: &[Row], b: &[Row]) -> Answer {
    let ba = Buckets::new(a, |_| 1.0);
    let bb = Buckets::new(b, |_| 1.0);
    positive(outer, |r| ba.best(r.x, |_| true).min(bb.best(r.x, |_| true)))
}

/// `R.V > (SELECT AVG(S.V) FROM S)`: crisp. The aggregate ranges over the
/// fuzzy *set* of values, so duplicates count once.
pub fn above_avg(outer: &[Row], inner: &[Row]) -> Answer {
    let mut distinct: Vec<f64> = inner.iter().map(|s| s.v).collect();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    let mean = distinct.iter().sum::<f64>() / distinct.len() as f64;
    positive(outer, |r| if r.v > mean { 1.0 } else { 0.0 })
}

/// `R.V > ALL (SELECT T.V FROM T)`: crisp, `R.V > max(T.V)`.
pub fn above_all(outer: &[Row], inner: &[Row]) -> Answer {
    let max = inner.iter().map(|t| t.v).fold(f64::NEG_INFINITY, f64::max);
    positive(outer, |r| if r.v > max { 1.0 } else { 0.0 })
}

/// Keeps the entries above a `WITH D > z` threshold.
pub fn above(answer: Answer, z: f64) -> Answer {
    answer.into_iter().filter(|(_, d)| *d > z).collect()
}

/// Reads an engine answer with a single numeric key column.
pub fn answer_of(rel: &fuzzy_rel::Relation) -> Answer {
    rel.tuples()
        .iter()
        .map(|t| (t.values[0].as_number().expect("numeric key") as i64, t.degree.value()))
        .collect()
}

/// Compares an engine answer with the expected one. Rows whose expected
/// degree sits within `EPS` of the threshold `z` may go either way.
pub fn check(got: &Answer, want: &Answer, z: f64) -> Result<(), String> {
    for (id, d) in want {
        match got.get(id) {
            Some(g) if (g - d).abs() <= EPS => {}
            Some(g) => return Err(format!("key {id}: degree {g}, expected {d}")),
            None if (d - z).abs() <= EPS => {}
            None => return Err(format!("key {id} missing (expected degree {d})")),
        }
    }
    for (id, g) in got {
        if !want.contains_key(id) && (g - z).abs() > EPS {
            return Err(format!("key {id} unexpected (degree {g})"));
        }
    }
    Ok(())
}

/// Checks the reference against the paper's own printed answer: Example
/// 4.1 (Query 2 over the dating-service relations) is {Ann: 0.7, Betty: 0.7}.
pub fn self_test() -> Result<(), String> {
    let disk = fuzzy_storage::SimDisk::with_default_page_size();
    let catalog = fuzzy_workload::paper::dating_service(&disk).map_err(|e| e.to_string())?;
    let vocab = fuzzy_core::Vocabulary::paper();
    let term = |n: &str| trap(&Value::fuzzy(*vocab.get(n).expect("paper term")));
    let table =
        |n: &str| fuzzy_workload::paper::snapshot(&catalog, &disk, n).map_err(|e| e.to_string());
    let (f, m) = (table("F")?, table("M")?);
    let (medium_young, middle_age) = (term("medium young"), term("middle age"));
    let mut got: BTreeMap<String, f64> = BTreeMap::new();
    for ft in f.tuples() {
        let inner = m
            .tuples()
            .iter()
            .map(|mt| {
                poss_eq(trap(&mt.values[2]), middle_age)
                    .min(poss_eq(trap(&ft.values[3]), trap(&mt.values[3])))
            })
            .fold(0.0, f64::max);
        let d = poss_eq(trap(&ft.values[2]), medium_young).min(inner);
        if d > 0.0 {
            let name = ft.values[1].as_text().expect("name").to_string();
            let e = got.entry(name).or_insert(0.0);
            *e = e.max(d);
        }
    }
    let want = [("Ann", 0.7), ("Betty", 0.7)];
    let ok = got.len() == want.len()
        && want.iter().all(|(n, d)| got.get(*n).is_some_and(|g| (g - d).abs() < 1e-6));
    if ok {
        Ok(())
    } else {
        Err(format!(
            "Example 4.1 reference gave {got:?}, the paper prints {{Ann: 0.7, Betty: 0.7}}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_possibility() {
        // Fig. 1: d("about 35" = "medium young") = 0.5.
        assert!((poss_eq((30.0, 35.0, 35.0, 40.0), (20.0, 25.0, 30.0, 35.0)) - 0.5).abs() < 1e-12);
        assert_eq!(poss_eq((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)), 1.0);
        assert_eq!(poss_eq((1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0)), 0.0);
        assert!((poss_eq((5.0, 5.0, 5.0, 5.0), (0.0, 10.0, 12.0, 14.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reference_reproduces_example_4_1() {
        self_test().unwrap();
    }
}
