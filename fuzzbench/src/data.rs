//! Seeded input generation and loading through the database's public API.
//!
//! Join attributes come from the Section 9 generator (`fuzzy-workload`):
//! grid centres `SPACING` apart, half of the values ill-known trapezoids,
//! an average fan-out of C. The benchmark only reads the generated tuples
//! back and loads them into a fresh database, so the program sees nothing
//! but its inputs.

use fuzzy_core::Value;
use fuzzy_db::rel::{AttrType, Schema, StoredTable, Tuple};
use fuzzy_db::Database;
use fuzzy_storage::{BufferPool, SimDisk};
use fuzzy_workload::{generate, WorkloadSpec};

/// One generated table: its name, padded record size, and tuples.
pub struct Table {
    pub name: &'static str,
    pub tuple_bytes: usize,
    pub tuples: Vec<Tuple>,
}

/// How payload values `V` are drawn.
#[derive(Clone, Copy)]
pub enum Payload {
    /// The generator's uniform reals in `[0, 1000)`.
    Uniform,
    /// `floor(V / width)`: a few crisp classes, so `S.V = R.V`
    /// correlations and set aggregates over repeated values have matches.
    Classes(f64),
}

/// Generates `(ID, X, V)` tables over one shared grid: `sizes` lists each
/// table's name, cardinality and payload; the grid has `grid_rows / fanout` centres.
pub fn tables(
    seed: u64,
    sizes: &[(&'static str, usize, Payload)],
    grid_rows: usize,
    fanout: usize,
    tuple_bytes: usize,
) -> Vec<Table> {
    let mut next_id = 0usize;
    sizes
        .iter()
        .enumerate()
        .map(|(i, &(name, n, payload))| {
            let disk = SimDisk::with_default_page_size();
            // The generator's outer relation R draws its join values from a
            // grid of `n_inner / fanout` centres; its inner is discarded.
            let spec = WorkloadSpec {
                n_outer: n,
                n_inner: grid_rows,
                tuple_bytes,
                fanout,
                seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                ..Default::default()
            };
            let w = generate(&disk, spec).expect("workload generation");
            let pool = BufferPool::new(&disk, 8);
            let rel = w.outer.to_relation(&pool).expect("generated table");
            let tuples = rel
                .tuples()
                .iter()
                .enumerate()
                .map(|(k, t)| {
                    let v = t.values[2].as_number().expect("crisp payload");
                    let v = match payload {
                        Payload::Uniform => v,
                        Payload::Classes(width) => (v / width).floor(),
                    };
                    Tuple::full(vec![
                        Value::number((next_id + k) as f64),
                        t.values[1].clone(),
                        Value::number(v),
                    ])
                })
                .collect();
            next_id += n;
            Table { name, tuple_bytes, tuples }
        })
        .collect()
}

/// The `(ID, X, V)` schema keyed on `ID`.
pub fn schema() -> Schema {
    Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number), ("V", AttrType::Number)])
        .with_key("ID")
}

/// Builds a database from the generated tables through the public API,
/// plus the empty write-target table `W` (created with SQL).
pub fn load(tables: &[Table]) -> Database {
    let mut db = Database::with_paper_vocabulary();
    for t in tables {
        let stored = StoredTable::create_padded(db.disk(), t.name, schema(), t.tuple_bytes);
        db.catalog_mut().register(stored);
        db.load(t.name, t.tuples.iter().cloned()).expect("load generated table");
    }
    db.execute("CREATE TABLE W (ID NUMBER KEY, X NUMBER, V NUMBER)").expect("create W");
    db
}
