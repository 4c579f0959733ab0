//! The `FindShapes` procedure (§5.4): computing `shape(D)` from a tuple
//! source, with the paper's two implementations.
//!
//! - **In-memory**: stream every relation through main memory and take the
//!   shape of each tuple (the paper loads relations wholesale and splits
//!   oversized ones; our page-wise streaming is the same computation with
//!   the chunking built in — every tuple is decoded and hashed). The scan
//!   is zero-copy: each tuple's id pattern is computed straight off the
//!   borrowed page row as an inline [`Rgs`] word, with no staging buffer
//!   and no per-tuple allocation.
//! - **In-database**: never materialise tuples; issue one relaxed + one
//!   exact Boolean EXISTS query per candidate shape, Apriori-pruned over the
//!   partition lattice (`soct-storage::shape_query`).
//!
//! Which one wins depends on the database (§9.3): few tuples per relation
//! favour in-memory; few predicates of small arity favour in-database.
//!
//! Both implementations consume any [`TupleSource`] — engines, views,
//! plain instances, and (since the chase moved onto the packed columnar
//! store) chase output directly: a `soct_chase::ColumnarStore` is a
//! `TupleSource`, so `find_shapes(&chase_result.store, …)` runs with no
//! copy-out conversion to boxed atoms in between.
//!
//! Per-relation work is independent in both modes, so
//! [`find_shapes_parallel`] fans relations out over scoped worker threads
//! (the in-database mode batches its per-table query runs per worker); the
//! final shape set is sorted, so the result is identical to the sequential
//! functions regardless of the thread count.

use soct_model::{FxHashSet, PredId, Rgs, Shape};
use soct_storage::{find_shapes_apriori, ShapeQueryStats, StorageEngine, TupleSource};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which `FindShapes` implementation to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FindShapesMode {
    /// §5.4's in-memory flavour: stream and hash every tuple.
    InMemory,
    /// §5.4's in-database flavour: Apriori-pruned Boolean EXISTS queries.
    InDatabase,
}

impl std::str::FromStr for FindShapesMode {
    type Err = String;

    /// Parses the CLI/wire spellings `memory`/`mem` and `db`/`database` —
    /// the one alias table shared by the CLI flags and `?mode=` query
    /// parameters.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "memory" | "mem" => Ok(FindShapesMode::InMemory),
            "db" | "database" => Ok(FindShapesMode::InDatabase),
            other => Err(format!("mode must be memory|db, got `{other}`")),
        }
    }
}

/// The outcome of `FindShapes`.
#[derive(Clone, Debug)]
pub struct ShapesReport {
    /// The distinct shapes of the database atoms, sorted.
    pub shapes: Vec<Shape>,
    /// Query counters (all zero for the in-memory implementation).
    pub stats: ShapeQueryStats,
    /// Tuples scanned (in-memory) — the work metric of Figure 3.
    pub tuples_scanned: u64,
}

/// `FindShapes(D)` under the chosen implementation.
pub fn find_shapes(src: &dyn TupleSource, mode: FindShapesMode) -> ShapesReport {
    match mode {
        FindShapesMode::InMemory => find_shapes_in_memory(src),
        FindShapesMode::InDatabase => find_shapes_in_database(src),
    }
}

/// `FindShapes(D)` with relations fanned out over worker threads.
///
/// `threads` follows the engine-wide convention (`0` = auto, see
/// [`soct_chase::resolve_threads`]); the source must be `Sync` because
/// workers share it read-only. The report is identical to [`find_shapes`]
/// for every thread count — shape sets are sorted and the work counters
/// are order-independent sums.
pub fn find_shapes_parallel(
    src: &(dyn TupleSource + Sync),
    mode: FindShapesMode,
    threads: usize,
) -> ShapesReport {
    let threads = soct_chase::resolve_threads(threads);
    let preds = src.non_empty_predicates();
    let workers = planned_workers(threads, preds.len(), src.total_rows());
    if workers <= 1 {
        return find_shapes(src, mode);
    }
    // Workers claim contiguous batches of relations: one atomic fetch per
    // batch, and the in-database mode issues its per-table query runs in
    // these batches too.
    let batch = preds.len().div_ceil(workers * 4).max(1);
    let cursor = AtomicUsize::new(0);
    let parts: Vec<(Vec<Shape>, ShapeQueryStats, u64)> = std::thread::scope(|scope| {
        let preds = &preds;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut shapes: Vec<Shape> = Vec::new();
                    let mut stats = ShapeQueryStats::default();
                    let mut tuples_scanned = 0u64;
                    loop {
                        let start = cursor.fetch_add(batch, Ordering::Relaxed);
                        if start >= preds.len() {
                            break;
                        }
                        for &pred in &preds[start..(start + batch).min(preds.len())] {
                            match mode {
                                FindShapesMode::InMemory => {
                                    let (seen, scanned) = relation_shapes_in_memory(src, pred);
                                    tuples_scanned += scanned;
                                    shapes.extend(seen.into_iter().map(|rgs| Shape { pred, rgs }));
                                }
                                FindShapesMode::InDatabase => {
                                    let (rgss, s) = find_shapes_apriori(src, pred);
                                    stats.merge(&s);
                                    shapes.extend(rgss.into_iter().map(|rgs| Shape { pred, rgs }));
                                }
                            }
                        }
                    }
                    (shapes, stats, tuples_scanned)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("FindShapes workers do not panic"))
            .collect()
    });
    let mut shapes = Vec::new();
    let mut stats = ShapeQueryStats::default();
    let mut tuples_scanned = 0u64;
    for (s, st, t) in parts {
        shapes.extend(s);
        stats.merge(&st);
        tuples_scanned += t;
    }
    shapes.sort_unstable();
    ShapesReport {
        shapes,
        stats,
        tuples_scanned,
    }
}

/// Rows per worker below which a parallel shape pass is not worth its
/// thread fan-out: spawning and joining costs more than scanning a few
/// thousand tuples, and unlike the chase engine's per-run pool, this
/// fan-out is paid on every call.
const PAR_MIN_ROWS: u64 = 4096;

/// Worker count for a parallel shape pass: one worker per
/// [`PAR_MIN_ROWS`] tuples, at most one per relation, capped by `threads`.
/// The row quotient is computed in `u64` and *saturated* into `usize`, so
/// a > 2^44-row source on a 32-bit target clamps instead of wrapping to a
/// tiny worker count.
fn planned_workers(threads: usize, preds: usize, total_rows: u64) -> usize {
    threads
        .min(preds)
        .min(usize::try_from(total_rows / PAR_MIN_ROWS).unwrap_or(usize::MAX))
}

/// In-memory implementation of §5.4: stream each relation's pages through
/// memory and hash every tuple's id pattern. The pattern is computed
/// directly from the borrowed row ([`Rgs::of_row`]) — the relation's pages
/// are already memory-resident in our embedded engine, so no further
/// staging copy exists and the per-tuple cost is pure scan + hash.
pub fn find_shapes_in_memory(src: &dyn TupleSource) -> ShapesReport {
    let mut shapes: Vec<Shape> = Vec::new();
    let mut tuples_scanned = 0u64;
    for pred in src.non_empty_predicates() {
        let (seen, scanned) = relation_shapes_in_memory(src, pred);
        tuples_scanned += scanned;
        shapes.extend(seen.into_iter().map(|rgs| Shape { pred, rgs }));
    }
    shapes.sort_unstable();
    ShapesReport {
        shapes,
        stats: ShapeQueryStats::default(),
        tuples_scanned,
    }
}

/// One relation's in-memory shape pass: hash every tuple straight off the
/// borrowed scan row. The unit of work [`find_shapes_parallel`]
/// distributes. Allocation-free per tuple: `Rgs::of_row` packs arities
/// ≤ 16 into an inline word on the stack, and the dedup set only grows by
/// the handful of *distinct* shapes a relation exhibits.
fn relation_shapes_in_memory(src: &dyn TupleSource, pred: PredId) -> (FxHashSet<Rgs>, u64) {
    let mut tuples_scanned = 0u64;
    let mut seen: FxHashSet<Rgs> = FxHashSet::default();
    src.scan(pred, &mut |row| {
        tuples_scanned += 1;
        seen.insert(Rgs::of_row(row));
        true
    });
    (seen, tuples_scanned)
}

/// In-database implementation: Apriori-pruned EXISTS queries per relation.
pub fn find_shapes_in_database(src: &dyn TupleSource) -> ShapesReport {
    let mut shapes: Vec<Shape> = Vec::new();
    let mut stats = ShapeQueryStats::default();
    for pred in src.non_empty_predicates() {
        let (rgss, s) = find_shapes_apriori(src, pred);
        stats.merge(&s);
        shapes.extend(rgss.into_iter().map(|rgs| Shape { pred, rgs }));
    }
    shapes.sort_unstable();
    ShapesReport {
        shapes,
        stats,
        tuples_scanned: 0,
    }
}

/// Materialised-catalog implementation (§10 future work): a constant-time
/// read of the engine's incrementally-maintained shape catalog. Returns
/// `None` when tracking was never enabled on the engine (callers should
/// fall back to one of the online modes).
pub fn find_shapes_materialized(engine: &StorageEngine) -> Option<ShapesReport> {
    let catalog = engine.shape_catalog()?;
    Some(ShapesReport {
        shapes: catalog.shapes(),
        stats: ShapeQueryStats::default(),
        tuples_scanned: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::{Atom, ConstId, Instance, Schema, Term};
    use soct_storage::{InstanceSource, LimitView, StorageEngine};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    fn engine() -> (Schema, StorageEngine) {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 3).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let mut e = StorageEngine::new();
        e.create_table(r, "r", 3);
        e.create_table(p, "p", 2);
        e.insert(r, &[c(1), c(1), c(2)]);
        e.insert(r, &[c(3), c(4), c(5)]);
        e.insert(r, &[c(6), c(6), c(7)]); // duplicate shape
        e.insert(p, &[c(1), c(1)]);
        (schema, e)
    }

    #[test]
    fn worker_sizing_pins_the_4096_row_boundary() {
        // 4095 rows: below one PAR_MIN_ROWS quantum → sequential.
        assert_eq!(planned_workers(4, 2, 4095), 0);
        // Exactly one quantum → still the sequential path (workers ≤ 1).
        assert_eq!(planned_workers(4, 2, 4096), 1);
        // Two quanta across two predicates → exactly 2 workers.
        assert_eq!(planned_workers(4, 2, 2 * 4096), 2);
        // Thread and relation caps still apply.
        assert_eq!(planned_workers(1, 8, 1 << 20), 1);
        assert_eq!(planned_workers(8, 3, 1 << 20), 3);
        // The u64 → usize conversion saturates instead of wrapping: a row
        // count whose quotient exceeds usize::MAX must not truncate the
        // worker count to 0 (the 32-bit failure mode).
        assert_eq!(planned_workers(7, 9, u64::MAX), 7);
    }

    #[test]
    fn in_memory_and_in_database_agree() {
        let (_schema, e) = engine();
        let a = find_shapes(&e, FindShapesMode::InMemory);
        let b = find_shapes(&e, FindShapesMode::InDatabase);
        assert_eq!(a.shapes, b.shapes);
        assert_eq!(a.shapes.len(), 3);
    }

    #[test]
    fn in_memory_counts_tuples_in_database_counts_queries() {
        let (_schema, e) = engine();
        let a = find_shapes(&e, FindShapesMode::InMemory);
        assert_eq!(a.tuples_scanned, 4);
        assert_eq!(a.stats.exact_queries, 0);
        let b = find_shapes(&e, FindShapesMode::InDatabase);
        assert_eq!(b.tuples_scanned, 0);
        assert!(b.stats.exact_queries > 0);
        assert!(b.stats.relaxed_queries >= b.stats.exact_queries);
    }

    #[test]
    fn works_over_views() {
        let (_schema, e) = engine();
        // A 1-row view of r only exposes shape (1,1,2); p exposes (1,1).
        let v = LimitView::new(&e, 1);
        let a = find_shapes(&v, FindShapesMode::InMemory);
        let b = find_shapes(&v, FindShapesMode::InDatabase);
        assert_eq!(a.shapes, b.shapes);
        assert_eq!(a.shapes.len(), 2);
    }

    #[test]
    fn works_over_instances() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let mut inst = Instance::new();
        inst.insert(Atom::new(&schema, r, vec![c(0), c(0)]).unwrap());
        inst.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        let src = InstanceSource::new(&schema, &inst);
        let rep = find_shapes(&src, FindShapesMode::InMemory);
        assert_eq!(rep.shapes.len(), 2);
        assert_eq!(rep.shapes.iter().filter(|s| s.pred == r).count(), 2);
        let rep_db = find_shapes(&src, FindShapesMode::InDatabase);
        assert_eq!(rep.shapes, rep_db.shapes);
    }

    #[test]
    fn materialized_mode_matches_online_modes() {
        let (_schema, mut e) = engine();
        assert!(find_shapes_materialized(&e).is_none(), "tracking off");
        e.enable_shape_tracking();
        let mat = find_shapes_materialized(&e).unwrap();
        let mem = find_shapes(&e, FindShapesMode::InMemory);
        assert_eq!(mat.shapes, mem.shapes);
        // Inserts keep the catalog current.
        let r = soct_model::PredId(0);
        e.insert(r, &[c(9), c(9), c(9)]);
        let mat2 = find_shapes_materialized(&e).unwrap();
        let mem2 = find_shapes(&e, FindShapesMode::InMemory);
        assert_eq!(mat2.shapes, mem2.shapes);
        assert_eq!(mat2.shapes.len(), mat.shapes.len() + 1);
    }

    #[test]
    fn consumes_chase_output_without_conversion() {
        use soct_chase::{run_chase_columnar, ChaseConfig, ChaseVariant};
        use soct_model::{Tgd, VarId};
        let v = |i: u32| Term::Var(VarId(i));
        // r(x,y) → ∃z p(x,z): the chase derives p-atoms with nulls.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, p, vec![v(0), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(0)]).unwrap());
        db.insert(Atom::new(&schema, r, vec![c(1), c(2)]).unwrap());
        let res = run_chase_columnar(
            &db,
            &[tgd],
            &ChaseConfig::unbounded(ChaseVariant::SemiOblivious),
        );
        // The packed store is a TupleSource: no Instance is built here.
        let mem = find_shapes(&res.store, FindShapesMode::InMemory);
        let dbm = find_shapes(&res.store, FindShapesMode::InDatabase);
        assert_eq!(mem.shapes, dbm.shapes);
        // r contributes shapes (1,1) and (1,2); p contributes (1,2).
        assert_eq!(mem.shapes.len(), 3);
        assert_eq!(mem.shapes.iter().filter(|s| s.pred == p).count(), 1);
        // And it agrees with the decoded-instance route.
        let via_instance = soct_model::shape::shapes_of_instance(&res.store.to_instance());
        assert_eq!(mem.shapes, via_instance);
    }

    #[test]
    fn matches_model_level_shape_extraction() {
        // `shapes_of_instance` on the instance and `find_shapes` on the
        // engine must coincide.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 4).unwrap();
        let mut inst = Instance::new();
        let rows: &[&[u32]] = &[&[1, 2, 1, 2], &[3, 3, 3, 3], &[4, 5, 6, 7], &[8, 8, 9, 8]];
        for row in rows {
            let terms: Vec<Term> = row.iter().map(|&x| c(x)).collect();
            inst.insert(Atom::new(&schema, r, terms).unwrap());
        }
        let mut e = StorageEngine::new();
        e.load_instance(&schema, &inst);
        let via_engine = find_shapes(&e, FindShapesMode::InDatabase);
        let via_model = soct_model::shape::shapes_of_instance(&inst);
        assert_eq!(via_engine.shapes, via_model);
    }
}
