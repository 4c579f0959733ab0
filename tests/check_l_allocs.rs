//! Allocation gates for the two hot layers of Algorithm 3 (IsChaseFinite[L]):
//! the EXISTS queries of in-database FindShapes (§5.4) and shape interning
//! in DynSimplification (Algorithm 2).
//!
//! Allocation counts are deterministic, so these gates fail exactly when a
//! query starts allocating again (a scratch row buffer, a boxed predicate)
//! or interning a shape starts building strings again, with no dependence
//! on wall time. The counting allocator is per thread, so other tests
//! running in parallel cannot disturb the counts.

mod alloc_counter;

use alloc_counter::calls;
use soct::core::dyn_simplification;
use soct::gen::{generate_database, DataGenConfig};
use soct::prelude::*;
use soct::storage::shape_conditions;

/// The fixed seeded database: 60 relations of arity 1–6 with 300 tuples
/// each over 50 constants, so most relations exhibit most of their shapes
/// and the Apriori walk climbs deep into every lattice.
fn database() -> (Schema, StorageEngine) {
    let cfg = DataGenConfig {
        preds: 60,
        min_arity: 1,
        max_arity: 6,
        dsize: 50,
        rsize: 300,
        seed: 0x5eed_a110c,
    };
    let mut schema = Schema::new();
    let data = generate_database(&cfg, &mut schema);
    (schema, data.engine)
}

/// Allocator calls per EXISTS query of the whole in-database FindShapes,
/// measured at 0.183 (758 calls over 4142 queries) on this database. The
/// queries themselves allocate nothing (see the zero gate below); what
/// remains is each relation's walk state (visited set, queue, condition
/// and coarsening buffers, found list), about 13 calls per relation. A
/// query that allocated even once would read above 1.
const CEILING_PER_QUERY: f64 = 0.25;

/// Allocator calls per interned shape, measured at 0.022 (41 calls over
/// 1853 shapes) on this database: only the amortised growth of the
/// interner's map, its origin list and the derived schema's two vectors.
/// Building a name string per shape would read above 1.
const CEILING_PER_SHAPE: f64 = 0.05;

#[test]
fn in_database_find_shapes_stays_under_the_per_query_ceiling() {
    let (_, engine) = database();
    let before = calls();
    let report = find_shapes(&engine, FindShapesMode::InDatabase);
    let spent = calls() - before;
    let queries = report.stats.relaxed_queries + report.stats.exact_queries;
    assert!(
        queries > 4_000,
        "the walk must be deep, got {queries} queries"
    );
    let per_query = spent as f64 / queries as f64;
    assert!(
        per_query <= CEILING_PER_QUERY,
        "in-database FindShapes took {per_query:.4} allocator calls per EXISTS query \
         ({spent} over {queries}), ceiling {CEILING_PER_QUERY}"
    );
}

#[test]
fn an_exists_query_allocates_nothing() {
    let (_, engine) = database();
    let shapes = find_shapes(&engine, FindShapesMode::InMemory).shapes;
    let conds: Vec<_> = shapes
        .iter()
        .map(|s| (s.pred, shape_conditions(&s.rgs)))
        .collect();
    let before = calls();
    let found = conds
        .iter()
        .filter(|(pred, c)| engine.exists_where(*pred, c))
        .count();
    assert_eq!(calls() - before, 0, "EXISTS queries allocated");
    assert_eq!(found, shapes.len(), "every present shape has a witness");
}

#[test]
fn interning_shapes_stays_under_the_per_shape_ceiling() {
    let (schema, engine) = database();
    let shapes = find_shapes(&engine, FindShapesMode::InMemory).shapes;
    // With no rules, DynSimplification interns exactly shape(D) and does
    // nothing else, so every call counted here is interning.
    let before = calls();
    let simplified = dyn_simplification(&schema, &[], &shapes);
    let spent = calls() - before;
    assert_eq!(simplified.shapes_derived, shapes.len());
    assert!(shapes.len() > 1_000, "got {} shapes", shapes.len());
    let per_shape = spent as f64 / shapes.len() as f64;
    assert!(
        per_shape <= CEILING_PER_SHAPE,
        "DynSimplification took {per_shape:.4} allocator calls per interned shape \
         ({spent} over {}), ceiling {CEILING_PER_SHAPE}",
        shapes.len()
    );
}
