//! Differential property tests for the live-database layer: random
//! insert/delete interleavings against a tracking-enabled
//! [`StorageEngine`] must leave the incrementally maintained shape
//! catalog, both set fingerprints, and the cached verdict **bit-identical**
//! to rebuilding everything from scratch over the surviving tuples — on
//! both a Linear and a simple-linear ruleset.
//!
//! This is the soundness argument for live-database cache revalidation:
//! if the maintained fingerprint always equals the rebuilt one, a cache
//! hit keyed on it can never serve a verdict for a database with a
//! different shape set (L) or non-empty-predicate set (SL).

use proptest::prelude::*;
use soct::prelude::*;

/// One mutation against a 3-predicate vocabulary (`r/2`, `s/1`, `t/2`).
/// Constants are drawn from a 3-element pool, so interleavings routinely
/// produce duplicate tuples, repeated-column tuples (fresh shapes), hits
/// and misses on delete, and relations emptying out and refilling — all
/// the multiplicity transitions the incremental maintenance must get
/// right.
#[derive(Clone, Copy, Debug)]
struct Op {
    pred: usize,
    a: u32,
    b: u32,
    del: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..3, 0u32..3, 0u32..3, any::<bool>()).prop_map(|(pred, a, b, del)| Op {
        pred,
        a,
        b,
        del,
    })
}

/// The Linear ruleset whose verdict flips on the shape `r_(1,1)`, and a
/// simple-linear one whose verdict depends on which relations are
/// non-empty — both over the same `r/2`, `s/1`, `t/2` vocabulary.
const L_RULES: &str = "r(X, X) -> s(X).\ns(X) -> t(X, Y).\nt(X, Y) -> s(Y).\n";
const SL_RULES: &str = "r(X, Y) -> s(Y).\ns(X) -> t(X, Y).\nt(X, Y) -> r(Y, Z).\n";

fn vocabulary(rules: &str) -> (Schema, Interner, Vec<Tgd>, [PredAndArity; 3]) {
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let tgds = parse_tgds(rules, &mut schema, &mut consts).unwrap();
    let preds = ["r", "s", "t"].map(|name| {
        let p = schema.pred_by_name(name).unwrap();
        (p, schema.arity(p))
    });
    (schema, consts, tgds, preds)
}

type PredAndArity = (soct::model::PredId, usize);

/// A single-threaded in-memory check through `cache`.
fn through(cache: &VerdictCache) -> CheckOpts<'_> {
    CheckOpts {
        mode: FindShapesMode::InMemory,
        threads: 1,
        cache: Some(cache),
    }
}

fn row_of(op: Op, arity: usize) -> Vec<Term> {
    let mut row = vec![Term::Const(ConstId(op.a))];
    if arity == 2 {
        row.push(Term::Const(ConstId(op.b)));
    }
    row
}

/// Rebuilds a tracking engine from scratch over exactly `rows` — the
/// ground truth every incremental state is compared against.
fn rebuild(
    schema: &Schema,
    preds: &[PredAndArity; 3],
    rows: &[Vec<(usize, Vec<Term>)>; 3],
) -> StorageEngine {
    let mut engine = StorageEngine::new();
    for &(p, arity) in preds {
        engine.create_table(p, schema.name(p), arity);
    }
    for (i, per_pred) in rows.iter().enumerate() {
        for (_, row) in per_pred {
            engine.insert(preds[i].0, row);
        }
    }
    engine.enable_shape_tracking();
    engine
}

/// Applies `ops` to a tracking engine while mirroring the surviving
/// multiset, checking after **every** step that the maintained
/// fingerprints equal (a) a full rebuild over the survivors and (b) the
/// non-incremental `fingerprint_shapes` / `fingerprint_predicates` forms.
fn run_interleaving(rules: &str, ops: &[Op]) -> Result<(), TestCaseError> {
    let (schema, _consts, tgds, preds) = vocabulary(rules);
    let mut engine = StorageEngine::new();
    for &(p, arity) in &preds {
        engine.create_table(p, schema.name(p), arity);
    }
    engine.enable_shape_tracking();
    // Reference model: the surviving tuple multiset, one list per predicate.
    let mut model: [Vec<(usize, Vec<Term>)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let cache = VerdictCache::new(64);

    for (step, &op) in ops.iter().enumerate() {
        let (pred, arity) = preds[op.pred];
        let row = row_of(op, arity);
        if op.del {
            let deleted = engine.delete(pred, &row);
            let model_pos = model[op.pred].iter().position(|(_, r)| *r == row);
            prop_assert_eq!(
                deleted,
                model_pos.is_some(),
                "step {}: delete hit/miss diverged from the model",
                step
            );
            if let Some(i) = model_pos {
                model[op.pred].swap_remove(i);
            }
        } else {
            engine.insert(pred, &row);
            model[op.pred].push((step, row));
        }

        // (a) Incremental ≡ rebuilt-from-scratch, bit for bit.
        let scratch = rebuild(&schema, &preds, &model);
        prop_assert_eq!(engine.shape_fingerprint(), scratch.shape_fingerprint());
        prop_assert_eq!(
            engine.predicate_fingerprint(),
            scratch.predicate_fingerprint()
        );

        // (b) Incremental ≡ the non-incremental combinators over a fresh
        // shape scan / catalog query of the live engine itself.
        let scanned = find_shapes(&engine, FindShapesMode::InMemory).shapes;
        prop_assert_eq!(
            engine.shape_fingerprint().unwrap(),
            fingerprint_shapes(&schema, &scanned)
        );
        prop_assert_eq!(
            engine.predicate_fingerprint().unwrap(),
            fingerprint_predicates(&schema, &engine.non_empty_predicates())
        );

        // Engine-driven writes are provably in sync: no rebuilds forced.
        prop_assert_eq!(engine.catalog_rebuilds(), 0);

        // (c) The cached verdict is the scratch verdict — and both engines
        // produce the same cache key, so revalidation is sound.
        let cached = check_termination(&schema, &tgds, &engine, through(&cache));
        let truth = check_termination(&schema, &tgds, &scratch, through(&VerdictCache::new(1)));
        let (live_key, scratch_key) = (cached.cache.unwrap(), truth.cache.unwrap());
        prop_assert!(!scratch_key.hit);
        prop_assert_eq!(
            (live_key.rules_fp, live_key.db_fp),
            (scratch_key.rules_fp, scratch_key.db_fp)
        );
        prop_assert_eq!(cached.verdict, truth.verdict, "step {}", step);
        prop_assert_eq!(cached.class, truth.class);
        // Asking again without a write in between must be a pure hit.
        let again = check_termination(&schema, &tgds, &engine, through(&cache));
        prop_assert!(again.cache.unwrap().hit);
        prop_assert_eq!(again.verdict, truth.verdict);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linear_interleavings_match_rebuild(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_interleaving(L_RULES, &ops)?;
    }

    #[test]
    fn simple_linear_interleavings_match_rebuild(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_interleaving(SL_RULES, &ops)?;
    }
}

/// A directed (non-random) interleaving hammering the distinct-set
/// transitions: duplicate inserts, delete of one duplicate, delete to
/// empty, and reinsert must round-trip both fingerprints exactly.
#[test]
fn multiplicity_transitions_round_trip_exactly() {
    let (schema, _consts, tgds, preds) = vocabulary(L_RULES);
    let (r, _) = preds[0];
    let mut engine = StorageEngine::new();
    engine.create_table(r, "r", 2);
    engine.enable_shape_tracking();
    let empty_shapes = engine.shape_fingerprint().unwrap();
    let empty_preds = engine.predicate_fingerprint().unwrap();

    let tup = [Term::Const(ConstId(0)), Term::Const(ConstId(0))];
    engine.insert(r, &tup);
    let one_shapes = engine.shape_fingerprint().unwrap();
    assert_ne!(one_shapes, empty_shapes, "shape r_(1,1) must register");

    // Multiplicity 1 → 2 → 1: neither fingerprint moves.
    engine.insert(r, &tup);
    assert_eq!(engine.shape_fingerprint().unwrap(), one_shapes);
    assert!(engine.delete(r, &tup));
    assert_eq!(engine.shape_fingerprint().unwrap(), one_shapes);

    // 1 → 0 → 1: both fingerprints return to their exact prior values.
    assert!(engine.delete(r, &tup));
    assert_eq!(engine.shape_fingerprint().unwrap(), empty_shapes);
    assert_eq!(engine.predicate_fingerprint().unwrap(), empty_preds);
    engine.insert(r, &tup);
    assert_eq!(engine.shape_fingerprint().unwrap(), one_shapes);

    // And the verdicts across that cycle come from the same cache entries.
    let cache = VerdictCache::new(16);
    let a = check_termination(&schema, &tgds, &engine, through(&cache));
    assert_eq!(a.verdict, Verdict::Infinite);
    assert!(engine.delete(r, &tup));
    let b = check_termination(&schema, &tgds, &engine, through(&cache));
    assert_eq!(b.verdict, Verdict::Finite);
    engine.insert(r, &tup);
    let c = check_termination(&schema, &tgds, &engine, through(&cache));
    assert!(
        c.cache.unwrap().hit,
        "restored shape set must revalidate the first verdict"
    );
    assert_eq!(c.verdict, Verdict::Infinite);
}
