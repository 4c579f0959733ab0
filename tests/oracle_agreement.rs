//! Property tests: the acyclicity-based checkers agree with ground truth.
//!
//! Ground truth comes from two independent directions:
//! 1. the materialization-based oracle (`soct-chase`), whenever it is
//!    decisive within budget;
//! 2. direct execution of the semi-oblivious chase: a `Finite` verdict must
//!    let a generously-budgeted chase reach its fixpoint, and an `Infinite`
//!    verdict must keep a tightly-budgeted chase from reaching one.
//!
//! Random inputs are produced by the §6 generators driven from proptest
//! seeds, so shrinking works on the seed space.

use proptest::prelude::*;
use soct::gen::{DataGenConfig, TgdGenConfig};
use soct::prelude::*;

/// Generates a small random (schema, database, TGDs) triple.
fn small_input(seed: u64, linear: bool) -> (Schema, Database, Vec<Tgd>) {
    let mut schema = Schema::new();
    let (preds, db) = soct::gen::generate_instance(
        &DataGenConfig {
            preds: 4,
            min_arity: 1,
            max_arity: 3,
            dsize: 4,
            rsize: 3,
            seed,
        },
        &mut schema,
    );
    let tgds = soct::gen::generate_tgds(
        &TgdGenConfig {
            ssize: 3,
            min_arity: 1,
            max_arity: 3,
            tsize: 5,
            tclass: if linear {
                TgdClass::Linear
            } else {
                TgdClass::SimpleLinear
            },
            existential_prob: 0.3,
            seed: seed.wrapping_mul(0x9e37_79b9).wrapping_add(1),
        },
        &schema,
        &preds,
    );
    (schema, db, tgds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checker_agrees_with_materialization_oracle(seed in 0u64..5_000, linear in any::<bool>()) {
        let (schema, db, tgds) = small_input(seed, linear);
        let fast = check_termination(&schema, &tgds, &db, FindShapesMode::InMemory);
        let oracle = materialization_check(&schema, &tgds, &db, Some(30_000));
        match oracle.verdict {
            MaterializationVerdict::Finite => {
                prop_assert_eq!(fast.verdict, Verdict::Finite, "seed {}", seed);
            }
            MaterializationVerdict::Infinite => {
                prop_assert_eq!(fast.verdict, Verdict::Infinite, "seed {}", seed);
            }
            MaterializationVerdict::BudgetExhausted => {
                // Budget ran out below the (astronomical) bound. A Finite
                // fast verdict would mean a fixpoint above 30K atoms —
                // possible in principle, so retry with a larger budget and
                // only then insist on agreement.
                if fast.verdict == Verdict::Finite {
                    let retry = materialization_check(&schema, &tgds, &db, Some(500_000));
                    if retry.verdict != MaterializationVerdict::BudgetExhausted {
                        prop_assert_eq!(
                            retry.verdict,
                            MaterializationVerdict::Finite,
                            "seed {}",
                            seed
                        );
                    }
                }
                // fast = Infinite is the expected outcome here (saturated
                // bounds never get exceeded): nothing more to check.
            }
        }
    }

    #[test]
    fn finite_verdicts_reach_fixpoints(seed in 0u64..5_000, linear in any::<bool>()) {
        let (schema, db, tgds) = small_input(seed, linear);
        let fast = check_termination(&schema, &tgds, &db, FindShapesMode::InMemory);
        match fast.verdict {
            Verdict::Finite => {
                let chase = run_chase(
                    &db,
                    &tgds,
                    &ChaseConfig::with_max_atoms(ChaseVariant::SemiOblivious, 200_000),
                );
                prop_assert_eq!(chase.outcome, ChaseOutcome::Terminated, "seed {}", seed);
                prop_assert!(soct::model::satisfies_all(&chase.instance, &tgds));
            }
            Verdict::Infinite => {
                // If the chase actually had a fixpoint under this small
                // budget, the Infinite verdict would be a bug.
                let chase = run_chase(
                    &db,
                    &tgds,
                    &ChaseConfig::with_max_atoms(ChaseVariant::SemiOblivious, 2_000),
                );
                prop_assert_ne!(chase.outcome, ChaseOutcome::Terminated, "seed {}", seed);
            }
            Verdict::Unknown => unreachable!("linear classes are decidable"),
        }
    }

    #[test]
    fn in_memory_and_in_database_modes_agree(seed in 0u64..5_000) {
        let (schema, db, tgds) = small_input(seed, true);
        let src = InstanceSource::new(&schema, &db);
        let mem = soct::core::is_chase_finite_l(&schema, &tgds, &src, FindShapesMode::InMemory);
        let dbm = soct::core::is_chase_finite_l(&schema, &tgds, &src, FindShapesMode::InDatabase);
        prop_assert_eq!(mem.finite, dbm.finite);
        prop_assert_eq!(mem.n_db_shapes, dbm.n_db_shapes);
        prop_assert_eq!(mem.shapes_derived, dbm.shapes_derived);
        prop_assert_eq!(mem.n_simplified_tgds, dbm.n_simplified_tgds);
    }

    #[test]
    fn sl_checker_matches_l_checker_on_sl_inputs(seed in 0u64..5_000) {
        let (schema, db, tgds) = small_input(seed, false);
        let db_preds: soct::model::FxHashSet<_> =
            db.non_empty_predicates().into_iter().collect();
        let sl = soct::core::is_chase_finite_sl(&schema, &tgds, &db_preds);
        let src = InstanceSource::new(&schema, &db);
        let l = soct::core::is_chase_finite_l(&schema, &tgds, &src, FindShapesMode::InMemory);
        prop_assert_eq!(sl.finite, l.finite, "seed {}", seed);
    }
}

/// Corpus-wide agreement: every checked-in corpus entry gets the manifest's
/// expected verdict in every cell of {instance, untracked engine, tracked
/// engine} × threads {1, 4} × {no cache, miss, hit}; the engines hold the
/// critical instance. Every cache key carries the db fingerprint the wire
/// has always shown: the instance's shape set (L) or non-empty predicates
/// (SL/general), XORed with the live domain tag on engine views.
#[test]
fn corpus_agrees_across_views_threads_and_cache_states() {
    let dir = soct::gen::repo_corpus_dir();
    let entries = soct::gen::load_manifest(&dir).expect("checked-in corpus manifest");
    assert!(!entries.is_empty());
    for e in &entries {
        let text = std::fs::read_to_string(dir.join(&e.file)).expect(&e.file);
        let mut schema = Schema::new();
        let mut consts = Interner::new();
        let tgds = parse_tgds(&text, &mut schema, &mut consts).expect(&e.file);
        assert_eq!(
            fingerprint_ruleset(&schema, &tgds).0,
            e.fingerprint,
            "{}: parsed ruleset must match the manifest fingerprint",
            e.file
        );
        let db = soct::serve::critical_instance(&schema, &tgds, &mut consts);
        let mut untracked = StorageEngine::new();
        untracked.load_instance(&schema, &db);
        let mut tracked = StorageEngine::new();
        tracked.load_instance(&schema, &db);
        tracked.enable_shape_tracking();

        let class = soct::model::tgd::classify(&tgds);
        let instance_fp = match class {
            TgdClass::Linear => fingerprint_instance_shapes(&schema, &db),
            TgdClass::SimpleLinear | TgdClass::General => {
                fingerprint_predicates(&schema, &db.non_empty_predicates())
            }
        };
        let engine_fp = Fingerprint(instance_fp.0 ^ soct::core::LIVE_DB_DOMAIN);
        let views: [(&str, &dyn DbView, Fingerprint); 3] = [
            ("instance", &db, instance_fp),
            ("untracked engine", &untracked, engine_fp),
            ("tracked engine", &tracked, engine_fp),
        ];
        for (view_name, view, db_fp) in views {
            for threads in [1, 4] {
                let cell = format!("{}: {view_name}, {threads} threads", e.file);
                let opts = CheckOpts {
                    mode: FindShapesMode::InMemory,
                    threads,
                    cache: None,
                };
                let plain = check_termination(&schema, &tgds, view, opts);
                assert_eq!(plain.verdict, e.verdict, "{cell}, no cache");
                assert_eq!(plain.class, class, "{cell}, no cache");
                assert!(plain.cache.is_none(), "{cell}, no cache");

                let cache = VerdictCache::new(4);
                for (state, hit) in [("miss", false), ("hit", true)] {
                    let opts = CheckOpts {
                        cache: Some(&cache),
                        ..opts
                    };
                    let report = check_termination(&schema, &tgds, view, opts);
                    let checked = report.cache.expect("cache section");
                    assert_eq!(report.verdict, e.verdict, "{cell}, {state}");
                    assert_eq!(report.class, class, "{cell}, {state}");
                    assert_eq!(checked.hit, hit, "{cell}, {state}");
                    assert_eq!(checked.rules_fp.0, e.fingerprint, "{cell}, {state}");
                    assert_eq!(checked.db_fp, db_fp, "{cell}, {state}");
                }
            }
        }
    }
}

/// The acceptance floor of the corpus itself: at least 4 families × at
/// least 3 tiers, with at least 5 deduplicated rulesets per bucket.
#[test]
fn corpus_covers_families_and_tiers_with_full_deduplicated_buckets() {
    let entries = soct::gen::load_manifest(&soct::gen::repo_corpus_dir()).unwrap();
    let mut buckets: soct::model::FxHashMap<(soct::gen::Family, soct::gen::Difficulty), usize> =
        soct::model::FxHashMap::default();
    let mut fps: soct::model::FxHashSet<u128> = soct::model::FxHashSet::default();
    for e in &entries {
        *buckets.entry((e.family, e.difficulty)).or_default() += 1;
        assert!(
            fps.insert(e.fingerprint),
            "{}: duplicate fingerprint in corpus",
            e.file
        );
    }
    let families: soct::model::FxHashSet<_> = buckets.keys().map(|&(f, _)| f).collect();
    let tiers: soct::model::FxHashSet<_> = buckets.keys().map(|&(_, d)| d).collect();
    assert!(families.len() >= 4, "families: {families:?}");
    assert!(tiers.len() >= 3, "tiers: {tiers:?}");
    for (bucket, n) in &buckets {
        assert!(*n >= 5, "bucket {bucket:?} has only {n} entries");
    }
}

#[test]
fn regression_example_3_4_family() {
    // Hand-picked instances of the linear-vs-SL gap.
    for (rules, facts, expect) in [
        ("r(X, X) -> r(Z, X).", "r(a, b).", Verdict::Finite),
        ("r(X, X) -> r(Z, X).", "r(a, a).", Verdict::Finite),
        // r(a,a) → r(a,⊥); r(a,⊥) no longer matches r(X,X): finite.
        ("r(X, X) -> r(X, Z).", "r(a, a).", Verdict::Finite),
        // ... but closing the shape loop through s diverges.
        (
            "r(X, X) -> s(X, Z).\ns(X, Y) -> r(Y, Y).",
            "r(a, a).",
            Verdict::Infinite,
        ),
        ("r(X, Y) -> r(Y, Z).", "r(a, b).", Verdict::Infinite),
        ("r(X, Y) -> r(Y, X).", "r(a, b).", Verdict::Finite),
    ] {
        let p = Program::parse(&format!("{rules}\n{facts}")).unwrap();
        let v = check_termination(&p.schema, &p.tgds, &p.database, FindShapesMode::InMemory);
        assert_eq!(v.verdict, expect, "{rules} over {facts}");
    }
}
