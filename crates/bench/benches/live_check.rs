//! Live-database revalidation benchmarks: the cost of re-answering a
//! termination check after one write to a resident 100k-tuple engine.
//!
//! The tentpole claim: with shape tracking on, a shape-preserving insert
//! updates two O(1) multiset accumulators, so the next check is a cache
//! hit keyed on the maintained fingerprint — independent of database
//! size — versus the cold path, which re-runs `FindShapes` over every
//! tuple. Target: ≥ 100× at 100k tuples, sub-millisecond absolute.
//! Recorded numbers live in `crates/bench/BASELINES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use soct_core::{check_termination, CheckOpts, FindShapesMode, VerdictCache};
use soct_model::{Interner, PredId, Schema, Tgd};
use soct_storage::StorageEngine;
use std::cell::{Cell, RefCell};
use std::time::Duration;

/// Linear rules whose verdict depends on the shape `r_(1,1)` — the
/// database half of the cache key is the live shape-set fingerprint.
const RULES: &str = "r(X, X) -> s(X).\ns(X) -> t(X, Y).\nt(X, Y) -> s(Y).\n";

/// Database scales (tuples in `r`); 100_000 is the headline scale.
const SCALES: &[u64] = &[10_000, 100_000];

/// Packs constant `i` the way the engine stores interned constants.
fn konst(i: u64) -> u64 {
    i << 1
}

/// A fresh distinct-column row — shape `r_(1,2)`, never `r_(1,1)`.
fn fresh_row(i: u64) -> [u64; 2] {
    [konst(i), konst(i + (1 << 40))]
}

/// Builds the vocabulary and an engine with `rows` distinct-column
/// tuples in `r` (one shape, `r_(1,2)`). `tracking` controls whether the
/// incremental catalog/fingerprint maintenance is on — the cold baseline
/// must run *without* it, so the checker genuinely rescans every tuple.
fn build_live(rows: u64, tracking: bool) -> (Schema, Vec<Tgd>, PredId, StorageEngine) {
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let tgds = soct_parser::parse_tgds(RULES, &mut schema, &mut consts).unwrap();
    let r = schema.pred_by_name("r").unwrap();
    let mut engine = StorageEngine::new();
    for p in schema.predicates() {
        engine.create_table(p, schema.name(p), schema.arity(p));
    }
    for i in 0..rows {
        engine.insert_packed(r, &fresh_row(i));
    }
    if tracking {
        engine.enable_shape_tracking();
    }
    (schema, tgds, r, engine)
}

/// In-memory `FindShapes` on one thread, optionally through `cache`.
fn single_thread(cache: Option<&VerdictCache>) -> CheckOpts<'_> {
    CheckOpts {
        mode: FindShapesMode::InMemory,
        threads: 1,
        cache,
    }
}

/// The cold path: full re-derivation against the engine — `FindShapes`
/// scans every tuple, then simplification + dependency graph + SCCs.
/// This is what every write would cost without incremental fingerprints.
fn bench_full_recheck(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_check/full_recheck");
    for &rows in SCALES {
        let (schema, tgds, _r, engine) = build_live(rows, false);
        group.throughput(Throughput::Elements(rows));
        group.bench_with_input(BenchmarkId::new("tuples", rows), &engine, |b, engine| {
            b.iter(|| check_termination(&schema, &tgds, engine, single_thread(None)).verdict)
        });
    }
    group.finish();
}

/// The live path: one shape-preserving insert, then the re-verdict via
/// the maintained fingerprint — a pure cache hit, no tuple ever scanned.
/// The measured unit is insert + check, i.e. the full "database changed,
/// is the verdict still valid?" round trip.
fn bench_revalidate_after_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_check/insert_then_check");
    for &rows in SCALES {
        let (schema, tgds, r, engine) = build_live(rows, true);
        let cache = VerdictCache::new(64);
        // Warm: the one genuine derivation this scale ever pays.
        let first = check_termination(&schema, &tgds, &engine, single_thread(Some(&cache)));
        assert!(!first.cache.unwrap().hit);
        let engine = RefCell::new(engine);
        let next = Cell::new(rows);
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("tuples", rows), |b| {
            b.iter(|| {
                let mut e = engine.borrow_mut();
                e.insert_packed(r, &fresh_row(next.replace(next.get() + 1)));
                let got = check_termination(&schema, &tgds, &*e, single_thread(Some(&cache)));
                assert!(
                    got.cache.unwrap().hit,
                    "shape-preserving insert must revalidate"
                );
                got.verdict
            })
        });
    }
    group.finish();
}

/// Raw write throughput with the maintenance on vs off: one insert + one
/// delete of the same fresh tuple (constant database size, and the
/// delete path exercises swap-remove plus the catalog/fingerprint
/// bookkeeping's 1 → 0 transition).
fn bench_write_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_check/insert_delete_pair");
    for tracking in [false, true] {
        let (_schema, _tgds, r, engine) = build_live(10_000, tracking);
        let engine = RefCell::new(engine);
        let next = Cell::new(1u64 << 50);
        group.throughput(Throughput::Elements(2));
        group.bench_function(
            BenchmarkId::new("tracking", if tracking { "on" } else { "off" }),
            |b| {
                b.iter(|| {
                    let mut e = engine.borrow_mut();
                    let row = fresh_row(next.replace(next.get() + 1));
                    e.insert_packed(r, &row);
                    e.delete_packed(r, &row)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));
    targets = bench_full_recheck, bench_revalidate_after_insert, bench_write_overhead
}
criterion_main!(benches);
