//! Write-ahead-log throughput: acknowledged inserts/s into a durable
//! engine across the three sync policies (`always` / `batch` / `off`),
//! alone and with concurrent live termination checks sharing the lock —
//! the serve tier's exact write-path shape (log first, then apply).
//!
//! What the policies buy: `always` pays one fsync per acknowledged
//! record, `batch` one per 32 records, `off` none (durability only at
//! flush/checkpoint). Recorded numbers live in
//! `crates/bench/BASELINES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use soct_core::{check_termination, CheckOpts, FindShapesMode, VerdictCache};
use soct_model::{Interner, PredId, Schema, Tgd};
use soct_storage::{open_durable, RealIo, StorageEngine, SyncPolicy, Wal, WalEntry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Same shape-sensitive linear ruleset as the live_check bench — the
/// concurrent checker revalidates against the maintained fingerprint.
const RULES: &str = "r(X, X) -> s(X).\ns(X) -> t(X, Y).\nt(X, Y) -> s(Y).\n";

/// Tuples preloaded before measuring, so checks run against a database
/// of realistic size rather than an empty one.
const PRELOAD: u64 = 10_000;

/// Packs constant `i` the way the engine stores interned constants.
fn konst(i: u64) -> u64 {
    i << 1
}

/// A fresh distinct-column row — shape `r_(1,2)`, so every insert is
/// shape-preserving and the checker thread always revalidates.
fn fresh_row(i: u64) -> [u64; 2] {
    [konst(i), konst(i + (1 << 40))]
}

/// Fresh per-policy durable directory, unique across the bench binary.
fn bench_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "soct_wal_bench_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Opens a durable engine under `policy`, preloaded with [`PRELOAD`]
/// logged tuples in `r`, plus the parsed vocabulary the checks use.
#[allow(clippy::type_complexity)]
fn build_durable(
    policy: SyncPolicy,
    tag: &str,
) -> (
    std::path::PathBuf,
    Schema,
    Vec<Tgd>,
    PredId,
    Wal,
    StorageEngine,
) {
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let tgds = soct_parser::parse_tgds(RULES, &mut schema, &mut consts).unwrap();
    let r = schema.pred_by_name("r").unwrap();
    let dir = bench_dir(tag);
    let d = open_durable(&dir, policy, Box::new(RealIo::new())).unwrap();
    let (mut wal, mut engine) = (d.wal, d.engine);
    for p in schema.predicates() {
        engine.create_table(p, schema.name(p), schema.arity(p));
    }
    for i in 0..PRELOAD {
        let row = fresh_row(i);
        wal.append_ops(&[entry(r, &row)]).unwrap();
        engine.insert_packed(r, &row);
    }
    (dir, schema, tgds, r, wal, engine)
}

fn entry(r: PredId, row: &[u64; 2]) -> WalEntry {
    WalEntry {
        insert: true,
        pred: r,
        name: "r".to_string(),
        row: row.to_vec(),
    }
}

fn policy_name(p: SyncPolicy) -> &'static str {
    match p {
        SyncPolicy::Always => "always",
        SyncPolicy::Batch => "batch",
        SyncPolicy::Off => "off",
    }
}

/// Acknowledged single-tuple inserts, writer alone: one WAL record
/// (framed + checksummed + policy-synced) then the engine apply.
fn bench_insert_alone(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_throughput/insert_alone");
    for policy in [SyncPolicy::Off, SyncPolicy::Batch, SyncPolicy::Always] {
        let (dir, _schema, _tgds, r, wal, engine) = build_durable(policy, "alone");
        let state = RwLock::new((wal, engine));
        let next = AtomicU64::new(PRELOAD);
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("sync", policy_name(policy)), |b| {
            b.iter(|| {
                let mut g = state.write().unwrap();
                let row = fresh_row(next.fetch_add(1, Ordering::Relaxed));
                g.0.append_ops(&[entry(r, &row)]).unwrap();
                g.1.insert_packed(r, &row);
            })
        });
        let _ = std::fs::remove_dir_all(dir);
    }
    group.finish();
}

/// The contended shape: one writer streaming acknowledged inserts while
/// a checker thread runs live termination checks against the same
/// engine under the read side of the lock (every check is a
/// fingerprint revalidation, the serve tier's steady state).
fn bench_insert_under_live_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_throughput/insert_with_live_checks");
    for policy in [SyncPolicy::Off, SyncPolicy::Batch, SyncPolicy::Always] {
        let (dir, schema, tgds, r, wal, engine) = build_durable(policy, "checked");
        let state = Arc::new(RwLock::new((wal, engine)));
        let stop = Arc::new(AtomicBool::new(false));
        let checker = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let (schema, tgds) = (schema.clone(), tgds.clone());
            std::thread::spawn(move || {
                let cache = VerdictCache::new(64);
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = state.read().unwrap();
                    let opts = CheckOpts {
                        mode: FindShapesMode::InMemory,
                        threads: 1,
                        cache: Some(&cache),
                    };
                    check_termination(&schema, &tgds, &g.1, opts);
                    checks += 1;
                }
                checks
            })
        };
        let next = AtomicU64::new(PRELOAD);
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("sync", policy_name(policy)), |b| {
            b.iter(|| {
                let mut g = state.write().unwrap();
                let row = fresh_row(next.fetch_add(1, Ordering::Relaxed));
                g.0.append_ops(&[entry(r, &row)]).unwrap();
                g.1.insert_packed(r, &row);
            })
        });
        stop.store(true, Ordering::Relaxed);
        let checks = checker.join().unwrap();
        assert!(checks > 0, "checker thread never got the read lock");
        let _ = std::fs::remove_dir_all(dir);
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));
    targets = bench_insert_alone, bench_insert_under_live_checks
}
criterion_main!(benches);
