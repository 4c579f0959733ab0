//! A sharded, LRU-bounded, persistable verdict cache over the fingerprint
//! layer of `soct_model::fingerprint`.
//!
//! The paper factors termination checking into a database-independent
//! phase over the ruleset and a database-dependent phase over the shapes
//! (`LTimings::db_independent`), which makes verdicts reusable across any
//! two requests whose ruleset and shape fingerprints agree. The cache
//! keys on exactly that pair:
//!
//! - the **ruleset key** is [`fingerprint_ruleset`] — order-, renaming-,
//!   and interning-invariant;
//! - the **database key** depends on the TGD class: linear sets key on
//!   `shape(D)` ([`fingerprint_shapes`]), simple-linear and general sets
//!   key only on the non-empty predicates ([`fingerprint_predicates`]) —
//!   the verdict provably depends on nothing else (§4, Remark 1). The
//!   database is read through a [`crate::DbView`], and engine views tag
//!   their half with [`LIVE_DB_DOMAIN`].
//!
//! Entries are spread over a fixed number of shards, each behind its own
//! mutex, so a serving layer can probe concurrently; every shard enforces
//! its slice of the LRU bound with timestamp eviction. The whole cache
//! serialises to a small binary blob (`SOCTVC1\0` framing, in the style
//! of `soct_storage::persist`) so a service restart starts warm.
//!
//! [`fingerprint_shapes`]: soct_model::fingerprint::fingerprint_shapes
//! [`fingerprint_predicates`]: soct_model::fingerprint::fingerprint_predicates

use crate::oracle::{DbInput, TerminationReport, Verdict};
use crate::timings::CacheTimings;
use bytes::{Buf, BufMut, BytesMut};
use soct_model::fingerprint::{fingerprint_ruleset, Fingerprint};
use soct_model::{FxHashMap, Schema, Tgd, TgdClass};
use soct_obs::Phases;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The pair of fingerprints a verdict is keyed by.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CacheKey {
    /// Canonical ruleset fingerprint.
    pub rules: Fingerprint,
    /// Class-dependent database fingerprint (shapes for L, non-empty
    /// predicates for SL/general).
    pub db: Fingerprint,
}

/// Domain tag XORed into the db half of every cache key taken over a
/// `StorageEngine` view.
///
/// Without it, a live check and a body (instance) check over databases
/// with coinciding fingerprints map to the *same* entry. That sharing is
/// only sound while the maintained accumulators are provably exact;
/// separating the domains means a desynced live fingerprint can at worst
/// serve a stale *live* verdict, never poison the instance keyspace (and
/// vice versa). The revalidation property is untouched: live keys still
/// collide with other live keys exactly when the underlying fingerprints
/// agree.
pub const LIVE_DB_DOMAIN: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834;

/// One cached verdict.
#[derive(Clone, Copy, Debug)]
struct Entry {
    verdict: Verdict,
    class: TgdClass,
    last_used: u64,
}

/// Monotonic counters exposed by [`VerdictCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

const SHARD_COUNT: usize = 16;
const MAGIC: &[u8; 8] = b"SOCTVC1\0";

/// A sharded in-memory verdict cache with an LRU bound.
#[derive(Debug)]
pub struct VerdictCache {
    shards: Vec<Mutex<FxHashMap<CacheKey, Entry>>>,
    per_shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl VerdictCache {
    /// Creates a cache bounded to roughly `capacity` entries (spread over
    /// the shards; each shard enforces its own slice of the bound). A zero
    /// capacity is bumped to one entry per shard.
    pub fn new(capacity: usize) -> Self {
        VerdictCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry bound.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARD_COUNT
    }

    /// Current number of cached verdicts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when no verdict is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<FxHashMap<CacheKey, Entry>> {
        let folded = key.rules.0 ^ key.db.0.rotate_left(64);
        let h = (folded as u64) ^ ((folded >> 64) as u64);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks up the verdict stored for `key`, refreshing its LRU stamp on
    /// a hit. The class is a function of the ruleset, so an entry stored
    /// under another `class` (a corrupted or foreign cache file) is not
    /// trusted: it counts as a miss.
    pub fn get(&self, key: &CacheKey, class: TgdClass) -> Option<Verdict> {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        match shard.get_mut(key).filter(|e| e.class == class) {
            Some(e) => {
                e.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.verdict)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a verdict, evicting the least-recently-used
    /// entry of the target shard when it is full.
    pub fn insert(&self, key: CacheKey, verdict: Verdict, class: TgdClass) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        if shard.len() >= self.per_shard_capacity && !shard.contains_key(&key) {
            // O(shard) scan per eviction: shards are small (capacity /
            // 16) and evictions only happen once a shard is full.
            if let Some(oldest) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(
            key,
            Entry {
                verdict,
                class,
                last_used: stamp,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Serialises all entries (`SOCTVC1\0` magic, little-endian u32 count,
    /// then 34-byte records: rules fp, db fp, verdict, class). Entries are
    /// sorted by key, so equal caches serialise to equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut entries: Vec<(CacheKey, Entry)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(k, e)| (*k, *e))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut out = BytesMut::with_capacity(12 + entries.len() * 34);
        out.put_slice(MAGIC);
        out.put_u32_le(entries.len() as u32);
        for (k, e) in entries {
            out.put_slice(&k.rules.to_le_bytes());
            out.put_slice(&k.db.to_le_bytes());
            out.put_u8(verdict_code(e.verdict));
            out.put_u8(class_code(e.class));
        }
        out.to_vec()
    }

    /// Loads entries serialised by [`VerdictCache::to_bytes`] into this
    /// cache (on top of whatever it already holds).
    pub fn load_bytes(&self, mut data: &[u8]) -> io::Result<()> {
        let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        if data.len() < 12 || &data[..8] != MAGIC {
            return Err(err("bad verdict-cache magic"));
        }
        data.advance(8);
        let count = data.get_u32_le() as usize;
        if data.remaining() < count * 34 {
            return Err(err("truncated verdict-cache entries"));
        }
        for _ in 0..count {
            let mut fp = [0u8; 16];
            fp.copy_from_slice(&data[..16]);
            data.advance(16);
            let rules = Fingerprint::from_le_bytes(fp);
            fp.copy_from_slice(&data[..16]);
            data.advance(16);
            let db = Fingerprint::from_le_bytes(fp);
            let verdict = decode_verdict(data.get_u8()).ok_or_else(|| err("bad verdict code"))?;
            let class = decode_class(data.get_u8()).ok_or_else(|| err("bad class code"))?;
            self.insert(CacheKey { rules, db }, verdict, class);
        }
        Ok(())
    }

    /// Writes the cache to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a file written by [`VerdictCache::save`] into this cache.
    pub fn load(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.load_bytes(&std::fs::read(path)?)
    }
}

fn verdict_code(v: Verdict) -> u8 {
    match v {
        Verdict::Finite => 0,
        Verdict::Infinite => 1,
        Verdict::Unknown => 2,
    }
}

fn decode_verdict(b: u8) -> Option<Verdict> {
    match b {
        0 => Some(Verdict::Finite),
        1 => Some(Verdict::Infinite),
        2 => Some(Verdict::Unknown),
        _ => None,
    }
}

fn class_code(c: TgdClass) -> u8 {
    match c {
        TgdClass::SimpleLinear => 0,
        TgdClass::Linear => 1,
        TgdClass::General => 2,
    }
}

fn decode_class(b: u8) -> Option<TgdClass> {
    match b {
        0 => Some(TgdClass::SimpleLinear),
        1 => Some(TgdClass::Linear),
        2 => Some(TgdClass::General),
        _ => None,
    }
}

/// How the verdict cache answered one [`crate::check_termination`] call.
#[derive(Clone, Copy, Debug)]
pub struct CacheReport {
    /// True when the verdict came from the cache.
    pub hit: bool,
    /// The ruleset half of the key.
    pub rules_fp: Fingerprint,
    /// The database half of the key.
    pub db_fp: Fingerprint,
    /// Where the time went (fingerprinting / lookup / checking).
    pub timings: CacheTimings,
}

impl VerdictCache {
    /// The cache protocol behind [`crate::check_termination`]:
    /// fingerprint, look up, and on a miss check and insert. Cached
    /// verdicts are exact, never approximate: the db half of the key
    /// ([`crate::DbView::db_fingerprint`]) only equates databases whose
    /// verdicts provably agree. The report carries the caller's `class`,
    /// never a stored one.
    pub(crate) fn check(
        &self,
        schema: &Schema,
        tgds: &[Tgd],
        class: TgdClass,
        db: &DbInput,
    ) -> TerminationReport {
        let mut phases = Phases::new();
        let key = phases.run("fingerprint", || CacheKey {
            rules: fingerprint_ruleset(schema, tgds),
            db: db.fingerprint(class),
        });
        let cached = phases.run("lookup", || self.get(&key, class));
        let verdict = cached.unwrap_or_else(|| {
            let verdict = phases.run("check", || db.decide(tgds, class));
            self.insert(key, verdict, class);
            verdict
        });
        TerminationReport {
            verdict,
            class,
            cache: Some(CacheReport {
                hit: cached.is_some(),
                rules_fp: key.rules,
                db_fp: key.db,
                timings: CacheTimings::from_phases(&phases),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_termination, CheckOpts, DbView, FindShapesMode};
    use soct_model::{Atom, ConstId, Instance, PredId, Shape, Term, VarId};
    use soct_storage::StorageEngine;
    use std::cell::Cell;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    /// One single-threaded in-memory check through `cache`: the report,
    /// its cache section, and how often the check read `shape(D)`.
    fn check(
        s: &Schema,
        tgds: &[Tgd],
        db: &dyn DbView,
        cache: &VerdictCache,
    ) -> (TerminationReport, CacheReport, usize) {
        let view = CountingView {
            inner: db,
            shape_reads: Cell::new(0),
        };
        let opts = CheckOpts {
            mode: FindShapesMode::InMemory,
            threads: 1,
            cache: Some(cache),
        };
        let report = check_termination(s, tgds, &view, opts);
        let section = report.cache.expect("checked through a cache");
        (report, section, view.shape_reads.get())
    }

    /// A view that counts how often a check asks it for `shape(D)`.
    struct CountingView<'a> {
        inner: &'a dyn DbView,
        shape_reads: Cell<usize>,
    }

    impl DbView for CountingView<'_> {
        fn db_predicates(&self) -> Vec<PredId> {
            self.inner.db_predicates()
        }

        fn db_shapes(&self, schema: &Schema, mode: FindShapesMode, threads: usize) -> Vec<Shape> {
            self.shape_reads.set(self.shape_reads.get() + 1);
            self.inner.db_shapes(schema, mode, threads)
        }

        fn db_fingerprint(
            &self,
            class: TgdClass,
            computed: &dyn Fn() -> Fingerprint,
        ) -> Fingerprint {
            self.inner.db_fingerprint(class, computed)
        }
    }

    /// person(x) → ∃y adv(x,y); adv(x,y) → person(y): infinite.
    fn infinite_sl() -> (Schema, Vec<Tgd>, Instance) {
        let mut s = Schema::new();
        let person = s.add_predicate("person", 1).unwrap();
        let adv = s.add_predicate("adv", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&s, person, vec![v(0)]).unwrap()],
                vec![Atom::new(&s, adv, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&s, adv, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&s, person, vec![v(1)]).unwrap()],
            )
            .unwrap(),
        ];
        let mut db = Instance::new();
        db.insert(Atom::new(&s, person, vec![c(0)]).unwrap());
        (s, tgds, db)
    }

    #[test]
    fn miss_then_hit_same_verdict() {
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        let (first, first_c, _) = check(&s, &tgds, &db, &cache);
        assert!(!first_c.hit);
        assert_eq!(first.verdict, Verdict::Infinite);
        let (second, second_c, _) = check(&s, &tgds, &db, &cache);
        assert!(second_c.hit);
        assert_eq!(second.verdict, Verdict::Infinite);
        assert_eq!(second.class, first.class);
        assert_eq!(second_c.rules_fp, first_c.rules_fp);
        assert_eq!(second_c.db_fp, first_c.db_fp);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn fingerprint_time_is_reported_on_misses_too() {
        use std::time::Duration;
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        let (_, miss, _) = check(&s, &tgds, &db, &cache);
        assert!(!miss.hit);
        assert!(
            miss.timings.t_fingerprint > Duration::ZERO,
            "the miss path must report fingerprint time, not fold it into the hit path"
        );
        assert!(miss.timings.t_check > Duration::ZERO);
        let (_, hit, _) = check(&s, &tgds, &db, &cache);
        assert!(hit.hit);
        assert!(hit.timings.t_fingerprint > Duration::ZERO);
        assert_eq!(hit.timings.t_check, Duration::ZERO, "no check ran on a hit");
        // Both paths feed the global phase histogram.
        assert!(soct_obs::global().phase("fingerprint").unwrap().count() >= 2);
    }

    #[test]
    fn permuted_ruleset_hits() {
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        check(&s, &tgds, &db, &cache);
        let rev: Vec<Tgd> = tgds.iter().rev().cloned().collect();
        let (_, second, _) = check(&s, &rev, &db, &cache);
        assert!(second.hit);
    }

    #[test]
    fn different_tuples_same_shapes_hit_for_sl() {
        let (s, tgds, _) = infinite_sl();
        let person = s.pred_by_name("person").unwrap();
        let cache = VerdictCache::new(64);
        let mut d1 = Instance::new();
        d1.insert(Atom::new(&s, person, vec![c(0)]).unwrap());
        let mut d2 = Instance::new();
        d2.insert(Atom::new(&s, person, vec![c(41)]).unwrap());
        d2.insert(Atom::new(&s, person, vec![c(42)]).unwrap());
        check(&s, &tgds, &d1, &cache);
        let (_, second, _) = check(&s, &tgds, &d2, &cache);
        assert!(second.hit, "same non-empty predicates must share the key");
    }

    /// R(x,x) → S(x); S(x) → ∃y T(x,y); T(x,y) → S(y). Linear (the first
    /// body repeats a variable), and the verdict flips on whether the
    /// database contains the shape R_(1,1): only a repeated-column R tuple
    /// ignites the infinite S/T loop.
    fn shape_sensitive_l() -> (Schema, Vec<Tgd>) {
        let mut s = Schema::new();
        let r = s.add_predicate("R", 2).unwrap();
        let sp = s.add_predicate("S", 1).unwrap();
        let t = s.add_predicate("T", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&s, r, vec![v(0), v(0)]).unwrap()],
                vec![Atom::new(&s, sp, vec![v(0)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&s, sp, vec![v(0)]).unwrap()],
                vec![Atom::new(&s, t, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&s, t, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&s, sp, vec![v(1)]).unwrap()],
            )
            .unwrap(),
        ];
        (s, tgds)
    }

    #[test]
    fn live_checks_hit_after_shape_preserving_writes() {
        let (s, tgds) = shape_sensitive_l();
        let r = s.pred_by_name("R").unwrap();
        let mut engine = StorageEngine::new();
        engine.create_table(r, "R", 2);
        engine.insert(r, &[c(0), c(1)]);
        engine.enable_shape_tracking();
        let cache = VerdictCache::new(64);
        let (first, first_c, reads) = check(&s, &tgds, &engine, &cache);
        assert!(!first_c.hit);
        assert_eq!(first.verdict, Verdict::Finite);
        assert_eq!(reads, 1, "a miss reads shape(D) once, from the catalog");
        // Shape-preserving writes: same distinct shape set, so revalidation
        // is a pure cache hit with zero re-derivation.
        for i in 10..30 {
            engine.insert(r, &[c(i), c(i + 100)]);
        }
        let (_, second, reads) = check(&s, &tgds, &engine, &cache);
        assert!(second.hit, "shape-preserving writes keep the key stable");
        assert_eq!(reads, 0, "a tracked hit reads no shapes");
        assert_eq!(second.db_fp, first_c.db_fp);
        // A shape-changing write (R_(1,1) appears) must recompute — and the
        // verdict flips, proving the miss was necessary.
        engine.insert(r, &[c(5), c(5)]);
        let (third, third_c, _) = check(&s, &tgds, &engine, &cache);
        assert!(!third_c.hit);
        assert_ne!(third_c.db_fp, first_c.db_fp);
        assert_eq!(third.verdict, Verdict::Infinite);
        // Deleting the witness restores the original key: hit again.
        assert!(engine.delete(r, &[c(5), c(5)]));
        let (fourth, fourth_c, _) = check(&s, &tgds, &engine, &cache);
        assert!(fourth_c.hit);
        assert_eq!(fourth.verdict, Verdict::Finite);
        assert_eq!(fourth_c.db_fp, first_c.db_fp);
    }

    #[test]
    fn live_and_instance_paths_are_domain_separated() {
        let (s, tgds) = shape_sensitive_l();
        let r = s.pred_by_name("R").unwrap();
        // Seed the cache through the instance path...
        let mut db = Instance::new();
        db.insert(Atom::new(&s, r, vec![c(0), c(1)]).unwrap());
        let cache = VerdictCache::new(64);
        let (via_instance, via_instance_c, reads) = check(&s, &tgds, &db, &cache);
        assert!(!via_instance_c.hit);
        assert_eq!(reads, 1, "fingerprint and checker share one scan");
        // ...then check the live path over equivalent contents. The
        // underlying fingerprints coincide, but the live key carries the
        // domain tag: no sharing with the instance-path entry, so a
        // desynced live accumulator could never poison body checks.
        let mut engine = StorageEngine::new();
        engine.create_table(r, "R", 2);
        engine.insert(r, &[c(7), c(9)]);
        let (untracked, untracked_c, reads) = check(&s, &tgds, &engine, &cache);
        assert!(!untracked_c.hit, "live keys live in their own domain");
        assert_eq!(reads, 1, "fingerprint and checker share one scan");
        assert_ne!(untracked_c.db_fp, via_instance_c.db_fp);
        assert_eq!(untracked_c.db_fp.0, via_instance_c.db_fp.0 ^ LIVE_DB_DOMAIN);
        assert_eq!(untracked_c.rules_fp, via_instance_c.rules_fp);
        assert_eq!(untracked.verdict, via_instance.verdict);
        // Within the live domain, scan-derived and maintained keys still
        // interchange: enabling tracking hits the entry the scan seeded.
        engine.enable_shape_tracking();
        let (_, tracked, reads) = check(&s, &tgds, &engine, &cache);
        assert!(tracked.hit, "maintained key matches the scan-derived key");
        assert_eq!(reads, 0);
        assert_eq!(tracked.db_fp, untracked_c.db_fp);
    }

    #[test]
    fn live_sl_keys_on_nonempty_predicates() {
        let (s, tgds, _) = infinite_sl();
        let person = s.pred_by_name("person").unwrap();
        let adv = s.pred_by_name("adv").unwrap();
        let mut engine = StorageEngine::new();
        engine.create_table(person, "person", 1);
        engine.create_table(adv, "adv", 2);
        engine.insert(person, &[c(0)]);
        engine.enable_shape_tracking();
        let cache = VerdictCache::new(64);
        let (first, first_c, _) = check(&s, &tgds, &engine, &cache);
        assert!(!first_c.hit);
        assert_eq!(first.verdict, Verdict::Infinite);
        // More tuples in already-populated relations: same key.
        engine.insert(person, &[c(1)]);
        let (_, second, _) = check(&s, &tgds, &engine, &cache);
        assert!(second.hit);
        // Populating a previously-empty relation changes the SL key.
        engine.insert(adv, &[c(0), c(1)]);
        let (_, third, _) = check(&s, &tgds, &engine, &cache);
        assert!(!third.hit);
        assert_ne!(third.db_fp, first_c.db_fp);
    }

    #[test]
    fn a_stored_class_never_overrides_the_computed_one() {
        let (s, tgds) = shape_sensitive_l();
        let r = s.pred_by_name("R").unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&s, r, vec![c(0), c(1)]).unwrap());
        let seeded = VerdictCache::new(8);
        check(&s, &tgds, &db, &seeded);
        // Flip the one entry's class byte from Linear (1) to another valid
        // code, SimpleLinear (0), as a damaged cache file would.
        let mut bytes = seeded.to_bytes();
        let last = bytes.len() - 1;
        assert_eq!(bytes[last], class_code(TgdClass::Linear));
        bytes[last] = class_code(TgdClass::SimpleLinear);
        let cache = VerdictCache::new(8);
        cache.load_bytes(&bytes).unwrap();
        let (report, first, _) = check(&s, &tgds, &db, &cache);
        assert!(!first.hit, "an entry under another class is a miss");
        assert_eq!(report.class, TgdClass::Linear);
        assert_eq!(report.verdict, Verdict::Finite);
        // The recomputed verdict overwrote the entry: the next check hits.
        let (again, second, _) = check(&s, &tgds, &db, &cache);
        assert!(second.hit);
        assert_eq!(again.class, TgdClass::Linear);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_bound_evicts() {
        let cache = VerdictCache::new(0); // 1 entry per shard
        let mk = |i: u128| CacheKey {
            rules: Fingerprint(i),
            db: Fingerprint(0),
        };
        // Insert many keys; capacity is SHARD_COUNT, so evictions must
        // kick in and the size stays bounded.
        for i in 0..200 {
            cache.insert(mk(i), Verdict::Finite, TgdClass::SimpleLinear);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn lru_prefers_recent_entries() {
        let cache = VerdictCache::new(0);
        // Two keys landing in the same shard (db fp equal, rules fps
        // chosen congruent modulo the shard count).
        let k1 = CacheKey {
            rules: Fingerprint(16),
            db: Fingerprint(0),
        };
        let k2 = CacheKey {
            rules: Fingerprint(32),
            db: Fingerprint(0),
        };
        cache.insert(k1, Verdict::Finite, TgdClass::SimpleLinear);
        cache.insert(k2, Verdict::Infinite, TgdClass::SimpleLinear);
        // Shard holds one entry: k2 must have evicted k1.
        assert!(cache.get(&k2, TgdClass::SimpleLinear).is_some());
        assert!(cache.get(&k1, TgdClass::SimpleLinear).is_none());
    }

    #[test]
    fn bytes_round_trip() {
        let (s, tgds, db) = infinite_sl();
        let cache = VerdictCache::new(64);
        check(&s, &tgds, &db, &cache);
        let bytes = cache.to_bytes();
        let restored = VerdictCache::new(64);
        restored.load_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.to_bytes(), bytes);
        // The restored cache serves the hit directly.
        let (r, restored_c, _) = check(&s, &tgds, &db, &restored);
        assert!(restored_c.hit);
        assert_eq!(r.verdict, Verdict::Infinite);
    }

    #[test]
    fn corrupt_cache_bytes_rejected() {
        let cache = VerdictCache::new(8);
        assert!(cache.load_bytes(b"garbage").is_err());
        cache.insert(
            CacheKey {
                rules: Fingerprint(1),
                db: Fingerprint(2),
            },
            Verdict::Finite,
            TgdClass::Linear,
        );
        let mut bytes = cache.to_bytes();
        bytes[2] = b'X'; // magic
        assert!(VerdictCache::new(8).load_bytes(&bytes).is_err());
        let good = cache.to_bytes();
        assert!(VerdictCache::new(8)
            .load_bytes(&good[..good.len() - 1])
            .is_err());
        let mut bad_code = cache.to_bytes();
        let last = bad_code.len() - 1;
        bad_code[last] = 9; // class code out of range
        assert!(VerdictCache::new(8).load_bytes(&bad_code).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("soct_verdict_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.soctvc");
        let cache = VerdictCache::new(8);
        cache.insert(
            CacheKey {
                rules: Fingerprint(7),
                db: Fingerprint(8),
            },
            Verdict::Unknown,
            TgdClass::General,
        );
        cache.save(&path).unwrap();
        let restored = VerdictCache::new(8);
        restored.load(&path).unwrap();
        assert_eq!(
            restored.get(
                &CacheKey {
                    rules: Fingerprint(7),
                    db: Fingerprint(8),
                },
                TgdClass::General
            ),
            Some(Verdict::Unknown)
        );
        std::fs::remove_file(&path).ok();
    }
}
