//! The in-process service: routing, request handling, and the verdict
//! cache — everything the HTTP layer does *except* sockets, so tests and
//! benchmarks can exercise the full request path without binding a port.

use crate::json::JsonObject;
use soct_chase::{run_chase_columnar, ChaseConfig, ChaseOutcome, ChaseVariant};
use soct_core::{
    check_termination, find_shapes_parallel, CheckOpts, DbView, FindShapesMode, Verdict,
    VerdictCache,
};
use soct_model::{
    Atom, ConstId, Database, FxHashMap, Interner, PredId, Schema, SymbolId, Term, Tgd, TgdClass,
};
use soct_obs::{Phases, PromText};
use soct_parser::{parse_facts, Program};
use soct_storage::{
    InstanceSource, RealIo, RecoveryReport, StorageEngine, SyncPolicy, TupleSource, Wal, WalEntry,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// File name of the persisted verdict cache inside `cache_dir`.
pub const CACHE_FILE: &str = "verdicts.soctvc";

/// Below this many cached entries, every miss persists immediately (a
/// small file write); above it, writes batch to bound the O(cache) cost.
const PERSIST_IMMEDIATE_LIMIT: usize = 4096;

/// Batch size for persistence once the cache is past
/// [`PERSIST_IMMEDIATE_LIMIT`]: at most one full rewrite per this many
/// newly computed verdicts. At worst the last `PERSIST_BATCH - 1`
/// verdicts are lost on a crash — recomputable by definition.
const PERSIST_BATCH: u64 = 64;

/// Replay debt at which the write path takes a checkpoint: once this
/// many WAL bytes accumulate since the last snapshot, the next write
/// compacts them so restart cost stays bounded.
const WAL_CHECKPOINT_BYTES: u64 = 32 << 20;

/// Configuration of a [`TerminationService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// `FindShapes` mode used by the linear checker.
    pub mode: FindShapesMode,
    /// Worker threads for the db-dependent phase of one check (`0` =
    /// auto, as in [`soct_chase::resolve_threads`]). The default of `1`
    /// keeps each request single-threaded — concurrency comes from the
    /// HTTP worker pool serving requests in parallel.
    pub check_threads: usize,
    /// LRU bound of the verdict cache (entries).
    pub cache_capacity: usize,
    /// When set, the verdict cache is loaded from
    /// `cache_dir/verdicts.soctvc` at startup and re-written after newly
    /// computed verdicts, so restarts start warm. Writes are immediate
    /// while the cache is small and batched (one snapshot per 64 misses)
    /// once it grows, bounding the per-miss serialisation cost.
    pub cache_dir: Option<PathBuf>,
    /// Hard ceiling on the atom budget a `/chase` request may ask for.
    pub max_chase_atoms: usize,
    /// When set, a resident live database is served through
    /// `POST /db/insert`, `POST /db/delete`, `POST /db/batch`,
    /// `GET /db/stats`, and `/check?db=live`. Without `wal` this is a
    /// facts *file* loaded into memory at startup; with `wal` it is a
    /// durable *directory* (write-ahead log + snapshots) recovered at
    /// startup.
    pub db_path: Option<PathBuf>,
    /// Serve `db_path` as a durable directory: every write is logged to
    /// a checksummed WAL before it is applied or acknowledged, and
    /// startup recovers the last snapshot plus the log's acked suffix.
    pub wal: bool,
    /// How eagerly acknowledged writes reach stable storage (only
    /// meaningful with `wal`). `Always` fsyncs every record before the
    /// ack; `Batch` every [`soct_storage::wal::BATCH_SYNC_EVERY`]
    /// records; `Off` leaves it to the OS (and clean shutdown).
    pub wal_sync: SyncPolicy,
    /// Facts file used to seed a *virgin* durable directory (only
    /// meaningful with `wal`). An existing database ignores the seed.
    pub db_seed: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            mode: FindShapesMode::InMemory,
            check_threads: 1,
            cache_capacity: 1 << 16,
            cache_dir: None,
            max_chase_atoms: 1_000_000,
            db_path: None,
            wal: false,
            wal_sync: SyncPolicy::Always,
            db_seed: None,
        }
    }
}

/// Per-endpoint request counters (monotonic).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// `POST /check` requests served (any status).
    pub checks: AtomicU64,
    /// `POST /shapes` requests served.
    pub shapes: AtomicU64,
    /// `POST /chase` requests served.
    pub chases: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Cache persistence failures (best-effort writes that did not land).
    pub persist_failures: AtomicU64,
    /// `POST /db/insert` and `POST /db/delete` requests served.
    pub db_writes: AtomicU64,
    /// `/check?db=live` requests answered from cache after fingerprint
    /// revalidation (no recomputation touched the database).
    pub live_revalidations: AtomicU64,
}

/// The resident live database: a writable engine with shape tracking on,
/// plus the schema/constant interners its facts were parsed against. One
/// `RwLock` guards the whole thing — writes are short (O(arity²) per tuple
/// for inserts), and checks take the read side so they can proceed
/// concurrently with each other.
#[derive(Debug)]
struct LiveDb {
    schema: Schema,
    consts: Interner,
    engine: StorageEngine,
    inserts: u64,
    deletes: u64,
    delete_misses: u64,
    /// The write-ahead log, when the database is durable. Every write
    /// batch is logged (vocabulary delta first, then one ops record)
    /// *before* it is applied to the engine or acknowledged.
    wal: Option<Wal>,
    /// Constants already logged to the WAL (dense-id high-water mark).
    /// Advances only after a successful append, so a failed append is
    /// retried as part of the next batch's delta.
    logged_syms: usize,
    /// Predicates already logged to the WAL (same contract).
    logged_preds: usize,
    /// What recovery observed at startup, surfaced on `/db/stats`.
    recovery: Option<RecoveryReport>,
}

/// Counters and fingerprint movement of one applied write batch.
#[derive(Debug, Default)]
struct BatchOutcome {
    inserted: u64,
    deleted: u64,
    missed: u64,
    shapes: u64,
    fp_changed: bool,
    fp_after: String,
}

fn wal_err(e: io::Error) -> (u16, String) {
    (500, format!("write-ahead log failure: {e}"))
}

impl LiveDb {
    /// Parses a facts file and loads it into a tracking-enabled engine.
    fn load(path: &PathBuf) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    fn from_text(text: &str) -> Result<Self, String> {
        let mut schema = Schema::new();
        let mut consts = Interner::new();
        let db = parse_facts(text, &mut schema, &mut consts).map_err(|e| e.to_string())?;
        let mut engine = StorageEngine::new();
        engine.load_instance(&schema, &db);
        // Register empty tables for every declared predicate too, so the
        // engine knows names/arities even before the first insert.
        for p in schema.predicates() {
            engine.create_table(p, schema.name(p), schema.arity(p));
        }
        engine.enable_shape_tracking();
        Ok(LiveDb {
            schema,
            consts,
            engine,
            inserts: 0,
            deletes: 0,
            delete_misses: 0,
            wal: None,
            logged_syms: 0,
            logged_preds: 0,
            recovery: None,
        })
    }

    /// Opens (or creates) a durable database directory: recovers the
    /// last snapshot plus the log's acked suffix, then — only if the
    /// directory was virgin — seeds it from the optional facts file and
    /// checkpoints, so restarts load the snapshot instead of replaying
    /// the seed.
    fn open_durable(dir: &PathBuf, policy: SyncPolicy, seed: Option<&PathBuf>) -> io::Result<Self> {
        let d = soct_storage::open_durable(dir, policy, Box::new(RealIo::new()))?;
        let mut live = LiveDb {
            logged_syms: d.symbols.len(),
            logged_preds: d.schema.len(),
            schema: d.schema,
            consts: d.symbols,
            engine: d.engine,
            inserts: 0,
            deletes: 0,
            delete_misses: 0,
            wal: Some(d.wal),
            recovery: Some(d.report),
        };
        // Recovery registers tables lazily (on first insert); declared
        // predicates that never held a tuple still need empty tables so
        // names/arities are known, mirroring `from_text`.
        for p in live.schema.predicates() {
            live.engine
                .create_table(p, live.schema.name(p), live.schema.arity(p));
        }
        let virgin = live.schema.is_empty() && live.consts.is_empty();
        match seed {
            Some(path) if virgin => {
                let text = std::fs::read_to_string(path)?;
                live.seed(&text).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: {e}", path.display()),
                    )
                })?;
            }
            Some(path) => {
                soct_obs::log_info!(
                    "serve",
                    "event=db_seed_skipped reason=existing_database seed={}",
                    path.display()
                );
            }
            None => {}
        }
        Ok(live)
    }

    /// Seeds a virgin durable directory: parse, log, apply, checkpoint.
    /// Seed tuples are not charged to the write counters.
    fn seed(&mut self, text: &str) -> Result<(), String> {
        let facts =
            parse_facts(text, &mut self.schema, &mut self.consts).map_err(|e| e.to_string())?;
        let entries: Vec<(bool, Atom)> = facts.atoms().iter().map(|a| (true, a.clone())).collect();
        self.apply_batch(&entries).map_err(|(_, e)| e)?;
        for p in self.schema.predicates() {
            self.engine
                .create_table(p, self.schema.name(p), self.schema.arity(p));
        }
        self.inserts = 0;
        let wal = self.wal.as_mut().expect("seed requires a durable db");
        wal.checkpoint(&self.engine, &self.schema, &self.consts)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Logs any vocabulary the parser interned since the last logged
    /// high-water mark. Called before the ops record of every batch, so
    /// replay can rebuild the interner/schema with identical dense ids.
    fn log_vocab_delta(&mut self) -> io::Result<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        if self.logged_syms < self.consts.len() {
            let delta: Vec<(u32, &str)> = (self.logged_syms..self.consts.len())
                .map(|i| (i as u32, self.consts.resolve(SymbolId(i as u32))))
                .collect();
            wal.append_symbols(&delta)?;
            self.logged_syms = self.consts.len();
        }
        if self.logged_preds < self.schema.len() {
            let delta: Vec<(u32, &str, usize)> = (self.logged_preds..self.schema.len())
                .map(|i| {
                    let p = PredId(i as u32);
                    (i as u32, self.schema.name(p), self.schema.arity(p))
                })
                .collect();
            wal.append_predicates(&delta)?;
            self.logged_preds = self.schema.len();
        }
        Ok(())
    }

    /// Applies one write batch under the durability contract: the batch
    /// is logged as a single WAL record (after the vocabulary delta) and
    /// only on `Ok` applied to the engine — so the in-memory state never
    /// runs ahead of what a restart would recover, and an acknowledged
    /// write is exactly as durable as the sync policy promises. Deletes
    /// that miss are logged too; replay is a deterministic no-op for
    /// them. On a WAL error nothing is applied and the client sees a
    /// 500 (interned-but-unlogged vocabulary is re-logged with the next
    /// batch via the high-water marks).
    fn apply_batch(&mut self, entries: &[(bool, Atom)]) -> Result<BatchOutcome, (u16, String)> {
        if self.wal.is_some() {
            self.log_vocab_delta().map_err(wal_err)?;
            let rows: Vec<WalEntry> = entries
                .iter()
                .map(|(insert, a)| WalEntry {
                    insert: *insert,
                    pred: a.pred,
                    name: self.schema.name(a.pred).to_string(),
                    row: a.terms.iter().map(|t| t.pack()).collect(),
                })
                .collect();
            self.wal
                .as_mut()
                .expect("checked above")
                .append_ops(&rows)
                .map_err(wal_err)?;
        }
        let fp_before = self.engine.shape_fingerprint().expect("tracking enabled");
        let mut out = BatchOutcome::default();
        for (insert, a) in entries {
            if *insert {
                self.engine
                    .create_table(a.pred, self.schema.name(a.pred), a.arity());
                self.engine.insert(a.pred, &a.terms);
                out.inserted += 1;
            } else if self.engine.delete(a.pred, &a.terms) {
                out.deleted += 1;
            } else {
                out.missed += 1;
            }
        }
        self.inserts += out.inserted;
        self.deletes += out.deleted;
        self.delete_misses += out.missed;
        let fp_after = self.engine.shape_fingerprint().expect("tracking enabled");
        out.shapes = self
            .engine
            .shape_catalog()
            .expect("tracking enabled")
            .num_shapes() as u64;
        out.fp_changed = fp_before != fp_after;
        out.fp_after = fp_after.to_string();
        self.maybe_checkpoint();
        Ok(out)
    }

    /// Checkpoints once the replay debt passes [`WAL_CHECKPOINT_BYTES`].
    /// Failure is non-fatal: the log still holds everything.
    fn maybe_checkpoint(&mut self) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        if wal.bytes_since_checkpoint() < WAL_CHECKPOINT_BYTES {
            return;
        }
        if let Err(e) = wal.checkpoint(&self.engine, &self.schema, &self.consts) {
            soct_obs::log_warn!("serve", "event=wal_checkpoint_failed error={e}");
        }
    }
}

/// The termination-checking service: parses line-oriented ruleset bodies,
/// dispatches to the checkers/chase/`FindShapes`, and fronts everything
/// with the fingerprint-keyed [`VerdictCache`].
#[derive(Debug)]
pub struct TerminationService {
    cfg: ServiceConfig,
    cache: VerdictCache,
    stats: ServiceStats,
    /// Serialises best-effort cache writes so concurrent misses do not
    /// interleave partial files.
    persist_lock: Mutex<()>,
    /// Verdicts inserted since the last persisted snapshot.
    dirty: AtomicU64,
    /// The resident live database, when `db_path` is configured.
    live: Option<RwLock<LiveDb>>,
}

impl TerminationService {
    /// Builds the service, loading a persisted verdict cache when
    /// `cache_dir` is configured and holds one. A corrupt cache file is an
    /// error (delete it to start cold) — silently dropping it would mask
    /// operational mistakes.
    pub fn new(cfg: ServiceConfig) -> io::Result<Self> {
        let cache = VerdictCache::new(cfg.cache_capacity);
        if let Some(dir) = &cfg.cache_dir {
            std::fs::create_dir_all(dir)?;
            let file = dir.join(CACHE_FILE);
            if file.exists() {
                cache.load(&file)?;
            }
        }
        let live = match &cfg.db_path {
            Some(path) if cfg.wal => Some(RwLock::new(LiveDb::open_durable(
                path,
                cfg.wal_sync,
                cfg.db_seed.as_ref(),
            )?)),
            Some(path) => Some(RwLock::new(LiveDb::load(path)?)),
            None => None,
        };
        Ok(TerminationService {
            cfg,
            cache,
            stats: ServiceStats::default(),
            persist_lock: Mutex::new(()),
            dirty: AtomicU64::new(0),
            live,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The verdict cache (exposed for tests and warm-up).
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// Routes one request. `target` is the request path with an optional
    /// query string (`/check?mode=db`); returns `(status, JSON body)`.
    pub fn handle(&self, method: &str, target: &str, body: &str) -> (u16, String) {
        let (path, query) = split_target(target);
        let response = match (method, path) {
            ("POST", "/check") => {
                self.stats.checks.fetch_add(1, Ordering::Relaxed);
                self.check(body, &query)
            }
            ("POST", "/shapes") => {
                self.stats.shapes.fetch_add(1, Ordering::Relaxed);
                self.shapes(body, &query)
            }
            ("POST", "/chase") => {
                self.stats.chases.fetch_add(1, Ordering::Relaxed);
                self.chase(body, &query)
            }
            ("GET", "/stats") => Ok(self.stats_json()),
            ("POST", "/db/insert") => {
                self.stats.db_writes.fetch_add(1, Ordering::Relaxed);
                self.db_write(body, WriteOp::Insert)
            }
            ("POST", "/db/delete") => {
                self.stats.db_writes.fetch_add(1, Ordering::Relaxed);
                self.db_write(body, WriteOp::Delete)
            }
            ("POST", "/db/batch") => {
                self.stats.db_writes.fetch_add(1, Ordering::Relaxed);
                self.db_batch(body)
            }
            ("GET", "/db/stats") => self.db_stats(),
            (
                _,
                "/check" | "/shapes" | "/chase" | "/stats" | "/db/insert" | "/db/delete"
                | "/db/batch" | "/db/stats",
            ) => Err((
                405,
                "method not allowed (POST /check, POST /shapes, POST /chase, GET /stats, \
                 POST /db/insert, POST /db/delete, POST /db/batch, GET /db/stats)"
                    .to_string(),
            )),
            _ => Err((404, format!("no such endpoint: {path}"))),
        };
        match response {
            Ok(body) => (200, body),
            Err((status, msg)) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                let mut o = JsonObject::new();
                o.str_field("error", &msg);
                (status, o.finish())
            }
        }
    }

    /// `POST /check`: decide termination for the ruleset (and optional
    /// facts) in the body. Supports `?mode=memory|db`, and `?db=live` to
    /// check the rules against the resident live database instead of the
    /// body's facts / the critical instance. Live rules parse against a
    /// *clone* of the live schema, so rule-only predicates intern freely
    /// without mutating the shared vocabulary — a predicate with no table
    /// is simply an empty relation. Body checks never take the live-db
    /// lock. Either parse runs as the `parse` phase of
    /// `soct_core_phase_us` (for a body without facts, the phase includes
    /// building its critical instance).
    fn check(&self, body: &str, query: &FxHashMap<String, String>) -> ServiceResult {
        let live = match query.get("db").map(String::as_str) {
            None => None,
            Some("live") => Some(self.live.as_ref().ok_or_else(no_live_db)?),
            Some(other) => return Err((400, format!("db expects `live`, got `{other}`"))),
        };
        let (guard, body_db);
        let mut phases = Phases::new();
        let (schema, tgds, db, db_atoms): (Schema, Vec<Tgd>, &dyn DbView, u64) = match live {
            None => {
                let p = phases.run("parse", || parse_program(body))?;
                body_db = p.db;
                (p.schema, p.tgds, &body_db, body_db.len() as u64)
            }
            Some(live) => {
                guard = live.read().expect("live db poisoned");
                let mut schema = guard.schema.clone();
                let mut consts = guard.consts.clone();
                let tgds = phases
                    .run("parse", || {
                        soct_parser::parse_tgds(body, &mut schema, &mut consts)
                    })
                    .map_err(|e| (400, e.to_string()))?;
                (schema, tgds, &guard.engine, guard.engine.total_rows())
            }
        };
        let opts = CheckOpts {
            mode: mode_from(query, self.cfg.mode)?,
            threads: self.cfg.check_threads,
            cache: Some(&self.cache),
        };
        let report = check_termination(&schema, &tgds, db, opts);
        let checked = report.cache.expect("checked through the service cache");
        if !checked.hit {
            self.persist_best_effort();
        } else if live.is_some() {
            self.stats
                .live_revalidations
                .fetch_add(1, Ordering::Relaxed);
        }
        let mut o = JsonObject::new();
        o.str_field("verdict", verdict_str(report.verdict))
            .str_field("class", class_str(report.class))
            .u64_field("rules", tgds.len() as u64)
            .u64_field("db_atoms", db_atoms)
            .str_field("rule_fp", &checked.rules_fp.to_string())
            .str_field("db_fp", &checked.db_fp.to_string())
            .bool_field("cached", checked.hit);
        Ok(o.finish())
    }

    /// `POST /db/insert` and `POST /db/delete`: apply a batch of
    /// line-oriented facts (same syntax as a database file) to the
    /// resident engine. Inserts create tables on the fly for new
    /// predicates; deletes remove one matching tuple each (multiset
    /// semantics) and report misses without failing the batch. The
    /// response carries the shape fingerprint before/after, so a client
    /// can tell whether the write invalidated cached verdicts.
    fn db_write(&self, body: &str, op: WriteOp) -> ServiceResult {
        let live = self.live.as_ref().ok_or_else(no_live_db)?;
        let mut guard = live.write().expect("live db poisoned");
        let g = &mut *guard;
        let facts =
            parse_facts(body, &mut g.schema, &mut g.consts).map_err(|e| (400, e.to_string()))?;
        let entries: Vec<(bool, Atom)> = facts
            .atoms()
            .iter()
            .map(|a| (op == WriteOp::Insert, a.clone()))
            .collect();
        let out = g.apply_batch(&entries)?;
        let mut o = JsonObject::new();
        o.str_field(
            "op",
            match op {
                WriteOp::Insert => "insert",
                WriteOp::Delete => "delete",
            },
        )
        .u64_field("applied", out.inserted + out.deleted)
        .u64_field("missed", out.missed)
        .u64_field("tuples", g.engine.total_rows())
        .u64_field("shapes", out.shapes)
        .bool_field("shape_fp_changed", out.fp_changed)
        .str_field("shape_fp", &out.fp_after);
        Ok(o.finish())
    }

    /// `POST /db/batch`: one request, one WAL record, one fingerprint
    /// touch — a line-oriented mix of inserts and deletes. A leading
    /// `-` marks a line as a delete batch; everything else inserts.
    /// Lines are applied in order with multiset semantics, and under
    /// `--wal` the entire batch becomes a single log record, so batched
    /// ingest pays one fsync (policy `always`) instead of one per
    /// request.
    fn db_batch(&self, body: &str) -> ServiceResult {
        let live = self.live.as_ref().ok_or_else(no_live_db)?;
        let mut guard = live.write().expect("live db poisoned");
        let g = &mut *guard;
        let mut entries: Vec<(bool, Atom)> = Vec::new();
        for (n, line) in body.lines().enumerate() {
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            let (insert, fact) = match t.strip_prefix('-') {
                Some(rest) => (false, rest.trim_start()),
                None => (true, t),
            };
            let facts = parse_facts(fact, &mut g.schema, &mut g.consts)
                .map_err(|e| (400, format!("line {}: {e}", n + 1)))?;
            for a in facts.atoms() {
                entries.push((insert, a.clone()));
            }
        }
        if entries.is_empty() {
            return Err((400, "empty batch (no facts in body)".to_string()));
        }
        let out = g.apply_batch(&entries)?;
        let mut o = JsonObject::new();
        o.str_field("op", "batch")
            .u64_field("applied", out.inserted + out.deleted)
            .u64_field("inserted", out.inserted)
            .u64_field("deleted", out.deleted)
            .u64_field("missed", out.missed)
            .u64_field("tuples", g.engine.total_rows())
            .u64_field("shapes", out.shapes)
            .bool_field("shape_fp_changed", out.fp_changed)
            .str_field("shape_fp", &out.fp_after);
        Ok(o.finish())
    }

    /// `GET /db/stats`: size, shape, and write counters of the resident
    /// database, plus the two maintained fingerprints.
    fn db_stats(&self) -> ServiceResult {
        let live = self.live.as_ref().ok_or_else(no_live_db)?;
        let g = live.read().expect("live db poisoned");
        let cat = g.engine.shape_catalog().expect("tracking enabled");
        let mut o = JsonObject::new();
        o.u64_field("tuples", g.engine.total_rows())
            .u64_field("tables", g.engine.tables().count() as u64)
            .u64_field(
                "relations_nonempty",
                g.engine.non_empty_predicates().len() as u64,
            )
            .u64_field("shapes", cat.num_shapes() as u64)
            .u64_field("inserts", g.inserts)
            .u64_field("deletes", g.deletes)
            .u64_field("delete_misses", g.delete_misses)
            .u64_field("catalog_rebuilds", g.engine.catalog_rebuilds())
            .str_field(
                "shape_fp",
                &g.engine
                    .shape_fingerprint()
                    .expect("tracking enabled")
                    .to_string(),
            )
            .str_field(
                "pred_fp",
                &g.engine
                    .predicate_fingerprint()
                    .expect("tracking enabled")
                    .to_string(),
            )
            .bool_field("durable", g.wal.is_some());
        if let Some(wal) = &g.wal {
            let r = g.recovery.unwrap_or_default();
            o.u64_field("wal_segment_seq", wal.segment_seq())
                .u64_field("wal_bytes_since_checkpoint", wal.bytes_since_checkpoint())
                .str_field("wal_sync", &wal.sync_policy().to_string())
                .u64_field("recovered_records", r.replayed_records)
                .u64_field("torn_truncations", r.torn_truncations);
        }
        Ok(o.finish())
    }

    /// `POST /shapes`: list the database shapes of the facts in the body.
    /// Supports `?mode=memory|db`.
    fn shapes(&self, body: &str, query: &FxHashMap<String, String>) -> ServiceResult {
        let parsed = Program::parse(body).map_err(|e| (400, e.to_string()))?;
        let mode = mode_from(query, self.cfg.mode)?;
        let src = InstanceSource::new(&parsed.schema, &parsed.database);
        let report = find_shapes_parallel(&src, mode, self.cfg.check_threads);
        let list: Vec<String> = report
            .shapes
            .iter()
            .map(|s| format!("{}_{}", parsed.schema.name(s.pred), s.rgs))
            .collect();
        let mut o = JsonObject::new();
        o.u64_field("shapes", report.shapes.len() as u64)
            .u64_field("atoms", parsed.database.len() as u64)
            .str_field("mode", mode_str(mode))
            .str_array_field("list", &list);
        Ok(o.finish())
    }

    /// `POST /chase`: materialise the chase of the body's program.
    /// Supports `?variant=so|oblivious|restricted&max-atoms=N`.
    fn chase(&self, body: &str, query: &FxHashMap<String, String>) -> ServiceResult {
        let program = parse_program(body)?;
        let variant = match query.get("variant") {
            None => ChaseVariant::SemiOblivious,
            Some(v) => v.parse().map_err(|e: String| (400, e))?,
        };
        let max_atoms = match query.get("max-atoms") {
            None => self.cfg.max_chase_atoms,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| (400, format!("max-atoms expects an integer, got `{v}`")))?
                .min(self.cfg.max_chase_atoms),
        };
        let cfg =
            ChaseConfig::with_max_atoms(variant, max_atoms).with_threads(self.cfg.check_threads);
        let res = run_chase_columnar(&program.db, &program.tgds, &cfg);
        let mut o = JsonObject::new();
        o.str_field("outcome", outcome_str(res.outcome))
            .u64_field("atoms", res.store.len() as u64)
            .u64_field("derived", res.derived_atoms(program.db.len()) as u64)
            .u64_field("rounds", res.rounds as u64)
            .u64_field("triggers", res.triggers_applied as u64)
            .u64_field("nulls", res.nulls_created as u64);
        Ok(o.finish())
    }

    /// `GET /stats`: request counters and cache counters.
    pub fn stats_json(&self) -> String {
        let cache_stats = self.cache.stats();
        let mut requests = JsonObject::new();
        requests
            .u64_field("check", self.stats.checks.load(Ordering::Relaxed))
            .u64_field("shapes", self.stats.shapes.load(Ordering::Relaxed))
            .u64_field("chase", self.stats.chases.load(Ordering::Relaxed))
            .u64_field("db_writes", self.stats.db_writes.load(Ordering::Relaxed))
            .u64_field("errors", self.stats.errors.load(Ordering::Relaxed))
            .u64_field(
                "persist_failures",
                self.stats.persist_failures.load(Ordering::Relaxed),
            );
        let mut cache = JsonObject::new();
        cache
            .u64_field("entries", self.cache.len() as u64)
            .u64_field("capacity", self.cache.capacity() as u64)
            .u64_field("hits", cache_stats.hits)
            .u64_field("misses", cache_stats.misses)
            .u64_field("insertions", cache_stats.insertions)
            .u64_field("evictions", cache_stats.evictions);
        let mut o = JsonObject::new();
        o.raw_field("requests", &requests.finish())
            .raw_field("cache", &cache.finish());
        o.finish()
    }

    /// Renders the service-level metric families for `GET /metrics`:
    /// per-endpoint request counters, the verdict cache, the resident
    /// live database (when configured), then the process-global
    /// families (chase engine, storage write path, checker phases).
    pub fn metrics_prometheus(&self, out: &mut PromText) {
        out.header(
            "soct_service_requests_total",
            "counter",
            "Service requests served by endpoint",
        );
        for (ep, v) in [
            ("check", self.stats.checks.load(Ordering::Relaxed)),
            ("shapes", self.stats.shapes.load(Ordering::Relaxed)),
            ("chase", self.stats.chases.load(Ordering::Relaxed)),
            ("db_write", self.stats.db_writes.load(Ordering::Relaxed)),
        ] {
            out.sample("soct_service_requests_total", &[("endpoint", ep)], v);
        }
        out.counter(
            "soct_service_errors_total",
            "Requests answered with a 4xx/5xx status",
            self.stats.errors.load(Ordering::Relaxed),
        );
        out.counter(
            "soct_service_persist_failures_total",
            "Best-effort verdict-cache writes that did not land",
            self.stats.persist_failures.load(Ordering::Relaxed),
        );
        let cs = self.cache.stats();
        for (name, help, v) in [
            (
                "soct_cache_hits_total",
                "Verdict-cache lookups answered from cache",
                cs.hits,
            ),
            (
                "soct_cache_misses_total",
                "Verdict-cache lookups that required a fresh check",
                cs.misses,
            ),
            (
                "soct_cache_insertions_total",
                "Verdicts inserted into the cache",
                cs.insertions,
            ),
            (
                "soct_cache_evictions_total",
                "Verdicts evicted by the LRU bound",
                cs.evictions,
            ),
        ] {
            out.counter(name, help, v);
        }
        out.gauge(
            "soct_cache_entries",
            "Verdict-cache resident entries",
            self.cache.len() as u64,
        );
        out.gauge(
            "soct_cache_capacity",
            "Verdict-cache LRU capacity",
            self.cache.capacity() as u64,
        );
        out.counter(
            "soct_livedb_revalidations_total",
            "Live checks answered via fingerprint revalidation (pure cache hits)",
            self.stats.live_revalidations.load(Ordering::Relaxed),
        );
        if let Some(live) = &self.live {
            let g = live.read().expect("live db poisoned");
            out.gauge(
                "soct_livedb_tuples",
                "Tuples resident in the live database",
                g.engine.total_rows(),
            );
            if let Some(cat) = g.engine.shape_catalog() {
                out.gauge(
                    "soct_livedb_shapes",
                    "Distinct database shapes in the live database",
                    cat.num_shapes() as u64,
                );
            }
            out.header(
                "soct_livedb_writes_total",
                "counter",
                "Live-database write outcomes by operation",
            );
            for (op, v) in [
                ("insert", g.inserts),
                ("delete", g.deletes),
                ("delete_miss", g.delete_misses),
            ] {
                out.sample("soct_livedb_writes_total", &[("op", op)], v);
            }
        }
        soct_obs::global().render_into(out);
    }

    /// Writes the verdict cache to `cache_dir`, if configured.
    pub fn persist(&self) -> io::Result<()> {
        let Some(dir) = &self.cfg.cache_dir else {
            return Ok(());
        };
        let _guard = self.persist_lock.lock().expect("persist lock poisoned");
        // Write-then-rename so a crash mid-write never leaves a corrupt
        // cache for the next startup to choke on.
        let tmp = dir.join(format!("{CACHE_FILE}.tmp"));
        self.cache.save(&tmp)?;
        std::fs::rename(&tmp, dir.join(CACHE_FILE))?;
        soct_obs::global().cache_persists.inc();
        soct_obs::log_debug!(
            "serve",
            "event=cache_persisted entries={}",
            self.cache.len()
        );
        Ok(())
    }

    /// Persists after a newly computed verdict: immediately while the
    /// cache is small, every [`PERSIST_BATCH`] misses once it is large —
    /// a full snapshot write is O(cache), which must not be a per-request
    /// cost at scale.
    fn persist_best_effort(&self) {
        if self.cfg.cache_dir.is_none() {
            return;
        }
        let dirty = self.dirty.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cache.len() > PERSIST_IMMEDIATE_LIMIT && dirty < PERSIST_BATCH {
            return;
        }
        self.dirty.store(0, Ordering::Relaxed);
        if let Err(e) = self.persist() {
            self.stats.persist_failures.fetch_add(1, Ordering::Relaxed);
            soct_obs::log_warn!("serve", "event=persist_failed error={e}");
        }
    }

    /// Graceful shutdown: persists the verdict cache, then checkpoints
    /// the live database's WAL (which flushes pending records first) so
    /// a restart recovers from the snapshot instead of replaying the
    /// whole log. Under sync policies `batch`/`off` this is also what
    /// makes the tail of acknowledged writes durable on a clean exit.
    pub fn shutdown(&self) {
        if let Err(e) = self.persist() {
            self.stats.persist_failures.fetch_add(1, Ordering::Relaxed);
            soct_obs::log_warn!("serve", "event=shutdown_persist_failed error={e}");
        }
        let Some(live) = &self.live else {
            return;
        };
        let mut guard = live.write().expect("live db poisoned");
        let g = &mut *guard;
        let Some(wal) = g.wal.as_mut() else {
            return;
        };
        if let Err(e) = wal.checkpoint(&g.engine, &g.schema, &g.consts) {
            soct_obs::log_warn!("serve", "event=shutdown_checkpoint_failed error={e}");
            // The snapshot didn't land, but the log is still the source
            // of truth — at least force it to stable storage.
            if let Err(e) = wal.flush() {
                soct_obs::log_warn!("serve", "event=shutdown_flush_failed error={e}");
            }
        }
        soct_obs::log_info!("serve", "event=shutdown_complete");
    }
}

type ServiceResult = Result<String, (u16, String)>;

/// Which mutation a `/db/*` write request performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WriteOp {
    Insert,
    Delete,
}

fn no_live_db() -> (u16, String) {
    (
        409,
        "no resident database (start serve with --db <facts-file>)".to_string(),
    )
}

/// A parsed request body: vocabulary, rules, and the database actually
/// checked (the body's facts, or the critical instance when none given).
struct ParsedProgram {
    schema: Schema,
    tgds: Vec<Tgd>,
    db: Database,
}

fn parse_program(body: &str) -> Result<ParsedProgram, (u16, String)> {
    let parsed = Program::parse(body).map_err(|e| (400, e.to_string()))?;
    let mut consts = parsed.consts;
    let db = if parsed.database.is_empty() {
        critical_instance(&parsed.schema, &parsed.tgds, &mut consts)
    } else {
        parsed.database
    };
    Ok(ParsedProgram {
        schema: parsed.schema,
        tgds: parsed.tgds,
        db,
    })
}

/// The critical instance `D_Σ` (Remark 1): one atom per predicate of the
/// ruleset, every position filled with a distinct fresh constant. Used
/// when a request (or CLI invocation) supplies rules but no database —
/// the verdict then characterises termination on *all* databases.
pub fn critical_instance(schema: &Schema, tgds: &[Tgd], consts: &mut Interner) -> Database {
    let mut db = Database::new();
    let mut i = 0usize;
    for p in soct_model::tgd::predicates_of(tgds) {
        let terms: Vec<Term> = (0..schema.arity(p))
            .map(|_| {
                let c = ConstId::from_symbol(consts.intern(&format!("crit{i}")));
                i += 1;
                Term::Const(c)
            })
            .collect();
        db.insert(Atom::new(schema, p, terms).expect("arity matches"));
    }
    db
}

fn split_target(target: &str) -> (&str, FxHashMap<String, String>) {
    match target.split_once('?') {
        None => (target, FxHashMap::default()),
        Some((path, query)) => {
            let mut map = FxHashMap::default();
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, "true"));
                map.insert(k.to_string(), v.to_string());
            }
            (path, map)
        }
    }
}

fn mode_from(
    query: &FxHashMap<String, String>,
    default: FindShapesMode,
) -> Result<FindShapesMode, (u16, String)> {
    match query.get("mode") {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e: String| (400, e)),
    }
}

fn mode_str(mode: FindShapesMode) -> &'static str {
    match mode {
        FindShapesMode::InMemory => "memory",
        FindShapesMode::InDatabase => "db",
    }
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Finite => "finite",
        Verdict::Infinite => "infinite",
        Verdict::Unknown => "unknown",
    }
}

fn class_str(c: TgdClass) -> &'static str {
    match c {
        TgdClass::SimpleLinear => "SL",
        TgdClass::Linear => "L",
        TgdClass::General => "TGD",
    }
}

fn outcome_str(o: ChaseOutcome) -> &'static str {
    match o {
        ChaseOutcome::Terminated => "terminated",
        ChaseOutcome::AtomBudgetExceeded => "atom-budget-exceeded",
        ChaseOutcome::RoundBudgetExceeded => "round-budget-exceeded",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::get_field;

    fn svc() -> TerminationService {
        TerminationService::new(ServiceConfig::default()).unwrap()
    }

    const INFINITE_SL: &str = "person(X) -> adv(X, Y).\nadv(X, Y) -> person(Y).\nperson(alice).\n";
    const FINITE_SL: &str = "r(X, Y) -> s(Y).\nr(a, b).\n";

    #[test]
    fn check_reports_verdict_and_cache_state() {
        let s = svc();
        let (status, body) = s.handle("POST", "/check", INFINITE_SL);
        assert_eq!(status, 200, "{body}");
        assert_eq!(get_field(&body, "verdict"), Some("infinite"));
        assert_eq!(get_field(&body, "class"), Some("SL"));
        assert_eq!(get_field(&body, "cached"), Some("false"));
        let (status2, body2) = s.handle("POST", "/check", INFINITE_SL);
        assert_eq!(status2, 200);
        assert_eq!(get_field(&body2, "cached"), Some("true"));
        // Byte-identical apart from the cached flag.
        assert_eq!(body.replace("\"cached\":false", "\"cached\":true"), body2);
    }

    #[test]
    fn rules_only_check_uses_the_critical_instance() {
        let s = svc();
        let (status, body) = s.handle("POST", "/check", "r(X, Y) -> s(Y).\n");
        assert_eq!(status, 200, "{body}");
        assert_eq!(get_field(&body, "verdict"), Some("finite"));
        assert_eq!(get_field(&body, "db_atoms"), Some("2"));
    }

    #[test]
    fn shapes_endpoint_lists_shapes() {
        let s = svc();
        let (status, body) = s.handle("POST", "/shapes", "r(a, a).\nr(a, b).\ns(c).\n");
        assert_eq!(status, 200, "{body}");
        assert_eq!(get_field(&body, "shapes"), Some("3"));
        assert!(body.contains("\"r_(1,1)\""), "{body}");
        assert!(body.contains("\"r_(1,2)\""), "{body}");
        assert!(body.contains("\"s_(1)\""), "{body}");
    }

    #[test]
    fn chase_endpoint_runs_variants() {
        let s = svc();
        let (status, body) = s.handle("POST", "/chase?variant=so&max-atoms=50", FINITE_SL);
        assert_eq!(status, 200, "{body}");
        assert_eq!(get_field(&body, "outcome"), Some("terminated"));
        assert_eq!(get_field(&body, "atoms"), Some("2"));
        let (status, body) = s.handle("POST", "/chase?variant=bogus", FINITE_SL);
        assert_eq!(status, 400, "{body}");
    }

    #[test]
    fn chase_budget_is_clamped_to_the_service_ceiling() {
        let cfg = ServiceConfig {
            max_chase_atoms: 100,
            ..ServiceConfig::default()
        };
        let s = TerminationService::new(cfg).unwrap();
        let diverging = "r(X, Y) -> r(Y, Z).\nr(a, b).\n";
        let (status, body) = s.handle("POST", "/chase?max-atoms=999999999", diverging);
        assert_eq!(status, 200, "{body}");
        assert_eq!(get_field(&body, "outcome"), Some("atom-budget-exceeded"));
        let atoms: u64 = get_field(&body, "atoms").unwrap().parse().unwrap();
        assert!(atoms <= 110, "budget not clamped: {atoms}");
    }

    #[test]
    fn errors_and_unknown_routes() {
        let s = svc();
        let (status, body) = s.handle("POST", "/check", "this is not a ruleset");
        assert_eq!(status, 400);
        assert!(get_field(&body, "error").is_some());
        let (status, _) = s.handle("GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = s.handle("GET", "/check", "");
        assert_eq!(status, 405);
        let (status, _) = s.handle("POST", "/check?mode=bogus", FINITE_SL);
        assert_eq!(status, 400);
        let stats = s.stats_json();
        // bad ruleset + 404 + 405 + bad mode
        assert_eq!(get_field(&stats, "errors"), Some("4"));
    }

    #[test]
    fn stats_counts_requests_and_cache() {
        let s = svc();
        s.handle("POST", "/check", FINITE_SL);
        s.handle("POST", "/check", FINITE_SL);
        let (status, body) = s.handle("GET", "/stats", "");
        assert_eq!(status, 200);
        assert_eq!(get_field(&body, "check"), Some("2"));
        assert_eq!(get_field(&body, "hits"), Some("1"));
        assert_eq!(get_field(&body, "misses"), Some("1"));
    }

    #[test]
    fn persisted_cache_warms_a_new_service() {
        let dir = std::env::temp_dir().join("soct_serve_cache_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let first = TerminationService::new(cfg.clone()).unwrap();
        let (_, body) = first.handle("POST", "/check", INFINITE_SL);
        assert_eq!(get_field(&body, "cached"), Some("false"));
        drop(first);
        let second = TerminationService::new(cfg).unwrap();
        let (_, body) = second.handle("POST", "/check", INFINITE_SL);
        assert_eq!(get_field(&body, "cached"), Some("true"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Linear ruleset whose verdict flips on the presence of the shape
    /// `r_(1,1)`: the s/t loop only fires once some `r(c, c)` exists.
    const SHAPE_SENSITIVE_L: &str = "r(X, X) -> s(X).\ns(X) -> t(X, Y).\nt(X, Y) -> s(Y).\n";

    fn live_svc(name: &str, facts: &str) -> (TerminationService, PathBuf) {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, facts).unwrap();
        let cfg = ServiceConfig {
            db_path: Some(path.clone()),
            ..ServiceConfig::default()
        };
        (TerminationService::new(cfg).unwrap(), path)
    }

    #[test]
    fn live_check_revalidates_through_shape_preserving_writes() {
        let (s, path) = live_svc("soct_serve_live_test.facts", "r(a, b).\nr(b, c).\n");
        let (status, body) = s.handle("POST", "/check?db=live", SHAPE_SENSITIVE_L);
        assert_eq!(status, 200, "{body}");
        assert_eq!(get_field(&body, "verdict"), Some("finite"));
        assert_eq!(get_field(&body, "class"), Some("L"));
        assert_eq!(get_field(&body, "cached"), Some("false"));

        // Shape-preserving insert: r_(1,2) already present.
        let (status, w) = s.handle("POST", "/db/insert", "r(c, d).\n");
        assert_eq!(status, 200, "{w}");
        assert_eq!(get_field(&w, "applied"), Some("1"));
        assert_eq!(get_field(&w, "shape_fp_changed"), Some("false"));
        let (_, body2) = s.handle("POST", "/check?db=live", SHAPE_SENSITIVE_L);
        assert_eq!(get_field(&body2, "cached"), Some("true"), "{body2}");
        assert_eq!(get_field(&body2, "verdict"), Some("finite"));

        // Shape-changing insert: r_(1,1) appears, the loop arms.
        let (_, w) = s.handle("POST", "/db/insert", "r(e, e).\n");
        assert_eq!(get_field(&w, "shape_fp_changed"), Some("true"), "{w}");
        let (_, body3) = s.handle("POST", "/check?db=live", SHAPE_SENSITIVE_L);
        assert_eq!(get_field(&body3, "cached"), Some("false"));
        assert_eq!(get_field(&body3, "verdict"), Some("infinite"));

        // Delete restores the fingerprint bit-exactly: cache hit, old verdict.
        let (_, w) = s.handle("POST", "/db/delete", "r(e, e).\n");
        assert_eq!(get_field(&w, "applied"), Some("1"));
        assert_eq!(get_field(&w, "shape_fp_changed"), Some("true"));
        let (_, body4) = s.handle("POST", "/check?db=live", SHAPE_SENSITIVE_L);
        assert_eq!(get_field(&body4, "cached"), Some("true"), "{body4}");
        assert_eq!(get_field(&body4, "verdict"), Some("finite"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn db_stats_counts_writes_and_misses() {
        let (s, path) = live_svc("soct_serve_live_stats.facts", "r(a, b).\n");
        s.handle("POST", "/db/insert", "r(b, c).\ns(a).\n");
        let (status, w) = s.handle("POST", "/db/delete", "r(a, b).\nr(zz, zz).\n");
        assert_eq!(status, 200, "{w}");
        assert_eq!(get_field(&w, "applied"), Some("1"));
        assert_eq!(get_field(&w, "missed"), Some("1"));
        let (status, body) = s.handle("GET", "/db/stats", "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(get_field(&body, "tuples"), Some("2"));
        assert_eq!(get_field(&body, "inserts"), Some("2"));
        assert_eq!(get_field(&body, "deletes"), Some("1"));
        assert_eq!(get_field(&body, "delete_misses"), Some("1"));
        assert_eq!(get_field(&body, "catalog_rebuilds"), Some("0"));
        assert_eq!(get_field(&body, "relations_nonempty"), Some("2"));
        let (_, stats) = s.handle("GET", "/stats", "");
        assert_eq!(get_field(&stats, "db_writes"), Some("2"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn db_batch_applies_mixed_writes_in_one_request() {
        let (s, path) = live_svc("soct_serve_batch.facts", "r(a, b).\n");
        let (status, w) = s.handle(
            "POST",
            "/db/batch",
            "r(b, c).\ns(a).\n- r(a, b).\n- r(zz, zz).\n",
        );
        assert_eq!(status, 200, "{w}");
        assert_eq!(get_field(&w, "op"), Some("batch"));
        assert_eq!(get_field(&w, "inserted"), Some("2"));
        assert_eq!(get_field(&w, "deleted"), Some("1"));
        assert_eq!(get_field(&w, "missed"), Some("1"));
        assert_eq!(get_field(&w, "applied"), Some("3"));
        assert_eq!(get_field(&w, "tuples"), Some("2"));
        let (_, stats) = s.handle("GET", "/db/stats", "");
        assert_eq!(get_field(&stats, "inserts"), Some("2"));
        assert_eq!(get_field(&stats, "deletes"), Some("1"));
        assert_eq!(get_field(&stats, "delete_misses"), Some("1"));
        assert_eq!(get_field(&stats, "durable"), Some("false"));
        let (status, _) = s.handle("GET", "/db/batch", "");
        assert_eq!(status, 405);
        let (status, _) = s.handle("POST", "/db/batch", "\n  \n");
        assert_eq!(status, 400);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn durable_service_recovers_acked_writes_across_restart() {
        let dir = std::env::temp_dir().join("soct_serve_durable_test");
        std::fs::remove_dir_all(&dir).ok();
        let seed = std::env::temp_dir().join("soct_serve_durable_seed.facts");
        std::fs::write(&seed, "r(a, b).\n").unwrap();
        let cfg = ServiceConfig {
            db_path: Some(dir.clone()),
            wal: true,
            wal_sync: SyncPolicy::Always,
            db_seed: Some(seed.clone()),
            ..ServiceConfig::default()
        };
        let s = TerminationService::new(cfg.clone()).unwrap();
        let (status, w) = s.handle("POST", "/db/insert", "r(b, c).\n");
        assert_eq!(status, 200, "{w}");
        let (status, w) = s.handle("POST", "/db/batch", "s(a).\n- r(a, b).\n");
        assert_eq!(status, 200, "{w}");
        let (_, before) = s.handle("GET", "/db/stats", "");
        assert_eq!(get_field(&before, "tuples"), Some("2"));
        assert_eq!(get_field(&before, "durable"), Some("true"));
        // Drop without shutdown(): a crash. With `always`, everything
        // acknowledged above must come back.
        drop(s);
        let s2 = TerminationService::new(cfg).unwrap();
        let (_, after) = s2.handle("GET", "/db/stats", "");
        assert_eq!(get_field(&after, "tuples"), Some("2"));
        assert_eq!(
            get_field(&before, "shape_fp"),
            get_field(&after, "shape_fp"),
            "recovered fingerprint must match the pre-crash one"
        );
        assert_eq!(get_field(&before, "pred_fp"), get_field(&after, "pred_fp"));
        // The seed was checkpointed, so only the post-seed writes replay:
        // symbols(c) + ops(insert), then preds(s) + ops(batch).
        assert_eq!(get_field(&after, "recovered_records"), Some("4"));
        assert_eq!(get_field(&after, "torn_truncations"), Some("0"));
        // A clean shutdown checkpoints: the next restart replays nothing.
        s2.shutdown();
        drop(s2);
        let s3 = TerminationService::new(ServiceConfig {
            db_path: Some(dir.clone()),
            wal: true,
            db_seed: Some(seed.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let (_, third) = s3.handle("GET", "/db/stats", "");
        assert_eq!(get_field(&third, "recovered_records"), Some("0"));
        assert_eq!(get_field(&third, "tuples"), Some("2"));
        // Live checks see the recovered contents: the batch inserted
        // `s(a)`, which arms the s/t loop of the ruleset directly.
        let (_, verdict) = s3.handle("POST", "/check?db=live", SHAPE_SENSITIVE_L);
        assert_eq!(get_field(&verdict, "verdict"), Some("infinite"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(seed).ok();
    }

    #[test]
    fn db_endpoints_require_a_resident_database() {
        let s = svc();
        for (method, target) in [
            ("POST", "/db/insert"),
            ("POST", "/db/delete"),
            ("GET", "/db/stats"),
            ("POST", "/check?db=live"),
        ] {
            let (status, body) = s.handle(method, target, "r(a, b).\n");
            assert_eq!(status, 409, "{target}: {body}");
            assert!(
                get_field(&body, "error").unwrap().contains("--db"),
                "{body}"
            );
        }
        // And a bogus db selector is a 400, not a 409.
        let (status, _) = s.handle("POST", "/check?db=other", FINITE_SL);
        assert_eq!(status, 400);
    }

    #[test]
    fn critical_instance_covers_every_rule_predicate() {
        let p = Program::parse("r(X, Y) -> s(Y, Z).\ns(X, Y) -> t(X).\n").unwrap();
        let mut consts = p.consts;
        let db = critical_instance(&p.schema, &p.tgds, &mut consts);
        assert_eq!(db.len(), 3); // r, s, t
        assert!(db.atoms().iter().all(Atom::is_fact));
        // All constants are distinct.
        assert_eq!(db.active_domain().len(), 2 + 2 + 1);
    }
}
