//! Subcommand implementations.

use crate::args::Args;
use soct_core::{check_termination, ms, CheckOpts, FindShapesMode, Verdict};
use soct_model::{Database, Instance, Interner, Schema, TgdClass};
use soct_storage::InstanceSource;
use std::time::Instant;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn write_out(args: &Args, content: &str) -> Result<(), String> {
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {path} ({} bytes)", content.len());
            Ok(())
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn mode_of(args: &Args) -> Result<FindShapesMode, String> {
    args.get_or("mode", "memory")
        .parse()
        .map_err(|e| format!("--{e}"))
}

/// Starts a span-collection session when `--trace-out FILE` is given.
/// Returns the session paired with the target path.
fn trace_session_of(args: &Args) -> Option<(soct_obs::TraceSession, &str)> {
    args.get("trace-out")
        .map(|path| (soct_obs::TraceSession::start(), path))
}

/// Finishes a trace session and writes the Chrome-trace JSON
/// (Perfetto / `chrome://tracing` loadable) to `path`.
fn write_trace(session: soct_obs::TraceSession, path: &str) -> Result<(), String> {
    let records = session.finish();
    let json = soct_obs::chrome_trace_json(&records);
    std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("wrote trace {path} ({} spans)", records.len());
    Ok(())
}

/// Loads rules and (optionally) a fact file over one shared vocabulary.
fn load_program(args: &Args) -> Result<(Schema, Interner, Vec<soct_model::Tgd>, Database), String> {
    let rules_path = args.require("rules")?;
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let tgds = soct_parser::parse_tgds(&read(rules_path)?, &mut schema, &mut consts)
        .map_err(|e| format!("{rules_path}: {e}"))?;
    let db = match args.get("db") {
        Some(db_path) => soct_parser::parse_facts(&read(db_path)?, &mut schema, &mut consts)
            .map_err(|e| format!("{db_path}: {e}"))?,
        // D_Σ (Remark 1): one atom per predicate, distinct constants.
        None => soct_serve::critical_instance(&schema, &tgds, &mut consts),
    };
    Ok((schema, consts, tgds, db))
}

/// Worker-thread count: `--threads N`, default `0` = auto (the
/// `SOCT_THREADS` environment variable, else the machine's available
/// parallelism).
fn threads_of(args: &Args) -> Result<usize, String> {
    args.get_usize("threads", 0)
}

/// `soct check`.
pub fn check(args: &Args) -> Result<(), String> {
    let (schema, _consts, tgds, db) = load_program(args)?;
    let mode = mode_of(args)?;
    let threads = threads_of(args)?;
    let class = soct_model::tgd::classify(&tgds);
    let trace = trace_session_of(args);
    let t0 = Instant::now();
    let report = {
        let _span = soct_obs::span("check");
        let opts = CheckOpts {
            mode,
            threads,
            cache: None,
        };
        check_termination(&schema, &tgds, &db, opts)
    };
    let elapsed = t0.elapsed();
    if let Some((session, path)) = trace {
        write_trace(session, path)?;
    }
    println!(
        "class: {class}  rules: {}  db-atoms: {}",
        tgds.len(),
        db.len()
    );
    match report.verdict {
        Verdict::Finite => println!("verdict: FINITE (chase terminates)"),
        Verdict::Infinite => println!("verdict: INFINITE (chase does not terminate)"),
        Verdict::Unknown => println!(
            "verdict: UNKNOWN (general TGDs: not D-weakly-acyclic; \
             termination is undecidable in general)"
        ),
    }
    println!("time: {:.3} ms", ms(elapsed));
    if args.get_bool("quiet") {
        return Ok(());
    }
    // Detailed breakdown for the linear classes.
    match class {
        TgdClass::SimpleLinear => {
            let db_preds: soct_model::FxHashSet<_> =
                db.non_empty_predicates().into_iter().collect();
            let rep = soct_core::is_chase_finite_sl(&schema, &tgds, &db_preds);
            println!(
                "breakdown: t-graph {:.3} ms | t-comp {:.3} ms | t-supports {:.3} ms \
                 | graph {} nodes / {} edges ({} special) | special SCCs: {}",
                ms(rep.timings.t_graph),
                ms(rep.timings.t_comp),
                ms(rep.timings.t_supports),
                rep.graph_nodes,
                rep.graph_edges,
                rep.special_edges,
                rep.num_special_sccs
            );
        }
        TgdClass::Linear => {
            let src = InstanceSource::new(&schema, &db);
            let rep = soct_core::is_chase_finite_l_parallel(&schema, &tgds, &src, mode, threads);
            println!(
                "breakdown: t-shapes {:.3} ms | t-graph {:.3} ms | t-comp {:.3} ms \
                 | db-shapes {} | derived shapes {} | simplified rules {}",
                ms(rep.timings.t_shapes),
                ms(rep.timings.t_graph),
                ms(rep.timings.t_comp),
                rep.n_db_shapes,
                rep.shapes_derived,
                rep.n_simplified_tgds
            );
        }
        TgdClass::General => {}
    }
    Ok(())
}

/// `soct chase`.
pub fn chase(args: &Args) -> Result<(), String> {
    let (schema, consts, tgds, db) = load_program(args)?;
    let variant: soct_chase::ChaseVariant = args
        .get_or("variant", "so")
        .parse()
        .map_err(|e| format!("--{e}"))?;
    let cfg = soct_chase::ChaseConfig {
        variant,
        max_atoms: args.get_usize("max-atoms", 1_000_000)?,
        max_rounds: args.get_usize("max-rounds", usize::MAX)?,
        threads: threads_of(args)?,
    };
    // `--backend memory` chases over the in-memory columnar store;
    // `--backend storage` loads the database into the embedded storage
    // engine first and chases it there, writing derived atoms back to the
    // engine's tables (the paper's in-database mode).
    let trace = trace_session_of(args);
    let t0 = Instant::now();
    let (res, pages) = match args.get_or("backend", "memory") {
        "memory" | "mem" => (soct_chase::run_chase_columnar(&db, &tgds, &cfg), None),
        "storage" | "db" => {
            let mut engine = soct_storage::StorageEngine::new();
            engine.load_instance(&schema, &db);
            let res = soct_chase::run_chase_on_engine(&schema, &mut engine, &tgds, &cfg);
            let pages: usize = engine.tables().map(|(_, t)| t.page_count()).sum();
            let tables = engine.tables().count();
            (res, Some((pages, tables)))
        }
        other => return Err(format!("--backend must be memory|storage, got `{other}`")),
    };
    let elapsed = t0.elapsed();
    if let Some((session, path)) = trace {
        write_trace(session, path)?;
    }
    println!(
        "outcome: {:?}  rounds: {} ({} parallel)  atoms: {} ({} derived)  triggers: {}  nulls: {}  time: {:.3} ms",
        res.outcome,
        res.rounds,
        res.parallel_rounds,
        res.store.len(),
        res.derived_atoms(db.len()),
        res.triggers_applied,
        res.nulls_created,
        ms(elapsed)
    );
    if let Some((pages, tables)) = pages {
        println!("storage: {pages} pages across {tables} tables");
    }
    if args.get("out").is_some() {
        let rendered = soct_parser::write_facts(&res.store.to_instance(), &schema, &consts);
        write_out(args, &rendered)?;
    }
    Ok(())
}

/// `soct shapes`.
pub fn shapes(args: &Args) -> Result<(), String> {
    let db_path = args.require("db")?;
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let db = soct_parser::parse_facts(&read(db_path)?, &mut schema, &mut consts)
        .map_err(|e| format!("{db_path}: {e}"))?;
    let mode = mode_of(args)?;
    let src = InstanceSource::new(&schema, &db);
    let t0 = Instant::now();
    let rep = soct_core::find_shapes_parallel(&src, mode, threads_of(args)?);
    let elapsed = t0.elapsed();
    println!(
        "{} shapes in {} atoms ({:.3} ms, mode {:?})",
        rep.shapes.len(),
        db.len(),
        ms(elapsed),
        mode
    );
    for s in &rep.shapes {
        println!("  {}_{}", schema.name(s.pred), s.rgs);
    }
    if mode == FindShapesMode::InDatabase {
        println!(
            "queries: {} relaxed, {} exact, {} pruned lattice nodes",
            rep.stats.relaxed_queries, rep.stats.exact_queries, rep.stats.pruned_nodes
        );
    }
    Ok(())
}

/// `soct stats`.
pub fn stats(args: &Args) -> Result<(), String> {
    let rules_path = args.require("rules")?;
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let t0 = Instant::now();
    let tgds = soct_parser::parse_tgds(&read(rules_path)?, &mut schema, &mut consts)
        .map_err(|e| format!("{rules_path}: {e}"))?;
    let t_parse = t0.elapsed();
    let class = soct_model::tgd::classify(&tgds);
    let graph = soct_graph::DependencyGraph::build(&schema, &tgds);
    let scc = soct_graph::find_special_sccs(&graph);
    println!(
        "rules: {}  class: {class}  predicates: {}  positions: {}",
        tgds.len(),
        schema.len(),
        schema.num_positions()
    );
    println!(
        "dependency graph: {} nodes, {} edges ({} special), {} SCCs ({} special)",
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_special_edges(),
        scc.num_sccs,
        scc.special_sccs().len()
    );
    println!(
        "weakly acyclic: {}  t-parse: {:.3} ms",
        !scc.has_special_scc(),
        ms(t_parse)
    );
    Ok(())
}

/// `soct generate-tgds`.
pub fn generate_tgds(args: &Args) -> Result<(), String> {
    let ssize = args.get_usize("ssize", 50)?;
    let tsize = args.get_usize("tsize", 1000)?;
    let min = args.get_usize("min", 1)?;
    let max = args.get_usize("max", 5)?;
    let seed = args.get_u64("seed", 42)?;
    let tclass = match args.get_or("class", "sl") {
        "sl" => TgdClass::SimpleLinear,
        "l" | "linear" => TgdClass::Linear,
        other => return Err(format!("--class must be sl|l, got `{other}`")),
    };
    let mut schema = Schema::new();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let pool =
        soct_gen::datagen::make_predicates(&mut schema, "p", ssize.max(10) * 2, min, max, &mut rng);
    let cfg = soct_gen::TgdGenConfig {
        ssize,
        min_arity: min,
        max_arity: max,
        tsize,
        tclass,
        existential_prob: 0.1,
        seed,
    };
    let tgds = soct_gen::generate_tgds(&cfg, &schema, &pool);
    let consts = Interner::new();
    let rendered = soct_parser::write_tgds(&tgds, &schema, &consts);
    write_out(args, &rendered)
}

/// `soct gen`: the scenario foundry — difficulty-calibrated, deduplicated,
/// byte-deterministic workloads, plus corpus maintenance (`--corpus` to
/// (re)write the standard corpus, `--check-corpus` as the CI drift gate).
pub fn gen(args: &Args) -> Result<(), String> {
    if let Some(dir) = args.get("check-corpus") {
        let drift = soct_gen::check_corpus(std::path::Path::new(dir))?;
        if drift.is_empty() {
            let n = soct_gen::load_manifest(std::path::Path::new(dir))?.len();
            println!("corpus {dir}: {n} entries, no drift");
            return Ok(());
        }
        for d in &drift {
            eprintln!("drift: {d}");
        }
        return Err(format!("corpus {dir}: {} entries drifted", drift.len()));
    }
    if let Some(dir) = args.get("corpus") {
        let seed = args.get_u64("seed", soct_gen::CORPUS_SEED)?;
        let n = soct_gen::write_corpus(std::path::Path::new(dir), seed)?;
        println!(
            "wrote corpus {dir}: {n} rulesets + {} (seed {seed})",
            soct_gen::MANIFEST
        );
        return Ok(());
    }
    let family: soct_gen::Family = args
        .get_or("family", "linear")
        .parse()
        .map_err(|e| format!("--{e}"))?;
    let difficulty: soct_gen::Difficulty = args
        .get_or("difficulty", "easy")
        .parse()
        .map_err(|e| format!("--{e}"))?;
    let seed = args.get_u64("seed", 42)?;
    let count = args.get_usize("count", 1)?;
    let cfg = soct_gen::FoundryConfig {
        family,
        difficulty,
        seed,
        count,
    };
    let rulesets = soct_gen::foundry::generate(&cfg)?;
    if let Some(dir) = args.get("out-dir") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        for (i, r) in rulesets.iter().enumerate() {
            let name = soct_gen::corpus::entry_file_name(family, difficulty, i);
            std::fs::write(dir.join(&name), &r.text)
                .map_err(|e| format!("cannot write `{name}`: {e}"))?;
            println!(
                "{name}: rules {} fp {:032x} verdict {}",
                r.tgds.len(),
                r.fingerprint.0,
                soct_gen::verdict_name(r.verdict)
            );
        }
        return Ok(());
    }
    let mut rendered = String::new();
    for r in &rulesets {
        rendered.push_str(&format!(
            "# family={} difficulty={} subseed={} fingerprint={:032x} verdict={}\n",
            r.family,
            r.difficulty,
            r.subseed,
            r.fingerprint.0,
            soct_gen::verdict_name(r.verdict)
        ));
        rendered.push_str(&r.text);
    }
    write_out(args, &rendered)
}

/// `soct generate-data`.
pub fn generate_data(args: &Args) -> Result<(), String> {
    let cfg = soct_gen::DataGenConfig {
        preds: args.get_usize("preds", 10)?,
        min_arity: args.get_usize("min", 1)?,
        max_arity: args.get_usize("max", 5)?,
        dsize: args.get_usize("dsize", 1000)?,
        rsize: args.get_usize("rsize", 100)?,
        seed: args.get_u64("seed", 42)?,
    };
    let mut schema = Schema::new();
    let (_preds, inst) = soct_gen::generate_instance(&cfg, &mut schema);
    let rendered = render_generated_facts(&schema, &inst);
    write_out(args, &rendered)
}

/// `soct serve`: run the termination-checking service until killed (or,
/// on Unix, until SIGTERM/SIGINT triggers a graceful drain: stop
/// accepting, finish in-flight work, persist the cache, checkpoint and
/// flush the WAL).
pub fn serve(args: &Args) -> Result<(), String> {
    let host = args.get_or("host", "127.0.0.1");
    let port = args.get_usize("port", 7171)?;
    let workers = soct_chase::resolve_threads(threads_of(args)?);
    let wal = args.get_bool("wal");
    let wal_sync: soct_storage::SyncPolicy = args.get_or("wal-sync", "always").parse()?;
    if args.get("wal-sync").is_some() && !wal {
        return Err("--wal-sync requires --wal".to_string());
    }
    if args.get("db-seed").is_some() && !wal {
        return Err("--db-seed requires --wal (without it, --db is itself the facts file)".into());
    }
    if wal && args.get("db").is_none() {
        return Err("--wal requires --db DIR (the durable database directory)".to_string());
    }
    let cfg = soct_serve::ServiceConfig {
        mode: mode_of(args)?,
        check_threads: 1,
        cache_capacity: args.get_usize("cache-cap", 1 << 16)?,
        cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
        max_chase_atoms: args.get_usize("max-atoms", 1_000_000)?,
        db_path: args.get("db").map(std::path::PathBuf::from),
        wal,
        wal_sync,
        db_seed: args.get("db-seed").map(std::path::PathBuf::from),
    };
    let persisted = cfg.cache_dir.is_some();
    let live_db = cfg.db_path.clone();
    let service = std::sync::Arc::new(
        soct_serve::TerminationService::new(cfg)
            .map_err(|e| format!("cannot initialise service: {e}"))?,
    );
    let warm = service.cache().len();
    let server_cfg = soct_serve::ServerConfig {
        workers,
        queue_depth: args.get_usize("queue-depth", 256)?,
        deadline: std::time::Duration::from_millis(args.get_u64("deadline-ms", 10_000)?),
        max_connections: args.get_usize("max-conns", 1024)?,
        ..soct_serve::ServerConfig::default()
    };
    let (queue_depth, deadline) = (server_cfg.queue_depth, server_cfg.deadline);
    let server =
        soct_serve::Server::bind_with(format!("{host}:{port}"), service.clone(), server_cfg)
            .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "soct serve: listening on {addr} ({workers} worker threads, queue depth {queue_depth}, \
         async deadline {deadline:?}, {} cache{})",
        if persisted { "persistent" } else { "in-memory" },
        if warm > 0 {
            format!(", {warm} verdicts warm")
        } else {
            String::new()
        }
    );
    if let Some(path) = live_db {
        if wal {
            println!(
                "soct serve: durable live database at {} (write-ahead log, sync {wal_sync}; \
                 POST /db/insert, POST /db/delete, POST /db/batch, GET /db/stats, /check?db=live)",
                path.display()
            );
        } else {
            println!(
                "soct serve: resident live database loaded from {} \
                 (POST /db/insert, POST /db/delete, POST /db/batch, GET /db/stats, /check?db=live)",
                path.display()
            );
        }
    }
    soct_serve::install_shutdown_signal();
    let handle = server.start().map_err(|e| e.to_string())?;
    // Park until a shutdown signal arrives. The reactor owns the
    // sockets; this thread only watches the flag the handler sets.
    while !soct_serve::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("soct serve: shutdown signal received, draining");
    handle.shutdown();
    service.shutdown();
    println!("soct serve: drained and checkpointed, bye");
    Ok(())
}

/// `soct client <check|shapes|chase|stats|job|insert|delete|batch|db-stats>`:
/// one request against a running service; prints the JSON response.
/// `--expect VERDICT`, `--expect-cached`, and (for writes)
/// `--expect-fp-changed true|false` turn the invocation into an assertion
/// (non-zero exit on mismatch) for CI and smoke tests. `check --async`
/// submits via the job queue (`202 Accepted`); add `--wait` to poll the
/// job to completion (assertions then run against the finished job's
/// body). `job --id N [--wait]` polls an already-submitted job.
/// `check --live` checks the body's rules against the server's resident
/// database; `insert`/`delete` stream line-oriented facts to it, and
/// `batch` sends one mixed insert/delete batch (`- r(a,b).` lines
/// delete) applied as a single WAL record.
pub fn client(sub: &str, args: &Args) -> Result<(), String> {
    let addr = args.get_or("addr", "127.0.0.1:7171");
    let client = soct_serve::Client::new(addr);
    let timeout = std::time::Duration::from_millis(args.get_u64("timeout-ms", 60_000)?);
    let resp = match sub {
        "check" => {
            let mut params: Vec<String> = Vec::new();
            if args.get_bool("live") {
                params.push("db=live".to_string());
            }
            if let Some(mode) = args.get("mode") {
                params.push(format!("mode={mode}"));
            }
            let mut path = "/check".to_string();
            if !params.is_empty() {
                path.push('?');
                path.push_str(&params.join("&"));
            }
            // With --live the resident database is the instance; a --db
            // facts file would be silently ignored, so refuse the combination.
            let body = if args.get_bool("live") {
                if args.get("db").is_some() {
                    return Err("--live checks the resident database; drop --db".to_string());
                }
                read(args.require("rules")?)?
            } else {
                program_text(args)?
            };
            if args.get_bool("async") {
                let id = client
                    .post_async(&path, &body)
                    .map_err(|e| format!("request to {addr} failed: {e}"))?;
                if !args.get_bool("wait") {
                    println!("{{\"job\":{id},\"poll\":\"/jobs/{id}\"}}");
                    return Ok(());
                }
                client.wait_job(id, timeout).map(check_job_done)
            } else {
                client.post(&path, &body)
            }
        }
        "job" => {
            let id: u64 = args
                .require("id")?
                .parse()
                .map_err(|_| "--id expects a job id".to_string())?;
            if args.get_bool("wait") {
                client.wait_job(id, timeout).map(check_job_done)
            } else {
                client.job(id)
            }
        }
        "shapes" => {
            let mut path = "/shapes".to_string();
            if let Some(mode) = args.get("mode") {
                path.push_str(&format!("?mode={mode}"));
            }
            let db_path = args.require("db")?;
            client.post(&path, &read(db_path)?)
        }
        "chase" => {
            let mut path = format!("/chase?variant={}", args.get_or("variant", "so"));
            if let Some(n) = args.get("max-atoms") {
                path.push_str(&format!("&max-atoms={n}"));
            }
            client.post(&path, &program_text(args)?)
        }
        "stats" => client.get("/stats"),
        "insert" | "delete" | "batch" => client.post(&format!("/db/{sub}"), &facts_text(args)?),
        "db-stats" => client.get("/db/stats"),
        other => {
            return Err(format!(
                "unknown client subcommand `{other}` \
                 (try check|shapes|chase|stats|job|insert|delete|batch|db-stats)"
            ))
        }
    }
    .map_err(|e| format!("request to {addr} failed: {e}"))?;
    println!("{}", resp.body);
    if !resp.is_ok() {
        return Err(format!("server answered status {}", resp.status));
    }
    if let Some(expected) = args.get("expect") {
        let got = soct_serve::get_field(&resp.body, "verdict").unwrap_or("<none>");
        if got != expected {
            return Err(format!("expected verdict `{expected}`, got `{got}`"));
        }
    }
    if args.get_bool("expect-cached") && soct_serve::get_field(&resp.body, "cached") != Some("true")
    {
        return Err("expected a cache hit, got a miss".to_string());
    }
    if let Some(expected) = args.get("expect-fp-changed") {
        let got = soct_serve::get_field(&resp.body, "shape_fp_changed").unwrap_or("<none>");
        if got != expected {
            return Err(format!("expected shape_fp_changed={expected}, got {got}"));
        }
    }
    Ok(())
}

/// Request body for client insert/delete/batch: `--tuples 'r(a,b).'`
/// inline, or `--facts FILE` for a batch file of line-oriented facts
/// (for `batch`, lines starting with `-` are deletes).
fn facts_text(args: &Args) -> Result<String, String> {
    match (args.get("tuples"), args.get("facts")) {
        (Some(t), None) => Ok(t.to_string()),
        (None, Some(path)) => read(path),
        (None, None) => Err("provide --tuples 'r(a,b).' or --facts FILE".to_string()),
        (Some(_), Some(_)) => Err("--tuples and --facts are mutually exclusive".to_string()),
    }
}

/// Adopts a finished job's inner request status as the response status,
/// so `--expect`-style assertions and the non-2xx exit path act on the
/// job's actual outcome rather than the `/jobs/<id>` envelope's 200.
fn check_job_done(resp: soct_serve::Response) -> soct_serve::Response {
    if resp.status == 200 && soct_serve::get_field(&resp.body, "state") == Some("done") {
        if let Some(inner) =
            soct_serve::get_field(&resp.body, "status").and_then(|s| s.parse().ok())
        {
            return soct_serve::Response {
                status: inner,
                body: resp.body,
            };
        }
    }
    resp
}

/// Request body for client check/chase: the rules file, with the facts
/// file appended when given (the service parses one program text).
fn program_text(args: &Args) -> Result<String, String> {
    let mut text = read(args.require("rules")?)?;
    if let Some(db_path) = args.get("db") {
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&read(db_path)?);
    }
    Ok(text)
}

/// Renders generated facts with synthetic constant names `c{i}` (the
/// generator works on raw constant ids without an interner).
fn render_generated_facts(schema: &Schema, inst: &Instance) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(inst.len() * 24);
    for atom in inst.atoms() {
        out.push_str(schema.name(atom.pred));
        out.push('(');
        for (i, t) in atom.terms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "c{}", t.raw());
        }
        out.push_str(").\n");
    }
    out
}
