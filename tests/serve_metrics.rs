//! Integration tests of `GET /metrics` (ISSUE 9): the Prometheus text
//! exposition must be well-formed (every family declared once with
//! `# HELP`/`# TYPE`, no duplicate series), counters must be monotone
//! across scrapes, and the request-latency histogram must agree with the
//! numbers `/stats` reports for the same server.
//!
//! Process-global families (`soct_chase_*`, `soct_db_*`,
//! `soct_core_phase_us`) are shared by every test in this binary, so
//! assertions on them are presence/monotonicity only; per-server families
//! (serve admission, cache, live db) are exact.

use soct::serve::{Client, Server, ServerConfig, ServiceConfig, TerminationService};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const FINITE_SL: &str = "r(X, Y) -> s(Y).\nr(a, b).\n";
/// Rules-only variant for `/check?db=live` (facts live server-side).
const FINITE_SL_RULES: &str = "r(X, Y) -> s(Y).\n";
const INFINITE_SL: &str = "person(X) -> adv(X, Y).\nadv(X, Y) -> person(Y).\nperson(alice).\n";

fn start_server(cfg: ServiceConfig) -> (soct::serve::ServerHandle, Client) {
    let service = Arc::new(TerminationService::new(cfg).unwrap());
    let server = Server::bind_with(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.start().unwrap();
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

/// A parsed exposition: family → (kind, help) and series line → value.
struct Exposition {
    families: HashMap<String, String>,
    series: HashMap<String, f64>,
}

/// The family a sample line belongs to: its metric name, with the
/// histogram `_bucket`/`_sum`/`_count` suffix stripped when the base
/// name is a declared histogram family.
fn family_of<'a>(name: &'a str, families: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families.get(base).is_some_and(|k| k == "histogram") {
                return base;
            }
        }
    }
    name
}

/// Parses and lints a `/metrics` body: `# TYPE` declared exactly once per
/// family, `# HELP` present, every sample belongs to a declared family,
/// and no `(name, labels)` series appears twice.
fn parse_and_lint(body: &str) -> Exposition {
    let mut helps: HashSet<String> = HashSet::new();
    let mut families: HashMap<String, String> = HashMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap().to_string();
            assert!(helps.insert(name.clone()), "duplicate # HELP for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap().to_string();
            let kind = it.next().unwrap().to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "unknown kind {kind} for {name}"
            );
            assert!(
                helps.contains(&name),
                "# TYPE {name} has no preceding # HELP"
            );
            assert!(
                families.insert(name.clone(), kind).is_none(),
                "duplicate # TYPE for {name}"
            );
        }
    }
    let mut series: HashMap<String, f64> = HashMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample line has a value");
        let name = key.split('{').next().unwrap();
        assert!(
            families.contains_key(family_of(name, &families)),
            "sample {key} belongs to no declared family"
        );
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        assert!(
            series.insert(key.to_string(), value).is_none(),
            "duplicate series {key}"
        );
    }
    Exposition { families, series }
}

#[test]
fn metrics_exposition_is_well_formed_and_covers_every_layer() {
    let facts = std::env::temp_dir().join("soct_metrics_live.facts");
    std::fs::write(&facts, "r(a, b).\nr(b, c).\n").unwrap();
    let (handle, client) = start_server(ServiceConfig {
        db_path: Some(facts),
        ..ServiceConfig::default()
    });

    // Touch every layer: a cold check, a cache hit, a live-db check
    // (miss), a shape-preserving db write, a revalidated live check
    // (hit), and a chase that runs rounds through the engine.
    assert!(client.post("/check", FINITE_SL).unwrap().is_ok());
    assert!(client.post("/check", FINITE_SL).unwrap().is_ok());
    assert!(client
        .post("/check?db=live", FINITE_SL_RULES)
        .unwrap()
        .is_ok());
    assert!(client.post("/db/insert", "r(c, d).\n").unwrap().is_ok());
    assert!(client
        .post("/check?db=live", FINITE_SL_RULES)
        .unwrap()
        .is_ok());
    assert!(client
        .post("/chase?max-atoms=100", INFINITE_SL)
        .unwrap()
        .is_ok());

    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let exp = parse_and_lint(&resp.body);

    // Every layer of the stack shows up in one scrape.
    for family in [
        "soct_serve_connections",
        "soct_serve_queue_depth",
        "soct_serve_jobs",
        "soct_serve_requests_total",
        "soct_serve_request_us",
        "soct_service_requests_total",
        "soct_cache_hits_total",
        "soct_cache_misses_total",
        "soct_livedb_revalidations_total",
        "soct_livedb_writes_total",
        "soct_chase_rounds_total",
        "soct_db_inserts_total",
        "soct_core_phase_us",
    ] {
        assert!(
            exp.families.contains_key(family),
            "family {family} missing from /metrics"
        );
    }
    // Per-server exactness: the cold body check and the first live
    // check both miss — live keys are domain-separated, so the resident
    // db never shares an entry with the body db `r(a,b)` even though
    // their non-empty-predicate fingerprints coincide. The second body
    // check and the second live check (after a shape-preserving insert)
    // hit, and the live hit is the one revalidation.
    assert_eq!(exp.series["soct_cache_hits_total"], 2.0);
    assert_eq!(exp.series["soct_cache_misses_total"], 2.0);
    assert_eq!(exp.series["soct_livedb_revalidations_total"], 1.0);
    assert_eq!(exp.series["soct_livedb_writes_total{op=\"insert\"}"], 1.0);
    assert_eq!(
        exp.series["soct_service_requests_total{endpoint=\"check\"}"],
        4.0
    );
    assert_eq!(
        exp.series["soct_service_requests_total{endpoint=\"chase\"}"],
        1.0
    );
    handle.shutdown();
}

#[test]
fn counters_are_monotone_across_scrapes() {
    let (handle, client) = start_server(ServiceConfig::default());
    assert!(client.post("/check", FINITE_SL).unwrap().is_ok());
    let first = parse_and_lint(&client.get("/metrics").unwrap().body);

    assert!(client.post("/check", FINITE_SL).unwrap().is_ok());
    assert!(client.post("/check", INFINITE_SL).unwrap().is_ok());
    let second = parse_and_lint(&client.get("/metrics").unwrap().body);

    for (key, &was) in &first.series {
        let name = key.split('{').next().unwrap();
        let family = family_of(name, &first.families);
        if first.families[family] == "gauge" {
            continue; // gauges may move either way
        }
        let now = *second
            .series
            .get(key)
            .unwrap_or_else(|| panic!("series {key} vanished between scrapes"));
        assert!(
            now >= was,
            "counter series {key} went backwards: {was} -> {now}"
        );
    }
    // And strictly forward where we know traffic happened (`accepted`
    // counts *connections*, which keep-alive reuses — so the request
    // counters are the ones guaranteed to move).
    assert!(
        second.series["soct_service_requests_total{endpoint=\"check\"}"]
            > first.series["soct_service_requests_total{endpoint=\"check\"}"]
    );
    handle.shutdown();
}

#[test]
fn request_histogram_agrees_with_stats() {
    let (handle, client) = start_server(ServiceConfig::default());
    const N: usize = 5;
    for _ in 0..N {
        assert!(client.post("/check", FINITE_SL).unwrap().is_ok());
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    // `/stats` reports the same histogram as `"check":{"count":N,…}`
    // inside `latency_us`.
    let latency = stats
        .body
        .split("\"latency_us\":")
        .nth(1)
        .expect("latency_us in /stats");
    let check_count: f64 = latency
        .split("\"check\":{\"count\":")
        .nth(1)
        .expect("check histogram in /stats")
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(check_count, N as f64);

    let exp = parse_and_lint(&client.get("/metrics").unwrap().body);
    let count = exp.series["soct_serve_request_us_count{endpoint=\"check\"}"];
    assert_eq!(count, check_count, "/metrics and /stats disagree");
    let inf = exp.series["soct_serve_request_us_bucket{endpoint=\"check\",le=\"+Inf\"}"];
    assert_eq!(inf, count, "+Inf bucket must equal the series count");
    // The bucket ladder is cumulative: non-decreasing in `le`.
    let mut ladder: Vec<(f64, f64)> = exp
        .series
        .iter()
        .filter_map(|(k, &v)| {
            k.strip_prefix("soct_serve_request_us_bucket{endpoint=\"check\",le=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
                .and_then(|le| le.parse::<f64>().ok())
                .map(|le| (le, v))
        })
        .collect();
    ladder.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    assert!(!ladder.is_empty());
    for pair in ladder.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1,
            "bucket ladder not cumulative: {pair:?}"
        );
    }
    assert!(exp.series["soct_serve_request_us_sum{endpoint=\"check\"}"] >= 0.0);
    handle.shutdown();
}

#[test]
fn check_parses_under_the_parse_phase() {
    let facts = std::env::temp_dir().join("soct_metrics_parse_phase.facts");
    std::fs::write(&facts, "r(a, b).\n").unwrap();
    let (handle, client) = start_server(ServiceConfig {
        db_path: Some(facts),
        ..ServiceConfig::default()
    });
    const SERIES: &str = "soct_core_phase_us_count{phase=\"parse\"}";
    let parses = || {
        let exp = parse_and_lint(&client.get("/metrics").unwrap().body);
        exp.series.get(SERIES).copied().unwrap_or(0.0)
    };
    // The phase histogram is process-global, so other tests may add to
    // it concurrently: each check must move it by at least one.
    for path in ["/check", "/check?db=live"] {
        let before = parses();
        assert!(client.post(path, FINITE_SL_RULES).unwrap().is_ok());
        let after = parses();
        assert!(
            after >= before + 1.0,
            "{path}: {SERIES} {before} -> {after}"
        );
    }
    handle.shutdown();
}
