//! The two in-process workloads, `sl-large` and `l-dstar`: one caller, a
//! closed loop over a seeded family of rulesets, timing each call into the
//! public checker functions from rule text to verdict.
//!
//! The traced run re-composes the same verdict from each layer's public
//! function in turn (parse → FindShapes → DynSimplification → graph → SCC,
//! or parse → graph → SCC → derivable predicates for SL), timing each
//! call, so the layer times plus `pipeline.residual_ms` equal the traced
//! verdict time by construction.

use crate::stats::{median, ms, peak_rss_mb, quantile_of_minima};
use crate::trace::Tracer;
use crate::{metric, Metric, Opts, Outcome};
use soct_core::{
    check_l_with_shapes, derivable_predicates, dyn_simplification, find_shapes,
    find_shapes_in_database, find_shapes_in_memory, is_chase_finite_l, is_chase_finite_sl_text,
    FindShapesMode,
};
use soct_gen::profiles::Scale;
use soct_graph::{find_special_sccs, supports, DependencyGraph};
use soct_model::tgd::predicates_of;
use soct_model::{FxHashSet, Interner, PredId, Rgs, Schema, Shape};
use soct_storage::{ColumnCondition, StorageEngine, TupleSource};
use std::time::{Duration, Instant};

/// `sl-large`: simple-linear sets per §7.1 profile (up to 2000 rules
/// each), the paper's 100: the verdict median is taken over 900 sets, so
/// it moves little with the seed's draw of set sizes.
const SL_SETS_PER_PROFILE: usize = 100;
const SL_TGD_SCALE: f64 = 0.002;
/// `l-dstar`: linear sets per §8.1 profile, checked against `D★`; more
/// than the paper's 5, so the verdict median is taken over 324 sets and
/// moves little with the seed's draw of set sizes.
const L_SETS_PER_PROFILE: usize = 36;
const L_TGD_SCALE: f64 = 0.001;
/// `D★` at 1/1000 of the paper: 1000 relations of 500 tuples each.
/// FindShapes over it runs on one thread: on a 2-vCPU VM, two threads
/// made each verdict wait on thread starts and cross-CPU wake-ups, which was slower (verdict p50 11.8 ms
/// against 11.1 ms) and far noisier (spread 0.16 against 0.06 of the
/// median over the same ten seeds).
const DSTAR_DATA_SCALE: f64 = 0.001;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    SlLarge,
    LDstar,
}

/// One ruleset, as the rule text the checker receives.
pub struct Case {
    pub text: String,
    pub rules: usize,
}

/// Deterministic work counters of one pass over the workload's rulesets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub relaxed_queries: u64,
    pub exact_queries: u64,
    pub pruned_nodes: u64,
    pub db_shapes: u64,
    pub shapes_derived: u64,
    pub simplified_tgds: u64,
    pub graph_nodes: u64,
    pub graph_edges: u64,
    pub special_edges: u64,
    pub special_sccs: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.relaxed_queries += o.relaxed_queries;
        self.exact_queries += o.exact_queries;
        self.pruned_nodes += o.pruned_nodes;
        self.db_shapes += o.db_shapes;
        self.shapes_derived += o.shapes_derived;
        self.simplified_tgds += o.simplified_tgds;
        self.graph_nodes += o.graph_nodes;
        self.graph_edges += o.graph_edges;
        self.special_edges += o.special_edges;
        self.special_sccs += o.special_sccs;
    }
}

/// Layers timed by the traced run, in report order.
const LAYERS: [(&str, &str); 6] = [
    ("parser.parse_ms", "parser.parse_tgds"),
    ("core.derivable_ms", "core.derivable_predicates"),
    ("core.find_shapes_ms", "core.find_shapes"),
    ("core.dynsimpl_ms", "core.dyn_simplification"),
    ("graph.build_ms", "graph.build"),
    ("graph.scc_ms", "graph.find_special_sccs"),
];
const PARSE: usize = 0;
const DERIVABLE: usize = 1;
const FIND_SHAPES: usize = 2;
const DYNSIMPL: usize = 3;
const GRAPH_BUILD: usize = 4;
const SCC: usize = 5;

/// `D★` restricted to the predicates of one ruleset — the §8 set-up,
/// where a rule set is checked against the view of `D★` over `sch(Σ)`.
struct RuleView<'a> {
    engine: &'a StorageEngine,
    allow: &'a FxHashSet<PredId>,
}

impl TupleSource for RuleView<'_> {
    fn non_empty_predicates(&self) -> Vec<PredId> {
        let mut preds = self.engine.non_empty_predicates();
        preds.retain(|p| self.allow.contains(p));
        preds
    }
    fn arity_of(&self, pred: PredId) -> usize {
        self.engine.arity_of(pred)
    }
    fn row_count(&self, pred: PredId) -> u64 {
        if self.allow.contains(&pred) {
            self.engine.row_count(pred)
        } else {
            0
        }
    }
    fn scan(&self, pred: PredId, f: &mut dyn FnMut(&[u64]) -> bool) -> bool {
        !self.allow.contains(&pred) || self.engine.scan(pred, f)
    }
    fn exists_where(&self, pred: PredId, conds: &[ColumnCondition]) -> bool {
        self.allow.contains(&pred) && self.engine.exists_where(pred, conds)
    }
}

/// A built workload: its rulesets and, for `l-dstar`, `D★`.
pub struct Workload {
    kind: Kind,
    pub cases: Vec<Case>,
    dstar: Option<(Schema, StorageEngine)>,
}

/// Threads for the reference checks (outside the timed region): at most
/// the machine's cores, and at most two.
fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload {
    pub fn build(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::SlLarge => {
                let scale = Scale {
                    sl_sets_per_profile: SL_SETS_PER_PROFILE,
                    l_sets_per_profile: 0,
                    tgd_scale: SL_TGD_SCALE,
                    data_scale: 0.0,
                };
                let (_, sets) = soct_bench::sl_family(&scale, seed);
                Workload {
                    kind,
                    cases: sets
                        .into_iter()
                        .map(|s| Case {
                            text: s.text,
                            rules: s.n_rules,
                        })
                        .collect(),
                    dstar: None,
                }
            }
            Kind::LDstar => {
                let scale = Scale {
                    sl_sets_per_profile: 0,
                    l_sets_per_profile: L_SETS_PER_PROFILE,
                    tgd_scale: L_TGD_SCALE,
                    data_scale: DSTAR_DATA_SCALE,
                };
                let d = soct_bench::build_dstar(&scale, seed);
                let sets = soct_bench::l_family(&scale, &d.schema, &d.pool, seed);
                Workload {
                    kind,
                    cases: sets
                        .into_iter()
                        .map(|s| Case {
                            text: s.text,
                            rules: s.n_rules,
                        })
                        .collect(),
                    dstar: Some((d.schema, d.engine)),
                }
            }
        }
    }

    /// The schema rule text is parsed into: `D★`'s own for `l-dstar`, so
    /// rule predicates resolve to the engine's relations.
    /// (`is_chase_finite_l_text` parses into a fresh schema, whose ids do
    /// not line up with an existing engine's, so the text path here is
    /// `parse_tgds` into `D★`'s schema followed by Algorithm 3.)
    fn parse_schema(&self) -> Schema {
        self.dstar
            .as_ref()
            .map_or_else(Schema::new, |(s, _)| s.clone())
    }

    fn engine(&self) -> &StorageEngine {
        &self.dstar.as_ref().expect("l-dstar has D★").1
    }

    fn parse_l(&self, case: &Case, schema: &mut Schema) -> Result<Vec<soct_model::Tgd>, String> {
        let before = schema.len();
        let tgds = soct_parser::parse_tgds(&case.text, schema, &mut Interner::new())
            .map_err(|e| e.to_string())?;
        if schema.len() != before {
            return Err("rule text names a predicate outside D★".to_string());
        }
        Ok(tgds)
    }

    /// The measured call: rule text in, verdict (`true` = finite) out.
    pub fn verdict(&self, case: &Case, schema: &mut Schema) -> Result<bool, String> {
        match self.kind {
            Kind::SlLarge => is_chase_finite_sl_text(&case.text)
                .map(|(report, _, _)| report.finite)
                .map_err(|e| e.to_string()),
            Kind::LDstar => {
                let tgds = self.parse_l(case, schema)?;
                let allow: FxHashSet<PredId> = predicates_of(&tgds).into_iter().collect();
                let view = RuleView {
                    engine: self.engine(),
                    allow: &allow,
                };
                Ok(is_chase_finite_l(schema, &tgds, &view, FindShapesMode::InDatabase).finite)
            }
        }
    }

    /// The same verdict, one layer call at a time, each inside a span;
    /// adds the work counters to `t.counts` when `count` is set.
    fn verdict_traced(
        &self,
        case: &Case,
        schema: &mut Schema,
        id: u64,
        t: &mut Traced,
        count: bool,
    ) -> Result<bool, String> {
        let mut c = Counts::default();
        let finite = match self.kind {
            Kind::SlLarge => {
                let mut sch = Schema::new();
                let tgds = t
                    .time(PARSE, id, || {
                        soct_parser::parse_tgds(&case.text, &mut sch, &mut Interner::new())
                    })
                    .map_err(|e| e.to_string())?;
                let db_preds: FxHashSet<PredId> = predicates_of(&tgds).into_iter().collect();
                let graph = t.time(GRAPH_BUILD, id, || DependencyGraph::build(&sch, &tgds));
                let reps = t.time(SCC, id, || {
                    find_special_sccs(&graph).special_representatives()
                });
                let supported = !reps.is_empty() && {
                    let derivable =
                        t.time(DERIVABLE, id, || derivable_predicates(&tgds, &db_preds));
                    supports(&graph, &sch, &reps, |p| derivable.contains(&p))
                };
                c.graph_nodes = graph.num_nodes() as u64;
                c.graph_edges = graph.num_edges() as u64;
                c.special_edges = graph.num_special_edges() as u64;
                c.special_sccs = reps.len() as u64;
                !supported
            }
            Kind::LDstar => {
                let tgds = t.time(PARSE, id, || self.parse_l(case, schema))?;
                let allow: FxHashSet<PredId> = predicates_of(&tgds).into_iter().collect();
                let view = RuleView {
                    engine: self.engine(),
                    allow: &allow,
                };
                let shapes = t.time(FIND_SHAPES, id, || {
                    find_shapes(&view, FindShapesMode::InDatabase)
                });
                let simplified = t.time(DYNSIMPL, id, || {
                    dyn_simplification(schema, &tgds, &shapes.shapes)
                });
                let graph = t.time(GRAPH_BUILD, id, || {
                    DependencyGraph::build(simplified.schema(), &simplified.tgds)
                });
                let special = t.time(SCC, id, || find_special_sccs(&graph).special_sccs());
                c = Counts {
                    relaxed_queries: shapes.stats.relaxed_queries,
                    exact_queries: shapes.stats.exact_queries,
                    pruned_nodes: shapes.stats.pruned_nodes,
                    db_shapes: shapes.shapes.len() as u64,
                    shapes_derived: simplified.shapes_derived as u64,
                    simplified_tgds: simplified.tgds.len() as u64,
                    graph_nodes: graph.num_nodes() as u64,
                    graph_edges: graph.num_edges() as u64,
                    special_edges: graph.num_special_edges() as u64,
                    special_sccs: special.len() as u64,
                };
                special.is_empty()
            }
        };
        if count {
            t.counts.add(&c);
        }
        Ok(finite)
    }

    /// The reference verdict from another code path. `sl-large`:
    /// Algorithm 3 on the same set over a one-atom-per-predicate database
    /// (every SL set is linear). `l-dstar`: the sequential in-database
    /// `shape(D★)` must equal the in-memory FindShapes result, and the
    /// verdict is Algorithm 3's db-independent part on the in-memory shapes.
    pub fn reference(&self, case: &Case, schema: &mut Schema) -> Result<bool, String> {
        match self.kind {
            Kind::SlLarge => {
                let mut sch = Schema::new();
                let tgds = soct_parser::parse_tgds(&case.text, &mut sch, &mut Interner::new())
                    .map_err(|e| e.to_string())?;
                let shapes: Vec<Shape> = predicates_of(&tgds)
                    .into_iter()
                    .map(|pred| Shape {
                        pred,
                        rgs: Rgs::identity(sch.arity(pred)),
                    })
                    .collect();
                Ok(check_l_with_shapes(&sch, &tgds, &shapes).finite)
            }
            Kind::LDstar => {
                let tgds = self.parse_l(case, schema)?;
                let allow: FxHashSet<PredId> = predicates_of(&tgds).into_iter().collect();
                let view = RuleView {
                    engine: self.engine(),
                    allow: &allow,
                };
                let in_memory = find_shapes_in_memory(&view);
                if find_shapes_in_database(&view).shapes != in_memory.shapes {
                    return Err("in-database shape(D★) differs from in-memory FindShapes".into());
                }
                Ok(check_l_with_shapes(schema, &tgds, &in_memory.shapes).finite)
            }
        }
    }

    /// Counters of one traced pass over every ruleset (deterministic).
    #[cfg(test)]
    pub fn counts(&self) -> Result<Counts, String> {
        let mut schema = self.parse_schema();
        let mut t = Traced::new();
        for (i, case) in self.cases.iter().enumerate() {
            self.verdict_traced(case, &mut schema, i as u64, &mut t, true)?;
        }
        Ok(t.counts)
    }
}

/// Figures of one timed closed loop.
#[derive(Default)]
struct LoopStats {
    /// Verdict times of each pass over the rulesets.
    pass_ms: Vec<Vec<f64>>,
    /// Rules checked per second of verdict time, per pass.
    pass_rules_per_s: Vec<f64>,
    busy: Duration,
    attempted: u64,
    failed: u64,
    bytes: u64,
    passes: u64,
}

/// Tracing state of a traced loop: the spans, each layer's summed time,
/// and the first pass's counters.
struct Traced {
    tracer: Tracer,
    layers: [Duration; LAYERS.len()],
    counts: Counts,
}

impl Traced {
    fn new() -> Self {
        Traced {
            tracer: Tracer::new(),
            layers: [Duration::ZERO; LAYERS.len()],
            counts: Counts::default(),
        }
    }

    /// Runs one layer call inside its span, charging it to the layer.
    fn time<T>(&mut self, layer: usize, id: u64, f: impl FnOnce() -> T) -> T {
        let (out, d) = self.tracer.time(LAYERS[layer].1, id, 1, f);
        self.layers[layer] += d;
        out
    }
}

/// Runs whole passes over the rulesets until `budget` has elapsed (at
/// least one pass), timing every call.
fn timed_loop(
    w: &Workload,
    reference: &[Result<bool, String>],
    budget: Duration,
    mut traced: Option<&mut Traced>,
) -> LoopStats {
    let mut schema = w.parse_schema();
    let mut s = LoopStats::default();
    let start = Instant::now();
    while s.passes == 0 || start.elapsed() < budget {
        let mut pass_ms = Vec::with_capacity(w.cases.len());
        let (mut pass_rules, mut pass_busy) = (0u64, Duration::ZERO);
        for (i, case) in w.cases.iter().enumerate() {
            let t0 = Instant::now();
            // Counters cover the first pass only, so they do not depend on
            // how many passes fit in the time budget.
            let got = match traced.as_deref_mut() {
                None => w.verdict(case, &mut schema),
                Some(t) => w.verdict_traced(case, &mut schema, i as u64, t, s.passes == 0),
            };
            let dt = t0.elapsed();
            if let Some(t) = traced.as_deref_mut() {
                t.tracer.record("verdict", i as u64, 0, t0, dt);
            }
            pass_ms.push(ms(dt));
            pass_busy += dt;
            pass_rules += case.rules as u64;
            s.bytes += case.text.len() as u64;
            s.attempted += 1;
            if !matches!((&got, &reference[i]), (Ok(v), Ok(r)) if v == r) {
                s.failed += 1;
            }
        }
        s.pass_ms.push(pass_ms);
        s.pass_rules_per_s
            .push(pass_rules as f64 / pass_busy.as_secs_f64());
        s.busy += pass_busy;
        s.passes += 1;
    }
    s
}

pub fn run(kind: Kind, opts: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(Workload::build(kind, opts.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let w = built.expect("at least one set-up");
    let total_rules: usize = w.cases.iter().map(|c| c.rules).sum();

    // Output references, outside the timed region.
    let t_ref = Instant::now();
    let chunk = w.cases.len().div_ceil(worker_threads()).max(1);
    let reference: Vec<Result<bool, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = w
            .cases
            .chunks(chunk)
            .map(|part| {
                let w = &w;
                scope.spawn(move || {
                    let mut schema = w.parse_schema();
                    part.iter()
                        .map(|c| w.reference(c, &mut schema))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference threads do not panic"))
            .collect()
    });
    let ref_errors = reference.iter().filter(|r| r.is_err()).count();
    let finite = reference.iter().filter(|r| matches!(r, Ok(true))).count();
    let t_ref = t_ref.elapsed().as_secs_f64();

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut notes = vec![format!(
        "{} rulesets, {total_rules} rules, {finite} finite / {} infinite by the reference path ({ref_errors} reference errors, {t_ref:.2} s); setups {setup_s:?} s",
        w.cases.len(),
        w.cases.len() - finite - ref_errors,
    )];
    let (plain, traced) = if opts.trace {
        let plain = timed_loop(&w, &reference, budget / 2, None);
        let mut t = Traced::new();
        let stats = timed_loop(&w, &reference, budget / 2, Some(&mut t));
        (plain, Some((stats, t)))
    } else {
        (timed_loop(&w, &reference, budget, None), None)
    };

    let p50 = quantile_of_minima(&plain.pass_ms, 0.5);
    notes.push(format!(
        "{} verdicts in {} passes of {}; quantiles are over each ruleset's fastest pass",
        plain.attempted,
        plain.passes,
        w.cases.len(),
    ));
    let end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("verdict_ms_p50", p50, "ms"),
        metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0), "MB"),
        metric(
            "ok_rate",
            1.0 - plain.failed as f64 / plain.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut per_layer = vec![
        metric(
            "verdict_ms_p90",
            quantile_of_minima(&plain.pass_ms, 0.9),
            "ms",
        ),
        metric(
            "rules_per_s",
            plain.pass_rules_per_s.iter().copied().fold(0.0, f64::max),
            "1/s",
        ),
    ];
    if let Some((stats, t)) = traced {
        attempted += stats.attempted;
        failed += stats.failed;
        per_layer.extend(layer_metrics(&stats, &t, p50));
        let path = opts
            .out_dir
            .join(format!("trace-{}-{}.json", kind_name(kind), opts.seed));
        t.tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            t.tracer.len(),
            path.display()
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
    })
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::SlLarge => "sl-large",
        Kind::LDstar => "l-dstar",
    }
}

/// Per-layer figures: mean milliseconds per verdict for each layer, the
/// residual that makes them sum to the mean traced verdict time, the
/// tracing overhead against the untraced median, and the first pass's
/// work counters.
fn layer_metrics(stats: &LoopStats, t: &Traced, untraced_p50: f64) -> Vec<Metric> {
    let n = stats.attempted.max(1) as f64;
    let per_verdict = |d: Duration| ms(d) / n;
    let traced_mean = per_verdict(stats.busy);
    let layer_sum: f64 = t.layers.iter().map(|&d| per_verdict(d)).sum();
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .zip(t.layers)
        .map(|((name, _), d)| metric(*name, per_verdict(d), "ms"))
        .collect();
    let parse_s = t.layers[PARSE].as_secs_f64();
    let c = &t.counts;
    out.extend([
        metric(
            "parser.mb_per_s",
            stats.bytes as f64 / 1e6 / parse_s,
            "MB/s",
        ),
        metric("pipeline.traced_verdict_ms", traced_mean, "ms"),
        metric("pipeline.residual_ms", traced_mean - layer_sum, "ms"),
        metric(
            "trace.overhead_pct",
            (quantile_of_minima(&stats.pass_ms, 0.5) / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
        metric("storage.relaxed_queries", c.relaxed_queries as f64, "count"),
        metric("storage.exact_queries", c.exact_queries as f64, "count"),
        metric("storage.pruned_nodes", c.pruned_nodes as f64, "count"),
        metric("core.db_shapes", c.db_shapes as f64, "count"),
        metric("core.shapes_derived", c.shapes_derived as f64, "count"),
        metric("core.simplified_tgds", c.simplified_tgds as f64, "count"),
        metric("graph.nodes", c.graph_nodes as f64, "count"),
        metric("graph.edges", c.graph_edges as f64, "count"),
        metric("graph.special_edges", c.special_edges as f64, "count"),
        metric("graph.special_sccs", c.special_sccs as f64, "count"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The named counters must repeat exactly for a seed: later changes
    /// compare them exactly, because wall time drifts.
    #[test]
    fn counters_repeat_exactly_for_a_seed() {
        for kind in [Kind::SlLarge, Kind::LDstar] {
            let a = Workload::build(kind, 11).counts().expect("checks run");
            let b = Workload::build(kind, 11).counts().expect("checks run");
            assert_eq!(a, b, "{kind:?}");
            assert!(a.graph_edges > 0, "{kind:?}: {a:?}");
            if kind == Kind::LDstar {
                assert!(a.relaxed_queries > 0 && a.db_shapes > 0, "{a:?}");
            }
        }
    }

    #[test]
    fn traced_and_reference_verdicts_match_the_measured_call() {
        for kind in [Kind::SlLarge, Kind::LDstar] {
            let w = Workload::build(kind, 5);
            let mut schema = w.parse_schema();
            let mut t = Traced::new();
            for (i, case) in w.cases.iter().enumerate().step_by(7) {
                let plain = w.verdict(case, &mut schema).expect("parses");
                let traced = w
                    .verdict_traced(case, &mut schema, i as u64, &mut t, true)
                    .expect("parses");
                assert_eq!(plain, traced, "{kind:?} case {i}");
                assert_eq!(
                    Ok(plain),
                    w.reference(case, &mut schema),
                    "{kind:?} case {i}"
                );
            }
        }
    }
}
