//! `IsChaseFinite[SL]` (Algorithm 1): semi-oblivious chase termination for
//! simple-linear TGDs via non-uniform weak acyclicity (Theorem 3.3).
//!
//! ```text
//! G ← BuildDepGraph(Σ);  S ← FindSpecialSCC(G);  P ← one node per SCC of S;
//! if Supports(D, P, G) then false else true
//! ```
//!
//! Empty frontiers: the paper assumes TGDs with non-empty frontiers
//! (w.l.o.g., §3). We instead handle them natively: under the
//! semi-oblivious chase an empty-frontier TGD fires at most once globally
//! (its frontier witness is the empty tuple), so its head atoms behave like
//! extra database atoms whenever its body predicate is derivable. The
//! supportedness check therefore runs against the *derivable predicate
//! closure* of the database, which coincides with Definition 3.2 when all
//! frontiers are non-empty (reachable = derivable in that case) and extends
//! it soundly and — for simple-linear TGDs — completely otherwise.

use crate::timings::SlTimings;
use soct_graph::{find_special_sccs, supports, DependencyGraph};
use soct_model::{FxHashSet, PredId, Schema, Tgd};
use soct_obs::Phases;

/// Report of one `IsChaseFinite[SL]` run.
#[derive(Clone, Debug)]
pub struct SlCheckReport {
    /// `true` iff `chase(D, Σ)` is finite.
    pub finite: bool,
    /// Per-phase wall-clock breakdown (§7's reported quantities).
    pub timings: SlTimings,
    /// Nodes in the dependency graph.
    pub graph_nodes: usize,
    /// Edges in the dependency graph (`n-edges` of the Appendix plot).
    pub graph_edges: usize,
    /// Special (null-propagating) edges among them.
    pub special_edges: usize,
    /// Number of special SCCs found (line 2 of Algorithm 1).
    pub num_special_sccs: usize,
    /// Whether some special SCC was database-supported.
    pub supported: bool,
}

/// The predicate-level derivable closure: predicates whose atoms can occur
/// in `chase(D, Σ)`, over-approximated at predicate granularity (exact for
/// simple-linear TGDs). Equals the "reachable from a database predicate"
/// closure when every TGD has a non-empty frontier.
pub fn derivable_predicates(tgds: &[Tgd], db_preds: &FxHashSet<PredId>) -> FxHashSet<PredId> {
    let mut derivable = db_preds.clone();
    loop {
        let mut changed = false;
        for t in tgds {
            if t.body().iter().all(|a| derivable.contains(&a.pred)) {
                for a in t.head() {
                    if derivable.insert(a.pred) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return derivable;
        }
    }
}

/// Algorithm 1, with the database given as its set of non-empty predicates
/// (what the catalog query of §5.3 returns).
pub fn is_chase_finite_sl(
    schema: &Schema,
    tgds: &[Tgd],
    db_preds: &FxHashSet<PredId>,
) -> SlCheckReport {
    debug_assert!(tgds.iter().all(Tgd::is_simple_linear));
    let mut phases = Phases::new();
    let graph = phases.run("graph", || DependencyGraph::build(schema, tgds));
    let reps = phases.run("comp", || {
        find_special_sccs(&graph).special_representatives()
    });
    let supported = phases.run("supports", || {
        if reps.is_empty() {
            false
        } else {
            let derivable = derivable_predicates(tgds, db_preds);
            supports(&graph, schema, &reps, |p| derivable.contains(&p))
        }
    });

    SlCheckReport {
        finite: !supported,
        timings: SlTimings::from_phases(&phases),
        graph_nodes: graph.num_nodes(),
        graph_edges: graph.num_edges(),
        special_edges: graph.num_special_edges(),
        num_special_sccs: reps.len(),
        supported,
    }
}

/// Algorithm 1 from rule text: parses (filling `t-parse`), then checks.
/// The database defaults to `D_Σ` — one atom per predicate of `sch(Σ)` —
/// exactly the Remark 1 set-up used throughout §7.
pub fn is_chase_finite_sl_text(
    text: &str,
) -> Result<(SlCheckReport, Schema, Vec<Tgd>), soct_parser::ParseError> {
    let mut schema = Schema::new();
    let mut consts = soct_model::Interner::new();
    let mut phases = Phases::new();
    let tgds = phases.run("parse", || {
        soct_parser::parse_tgds(text, &mut schema, &mut consts)
    })?;
    let db_preds: FxHashSet<PredId> = soct_model::tgd::predicates_of(&tgds).into_iter().collect();
    let mut report = is_chase_finite_sl(&schema, &tgds, &db_preds);
    report.timings.t_parse = phases.duration("parse");
    Ok((report, schema, tgds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::{Atom, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    #[test]
    fn running_example_is_infinite() {
        // D = {R(a,b)}, σ: R(x,y) → ∃z R(y,z) (§3).
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let db: FxHashSet<PredId> = [r].into_iter().collect();
        let rep = is_chase_finite_sl(&schema, &[tgd], &db);
        assert!(!rep.finite);
        assert!(rep.supported);
        assert_eq!(rep.num_special_sccs, 1);
    }

    #[test]
    fn unsupported_cycle_is_finite() {
        // Same rule, but the database only holds an unrelated predicate.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let u = schema.add_predicate("U", 1).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let db: FxHashSet<PredId> = [u].into_iter().collect();
        let rep = is_chase_finite_sl(&schema, &[tgd], &db);
        assert!(rep.finite, "cycle exists but is not D-supported");
        assert_eq!(rep.num_special_sccs, 1);
        assert!(!rep.supported);
    }

    #[test]
    fn weakly_acyclic_set_is_finite_for_any_database() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, p, vec![v(0), v(2)]).unwrap()],
        )
        .unwrap();
        let db: FxHashSet<PredId> = [r, p].into_iter().collect();
        let rep = is_chase_finite_sl(&schema, &[tgd], &db);
        assert!(rep.finite);
        assert_eq!(rep.num_special_sccs, 0);
        assert!(!rep.supported);
    }

    #[test]
    fn empty_frontier_feeds_the_cycle() {
        // u(x) → ∃a,b r(a,b);  r(x,y) → ∃z r(y,z).
        // The first rule has fr = ∅ but derives an r-atom, which supports
        // the special cycle: infinite.
        let mut schema = Schema::new();
        let u = schema.add_predicate("u", 1).unwrap();
        let r = schema.add_predicate("r", 2).unwrap();
        let feed = Tgd::new(
            vec![Atom::new(&schema, u, vec![v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let cyc = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let db: FxHashSet<PredId> = [u].into_iter().collect();
        let rep = is_chase_finite_sl(&schema, &[feed, cyc], &db);
        assert!(!rep.finite);
    }

    #[test]
    fn derivable_closure_respects_multi_atom_bodies() {
        // General TGD p(x), q(x) → s(x): s derivable only when both p and q
        // are.
        let mut schema = Schema::new();
        let p = schema.add_predicate("p", 1).unwrap();
        let q = schema.add_predicate("q", 1).unwrap();
        let s = schema.add_predicate("s", 1).unwrap();
        let tgd = Tgd::new(
            vec![
                Atom::new(&schema, p, vec![v(0)]).unwrap(),
                Atom::new(&schema, q, vec![v(0)]).unwrap(),
            ],
            vec![Atom::new(&schema, s, vec![v(0)]).unwrap()],
        )
        .unwrap();
        let only_p: FxHashSet<PredId> = [p].into_iter().collect();
        assert!(!derivable_predicates(std::slice::from_ref(&tgd), &only_p).contains(&s));
        let both: FxHashSet<PredId> = [p, q].into_iter().collect();
        assert!(derivable_predicates(&[tgd], &both).contains(&s));
    }

    #[test]
    fn text_entry_point_fills_t_parse() {
        // s(X,Y) -> r(X,Y) copies positions, so the invented Z at (s,2)
        // flows back into (r,2) — a supported special cycle.
        let (rep, schema, tgds) =
            is_chase_finite_sl_text("r(X, Y) -> s(Y, Z).\ns(X, Y) -> r(X, Y).\n").unwrap();
        assert!(!rep.finite, "invented Z at (s,2) cycles back into (r,2)");
        assert!(rep.timings.t_parse > std::time::Duration::ZERO);
        assert_eq!(schema.len(), 2);
        assert_eq!(tgds.len(), 2);
    }

    #[test]
    fn dsigma_database_makes_every_cycle_supported() {
        // With D_Σ (every predicate inhabited), finiteness degenerates to
        // plain weak acyclicity.
        let (rep, _, _) = is_chase_finite_sl_text("r(X, Y) -> r(Y, Z).").unwrap();
        assert!(!rep.finite);
        let (rep2, _, _) = is_chase_finite_sl_text("r(X, Y) -> p(X, Z).").unwrap();
        assert!(rep2.finite);
    }
}
