//! Cross-checking machinery: the materialization-based checker wired up for
//! linear TGDs (simplify first, then bound — see `soct-chase::bounds`), and
//! the one auto-dispatching checker over the three TGD classes, reading its
//! database through a [`DbView`].

use crate::cache::{CacheReport, VerdictCache, LIVE_DB_DOMAIN};
use crate::check_l::check_l_with_shapes;
use crate::check_sl::{derivable_predicates, is_chase_finite_sl};
use crate::dynsimpl::dyn_simplification;
use crate::find_shapes::{find_shapes_materialized, find_shapes_parallel, FindShapesMode};
use soct_chase::{is_chase_finite_materialization, MaterializationReport};
use soct_graph::{find_special_sccs, supports, DependencyGraph};
use soct_model::fingerprint::{fingerprint_predicates, fingerprint_shapes, Fingerprint};
use soct_model::shape::shapes_of_instance;
use soct_model::simplify::simplify_instance;
use soct_model::{FxHashSet, Instance, PredId, Schema, Shape, Tgd, TgdClass};
use soct_obs::Phases;
use soct_storage::{InstanceSource, StorageEngine, TupleSource};
use std::cell::OnceCell;

/// Materialization-based termination check, complete for simple-linear and
/// linear TGDs (§1.4). Linear sets are dynamically simplified first so the
/// worst-case bound `k_{D,Σ}` is sound (Theorem 3.6 + Lemma 4.3: the
/// simplified chase is finite iff the original is).
///
/// The underlying chase runs entirely on the packed columnar store: only
/// the atom count is consulted, so no boxed-atom instance is ever copied
/// out of the chase.
pub fn materialization_check(
    schema: &Schema,
    tgds: &[Tgd],
    db: &Instance,
    budget: Option<usize>,
) -> MaterializationReport {
    let class = soct_model::tgd::classify(tgds);
    match class {
        TgdClass::SimpleLinear => is_chase_finite_materialization(schema, db, tgds, budget),
        TgdClass::Linear => {
            let db_shapes = shapes_of_instance(db);
            let mut simpl = dyn_simplification(schema, tgds, &db_shapes);
            let simple_db = simplify_instance(&mut simpl.interner, schema, db);
            is_chase_finite_materialization(
                simpl.interner.schema(),
                &simple_db,
                &simpl.tgds,
                budget,
            )
        }
        TgdClass::General => {
            // Sound but not complete: the bound saturates whenever the set
            // is not D-weakly-acyclic, so no wrong verdict is possible.
            is_chase_finite_materialization(schema, db, tgds, budget)
        }
    }
}

/// Tri-state verdict of [`check_termination`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `chase(D, Σ)` is finite.
    Finite,
    /// `chase(D, Σ)` is infinite.
    Infinite,
    /// Only possible for general TGDs, where the problem is undecidable and
    /// D-weak-acyclicity is merely a sufficient condition.
    Unknown,
}

/// Combined report of [`check_termination`].
#[derive(Clone, Debug)]
pub struct TerminationReport {
    /// The verdict reached.
    pub verdict: Verdict,
    /// The class the input was dispatched on.
    pub class: TgdClass,
    /// How the verdict cache answered, when the check ran with one
    /// ([`CheckOpts::cache`]).
    pub cache: Option<CacheReport>,
}

/// Where a check reads its database from. The db-dependent phase of every
/// checker only asks for the non-empty predicates (SL and general sets,
/// the catalog query of §5.3) or for `shape(D)` (L sets, §5.4), and the
/// verdict cache keys on a fingerprint of exactly that.
pub trait DbView {
    /// The predicates with at least one tuple.
    fn db_predicates(&self) -> Vec<PredId>;

    /// `shape(D)`, sorted: `FindShapes` under `mode` over `threads`
    /// workers (`0` = auto, as in [`soct_chase::resolve_threads`]), unless
    /// the view keeps the shapes itself.
    fn db_shapes(&self, schema: &Schema, mode: FindShapesMode, threads: usize) -> Vec<Shape>;

    /// The class-dependent database half of a verdict-cache key: the shape
    /// set for L, the non-empty predicates for SL/general (§4, Remark 1 —
    /// the verdict depends on nothing else). `computed` fingerprints what
    /// the two methods above return; a view that maintains the
    /// fingerprint itself answers without calling it.
    fn db_fingerprint(&self, _class: TgdClass, computed: &dyn Fn() -> Fingerprint) -> Fingerprint {
        computed()
    }
}

impl DbView for Instance {
    fn db_predicates(&self) -> Vec<PredId> {
        self.non_empty_predicates()
    }

    fn db_shapes(&self, schema: &Schema, mode: FindShapesMode, threads: usize) -> Vec<Shape> {
        find_shapes_parallel(&InstanceSource::new(schema, self), mode, threads).shapes
    }
}

/// A live engine. With shape tracking on
/// (`StorageEngine::enable_shape_tracking`), `shape(D)` is read from the
/// catalog without scanning a table, and the fingerprint is an O(1) read
/// of the maintained accumulators — so after shape-preserving writes a
/// cached verdict revalidates with no re-derivation. Without tracking,
/// both fall back to one scan, which yields the same fingerprint, so
/// maintained and scan-derived keys interchange. Every engine fingerprint
/// carries [`LIVE_DB_DOMAIN`].
impl DbView for StorageEngine {
    fn db_predicates(&self) -> Vec<PredId> {
        self.non_empty_predicates()
    }

    fn db_shapes(&self, _schema: &Schema, mode: FindShapesMode, threads: usize) -> Vec<Shape> {
        find_shapes_materialized(self)
            .unwrap_or_else(|| find_shapes_parallel(self, mode, threads))
            .shapes
    }

    fn db_fingerprint(&self, class: TgdClass, computed: &dyn Fn() -> Fingerprint) -> Fingerprint {
        let maintained = match class {
            TgdClass::Linear => self.shape_fingerprint(),
            TgdClass::SimpleLinear | TgdClass::General => self.predicate_fingerprint(),
        };
        Fingerprint(maintained.unwrap_or_else(computed).0 ^ LIVE_DB_DOMAIN)
    }
}

/// How [`check_termination`] runs. `From<FindShapesMode>` gives the
/// defaults: automatic thread count, no cache.
#[derive(Clone, Copy, Debug)]
pub struct CheckOpts<'a> {
    /// `FindShapes` implementation, when the view has to scan for
    /// `shape(D)`.
    pub mode: FindShapesMode,
    /// Worker threads for that scan (`0` = auto, as in
    /// [`soct_chase::resolve_threads`]). The verdict is identical for
    /// every thread count.
    pub threads: usize,
    /// A verdict cache in front of the checker: a hit costs the
    /// fingerprints and one lookup, a miss runs the checker and inserts.
    pub cache: Option<&'a VerdictCache>,
}

impl From<FindShapesMode> for CheckOpts<'_> {
    fn from(mode: FindShapesMode) -> Self {
        CheckOpts {
            mode,
            threads: 0,
            cache: None,
        }
    }
}

/// Checks semi-oblivious chase termination, dispatching on the TGD class:
/// `IsChaseFinite[SL]` for simple-linear sets, `IsChaseFinite[L]` for linear
/// sets, and the sound D-weak-acyclicity test for general sets (returning
/// [`Verdict::Unknown`] when it fails — the general problem is undecidable,
/// §1.3). The database is any [`DbView`]: an in-memory [`Instance`] or a
/// [`StorageEngine`]; the verdict is identical for equivalent contents.
///
/// ```
/// use soct_core::{check_termination, FindShapesMode, Verdict};
/// use soct_model::{Atom, ConstId, Instance, Schema, Term, Tgd, VarId};
///
/// // person(x) → ∃y hasAdvisor(x,y);  hasAdvisor(x,y) → person(y).
/// let mut schema = Schema::new();
/// let person = schema.add_predicate("person", 1).unwrap();
/// let advisor = schema.add_predicate("hasAdvisor", 2).unwrap();
/// let (x, y) = (Term::Var(VarId(0)), Term::Var(VarId(1)));
/// let tgds = vec![
///     Tgd::new(
///         vec![Atom::new(&schema, person, vec![x]).unwrap()],
///         vec![Atom::new(&schema, advisor, vec![x, y]).unwrap()],
///     )
///     .unwrap(),
///     Tgd::new(
///         vec![Atom::new(&schema, advisor, vec![x, y]).unwrap()],
///         vec![Atom::new(&schema, person, vec![y]).unwrap()],
///     )
///     .unwrap(),
/// ];
/// let mut db = Instance::new();
/// db.insert(Atom::new(&schema, person, vec![Term::Const(ConstId(0))]).unwrap());
/// let report = check_termination(&schema, &tgds, &db, FindShapesMode::InMemory);
/// assert_eq!(report.verdict, Verdict::Infinite); // advisors all the way up
/// ```
pub fn check_termination<'a>(
    schema: &Schema,
    tgds: &[Tgd],
    db: &dyn DbView,
    opts: impl Into<CheckOpts<'a>>,
) -> TerminationReport {
    let opts = opts.into();
    let input = DbInput {
        schema,
        view: db,
        mode: opts.mode,
        threads: opts.threads,
        shapes: OnceCell::new(),
    };
    let class = soct_model::tgd::classify(tgds);
    match opts.cache {
        Some(cache) => cache.check(schema, tgds, class, &input),
        None => TerminationReport {
            verdict: input.decide(tgds, class),
            class,
            cache: None,
        },
    }
}

/// The database-dependent input of one check. `shape(D)` is read from the
/// view at most once: the cache key and the checker share it, so a miss
/// never pays for it twice.
pub(crate) struct DbInput<'a> {
    schema: &'a Schema,
    view: &'a dyn DbView,
    mode: FindShapesMode,
    threads: usize,
    shapes: OnceCell<Vec<Shape>>,
}

impl DbInput<'_> {
    fn pred_set(&self) -> FxHashSet<PredId> {
        self.view.db_predicates().into_iter().collect()
    }

    fn shapes(&self) -> &[Shape] {
        self.shapes.get_or_init(|| {
            Phases::new().run("shapes", || {
                self.view.db_shapes(self.schema, self.mode, self.threads)
            })
        })
    }

    /// The view's class-dependent cache fingerprint.
    pub(crate) fn fingerprint(&self, class: TgdClass) -> Fingerprint {
        self.view.db_fingerprint(class, &|| match class {
            TgdClass::Linear => fingerprint_shapes(self.schema, self.shapes()),
            TgdClass::SimpleLinear | TgdClass::General => {
                fingerprint_predicates(self.schema, &self.view.db_predicates())
            }
        })
    }

    /// The class dispatch: the verdict for `tgds` over this database.
    pub(crate) fn decide(&self, tgds: &[Tgd], class: TgdClass) -> Verdict {
        let schema = self.schema;
        let finite = match class {
            TgdClass::SimpleLinear => is_chase_finite_sl(schema, tgds, &self.pred_set()).finite,
            TgdClass::Linear => check_l_with_shapes(schema, tgds, self.shapes()).finite,
            TgdClass::General => {
                // D-weak-acyclicity is sufficient for termination of any
                // TGD set; when it fails, the general problem stays open.
                let graph = DependencyGraph::build(schema, tgds);
                let reps = find_special_sccs(&graph).special_representatives();
                let supported = !reps.is_empty() && {
                    let derivable = derivable_predicates(tgds, &self.pred_set());
                    supports(&graph, schema, &reps, |p| derivable.contains(&p))
                };
                if supported {
                    return Verdict::Unknown;
                }
                true
            }
        };
        if finite {
            Verdict::Finite
        } else {
            Verdict::Infinite
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_chase::MaterializationVerdict;
    use soct_model::{Atom, ConstId, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    #[test]
    fn acyclicity_and_materialization_agree_on_example_3_4() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        let fast = check_termination(
            &schema,
            std::slice::from_ref(&tgd),
            &db,
            FindShapesMode::InMemory,
        );
        assert_eq!(fast.verdict, Verdict::Finite);
        assert_eq!(fast.class, TgdClass::Linear);
        let slow = materialization_check(&schema, &[tgd], &db, Some(10_000));
        assert_eq!(slow.verdict, MaterializationVerdict::Finite);
    }

    #[test]
    fn materialization_detects_small_divergence() {
        // R(x,y) → ∃z R(y,z): the simplified system also diverges; with the
        // domain-1 database the bound is small enough to exceed quickly...
        // it is not (bounds saturate on supported cycles) — so the verdict
        // must be BudgetExhausted, never a wrong "Finite".
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        let rep = materialization_check(&schema, &[tgd], &db, Some(500));
        assert_eq!(rep.verdict, MaterializationVerdict::BudgetExhausted);
        assert!(rep.atoms_materialized >= 500);
    }

    #[test]
    fn general_tgds_get_sound_answers() {
        // Weakly-acyclic general TGD: Finite.
        let mut schema = Schema::new();
        let e = schema.add_predicate("e", 2).unwrap();
        let t = schema.add_predicate("t", 2).unwrap();
        let closure = Tgd::new(
            vec![
                Atom::new(&schema, e, vec![v(0), v(1)]).unwrap(),
                Atom::new(&schema, e, vec![v(1), v(2)]).unwrap(),
            ],
            vec![Atom::new(&schema, t, vec![v(0), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, e, vec![c(0), c(1)]).unwrap());
        let rep = check_termination(&schema, &[closure], &db, FindShapesMode::InMemory);
        assert_eq!(rep.verdict, Verdict::Finite);
        assert_eq!(rep.class, TgdClass::General);

        // Non-weakly-acyclic general TGD (restricted-style guard): Unknown.
        let guarded = Tgd::new(
            vec![
                Atom::new(&schema, e, vec![v(0), v(1)]).unwrap(),
                Atom::new(&schema, t, vec![v(0), v(1)]).unwrap(),
            ],
            vec![Atom::new(&schema, e, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db2 = Instance::new();
        db2.insert(Atom::new(&schema, e, vec![c(0), c(1)]).unwrap());
        db2.insert(Atom::new(&schema, t, vec![c(0), c(1)]).unwrap());
        let rep2 = check_termination(&schema, &[guarded], &db2, FindShapesMode::InMemory);
        assert_eq!(rep2.verdict, Verdict::Unknown);
    }

    #[test]
    fn sl_dispatch_and_oracle_agree_on_unsupported_cycle() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let u = schema.add_predicate("U", 1).unwrap();
        let _ = u;
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert(Atom::new(&schema, u, vec![c(0)]).unwrap());
        let fast = check_termination(
            &schema,
            std::slice::from_ref(&tgd),
            &db,
            FindShapesMode::InMemory,
        );
        assert_eq!(fast.verdict, Verdict::Finite);
        let slow = materialization_check(&schema, &[tgd], &db, Some(10_000));
        assert_eq!(slow.verdict, MaterializationVerdict::Finite);
    }
}
