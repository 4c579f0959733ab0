//! Tuple-generating dependencies (§2): general, linear (L), and
//! simple-linear (SL) TGDs.

use crate::atom::{variables_of, Atom};
use crate::error::ModelError;
use crate::schema::Schema;
use crate::term::{Term, VarId};
use std::fmt;

/// The syntactic class of a TGD or a set of TGDs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TgdClass {
    /// Single body atom with no repeated body variable (SL ⊊ L).
    SimpleLinear,
    /// Single body atom (L).
    Linear,
    /// Anything else (multiple body atoms).
    General,
}

impl fmt::Display for TgdClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TgdClass::SimpleLinear => write!(f, "SL"),
            TgdClass::Linear => write!(f, "L"),
            TgdClass::General => write!(f, "TGD"),
        }
    }
}

/// A TGD `φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄)`.
///
/// Invariants (enforced by [`Tgd::from_atoms`]):
/// - body and head are non-empty conjunctions of atoms;
/// - all arguments are variables (TGDs are constant-free sentences);
/// - the *frontier* `fr(σ)` is the set of variables occurring in both body
///   and head; the *existential* variables are the head-only ones.
///
/// Layout: two boxed slices besides the atoms' own argument tuples.
/// `atoms` is `body ++ head`, split at `body_len`; `vars` is
/// `frontier ++ existential`, split at `frontier_len`, each part sorted
/// ascending. Two TGDs are equal when their body, head, frontier and
/// existential variables are.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tgd {
    atoms: Box<[Atom]>,
    body_len: u32,
    vars: Box<[VarId]>,
    frontier_len: u32,
}

impl Tgd {
    /// Builds and validates a TGD.
    pub fn new(body: Vec<Atom>, head: Vec<Atom>) -> Result<Self, ModelError> {
        let body_len = body.len();
        let mut atoms = Vec::with_capacity(body_len + head.len());
        atoms.extend(body);
        atoms.extend(head);
        Tgd::from_atoms(atoms, body_len)
    }

    /// Builds and validates the TGD `atoms[..body_len] → atoms[body_len..]`.
    ///
    /// One pass over the arguments validates them and splits the distinct
    /// head variables into frontier and existential ones. The atoms are
    /// kept as given (a vector with `len == capacity` is not reallocated),
    /// so the variable slice is the only allocation; it shrinks in place
    /// when the head repeats a variable.
    pub fn from_atoms(atoms: Vec<Atom>, body_len: usize) -> Result<Self, ModelError> {
        if body_len == 0 {
            return Err(ModelError::EmptyConjunction { part: "body" });
        }
        if body_len >= atoms.len() {
            return Err(ModelError::EmptyConjunction { part: "head" });
        }
        let (body, head) = atoms.split_at(body_len);
        for t in body.iter().flat_map(|a| a.terms.iter()) {
            var_of(t)?;
        }
        // The distinct head variables: frontier ones (also in the body)
        // fill `vars` from the front, existential ones from the back, and
        // the gap left by repeated head variables is closed at the end.
        let head_terms: usize = head.iter().map(Atom::arity).sum();
        let mut vars = vec![VarId(0); head_terms];
        let (mut f, mut e) = (0, head_terms);
        for t in head.iter().flat_map(|a| a.terms.iter()) {
            let v = var_of(t)?;
            if vars[..f].contains(&v) || vars[e..].contains(&v) {
                continue;
            }
            if body.iter().any(|a| a.terms.contains(t)) {
                vars[f] = v;
                f += 1;
            } else {
                e -= 1;
                vars[e] = v;
            }
        }
        vars[..f].sort_unstable();
        vars[e..].sort_unstable();
        vars.drain(f..e);
        Ok(Tgd {
            atoms: atoms.into_boxed_slice(),
            body_len: body_len as u32,
            vars: vars.into_boxed_slice(),
            frontier_len: f as u32,
        })
    }

    /// `body(σ)`.
    #[inline]
    pub fn body(&self) -> &[Atom] {
        &self.atoms[..self.body_len as usize]
    }

    /// `head(σ)`.
    #[inline]
    pub fn head(&self) -> &[Atom] {
        &self.atoms[self.body_len as usize..]
    }

    /// `fr(σ)`: the frontier variables, sorted ascending.
    #[inline]
    pub fn frontier(&self) -> &[VarId] {
        &self.vars[..self.frontier_len as usize]
    }

    /// The existentially quantified variables, sorted ascending.
    #[inline]
    pub fn existential(&self) -> &[VarId] {
        &self.vars[self.frontier_len as usize..]
    }

    /// True if `fr(σ) = ∅`. Such TGDs fire at most once under the
    /// semi-oblivious chase (the frontier witness is the empty tuple); the
    /// checkers handle them natively instead of normalising (see DESIGN.md).
    pub fn has_empty_frontier(&self) -> bool {
        self.frontier_len == 0
    }

    /// True for linear TGDs (single body atom).
    #[inline]
    pub fn is_linear(&self) -> bool {
        self.body_len == 1
    }

    /// True for simple-linear TGDs (linear and no repeated body variable).
    pub fn is_simple_linear(&self) -> bool {
        self.is_linear() && !self.atoms[0].has_repeated_var()
    }

    /// The most specific class this TGD belongs to.
    pub fn class(&self) -> TgdClass {
        if self.is_simple_linear() {
            TgdClass::SimpleLinear
        } else if self.is_linear() {
            TgdClass::Linear
        } else {
            TgdClass::General
        }
    }

    /// All distinct body variables, in first-occurrence order.
    pub fn body_variables(&self) -> Vec<VarId> {
        variables_of(self.body())
    }

    /// All distinct head variables, in first-occurrence order.
    pub fn head_variables(&self) -> Vec<VarId> {
        variables_of(self.head())
    }

    /// Renders the TGD against a schema, e.g. `r(X0,X1) -> s(X1,X2)`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> TgdDisplay<'a> {
        TgdDisplay { tgd: self, schema }
    }
}

/// Renders the four parts the layout packs, as separate fields.
impl fmt::Debug for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tgd")
            .field("body", &self.body())
            .field("head", &self.head())
            .field("frontier", &self.frontier())
            .field("existential", &self.existential())
            .finish()
    }
}

/// The argument `t` of a TGD atom as a variable; TGDs are constant- and
/// null-free.
fn var_of(t: &Term) -> Result<VarId, ModelError> {
    match *t {
        Term::Var(v) => Ok(v),
        Term::Const(_) => Err(ModelError::ConstantInTgd),
        Term::Null(_) => Err(ModelError::NullInTgd),
    }
}

/// Helper for rendering TGDs with predicate names.
pub struct TgdDisplay<'a> {
    tgd: &'a Tgd,
    schema: &'a Schema,
}

impl fmt::Display for TgdDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.tgd.body().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.display(self.schema))?;
        }
        write!(f, " -> ")?;
        for (i, a) in self.tgd.head().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.display(self.schema))?;
        }
        Ok(())
    }
}

/// The most specific class containing every TGD of `tgds`
/// (SL if all are SL, else L if all are linear, else General).
pub fn classify(tgds: &[Tgd]) -> TgdClass {
    let mut class = TgdClass::SimpleLinear;
    for t in tgds {
        class = class.max(t.class());
    }
    class
}

/// `sch(Σ)`: the distinct predicates occurring in `tgds`, in first-occurrence
/// order.
pub fn predicates_of(tgds: &[Tgd]) -> Vec<crate::schema::PredId> {
    let mut seen = crate::fxhash::FxHashSet::default();
    let mut out = Vec::new();
    for t in tgds {
        for a in t.body().iter().chain(t.head().iter()) {
            if seen.insert(a.pred) {
                out.push(a.pred);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn setup() -> (Schema, crate::schema::PredId, crate::schema::PredId) {
        let mut s = Schema::new();
        let r = s.add_predicate("r", 2).unwrap();
        let p = s.add_predicate("p", 2).unwrap();
        (s, r, p)
    }

    #[test]
    fn frontier_and_existential_are_computed() {
        let (s, r, p) = setup();
        // r(X0, X1) -> ∃X2 p(X1, X2)
        let tgd = Tgd::new(
            vec![Atom::new(&s, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&s, p, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        assert_eq!(tgd.frontier(), &[VarId(1)]);
        assert_eq!(tgd.existential(), &[VarId(2)]);
        assert!(!tgd.has_empty_frontier());
        assert!(tgd.is_linear());
        assert!(tgd.is_simple_linear());
        assert_eq!(tgd.class(), TgdClass::SimpleLinear);
    }

    #[test]
    fn repeated_body_variable_is_linear_not_simple() {
        let (s, r, p) = setup();
        // r(X0, X0) -> ∃X2 p(X2, X0)   (Example 3.4 of the paper)
        let tgd = Tgd::new(
            vec![Atom::new(&s, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&s, p, vec![v(2), v(0)]).unwrap()],
        )
        .unwrap();
        assert!(tgd.is_linear());
        assert!(!tgd.is_simple_linear());
        assert_eq!(tgd.class(), TgdClass::Linear);
    }

    #[test]
    fn multi_body_is_general() {
        let (s, r, p) = setup();
        let tgd = Tgd::new(
            vec![
                Atom::new(&s, r, vec![v(0), v(1)]).unwrap(),
                Atom::new(&s, p, vec![v(1), v(2)]).unwrap(),
            ],
            vec![Atom::new(&s, r, vec![v(0), v(2)]).unwrap()],
        )
        .unwrap();
        assert_eq!(tgd.class(), TgdClass::General);
        assert_eq!(classify(std::slice::from_ref(&tgd)), TgdClass::General);
    }

    #[test]
    fn empty_frontier_detected() {
        let (s, r, p) = setup();
        // r(X0, X1) -> ∃X2,X3 p(X2, X3)
        let tgd = Tgd::new(
            vec![Atom::new(&s, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&s, p, vec![v(2), v(3)]).unwrap()],
        )
        .unwrap();
        assert!(tgd.has_empty_frontier());
        assert_eq!(tgd.existential(), &[VarId(2), VarId(3)]);
    }

    #[test]
    fn constants_and_empty_parts_rejected() {
        let (s, r, _) = setup();
        let with_const =
            Atom::new(&s, r, vec![Term::Const(crate::term::ConstId(0)), v(1)]).unwrap();
        assert!(matches!(
            Tgd::new(vec![with_const.clone()], vec![with_const]),
            Err(ModelError::ConstantInTgd)
        ));
        let a = Atom::new(&s, r, vec![v(0), v(1)]).unwrap();
        let null = Atom::new(&s, r, vec![v(0), Term::Null(crate::term::NullId(0))]).unwrap();
        assert_eq!(
            Tgd::new(vec![a.clone()], vec![null.clone()]),
            Err(ModelError::NullInTgd)
        );
        assert_eq!(
            Tgd::new(vec![null], vec![a.clone()]),
            Err(ModelError::NullInTgd)
        );
        assert!(Tgd::new(vec![], vec![a.clone()]).is_err());
        assert!(Tgd::new(vec![a], vec![]).is_err());
    }

    #[test]
    fn classify_takes_the_max() {
        let (s, r, p) = setup();
        let sl = Tgd::new(
            vec![Atom::new(&s, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&s, p, vec![v(0), v(1)]).unwrap()],
        )
        .unwrap();
        let l = Tgd::new(
            vec![Atom::new(&s, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&s, p, vec![v(0), v(0)]).unwrap()],
        )
        .unwrap();
        assert_eq!(classify(std::slice::from_ref(&sl)), TgdClass::SimpleLinear);
        assert_eq!(classify(&[sl, l]), TgdClass::Linear);
    }

    #[test]
    fn display_renders_rule() {
        let (s, r, p) = setup();
        let tgd = Tgd::new(
            vec![Atom::new(&s, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&s, p, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        assert_eq!(tgd.display(&s).to_string(), "r(X0,X1) -> p(X1,X2)");
    }

    /// Atoms over `PredId(arity)` from per-atom variable ids; `offset`
    /// shifts every id (a head shifted past the body's ids has an empty
    /// frontier).
    fn atoms(ids: &[Vec<u32>], offset: u32) -> Vec<Atom> {
        ids.iter()
            .map(|a| {
                let terms = a.iter().map(|&i| v(i + offset)).collect::<Vec<_>>();
                Atom::new_unchecked(crate::schema::PredId(a.len() as u32), terms)
            })
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed layout answers exactly what the `variables_of`
        /// definitions do: ids are drawn from a small range, so variables
        /// repeat within and across atoms, and one head in four is
        /// shifted past the body's ids.
        #[test]
        fn packed_layout_matches_the_variables_of_reference(
            body_ids in proptest::collection::vec(proptest::collection::vec(0u32..6, 1..6), 1..4),
            head_ids in proptest::collection::vec(proptest::collection::vec(0u32..10, 1..7), 1..4),
            disjoint in 0u32..4,
        ) {
            let body = atoms(&body_ids, 0);
            let head = atoms(&head_ids, if disjoint == 0 { 6 } else { 0 });
            let tgd = Tgd::new(body.clone(), head.clone()).unwrap();

            let (bv, hv) = (variables_of(&body), variables_of(&head));
            let mut frontier: Vec<VarId> = hv.iter().copied().filter(|x| bv.contains(x)).collect();
            let mut existential: Vec<VarId> = hv.iter().copied().filter(|x| !bv.contains(x)).collect();
            frontier.sort_unstable();
            existential.sort_unstable();
            let class = match body.len() {
                1 if !body[0].has_repeated_var() => TgdClass::SimpleLinear,
                1 => TgdClass::Linear,
                _ => TgdClass::General,
            };
            prop_assert_eq!(tgd.body(), &body[..]);
            prop_assert_eq!(tgd.head(), &head[..]);
            prop_assert_eq!(tgd.frontier(), &frontier[..]);
            prop_assert_eq!(tgd.existential(), &existential[..]);
            prop_assert_eq!(tgd.has_empty_frontier(), frontier.is_empty());
            prop_assert_eq!(tgd.class(), class);
            prop_assert_eq!(tgd.body_variables(), bv);
            prop_assert_eq!(tgd.head_variables(), hv);
            let packed = Tgd::from_atoms(body.into_iter().chain(head).collect(), body_ids.len());
            prop_assert_eq!(packed.unwrap(), tgd);
        }
    }
}
