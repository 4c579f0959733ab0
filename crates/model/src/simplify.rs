//! The simplification technique (§3, Def. 3.5): converting linear TGDs into
//! simple-linear TGDs over *shape predicates* while preserving finiteness of
//! the chase (Theorem 3.6).
//!
//! `simple(α)` of an atom `α = R(t̄)` is `R_{id(t̄)}(unique(t̄))`: a fresh
//! predicate per shape, applied to the first occurrences of the terms. A
//! *specialization* `f` of the body tuple partially identifies variables;
//! `simple(σ)` collects the simplifications of a linear TGD under all
//! specializations (static simplification — exponential), while dynamic
//! simplification (`soct-core::dynsimpl`) only instantiates the
//! specializations whose body shape is actually derivable from the database.

use crate::atom::Atom;
use crate::error::ModelError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::instance::Instance;
use crate::schema::{PredId, Schema};
use crate::shape::{Rgs, Shape};
use crate::term::{Term, VarId};
use crate::tgd::Tgd;
use std::collections::hash_map::Entry;

/// Interner of shape predicates `R_{id(t̄)}` into a derived [`Schema`].
///
/// The derived schema is disjoint from the base schema; a shape with `k`
/// blocks becomes an unnamed predicate of arity `k` ([`Schema::add_unnamed`]),
/// identified by its [`ShapeInterner::origin`]. Interning builds no name:
/// [`ShapeInterner::name`] renders the `R#i1_i2_…` spelling on demand.
#[derive(Default, Clone, Debug)]
pub struct ShapeInterner {
    schema: Schema,
    map: FxHashMap<Shape, PredId>,
    origins: Vec<Shape>,
}

impl ShapeInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a shape of a `base` predicate, returning its predicate in
    /// the derived schema.
    pub fn intern(&mut self, shape: Shape, base: &Schema) -> PredId {
        debug_assert_eq!(
            shape.rgs.len(),
            base.arity(shape.pred),
            "shape of a base predicate"
        );
        match self.map.entry(shape) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let p = self
                    .schema
                    .add_unnamed(e.key().simple_arity())
                    .expect("a shape has between 1 and MAX_ARITY blocks");
                self.origins.push(e.key().clone());
                e.insert(p);
                p
            }
        }
    }

    /// The name of derived predicate `p`: its origin's `base` predicate
    /// name, `#`, and the shape's ids joined by `_` (`R#1_1_2`).
    pub fn name(&self, p: PredId, base: &Schema) -> String {
        use std::fmt::Write as _;
        let shape = self.origin(p);
        let mut name = String::with_capacity(16);
        name.push_str(base.name(shape.pred));
        name.push('#');
        for (i, id) in shape.rgs.iter_ids().enumerate() {
            if i > 0 {
                name.push('_');
            }
            let _ = write!(name, "{id}");
        }
        name
    }

    /// Looks up an already-interned shape.
    pub fn get(&self, shape: &Shape) -> Option<PredId> {
        self.map.get(shape).copied()
    }

    /// The derived schema of shape predicates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shape a derived predicate came from.
    pub fn origin(&self, p: PredId) -> &Shape {
        &self.origins[p.index()]
    }

    /// Number of interned shapes.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }
}

/// `simple(α)`: simplifies one atom into the derived schema.
pub fn simplify_atom(interner: &mut ShapeInterner, base: &Schema, atom: &Atom) -> Atom {
    let shape = Shape::of_atom(atom);
    let terms: Vec<Term> = shape
        .rgs
        .block_representatives()
        .into_iter()
        .map(|i| atom.terms[i])
        .collect();
    let pred = interner.intern(shape, base);
    Atom::new_unchecked(pred, terms)
}

/// `simple(D)`: simplifies every atom of an instance.
pub fn simplify_instance(
    interner: &mut ShapeInterner,
    base: &Schema,
    instance: &Instance,
) -> Instance {
    let mut out = Instance::new();
    for a in instance.atoms() {
        out.insert(simplify_atom(interner, base, a));
    }
    out
}

/// A specialization `f` of a variable tuple: maps each distinct body
/// variable to a representative (Def. 3.5). Identity on variables outside
/// its domain (in particular, on existential head variables).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Specialization {
    map: FxHashMap<VarId, VarId>,
}

impl Specialization {
    /// Builds the specialization of `distinct_vars` induced by a partition
    /// `rgs` of those variables: variables in the same block map to the
    /// block's first variable.
    pub fn from_rgs(distinct_vars: &[VarId], rgs: &Rgs) -> Specialization {
        debug_assert_eq!(distinct_vars.len(), rgs.len());
        let reps = rgs.block_representatives();
        let ids = rgs.ids();
        let mut map = FxHashMap::default();
        for (i, &v) in distinct_vars.iter().enumerate() {
            let block = ids[i] as usize - 1;
            map.insert(v, distinct_vars[reps[block]]);
        }
        Specialization { map }
    }

    /// The identity specialization on `distinct_vars`.
    pub fn identity(distinct_vars: &[VarId]) -> Specialization {
        Specialization::from_rgs(distinct_vars, &Rgs::identity(distinct_vars.len()))
    }

    /// `f(x)`; identity outside the domain.
    #[inline]
    pub fn apply(&self, v: VarId) -> VarId {
        self.map.get(&v).copied().unwrap_or(v)
    }

    /// Applies `f` position-wise to a term tuple (variables only are
    /// affected).
    pub fn apply_terms(&self, terms: &[Term]) -> Vec<Term> {
        terms
            .iter()
            .map(|&t| match t {
                Term::Var(v) => Term::Var(self.apply(v)),
                other => other,
            })
            .collect()
    }
}

/// The *h-specialization* (§4.2): given the body tuple of a linear TGD and a
/// target shape `R_{ī}` ∈ `DB[S]`, there is at most one homomorphism `h` from
/// `{R(x̄)}` to `{R(ī)}` — the positional one — and it exists iff equal body
/// variables sit at positions with equal ids (the shape's partition coarsens
/// the body's repetition pattern). Returns the induced specialization
/// (`f(xᵢ) = f(xⱼ)` iff `h(xᵢ) = h(xⱼ)`), or `None` if no homomorphism
/// exists.
pub fn h_specialization(body_terms: &[Term], shape_rgs: &Rgs) -> Option<Specialization> {
    debug_assert_eq!(body_terms.len(), shape_rgs.len());
    let body_rgs = Rgs::of_terms(body_terms);
    if !shape_rgs.coarsens(&body_rgs) {
        return None;
    }
    // Distinct variables in first-occurrence order, and for each its id
    // under the target shape.
    let shape_ids = shape_rgs.ids();
    let mut distinct: Vec<VarId> = Vec::new();
    let mut var_ids: Vec<u8> = Vec::new();
    for (i, t) in body_terms.iter().enumerate() {
        let v = t.as_var().expect("TGD bodies are variable-only");
        if !distinct.contains(&v) {
            distinct.push(v);
            var_ids.push(shape_ids[i]);
        }
    }
    let spec_rgs = Rgs::canonicalize(&var_ids);
    Some(Specialization::from_rgs(&distinct, &spec_rgs))
}

/// The simplification of a linear TGD induced by a specialization
/// (Def. 3.5): `simple(R(f(x̄))) → ∃z̄ simple(ψ(f(ȳ), z̄))`.
///
/// Panics if `tgd` is not linear.
pub fn simplify_tgd(
    interner: &mut ShapeInterner,
    base: &Schema,
    tgd: &Tgd,
    spec: &Specialization,
) -> Tgd {
    assert!(tgd.is_linear(), "simplification requires a linear TGD");
    let body_atom = &tgd.body()[0];
    let spec_body = Atom::new_unchecked(body_atom.pred, spec.apply_terms(&body_atom.terms));
    let mut atoms = Vec::with_capacity(1 + tgd.head().len());
    atoms.push(simplify_atom(interner, base, &spec_body));
    atoms.extend(tgd.head().iter().map(|a| {
        let spec_head = Atom::new_unchecked(a.pred, spec.apply_terms(&a.terms));
        simplify_atom(interner, base, &spec_head)
    }));
    Tgd::from_atoms(atoms, 1).expect("simplification of a valid TGD is a valid TGD")
}

/// `simple(σ)`: the simplifications of a linear TGD under *all*
/// specializations of its body tuple (static, exponential in the number of
/// distinct body variables).
pub fn simplify_tgd_all(
    interner: &mut ShapeInterner,
    base: &Schema,
    tgd: &Tgd,
) -> Result<Vec<Tgd>, ModelError> {
    if !tgd.is_linear() {
        return Err(ModelError::EmptyConjunction {
            part: "body (not linear)",
        });
    }
    let distinct = tgd.body()[0].variables();
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for rgs in Rgs::all_of_len(distinct.len()) {
        let spec = Specialization::from_rgs(&distinct, &rgs);
        let s = simplify_tgd(interner, base, tgd, &spec);
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    Ok(out)
}

/// `simple(Σ)`: the static simplification of a set of linear TGDs
/// (Def. 3.5). The paper shows this is exponential in the maximum arity and
/// uses it only as the yardstick dynamic simplification is measured against
/// (§4.2); the practical algorithm is `soct-core::dynsimpl`.
pub fn static_simplification(
    interner: &mut ShapeInterner,
    base: &Schema,
    tgds: &[Tgd],
) -> Result<Vec<Tgd>, ModelError> {
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for tgd in tgds {
        for s in simplify_tgd_all(interner, base, tgd)? {
            if seen.insert(s.clone()) {
                out.push(s);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::ConstId;

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    fn setup() -> (Schema, PredId, PredId) {
        let mut s = Schema::new();
        let r = s.add_predicate("r", 3).unwrap();
        let p = s.add_predicate("p", 2).unwrap();
        (s, r, p)
    }

    #[test]
    fn simplify_atom_keeps_first_occurrences() {
        let (base, r, _) = setup();
        let mut it = ShapeInterner::new();
        let a = Atom::new(&base, r, vec![c(5), c(5), c(7)]).unwrap();
        let s = simplify_atom(&mut it, &base, &a);
        assert_eq!(it.schema().arity(s.pred), 2);
        assert_eq!(&*s.terms, &[c(5), c(7)]);
        assert_eq!(it.name(s.pred, &base), "r#1_1_2");
        // Same shape interns to the same predicate.
        let b = Atom::new(&base, r, vec![c(1), c(1), c(9)]).unwrap();
        let sb = simplify_atom(&mut it, &base, &b);
        assert_eq!(s.pred, sb.pred);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn h_specialization_consistency() {
        // Body r(x, y, x): pattern (1,2,1).
        let body = [v(0), v(1), v(0)];
        // Shape (1,1,1) coarsens (1,2,1): h exists, f identifies x and y.
        let spec = h_specialization(&body, &Rgs::canonicalize(&[1, 1, 1])).unwrap();
        assert_eq!(spec.apply(VarId(1)), VarId(0));
        // Shape (1,2,2) equates positions 2,3 where body has y,x distinct —
        // but position 1 and 3 differ while body forces x=x there: ids 1 vs 2
        // at positions of the same variable ⇒ no homomorphism.
        assert!(h_specialization(&body, &Rgs::canonicalize(&[1, 2, 2])).is_none());
        // Shape (1,2,1) = the body's own pattern: identity specialization.
        let spec2 = h_specialization(&body, &Rgs::canonicalize(&[1, 2, 1])).unwrap();
        assert_eq!(spec2.apply(VarId(0)), VarId(0));
        assert_eq!(spec2.apply(VarId(1)), VarId(1));
    }

    #[test]
    fn paper_example_h_specialization() {
        // §4.2: h from {R(x,y,x,z)} to {R(1,1,1,2)} gives f(x)=x, f(y)=x,
        // f(z)=z.
        let body = [v(0), v(1), v(0), v(2)];
        let spec = h_specialization(&body, &Rgs::canonicalize(&[1, 1, 1, 2])).unwrap();
        assert_eq!(spec.apply(VarId(0)), VarId(0));
        assert_eq!(spec.apply(VarId(1)), VarId(0));
        assert_eq!(spec.apply(VarId(2)), VarId(2));
    }

    #[test]
    fn simplified_tgds_are_simple_linear() {
        let (base, r, p) = setup();
        let mut it = ShapeInterner::new();
        // r(x, x, y) -> ∃z p(y, z): non-simple linear.
        let tgd = Tgd::new(
            vec![Atom::new(&base, r, vec![v(0), v(0), v(1)]).unwrap()],
            vec![Atom::new(&base, p, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let all = simplify_tgd_all(&mut it, &base, &tgd).unwrap();
        // Two distinct body vars ⇒ Bell(2) = 2 specializations.
        assert_eq!(all.len(), 2);
        for s in &all {
            assert!(s.is_simple_linear(), "{s:?}");
        }
    }

    #[test]
    fn static_simplification_counts() {
        let (base, r, p) = setup();
        let mut it = ShapeInterner::new();
        // r(x, y, w) -> ∃z p(x, z): simple body with 3 distinct vars ⇒
        // Bell(3) = 5 simplifications.
        let tgd = Tgd::new(
            vec![Atom::new(&base, r, vec![v(0), v(1), v(3)]).unwrap()],
            vec![Atom::new(&base, p, vec![v(0), v(2)]).unwrap()],
        )
        .unwrap();
        let all = static_simplification(&mut it, &base, std::slice::from_ref(&tgd)).unwrap();
        assert_eq!(all.len(), 5);
        // All body predicates are pairwise distinct shape predicates of r.
        let preds: FxHashSet<_> = all.iter().map(|t| t.body()[0].pred).collect();
        assert_eq!(preds.len(), 5);
    }

    #[test]
    fn simplification_preserves_frontier_structure() {
        let (base, r, p) = setup();
        let mut it = ShapeInterner::new();
        let tgd = Tgd::new(
            vec![Atom::new(&base, r, vec![v(0), v(1), v(1)]).unwrap()],
            vec![Atom::new(&base, p, vec![v(0), v(9)]).unwrap()],
        )
        .unwrap();
        let distinct = tgd.body()[0].variables();
        let spec = Specialization::identity(&distinct);
        let s = simplify_tgd(&mut it, &base, &tgd, &spec);
        // Body r(x,y,y) simplifies to r#1_2_2(x,y); head keeps frontier x and
        // existential v9.
        assert_eq!(s.body()[0].arity(), 2);
        assert_eq!(s.frontier(), &[VarId(0)]);
        assert_eq!(s.existential(), &[VarId(9)]);
    }

    #[test]
    fn example_3_4_simplification() {
        // σ: R(x,x) → ∃z R(z,x). Its simplifications have bodies R#1_1(x)
        // (only one distinct body var ⇒ Bell(1) = 1 specialization), and
        // head simple(R(z,x)) = R#1_2(z,x).
        let mut base = Schema::new();
        let r = base.add_predicate("R", 2).unwrap();
        let mut it = ShapeInterner::new();
        let tgd = Tgd::new(
            vec![Atom::new(&base, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&base, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let all = simplify_tgd_all(&mut it, &base, &tgd).unwrap();
        assert_eq!(all.len(), 1);
        let s = &all[0];
        assert_eq!(it.name(s.body()[0].pred, &base), "R#1_1");
        assert_eq!(it.name(s.head()[0].pred, &base), "R#1_2");
    }

    #[test]
    fn simplify_instance_shapes() {
        let (base, r, _) = setup();
        let mut it = ShapeInterner::new();
        let mut db = Instance::new();
        db.insert(Atom::new(&base, r, vec![c(0), c(0), c(1)]).unwrap());
        db.insert(Atom::new(&base, r, vec![c(2), c(2), c(3)]).unwrap());
        db.insert(Atom::new(&base, r, vec![c(0), c(1), c(2)]).unwrap());
        let simple = simplify_instance(&mut it, &base, &db);
        assert_eq!(simple.len(), 3);
        assert_eq!(it.len(), 2); // shapes (1,1,2) and (1,2,3)
    }
}
