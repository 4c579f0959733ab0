//! `DynSimplification` (Algorithm 2): the dynamic simplification of a set of
//! linear TGDs relative to a database.
//!
//! Starting from `shape(D)`, the algorithm iterates the immediate
//! consequence operator on shapes: a TGD σ = R(x̄) → ∃z̄ ψ(ȳ,z̄) is
//! *applicable* to a shape `R_ī` iff the positional map `x̄ → ī` is
//! consistent (at most one homomorphism exists — `h_specialization`); the
//! simplification induced by the h-specialization joins `Σ_s`, and the head
//! shapes join the frontier ΔS. Only the newest shapes are re-processed per
//! iteration — "there are no new applicable TGDs on S after the first
//! iteration since the TGDs are linear" (§4.2).
//!
//! Of the implementation details of §5.4, two are in place: a predicate →
//! TGDs index for fast access, and shape interning so identifier tuples
//! are built once. Body patterns are *not* precomputed per TGD: each
//! applicability check (`h_specialization`) derives the body's id pattern
//! with `Rgs::of_terms` and compares it against the shape in O(arity).
//! Interned shape predicates are unnamed entries of the derived schema, so interning
//! a shape costs one hash-map insert and no string work.
//!
//! The fixpoint itself runs over *interned shape ids*: the
//! [`ShapeInterner`]'s dense id sequence doubles as the seen-set and the
//! frontier (ids below the current delta range are processed, ids inside it
//! are ΔS), so no `Shape` is ever cloned into a side table, and simplified
//! TGDs are deduplicated through a structural-hash bucket index into the
//! output vector instead of a `HashSet<Tgd>` of clones.

use soct_model::fxhash::FxBuildHasher;
use soct_model::simplify::{h_specialization, simplify_tgd, ShapeInterner};
use soct_model::{FxHashMap, PredId, Rgs, Schema, Shape, Tgd};
use std::hash::BuildHasher;

/// The output of dynamic simplification.
#[derive(Debug)]
pub struct DynSimplification {
    /// `simple_D(Σ)`: simple-linear TGDs over [`DynSimplification::interner`]'s
    /// derived schema.
    pub tgds: Vec<Tgd>,
    /// Shape-predicate interner (owns the derived schema).
    pub interner: ShapeInterner,
    /// `|Σ(shape(D))|`: shapes derived, including the database's own.
    pub shapes_derived: usize,
    /// Fixpoint iterations executed.
    pub iterations: usize,
}

impl DynSimplification {
    /// The derived schema the simplified TGDs live in.
    pub fn schema(&self) -> &Schema {
        self.interner.schema()
    }
}

/// Runs Algorithm 2 on `tgds` (which must all be linear) with the initial
/// shape set `shape(D)`.
pub fn dyn_simplification(
    base_schema: &Schema,
    tgds: &[Tgd],
    db_shapes: &[Shape],
) -> DynSimplification {
    debug_assert!(tgds.iter().all(Tgd::is_linear));
    // §5.4: index the TGDs by their body predicate.
    let mut by_body_pred: FxHashMap<PredId, Vec<u32>> = FxHashMap::default();
    for (i, t) in tgds.iter().enumerate() {
        by_body_pred
            .entry(t.body()[0].pred)
            .or_default()
            .push(i as u32);
    }

    let mut interner = ShapeInterner::new();
    let mut out_tgds: Vec<Tgd> = Vec::new();
    // Simplified-TGD dedup without cloning: structural hash → indices into
    // `out_tgds` sharing it; collision chains compare the actual TGDs, so
    // the output is exact (same order, same set) with no `Tgd` clones.
    let hasher = FxBuildHasher::default();
    let mut out_seen: FxHashMap<u64, Vec<u32>> = FxHashMap::default();

    // S ← FindShapes(D); ΔS ← S. The interner's dense id sequence is the
    // seen-set: interning database shapes up front also makes simple(D)'s
    // predicates part of the derived schema even when no TGD fires on them.
    for s in db_shapes {
        interner.intern(s.clone(), base_schema);
    }

    let mut iterations = 0usize;
    let mut delta = 0..interner.len();
    while !delta.is_empty() {
        iterations += 1;
        let next_start = delta.end;
        // Σ_aux ← Applicable(ΔS, Σ). Head shapes are interned inside
        // `simplify_tgd`, so new ids land past `next_start` and form the
        // next frontier with no explicit ΔS list.
        for sid in delta {
            let shape_pred = interner.origin(PredId(sid as u32)).pred;
            let Some(tgd_ids) = by_body_pred.get(&shape_pred) else {
                continue;
            };
            // Copy out the frontier shape's rgs (an inline word for arity
            // ≤ 16) so `simplify_tgd` can borrow the interner mutably.
            let rgs = interner.origin(PredId(sid as u32)).rgs.clone();
            for &ti in tgd_ids {
                let tgd = &tgds[ti as usize];
                let Some(spec) = h_specialization(&tgd.body()[0].terms, &rgs) else {
                    continue;
                };
                let simplified = simplify_tgd(&mut interner, base_schema, tgd, &spec);
                let h = hasher.hash_one(&simplified);
                let bucket = out_seen.entry(h).or_default();
                if !bucket.iter().any(|&i| out_tgds[i as usize] == simplified) {
                    bucket.push(out_tgds.len() as u32);
                    out_tgds.push(simplified);
                }
            }
        }
        // ΔS ← S_aux \ S; S ← S ∪ ΔS.
        delta = next_start..interner.len();
    }

    DynSimplification {
        tgds: out_tgds,
        shapes_derived: interner.len(),
        interner,
        iterations,
    }
}

/// Convenience: `shape(D)` from raw (pred, rgs) pairs.
pub fn shapes_from_rgs(pairs: impl IntoIterator<Item = (soct_model::PredId, Rgs)>) -> Vec<Shape> {
    pairs
        .into_iter()
        .map(|(pred, rgs)| Shape { pred, rgs })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::simplify::static_simplification;
    use soct_model::{Atom, Term, VarId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    fn id_shape(pred: soct_model::PredId, ids: &[u8]) -> Shape {
        Shape {
            pred,
            rgs: Rgs::canonicalize(ids),
        }
    }

    #[test]
    fn example_3_4_dynamic_simplification_is_empty() {
        // D = {R(a,b)} (shape (1,2)), σ: R(x,x) → ∃z R(z,x).
        // No homomorphism from R(x,x) to R(1,2) ⇒ simple_D(Σ) = ∅ ⇒ the
        // chase is finite, matching Example 3.4.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(&schema, &[tgd], &[id_shape(r, &[1, 2])]);
        assert!(d.tgds.is_empty());
        assert_eq!(d.shapes_derived, 1);
    }

    #[test]
    fn example_3_4_with_matching_database_fires() {
        // Same σ but D = {R(a,a)} (shape (1,1)): now σ applies and produces
        // head shape R_(1,2) — a diverging chain.
        let mut schema = Schema::new();
        let r = schema.add_predicate("R", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(0)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(0)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(&schema, std::slice::from_ref(&tgd), &[id_shape(r, &[1, 1])]);
        assert_eq!(d.tgds.len(), 1);
        assert!(d.tgds[0].is_simple_linear());
        assert_eq!(d.shapes_derived, 2); // (1,1) and head shape (1,2)
    }

    #[test]
    fn dynamic_is_subset_of_static() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 3).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&schema, r, vec![v(0), v(1), v(2)]).unwrap()],
                vec![Atom::new(&schema, p, vec![v(0), v(3)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, p, vec![v(1), v(2)]).unwrap()],
            )
            .unwrap(),
        ];
        let db_shapes = vec![id_shape(r, &[1, 2, 3])];
        let dynamic = dyn_simplification(&schema, &tgds, &db_shapes);
        let mut static_interner = ShapeInterner::new();
        let statically = static_simplification(&mut static_interner, &schema, &tgds).unwrap();
        // Compare by rendered structure: every dynamic TGD must appear
        // statically (match via origin shapes, since interners differ).
        assert!(dynamic.tgds.len() <= statically.len());
        for dt in &dynamic.tgds {
            let d_body = dynamic.interner.origin(dt.body()[0].pred);
            let found = statically.iter().any(|st| {
                static_interner.origin(st.body()[0].pred) == d_body
                    && st.head().len() == dt.head().len()
            });
            assert!(found, "dynamic TGD missing statically");
        }
        // Bell(3) + Bell(2) specializations statically = 5 + 2 = 7; the
        // database only exposes one r-shape, so dynamic is smaller.
        assert_eq!(statically.len(), 7);
        assert!(dynamic.tgds.len() < statically.len());
    }

    #[test]
    fn fixpoint_requires_multiple_iterations_on_chains() {
        // r(x,y) → p(x,y); p(x,y) → q(x,y): shapes propagate one predicate
        // per iteration.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let q = schema.add_predicate("q", 2).unwrap();
        let tgds = vec![
            Tgd::new(
                vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
            Tgd::new(
                vec![Atom::new(&schema, p, vec![v(0), v(1)]).unwrap()],
                vec![Atom::new(&schema, q, vec![v(0), v(1)]).unwrap()],
            )
            .unwrap(),
        ];
        let d = dyn_simplification(&schema, &tgds, &[id_shape(r, &[1, 2])]);
        assert_eq!(d.tgds.len(), 2);
        assert_eq!(d.shapes_derived, 3);
        assert!(d.iterations >= 2);
    }

    #[test]
    fn empty_frontier_rules_participate() {
        // r(x) → ∃z,w p(z,w): head shape (1,2) must be derived even though
        // fr = ∅ (no normalisation needed — see DESIGN.md).
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 1).unwrap();
        let p = schema.add_predicate("p", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0)]).unwrap()],
            vec![Atom::new(&schema, p, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(&schema, &[tgd], &[id_shape(r, &[1])]);
        assert_eq!(d.tgds.len(), 1);
        assert_eq!(d.shapes_derived, 2);
    }

    #[test]
    fn multiple_database_shapes_fan_out() {
        // σ: r(x,y) → ∃z r(y,z). Shapes (1,1) and (1,2) both applicable,
        // producing distinct simplifications.
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let tgd = Tgd::new(
            vec![Atom::new(&schema, r, vec![v(0), v(1)]).unwrap()],
            vec![Atom::new(&schema, r, vec![v(1), v(2)]).unwrap()],
        )
        .unwrap();
        let d = dyn_simplification(
            &schema,
            &[tgd],
            &[id_shape(r, &[1, 1]), id_shape(r, &[1, 2])],
        );
        assert_eq!(d.tgds.len(), 2);
        // Head shape is (1,2) in both cases; total shapes = 2.
        assert_eq!(d.shapes_derived, 2);
    }
}
