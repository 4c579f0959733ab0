//! Schemas, predicates and predicate positions (§2 of the paper).
//!
//! A schema S is a finite set of predicates with associated arities;
//! `pos(S)` is the set of pairs `(R, i)` identifying the i-th argument of R.

use crate::error::ModelError;
use crate::fxhash::FxHashMap;
use std::fmt;

/// Id of a predicate within a [`Schema`]. Dense, insertion-ordered.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId(pub u32);

impl PredId {
    /// The id as a dense `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A predicate position `(R, i)` with `i` zero-based (the paper uses
/// 1-based `[n]`; we index from 0 internally and print 1-based).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Position {
    /// The predicate `R`.
    pub pred: PredId,
    /// The zero-based argument index `i`.
    pub index: u16,
}

impl Position {
    /// The position `(pred, index)`.
    #[inline]
    pub fn new(pred: PredId, index: usize) -> Self {
        Position {
            pred,
            index: index as u16,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(p{}, {})", self.pred.0, self.index + 1)
    }
}

#[derive(Clone, Debug)]
struct PredInfo {
    name: Box<str>,
    arity: u16,
}

/// Maximum supported predicate arity.
///
/// This is the single arity contract of the whole workspace: the storage
/// layer (`soct_storage`'s tables, the `InstanceSource` scan path) and the
/// chase's packed tuple stores size their fixed row buffers as
/// `[u64; MAX_ARITY]`, so a predicate admitted here can never overflow a row
/// buffer downstream. [`Schema::add_predicate`] rejects larger arities with
/// [`ModelError::ArityTooLarge`]; no later layer re-checks.
pub const MAX_ARITY: usize = 64;

/// A schema: named predicates with arities, plus the `pos(S)` numbering.
///
/// Positions are numbered densely in predicate order: predicate `R` with
/// `offset(R) = o` owns position indices `o .. o + ar(R)`. This gives the
/// dependency graph an array-backed node space with no hashing on the hot
/// path (§5.1: "an index structure that maps predicate positions to their
/// corresponding elements").
#[derive(Default, Clone, Debug)]
pub struct Schema {
    preds: Vec<PredInfo>,
    by_name: FxHashMap<Box<str>, PredId>,
    /// Prefix sums of arities: `offsets[p] = Σ_{q<p} ar(q)`.
    offsets: Vec<u32>,
    total_positions: u32,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or finds) a predicate `name/arity`.
    ///
    /// Returns an error if `name` already exists with a different arity, if
    /// `arity` is zero (the paper assumes `n > 0`), or if `arity` exceeds
    /// [`MAX_ARITY`] (the fixed row-buffer width of the storage and chase
    /// layers).
    pub fn add_predicate(&mut self, name: &str, arity: usize) -> Result<PredId, ModelError> {
        check_arity(name, arity)?;
        if let Some(&id) = self.by_name.get(name) {
            let existing = self.preds[id.index()].arity as usize;
            if existing != arity {
                return Err(ModelError::ArityMismatch {
                    predicate: name.to_string(),
                    expected: existing,
                    found: arity,
                });
            }
            return Ok(id);
        }
        let boxed: Box<str> = name.into();
        let id = self.push(boxed.clone(), arity);
        self.by_name.insert(boxed, id);
        Ok(id)
    }

    /// Adds a fresh predicate of `arity` with no name: it is not entered
    /// in the name index, so [`Schema::pred_by_name`] never finds it and
    /// [`Schema::name`] returns `""`. Derived schemas whose predicates are
    /// identified by something other than a name (the shape predicates of
    /// `simplify::ShapeInterner`) use this to skip building, hashing and
    /// storing a name per predicate.
    ///
    /// Returns the same arity errors as [`Schema::add_predicate`].
    pub fn add_unnamed(&mut self, arity: usize) -> Result<PredId, ModelError> {
        check_arity("", arity)?;
        Ok(self.push(Box::default(), arity))
    }

    /// Appends a predicate entry and its positions; the name index is the
    /// caller's business.
    fn push(&mut self, name: Box<str>, arity: usize) -> PredId {
        let id = PredId(self.preds.len() as u32);
        self.offsets.push(self.total_positions);
        self.total_positions += arity as u32;
        self.preds.push(PredInfo {
            name,
            arity: arity as u16,
        });
        id
    }

    /// Looks up a predicate by name.
    pub fn pred_by_name(&self, name: &str) -> Option<PredId> {
        self.by_name.get(name).copied()
    }

    /// The name of a predicate (`""` for one added by
    /// [`Schema::add_unnamed`]).
    pub fn name(&self, p: PredId) -> &str {
        &self.preds[p.index()].name
    }

    /// The arity `ar(R)` of a predicate.
    #[inline]
    pub fn arity(&self, p: PredId) -> usize {
        self.preds[p.index()].arity as usize
    }

    /// Number of predicates in the schema.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True if the schema has no predicates.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Total number of positions `|pos(S)|`.
    #[inline]
    pub fn num_positions(&self) -> usize {
        self.total_positions as usize
    }

    /// Dense index of position `(p, i)` in `0..num_positions()`.
    #[inline]
    pub fn position_index(&self, pos: Position) -> usize {
        debug_assert!((pos.index as usize) < self.arity(pos.pred));
        self.offsets[pos.pred.index()] as usize + pos.index as usize
    }

    /// Inverse of [`Schema::position_index`].
    pub fn position_at(&self, dense: usize) -> Position {
        debug_assert!(dense < self.num_positions());
        // Binary search the offset table for the owning predicate.
        let dense = dense as u32;
        let p = match self.offsets.binary_search(&dense) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Position {
            pred: PredId(p as u32),
            index: (dense - self.offsets[p]) as u16,
        }
    }

    /// Iterates over all predicates.
    pub fn predicates(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.preds.len() as u32).map(PredId)
    }

    /// Iterates over `pos(S)` in dense order.
    pub fn positions(&self) -> impl Iterator<Item = Position> + '_ {
        self.predicates()
            .flat_map(move |p| (0..self.arity(p)).map(move |i| Position::new(p, i)))
    }

    /// Maximum arity over all predicates (0 for an empty schema).
    pub fn max_arity(&self) -> usize {
        self.preds
            .iter()
            .map(|p| p.arity as usize)
            .max()
            .unwrap_or(0)
    }
}

/// The arity contract of every declaration: positive (the paper assumes
/// `n > 0`) and at most [`MAX_ARITY`].
fn check_arity(name: &str, arity: usize) -> Result<(), ModelError> {
    if arity == 0 {
        return Err(ModelError::ZeroArity {
            predicate: name.to_string(),
        });
    }
    if arity > MAX_ARITY {
        return Err(ModelError::ArityTooLarge {
            predicate: name.to_string(),
            arity,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = Schema::new();
        let r = s.add_predicate("r", 2).unwrap();
        let t = s.add_predicate("t", 3).unwrap();
        assert_ne!(r, t);
        assert_eq!(s.pred_by_name("r"), Some(r));
        assert_eq!(s.arity(r), 2);
        assert_eq!(s.arity(t), 3);
        assert_eq!(s.name(t), "t");
        assert_eq!(s.len(), 2);
        assert_eq!(s.max_arity(), 3);
    }

    #[test]
    fn re_adding_same_arity_is_idempotent() {
        let mut s = Schema::new();
        let r1 = s.add_predicate("r", 2).unwrap();
        let r2 = s.add_predicate("r", 2).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let mut s = Schema::new();
        s.add_predicate("r", 2).unwrap();
        assert!(matches!(
            s.add_predicate("r", 3),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.add_predicate("z", 0),
            Err(ModelError::ZeroArity { .. })
        ));
    }

    #[test]
    fn arity_cap_is_enforced_at_declaration() {
        let mut s = Schema::new();
        assert!(s.add_predicate("wide", MAX_ARITY).is_ok());
        let err = s.add_predicate("wider", MAX_ARITY + 1);
        assert!(matches!(err, Err(ModelError::ArityTooLarge { .. })));
        assert!(err.unwrap_err().to_string().contains("64"));
        // Declaration is all-or-nothing: the rejected name is not interned.
        assert_eq!(s.pred_by_name("wider"), None);
    }

    #[test]
    fn unnamed_predicates_number_positions_but_skip_the_name_index() {
        let mut s = Schema::new();
        let r = s.add_predicate("r", 2).unwrap();
        let u = s.add_unnamed(3).unwrap();
        let t = s.add_predicate("t", 1).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.arity(u), 3);
        assert_eq!(s.name(u), "");
        assert_eq!(s.pred_by_name(""), None);
        assert_eq!(s.pred_by_name("t"), Some(t));
        assert_eq!(s.position_index(Position::new(u, 0)), 2);
        assert_eq!(s.position_index(Position::new(t, 0)), 5);
        assert_ne!(r, u);
        assert!(matches!(
            s.add_unnamed(0),
            Err(ModelError::ZeroArity { .. })
        ));
        assert!(matches!(
            s.add_unnamed(MAX_ARITY + 1),
            Err(ModelError::ArityTooLarge { .. })
        ));
        assert_eq!(s.len(), 3, "rejected arities add nothing");
    }

    #[test]
    fn position_numbering_is_dense_and_invertible() {
        let mut s = Schema::new();
        let r = s.add_predicate("r", 2).unwrap();
        let t = s.add_predicate("t", 3).unwrap();
        assert_eq!(s.num_positions(), 5);
        let mut seen = [false; 5];
        for pos in s.positions() {
            let d = s.position_index(pos);
            assert!(!seen[d]);
            seen[d] = true;
            assert_eq!(s.position_at(d), pos);
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(s.position_index(Position::new(r, 1)), 1);
        assert_eq!(s.position_index(Position::new(t, 0)), 2);
    }
}
