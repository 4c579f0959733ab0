//! The storage engine and its catalog, plus the [`TupleSource`] abstraction
//! the termination algorithms consume.
//!
//! The paper stores every database in PostgreSQL and touches it through
//! exactly three operations (§5.3, §5.4):
//! 1. the *catalog query* — list the non-empty relations without reading
//!    data;
//! 2. *shape EXISTS queries* — Boolean scans with equality/disequality
//!    column conditions;
//! 3. *full scans* — the in-memory `FindShapes` loads each relation.
//!
//! [`TupleSource`] captures those three operations; the engine, the
//! first-k-rows views of §8.1 ([`crate::view::LimitView`]), and plain
//! in-memory instances ([`InstanceSource`]) all implement it, so the
//! checkers in `soct-core` are storage-agnostic — mirroring the paper's
//! remark that the FindShapes backend can be swapped freely (§10).

use crate::query::{self, ColumnCondition};
use crate::shape_catalog::ShapeCatalog;
use crate::table::Table;
use soct_model::fingerprint::{predicate_element_hash, shape_element_hash, SetFingerprint};
use soct_model::{Fingerprint, Instance, PredId, Rgs, Term, MAX_ARITY};

/// Row-level access used by the termination checkers and generators.
pub trait TupleSource {
    /// The catalog query: predicates with at least one tuple, sorted.
    fn non_empty_predicates(&self) -> Vec<PredId>;
    /// Arity of a stored relation.
    fn arity_of(&self, pred: PredId) -> usize;
    /// Number of tuples visible for `pred`.
    fn row_count(&self, pred: PredId) -> u64;
    /// Scans the visible tuples of `pred` (packed terms); early exit on
    /// `false`. Returns `false` if the callback stopped the scan.
    fn scan(&self, pred: PredId, f: &mut dyn FnMut(&[u64]) -> bool) -> bool;
    /// `EXISTS(SELECT * FROM pred WHERE conds)` over the visible tuples.
    fn exists_where(&self, pred: PredId, conds: &[ColumnCondition]) -> bool;
    /// Total tuples across relations.
    fn total_rows(&self) -> u64 {
        self.non_empty_predicates()
            .into_iter()
            .map(|p| self.row_count(p))
            .sum()
    }
}

/// The db-dependent cache-key fingerprints, maintained in O(1) per write:
/// the distinct shape set (Linear) and the non-empty predicate set
/// (simple-linear / general). Elements enter and leave the accumulators
/// only on distinct-set transitions (shape multiplicity 0 ↔ 1, relation
/// row count 0 ↔ 1), so shape-preserving writes leave both bits unchanged.
#[derive(Debug, Clone, Copy)]
struct LiveFingerprints {
    shapes: SetFingerprint,
    preds: SetFingerprint,
}

/// An embedded, writable relational store.
#[derive(Debug, Default)]
pub struct StorageEngine {
    tables: Vec<Option<Table>>,
    /// Optional incrementally-maintained shape catalog (§10 future work);
    /// enabled with [`StorageEngine::enable_shape_tracking`]. Invariant:
    /// `Some` iff `live_fp` is `Some`.
    shape_catalog: Option<ShapeCatalog>,
    /// Incrementally-maintained db fingerprints; paired with the catalog.
    live_fp: Option<LiveFingerprints>,
    /// Full catalog rebuilds forced by detected desyncs.
    catalog_rebuilds: u64,
}

impl StorageEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or re-opens) the table for `pred`.
    pub fn create_table(&mut self, pred: PredId, name: &str, arity: usize) {
        let idx = pred.index();
        if idx >= self.tables.len() {
            self.tables.resize_with(idx + 1, || None);
        }
        if self.tables[idx].is_none() {
            self.tables[idx] = Some(Table::new(name, arity));
        }
    }

    /// The table of `pred`, if created.
    pub fn table(&self, pred: PredId) -> Option<&Table> {
        self.tables.get(pred.index()).and_then(Option::as_ref)
    }

    fn table_mut(&mut self, pred: PredId) -> &mut Table {
        self.tables
            .get_mut(pred.index())
            .and_then(Option::as_mut)
            .expect("table not created")
    }

    /// Inserts one tuple of terms. The table must exist.
    pub fn insert(&mut self, pred: PredId, terms: &[Term]) {
        if self.shape_catalog.is_some() {
            // Safe by the MAX_ARITY contract `Schema::add_predicate`
            // enforces at declaration time.
            let mut row = [0u64; MAX_ARITY];
            for (i, t) in terms.iter().enumerate() {
                row[i] = t.pack();
            }
            self.insert_packed(pred, &row[..terms.len()]);
        } else {
            self.table_mut(pred).insert_terms(terms);
            soct_obs::global().db_inserts.inc();
        }
    }

    /// Inserts one pre-packed tuple. The table must exist.
    pub fn insert_packed(&mut self, pred: PredId, row: &[u64]) {
        let table = self
            .tables
            .get_mut(pred.index())
            .and_then(Option::as_mut)
            .expect("table not created");
        let was_empty = table.is_empty();
        table.insert_packed(row);
        soct_obs::global().db_inserts.inc();
        if let Some(cat) = self.shape_catalog.as_mut() {
            let new_shape = cat.on_insert(pred, row);
            if new_shape {
                soct_obs::global().db_shape_updates.inc();
            }
            let table = self.tables[pred.index()].as_ref().unwrap();
            if let Some(fp) = self.live_fp.as_mut() {
                if new_shape {
                    fp.shapes
                        .add(shape_element_hash(table.name(), &Rgs::of_row(row)));
                }
                if was_empty {
                    fp.preds
                        .add(predicate_element_hash(table.name(), table.arity()));
                }
                if new_shape || was_empty {
                    soct_obs::global().db_fingerprint_updates.inc();
                }
            }
        }
    }

    /// Deletes one tuple of terms (first match). Returns whether a row was
    /// removed. The catalog and fingerprints stay in sync because the
    /// notification fires only for rows that actually left the store.
    pub fn delete(&mut self, pred: PredId, terms: &[Term]) -> bool {
        // Safe by the MAX_ARITY contract `Schema::add_predicate` enforces.
        let mut row = [0u64; MAX_ARITY];
        for (i, t) in terms.iter().enumerate() {
            row[i] = t.pack();
        }
        self.delete_packed(pred, &row[..terms.len()])
    }

    /// Deletes one pre-packed tuple (first match; swap-remove inside the
    /// page arena, so it is O(scan) to find and O(1) to remove). Returns
    /// whether a row was removed; a missing table, arity mismatch, or
    /// absent tuple is a clean `false`, never a desync. If the catalog
    /// nevertheless reports a shape it cannot reconcile, tracking is
    /// rebuilt from a full scan on the spot ([`StorageEngine::catalog_rebuilds`]
    /// counts these) — the catalog is never left silently wrong.
    pub fn delete_packed(&mut self, pred: PredId, row: &[u64]) -> bool {
        let Some(table) = self.tables.get_mut(pred.index()).and_then(Option::as_mut) else {
            return false;
        };
        if row.len() != table.arity() || !table.delete_first_match(row) {
            return false;
        }
        soct_obs::global().db_deletes.inc();
        if self.shape_catalog.is_some() {
            let table = self.tables[pred.index()].as_ref().unwrap();
            let now_empty = table.is_empty();
            let cat = self.shape_catalog.as_mut().unwrap();
            match cat.on_delete(pred, row) {
                Some(shape_vanished) => {
                    if shape_vanished {
                        soct_obs::global().db_shape_updates.inc();
                    }
                    if let Some(fp) = self.live_fp.as_mut() {
                        if shape_vanished {
                            fp.shapes
                                .remove(shape_element_hash(table.name(), &Rgs::of_row(row)));
                        }
                        if now_empty {
                            fp.preds
                                .remove(predicate_element_hash(table.name(), table.arity()));
                        }
                        if shape_vanished || now_empty {
                            soct_obs::global().db_fingerprint_updates.inc();
                        }
                    }
                }
                None => self.rebuild_tracking(),
            }
        }
        true
    }

    /// Turns on the materialised shape catalog (§10 future work). Existing
    /// rows are scanned once; every later insert and delete maintains the
    /// catalog — and the live db fingerprints — incrementally, collapsing
    /// `FindShapes` to a constant-time catalog read and cache revalidation
    /// to a fingerprint comparison.
    pub fn enable_shape_tracking(&mut self) {
        if self.shape_catalog.is_none() {
            let cat = ShapeCatalog::build(self);
            self.live_fp = Some(self.build_fingerprints(&cat));
            self.shape_catalog = Some(cat);
        }
    }

    /// Recomputes both fingerprint accumulators from a catalog + the table
    /// directory — the rebuild-from-scratch form the incremental path must
    /// stay bit-identical to.
    fn build_fingerprints(&self, cat: &ShapeCatalog) -> LiveFingerprints {
        let mut shapes = SetFingerprint::shapes();
        for sh in cat.shapes() {
            let name = self.table(sh.pred).map_or("", Table::name);
            shapes.add(shape_element_hash(name, &sh.rgs));
        }
        let mut preds = SetFingerprint::predicates();
        for (_, t) in self.tables() {
            if !t.is_empty() {
                preds.add(predicate_element_hash(t.name(), t.arity()));
            }
        }
        LiveFingerprints { shapes, preds }
    }

    /// Recovery path for a detected catalog desync: one full scan rebuilds
    /// catalog and fingerprints, restoring the in-sync invariant.
    fn rebuild_tracking(&mut self) {
        self.catalog_rebuilds += 1;
        soct_obs::global().db_catalog_rebuilds.inc();
        let cat = ShapeCatalog::build(self);
        self.live_fp = Some(self.build_fingerprints(&cat));
        self.shape_catalog = Some(cat);
    }

    /// The materialised shape catalog, if tracking is enabled.
    pub fn shape_catalog(&self) -> Option<&ShapeCatalog> {
        self.shape_catalog.as_ref()
    }

    /// The live shape-set fingerprint — the db-dependent cache key for
    /// linear rulesets — if tracking is enabled. Bit-identical to
    /// `fingerprint_shapes` over the current shape set.
    pub fn shape_fingerprint(&self) -> Option<Fingerprint> {
        self.live_fp.as_ref().map(|f| f.shapes.finish())
    }

    /// The live non-empty-predicate fingerprint — the db-dependent cache
    /// key for simple-linear and general rulesets — if tracking is enabled.
    /// Bit-identical to `fingerprint_predicates` over the current non-empty
    /// relations.
    pub fn predicate_fingerprint(&self) -> Option<Fingerprint> {
        self.live_fp.as_ref().map(|f| f.preds.finish())
    }

    /// Number of full catalog rebuilds forced by detected desyncs (0 when
    /// every write went through the engine API).
    pub fn catalog_rebuilds(&self) -> u64 {
        self.catalog_rebuilds
    }

    /// Bulk-loads an instance (tables are created on the fly, named after
    /// the schema).
    pub fn load_instance(&mut self, schema: &soct_model::Schema, instance: &Instance) {
        for a in instance.atoms() {
            self.create_table(a.pred, schema.name(a.pred), a.arity());
            self.insert(a.pred, &a.terms);
        }
    }

    /// All created tables with their predicates.
    pub fn tables(&self) -> impl Iterator<Item = (PredId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (PredId(i as u32), t)))
    }

    pub(crate) fn tables_mut_for_load(&mut self) -> &mut Vec<Option<Table>> {
        &mut self.tables
    }

    /// Opens (or creates) a durable database directory with the default
    /// production I/O and the strictest sync policy: the last snapshot
    /// is loaded, the write-ahead log replayed (torn tail truncated at
    /// the first bad checksum), and catalog + fingerprints rebuilt
    /// bit-identical to an engine that never crashed. See
    /// [`crate::wal::open_durable`] for the injectable-I/O form.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<crate::wal::DurableDb> {
        crate::wal::open_durable(
            dir,
            crate::wal::SyncPolicy::Always,
            Box::new(crate::wal::RealIo::new()),
        )
    }
}

impl TupleSource for StorageEngine {
    fn non_empty_predicates(&self) -> Vec<PredId> {
        // Catalog metadata only: no data pages are touched (§5.3 step 1).
        self.tables()
            .filter(|(_, t)| !t.is_empty())
            .map(|(p, _)| p)
            .collect()
    }

    fn arity_of(&self, pred: PredId) -> usize {
        self.table(pred).map(Table::arity).unwrap_or(0)
    }

    fn row_count(&self, pred: PredId) -> u64 {
        self.table(pred).map(Table::row_count).unwrap_or(0)
    }

    fn scan(&self, pred: PredId, f: &mut dyn FnMut(&[u64]) -> bool) -> bool {
        match self.table(pred) {
            Some(t) => t.for_each_row(f),
            None => true,
        }
    }

    fn exists_where(&self, pred: PredId, conds: &[ColumnCondition]) -> bool {
        self.table(pred)
            .is_some_and(|t| query::exists(t, conds, u64::MAX))
    }
}

/// [`TupleSource`] over a plain in-memory [`Instance`] — the storage-free
/// path used by unit tests and small examples.
pub struct InstanceSource<'a> {
    instance: &'a Instance,
    schema: &'a soct_model::Schema,
}

impl<'a> InstanceSource<'a> {
    pub fn new(schema: &'a soct_model::Schema, instance: &'a Instance) -> Self {
        InstanceSource { instance, schema }
    }
}

impl TupleSource for InstanceSource<'_> {
    fn non_empty_predicates(&self) -> Vec<PredId> {
        self.instance.non_empty_predicates()
    }

    fn arity_of(&self, pred: PredId) -> usize {
        self.schema.arity(pred)
    }

    fn row_count(&self, pred: PredId) -> u64 {
        self.instance.atoms_of(pred).len() as u64
    }

    fn scan(&self, pred: PredId, f: &mut dyn FnMut(&[u64]) -> bool) -> bool {
        // Safe by the MAX_ARITY contract `Schema::add_predicate` enforces.
        let mut row = [0u64; MAX_ARITY];
        for &idx in self.instance.atoms_of(pred) {
            let atom = self.instance.atom(idx);
            for (i, t) in atom.terms.iter().enumerate() {
                row[i] = t.pack();
            }
            if !f(&row[..atom.arity()]) {
                return false;
            }
        }
        true
    }

    fn exists_where(&self, pred: PredId, conds: &[ColumnCondition]) -> bool {
        let mut found = false;
        self.scan(pred, &mut |row| {
            if query::eval_all(conds, row) {
                found = true;
                false
            } else {
                true
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::{Atom, ConstId, Schema};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    #[test]
    fn create_insert_scan() {
        let mut e = StorageEngine::new();
        let p = PredId(0);
        e.create_table(p, "r", 2);
        e.insert(p, &[c(1), c(2)]);
        e.insert(p, &[c(3), c(3)]);
        assert_eq!(e.row_count(p), 2);
        let mut rows = Vec::new();
        e.scan(p, &mut |row| {
            rows.push(row.to_vec());
            true
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(Term::unpack(rows[0][0]), Some(c(1)));
    }

    #[test]
    fn catalog_lists_only_non_empty() {
        let mut e = StorageEngine::new();
        e.create_table(PredId(0), "r", 2);
        e.create_table(PredId(3), "s", 1);
        e.insert(PredId(3), &[c(0)]);
        assert_eq!(e.non_empty_predicates(), vec![PredId(3)]);
    }

    #[test]
    fn exists_where_answers_eq_and_ne() {
        let mut e = StorageEngine::new();
        e.create_table(PredId(0), "r", 2);
        e.insert(PredId(0), &[c(1), c(1)]);
        assert!(e.exists_where(PredId(0), &[ColumnCondition::Eq(0, 1)]));
        assert!(!e.exists_where(PredId(0), &[ColumnCondition::Ne(0, 1)]));
    }

    #[test]
    fn delete_removes_one_witness() {
        let mut e = StorageEngine::new();
        let p = PredId(0);
        e.create_table(p, "r", 2);
        e.insert(p, &[c(1), c(2)]);
        e.insert(p, &[c(1), c(2)]);
        assert!(e.delete(p, &[c(1), c(2)]));
        assert_eq!(e.row_count(p), 1, "duplicates go one at a time");
        assert!(e.delete(p, &[c(1), c(2)]));
        assert!(!e.delete(p, &[c(1), c(2)]), "gone");
        assert!(!e.delete(PredId(9), &[c(1)]), "missing table is a miss");
        assert!(!e.delete(p, &[c(1)]), "arity mismatch is a miss");
    }

    #[test]
    fn live_fingerprints_track_distinct_sets() {
        use soct_model::{fingerprint_predicates, fingerprint_shapes, Schema, Shape};
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let s = schema.add_predicate("s", 2).unwrap();
        let mut e = StorageEngine::new();
        e.create_table(r, "r", 2);
        e.create_table(s, "s", 2);
        e.insert(r, &[c(1), c(2)]);
        e.enable_shape_tracking();
        let fp0 = e.shape_fingerprint().unwrap();
        let pfp0 = e.predicate_fingerprint().unwrap();
        // A shape-preserving insert changes nothing.
        e.insert(r, &[c(8), c(9)]);
        assert_eq!(e.shape_fingerprint().unwrap(), fp0);
        assert_eq!(e.predicate_fingerprint().unwrap(), pfp0);
        // A new shape moves the shape fp but not the predicate fp.
        e.insert(r, &[c(3), c(3)]);
        let fp1 = e.shape_fingerprint().unwrap();
        assert_ne!(fp1, fp0);
        assert_eq!(e.predicate_fingerprint().unwrap(), pfp0);
        // Populating a fresh relation moves both.
        e.insert(s, &[c(4), c(5)]);
        assert_ne!(e.predicate_fingerprint().unwrap(), pfp0);
        // Deleting back to the original state restores both bit-exactly.
        assert!(e.delete(s, &[c(4), c(5)]));
        assert!(e.delete(r, &[c(3), c(3)]));
        assert_eq!(e.shape_fingerprint().unwrap(), fp0);
        assert_eq!(e.predicate_fingerprint().unwrap(), pfp0);
        // And both maintained fps equal the rebuild-from-scratch forms.
        assert_eq!(
            fp0,
            fingerprint_shapes(
                &schema,
                &[Shape {
                    pred: r,
                    rgs: soct_model::Rgs::identity(2)
                }]
            )
        );
        assert_eq!(pfp0, fingerprint_predicates(&schema, &[r]));
        assert_eq!(e.catalog_rebuilds(), 0);
    }

    #[test]
    fn load_instance_round_trips() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 2).unwrap();
        let mut inst = Instance::new();
        inst.insert(Atom::new(&schema, r, vec![c(0), c(1)]).unwrap());
        inst.insert(Atom::new(&schema, r, vec![c(1), c(1)]).unwrap());
        let mut e = StorageEngine::new();
        e.load_instance(&schema, &inst);
        assert_eq!(e.row_count(r), 2);
        assert_eq!(e.total_rows(), 2);
        assert_eq!(e.table(r).unwrap().name(), "r");
    }

    #[test]
    fn instance_source_agrees_with_engine() {
        let mut schema = Schema::new();
        let r = schema.add_predicate("r", 3).unwrap();
        let mut inst = Instance::new();
        inst.insert(Atom::new(&schema, r, vec![c(0), c(0), c(1)]).unwrap());
        let mut e = StorageEngine::new();
        e.load_instance(&schema, &inst);
        let src = InstanceSource::new(&schema, &inst);
        let conds = [ColumnCondition::Eq(0, 1), ColumnCondition::Ne(0, 2)];
        assert_eq!(
            src.exists_where(r, &conds),
            TupleSource::exists_where(&e, r, &conds)
        );
        assert_eq!(src.row_count(r), e.row_count(r));
        assert_eq!(src.non_empty_predicates(), e.non_empty_predicates());
    }
}
