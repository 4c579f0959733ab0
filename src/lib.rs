//! # soct — Semi-Oblivious Chase Termination for Linear Existential Rules
//!
//! A Rust implementation of the algorithms, infrastructure, and experiments
//! of *“Semi-Oblivious Chase Termination for Linear Existential Rules: An
//! Experimental Study”* (Calautti, Milani, Pieris; VLDB 2023).
//!
//! This facade crate re-exports the workspace:
//!
//! - [`model`] — terms, atoms, schemas, TGDs, instances, homomorphisms,
//!   shapes, simplification;
//! - [`parser`] — the rule/fact text format;
//! - [`storage`] — the embedded relational engine (catalog, shape queries,
//!   views, persistence);
//! - [`graph`] — dependency graphs, special SCCs, supportedness;
//! - [`chase`] — oblivious / semi-oblivious / restricted chase engines
//!   over the packed columnar [`chase::ChaseStore`] layer (in-memory and
//!   storage-backed), size bounds, the materialization-based checker;
//! - [`core`] — `IsChaseFinite[SL]`, `IsChaseFinite[L]`, `FindShapes`,
//!   `DynSimplification`;
//! - [`gen`] — data/TGD generators, experiment profiles, scenarios;
//! - [`serve`] — the checkers as a long-running HTTP service with a
//!   fingerprint-keyed verdict cache, plus the matching client.
//!
//! ## Quickstart
//!
//! ```
//! use soct::prelude::*;
//!
//! let program = Program::parse(
//!     "person(X) -> hasAdvisor(X, Y).\n\
//!      hasAdvisor(X, Y) -> person(Y).\n\
//!      person(alice).",
//! )
//! .unwrap();
//! let report = check_termination(
//!     &program.schema,
//!     &program.tgds,
//!     &program.database,
//!     FindShapesMode::InMemory,
//! );
//! assert_eq!(report.verdict, Verdict::Infinite); // advisors all the way up
//! ```

pub use soct_chase as chase;
pub use soct_core as core;
pub use soct_gen as gen;
pub use soct_graph as graph;
pub use soct_model as model;
pub use soct_obs as obs;
pub use soct_parser as parser;
pub use soct_serve as serve;
pub use soct_storage as storage;

/// The most common imports in one place.
pub mod prelude {
    pub use soct_chase::{
        resolve_threads, run_chase, run_chase_columnar, run_chase_on_engine, ChaseConfig,
        ChaseOutcome, ChaseResult, ChaseStore, ChaseVariant, ColumnarStore, MaterializationVerdict,
    };
    pub use soct_core::{
        check_termination, find_shapes, find_shapes_parallel, is_chase_finite_l,
        is_chase_finite_l_parallel, is_chase_finite_sl, materialization_check, CheckOpts, DbView,
        FindShapesMode, Verdict, VerdictCache,
    };
    pub use soct_graph::{find_special_sccs, DependencyGraph};
    pub use soct_model::{
        fingerprint_instance_shapes, fingerprint_predicates, fingerprint_ruleset,
        fingerprint_shapes, Atom, ConstId, Database, Fingerprint, Instance, Interner, NullId, Rgs,
        Schema, SetFingerprint, Shape, Term, Tgd, TgdClass, VarId,
    };
    pub use soct_parser::{parse_facts, parse_tgds, write_program, Program};
    pub use soct_storage::{InstanceSource, LimitView, StorageEngine, TupleSource};
}
