//! # soct-core
//!
//! The paper's primary contribution, rebuilt: the practical semi-oblivious
//! chase termination checkers `IsChaseFinite[SL]` (Algorithm 1) and
//! `IsChaseFinite[L]` (Algorithm 3), with the `FindShapes` procedure in its
//! in-memory and in-database incarnations, `DynSimplification`
//! (Algorithm 2), the timing instrumentation behind every figure of §7–§9,
//! and the materialization-based oracle used for cross-validation.
//!
//! [`check_termination`] is the one checker entry point. It reads the
//! database through a [`DbView`] (an in-memory instance or a storage
//! engine), and [`CheckOpts`] picks the `FindShapes` mode, the worker
//! threads, and an optional [`VerdictCache`] in front. `FindShapes` and the
//! linear checker's shape phase can fan their per-relation work out over
//! worker threads ([`find_shapes_parallel`], [`is_chase_finite_l_parallel`]);
//! results are identical to the sequential functions for every thread
//! count.

#![warn(missing_docs)]

pub mod cache;
pub mod check_l;
pub mod check_sl;
pub mod dynsimpl;
pub mod find_shapes;
pub mod oracle;
pub mod timings;

pub use cache::{CacheKey, CacheReport, CacheStats, VerdictCache, LIVE_DB_DOMAIN};
pub use check_l::{
    check_l_with_shapes, is_chase_finite_l, is_chase_finite_l_parallel, LCheckReport,
};
pub use check_sl::{
    derivable_predicates, is_chase_finite_sl, is_chase_finite_sl_text, SlCheckReport,
};
pub use dynsimpl::{dyn_simplification, DynSimplification};
pub use find_shapes::{
    find_shapes, find_shapes_in_database, find_shapes_in_memory, find_shapes_materialized,
    find_shapes_parallel, FindShapesMode, ShapesReport,
};
pub use oracle::{
    check_termination, materialization_check, CheckOpts, DbView, TerminationReport, Verdict,
};
pub use timings::{ms, CacheTimings, LTimings, SlTimings};
