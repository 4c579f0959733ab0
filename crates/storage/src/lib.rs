//! # soct-storage
//!
//! The embedded relational storage engine standing in for the PostgreSQL
//! instance of the paper's testbed (§6, §9): paged fixed-width tables of
//! packed-term words, a catalog answering the non-empty-relations query
//! without touching data (§5.3), early-exit EXISTS queries with
//! equality/disequality column conditions, Apriori-pruned shape discovery
//! over the partition lattice (§5.4), first-k-rows views (the `D^s_Σ`
//! virtual databases of §8.1), and binary persistence.
//!
//! The [`TupleSource`] trait is the narrow interface the termination
//! checkers consume; engines, views, and plain instances all implement it.
//!
//! Durability lives in [`wal`]: a checksummed, segment-rotated
//! write-ahead log with checkpointing into the [`persist`] snapshot
//! format, crash recovery via [`StorageEngine::open_durable`], and a
//! fault-injection harness ([`wal::FaultyIo`]) proving the
//! acked-prefix recovery contract.

pub mod engine;
pub mod page;
pub mod persist;
pub mod query;
pub mod shape_catalog;
pub mod shape_query;
pub mod table;
pub mod view;
pub mod wal;

pub use engine::{InstanceSource, StorageEngine, TupleSource};
pub use page::{Page, PAGE_SIZE};
pub use query::{render_exists_sql, ColumnCondition};
pub use shape_catalog::ShapeCatalog;
pub use shape_query::{
    find_shapes_apriori, find_shapes_exhaustive, shape_conditions, shape_eq_conditions,
    ShapeQueryStats,
};
pub use table::Table;
pub use view::LimitView;
pub use wal::{
    open_durable, DurableDb, Fault, FaultyIo, RealIo, RecoveryReport, SyncPolicy, Wal, WalEntry,
    WalIo,
};
