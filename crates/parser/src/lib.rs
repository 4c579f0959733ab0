//! # soct-parser
//!
//! Text format for existential-rule programs: a fast byte-level lexer, a
//! recursive-descent parser, and a writer that round-trips. The format is
//! DLGP-flavoured: `body -> head.` (or Datalog-oriented `head :- body.`),
//! facts `r(a,b).`, implicit existential quantification of head-only
//! variables, `%`/`#` line comments.
//!
//! Parsing speed matters: `t-parse` is one of the time parameters the paper
//! reports for rule sets of up to one million TGDs (§7).
//!
//! What a parse allocates: the lexer nothing; the parser one set of
//! buffers per call (variable map, atom vector, argument buffer), reused
//! for every statement; and per rule only what its [`soct_model::Tgd`]
//! keeps — the atom slice and one argument tuple per atom, each at exact
//! length, and the frontier/existential slice. A single-head
//! simple-linear rule costs four allocations (and one shrinking
//! reallocation when its head repeats a variable); new predicates and
//! constants add their schema and interner entries.
//! `tests/parse_allocs.rs` gates the count.

pub mod error;
pub mod lexer;
pub mod parser;
pub mod writer;

pub use error::{ParseError, ParseErrorKind};
pub use parser::{parse_facts, parse_into, parse_tgds, Program};
pub use writer::{write_facts, write_program, write_tgd, write_tgds};
