//! Allocation gate for rule ingestion: parsing a fixed seeded 1000-rule
//! simple-linear text must stay under a per-rule allocation ceiling.
//!
//! Allocation counts are deterministic, so this gate fails exactly on an
//! allocation regression in the lexer, the parser or `Tgd::from_atoms`,
//! with no dependence on wall time. The counting allocator is per thread,
//! so other tests running in parallel cannot disturb the count.

#![allow(unsafe_code)] // the counting allocator below forwards to `System`

use soct::gen::TgdGenConfig;
use soct::model::PredId;
use soct::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocator calls (alloc, zeroed alloc, realloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local cell,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

const RULES: usize = 1000;

/// Allocator calls per parsed rule, measured at 4.684 on this input. A
/// single-head simple-linear rule keeps four heap blocks: its atom slice,
/// the body's and the head's argument tuples, and its variable slice,
/// which is shrunk once more when the head repeats a variable (about half
/// the rules here). The rest is amortised growth of the output vector,
/// the schema and the parser's reused buffers, shared by all rules.
const CEILING: f64 = 4.9;

/// The fixed input: 1000 simple-linear rules over 50 predicates of arity
/// 1–5 (the §7.1 generator defaults), written by the canonical writer.
fn sl_text() -> String {
    let mut schema = Schema::new();
    let preds: Vec<PredId> = (0..50)
        .map(|i| schema.add_predicate(&format!("p{i}"), 1 + i % 5).unwrap())
        .collect();
    let cfg = TgdGenConfig::new(preds.len(), RULES, TgdClass::SimpleLinear, 0x5eed);
    let tgds = soct::gen::generate_tgds(&cfg, &schema, &preds);
    soct::parser::write_tgds(&tgds, &schema, &Interner::new())
}

#[test]
fn parsing_sl_rules_stays_under_the_allocation_ceiling() {
    let text = sl_text();
    let mut schema = Schema::new();
    let mut consts = Interner::new();
    let before = calls();
    let tgds = parse_tgds(&text, &mut schema, &mut consts).unwrap();
    let per_rule = (calls() - before) as f64 / RULES as f64;
    assert_eq!(tgds.len(), RULES);
    assert_eq!(
        soct::parser::write_tgds(&tgds, &schema, &consts),
        text,
        "the parse must round-trip"
    );
    assert!(
        per_rule <= CEILING,
        "parsing took {per_rule:.3} allocator calls per rule, ceiling {CEILING}"
    );
}
