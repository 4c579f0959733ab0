//! Allocation gate for rule ingestion: parsing a fixed seeded 1000-rule
//! simple-linear text must stay under a per-rule allocation ceiling.
//!
//! Allocation counts are deterministic, so this gate fails exactly on an
//! allocation regression in the lexer, the parser or `Tgd::from_atoms`,
//! with no dependence on wall time. The counting allocator is per thread,
//! so other tests running in parallel cannot disturb the count.

mod alloc_counter;

use alloc_counter::calls;
use soct::gen::TgdGenConfig;
use soct::model::PredId;
use soct::prelude::*;

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
