//! `t-parse`: parser throughput over generated SL rule sets (§7 reports
//! parse time as one of the time parameters for rule sets up to 1M TGDs).
//!
//! Each iteration parses one set from text into a fresh schema, so it
//! times the lexer, the parser's reused buffers, schema interning and
//! `Tgd::from_atoms` — four allocations per single-head simple-linear
//! rule (atom slice, two argument tuples, variable slice; see the
//! `soct_parser` crate docs). Allocation counts are gated exactly by
//! `tests/parse_allocs.rs`; this bench reports the time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soct_gen::profiles::Scale;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let scale = Scale::quick();
    let (_schema, sets) = soct_bench::sl_family(&scale, 11);
    let mut group = c.benchmark_group("parse_throughput");
    // Unlike fig1 (which isolates one predicate profile to match the
    // paper's figure), parse time depends only on text size — measure
    // every generated set rather than discarding two-thirds of them.
    for set in sets.iter() {
        group.throughput(criterion::Throughput::Elements(set.n_rules as u64));
        group.bench_with_input(
            BenchmarkId::new("t-parse", set.n_rules),
            &set.text,
            |b, text| {
                b.iter(|| {
                    let mut schema = soct_model::Schema::new();
                    let mut consts = soct_model::Interner::new();
                    soct_parser::parse_tgds(std::hint::black_box(text), &mut schema, &mut consts)
                        .unwrap()
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));
    targets = bench
}
criterion_main!(benches);
