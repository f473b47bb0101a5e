//! Front-end throughput: tokenize, parse, print, flow analysis, and
//! feature extraction (the per-script cost that dominates the paper's
//! large-scale study).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jsdetect_bench::fixture_script;
use jsdetect_features::{analyze, Limits};
use jsdetect_parser::parse;

fn bench_frontend(c: &mut Criterion) {
    let src = fixture_script();
    let prog = parse(&src).unwrap();

    let mut group = c.benchmark_group("frontend");
    group.throughput(Throughput::Bytes(src.len() as u64));

    group.bench_function("tokenize", |b| {
        b.iter(|| jsdetect_lexer::tokenize(std::hint::black_box(&src)).unwrap())
    });
    group.bench_function("parse", |b| b.iter(|| parse(std::hint::black_box(&src)).unwrap()));
    group.bench_function("print_pretty", |b| {
        b.iter(|| jsdetect_codegen::to_source(std::hint::black_box(&prog)))
    });
    group.bench_function("print_minified", |b| {
        b.iter(|| jsdetect_codegen::to_minified(std::hint::black_box(&prog)))
    });
    group.bench_function("flow_analysis", |b| {
        b.iter(|| jsdetect_flow::analyze(std::hint::black_box(&prog)))
    });
    let limits = Limits::trusted();
    group.bench_function("full_analysis", |b| {
        b.iter(|| analyze(std::hint::black_box(&src), &limits).into_ok().unwrap())
    });
    group.bench_function("ngram_counts", |b| {
        b.iter(|| jsdetect_features::ngram_counts(std::hint::black_box(&prog)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_frontend
}
criterion_main!(benches);
