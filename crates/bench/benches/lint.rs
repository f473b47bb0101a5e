//! Lint-engine throughput: the per-script cost of running all signature
//! rules over an already-parsed and flow-analyzed program (this is the
//! marginal cost the lint features add to `jsdetect_features::analyze`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jsdetect::Technique;
use jsdetect_bench::fixture_script;
use jsdetect_flow::analyze;
use jsdetect_lint::LintRunner;
use jsdetect_parser::parse;

fn bench_lint(c: &mut Criterion) {
    let regular = fixture_script();
    let obfuscated = jsdetect_transform::apply(
        &regular,
        &[Technique::ControlFlowFlattening, Technique::GlobalArray, Technique::DeadCodeInjection],
        42,
    )
    .unwrap();
    let runner = LintRunner::default();

    let mut group = c.benchmark_group("lint");
    for (name, src) in [("regular", &regular), ("obfuscated", &obfuscated)] {
        let prog = parse(src).unwrap();
        let graph = analyze(&prog);
        group.throughput(Throughput::Bytes(src.len() as u64));
        group.bench_function(&format!("run_{}", name), |b| {
            b.iter(|| {
                runner.run(
                    std::hint::black_box(src),
                    std::hint::black_box(&prog),
                    std::hint::black_box(&graph),
                )
            })
        });
        group.bench_function(&format!("run_with_summary_{}", name), |b| {
            b.iter(|| {
                runner.run_with_summary(
                    std::hint::black_box(src),
                    std::hint::black_box(&prog),
                    std::hint::black_box(&graph),
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lint
}
criterion_main!(benches);
