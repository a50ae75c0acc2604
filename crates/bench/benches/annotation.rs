//! Annotation throughput: "if done naively, this step could dominate
//! the extraction costs" (§III-B). Measures recognizer matching over
//! cleaned pages and the full Algorithm 1 sample selection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use objectrunner_bench::bench_source;
use objectrunner_core::annotate::{
    annotate_page, propagate_upwards_into, AnnotationMap, Annotator,
};
use objectrunner_core::sample::{select_sample, SampleConfig, SampleStrategy};
use objectrunner_html::{clean_document, parse, CleanOptions, Document};
use objectrunner_webgen::{knowledge, Domain};
use std::hint::black_box;

fn docs_for(domain: Domain) -> Vec<Document> {
    bench_source(domain, 20)
        .pages
        .iter()
        .map(|h| {
            let mut d = parse(h);
            clean_document(&mut d, &CleanOptions::default());
            d
        })
        .collect()
}

fn annotate(c: &mut Criterion) {
    let mut group = c.benchmark_group("annotation");
    for domain in [Domain::Concerts, Domain::Books] {
        let docs = docs_for(domain);
        let recognizers = knowledge::recognizers_for(domain, 0.2);
        group.bench_with_input(
            BenchmarkId::new("annotate_20_pages", domain.name()),
            &docs,
            |b, docs| {
                b.iter(|| {
                    for doc in docs {
                        black_box(annotate_page(doc.clone(), &recognizers));
                    }
                });
            },
        );
    }
    group.finish();
}

/// Compiled engine vs the naive path above (`annotate_20_pages`), and
/// cold vs warm memo cache: `compiled_cold` rebuilds the `Annotator`
/// (and so re-matches every unique text) each iteration, while
/// `compiled_warm` reuses one annotator so every text is a memo hit.
fn compiled(c: &mut Criterion) {
    let mut group = c.benchmark_group("annotation_compiled");
    for domain in [Domain::Concerts, Domain::Books] {
        let docs = docs_for(domain);
        let recognizers = knowledge::recognizers_for(domain, 0.2);
        let annotate_all = |annotator: &Annotator, docs: &[Document]| {
            let types = recognizers.annotation_order();
            for doc in docs {
                let mut map = AnnotationMap::new();
                annotator.annotate_types_into(doc, &mut map, &types);
                propagate_upwards_into(doc, &mut map);
                black_box(&map);
            }
        };
        group.bench_with_input(
            BenchmarkId::new("compiled_cold", domain.name()),
            &docs,
            |b, docs| {
                b.iter(|| annotate_all(&Annotator::new(&recognizers), docs));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_warm", domain.name()),
            &docs,
            |b, docs| {
                let annotator = Annotator::new(&recognizers);
                annotate_all(&annotator, docs); // prime the memo
                b.iter(|| annotate_all(&annotator, docs));
            },
        );
    }
    group.finish();
}

fn sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_selection");
    group.sample_size(10);
    for strategy in [SampleStrategy::SodBased, SampleStrategy::Random(7)] {
        let docs = docs_for(Domain::Albums);
        let recognizers = knowledge::recognizers_for(Domain::Albums, 0.2);
        let sod = Domain::Albums.sod();
        let label = match strategy {
            SampleStrategy::SodBased => "sod_based",
            SampleStrategy::Random(_) => "random",
        };
        group.bench_function(BenchmarkId::new("algorithm1", label), |b| {
            b.iter(|| {
                black_box(
                    select_sample(
                        &docs,
                        &recognizers,
                        &Annotator::new(&recognizers),
                        &sod,
                        &SampleConfig {
                            sample_size: 10,
                            ..SampleConfig::default()
                        },
                        strategy,
                    )
                    .expect("sample"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, annotate, compiled, sampling);
criterion_main!(benches);
