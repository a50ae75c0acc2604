//! E6 — the paper's timing claim (§IV): "the wrapping time of our
//! algorithm ranged from 4 to 9 seconds. Once the wrapper is
//! constructed, the time required to extract the data was negligible."
//!
//! We measure (a) full wrapper generation (annotation + sampling +
//! differentiation + matching) per domain and (b) extraction alone,
//! so the wrapping ≫ extraction relationship can be verified.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use objectrunner_bench::{bench_config, bench_pipeline, bench_source, run_pipeline};
use objectrunner_core::annotate::annotate_page;
use objectrunner_core::tokens::SourceTokens;
use objectrunner_html::{clean_document, parse, CleanOptions};
use objectrunner_webgen::{knowledge, Domain};
use std::hint::black_box;

fn wrapping(c: &mut Criterion) {
    let mut group = c.benchmark_group("wrapping_time");
    group.sample_size(10);
    for domain in Domain::ALL {
        let source = bench_source(domain, 30);
        group.bench_with_input(
            BenchmarkId::new("wrap", domain.name()),
            &source,
            |b, source| {
                b.iter(|| {
                    let pipeline = bench_pipeline(domain, bench_config());
                    black_box(pipeline.run_on_html(&source.pages).expect("wraps"))
                });
            },
        );
    }
    group.finish();
}

fn extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("extraction_time");
    group.sample_size(10);
    for domain in [Domain::Cars, Domain::Concerts, Domain::Books] {
        let source = bench_source(domain, 30);
        let outcome = run_pipeline(domain, &source, bench_config());
        let docs: Vec<_> = source
            .pages
            .iter()
            .map(|h| {
                let mut d = parse(h);
                clean_document(&mut d, &CleanOptions::default());
                d
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("extract_30_pages", domain.name()),
            &docs,
            |b, docs| {
                b.iter(|| black_box(outcome.wrapper.extract_source(docs)));
            },
        );
    }
    group.finish();
}

/// Microbench for the interned identity layer: (a) tokenize = parse +
/// clean 30 pages (tag/attribute names are interned to `Symbol`s inside
/// the tokenizer), (b) role assignment = `SourceTokens::from_pages`,
/// which streams every page and interns each `(token, PathId)` dtoken
/// into the role table — the pure-integer hot path of Algorithm 2.
fn tokenize_and_roles(c: &mut Criterion) {
    let mut group = c.benchmark_group("tokenize_and_roles");
    for domain in [Domain::Cars, Domain::Concerts, Domain::Books] {
        let source = bench_source(domain, 30);
        group.bench_with_input(
            BenchmarkId::new("tokenize_30_pages", domain.name()),
            &source,
            |b, source| {
                b.iter(|| {
                    for html in &source.pages {
                        let mut d = parse(html);
                        clean_document(&mut d, &CleanOptions::default());
                        black_box(&d);
                    }
                });
            },
        );
        let recognizers = knowledge::recognizers_for(domain, 0.2);
        let pages: Vec<_> = source
            .pages
            .iter()
            .map(|h| {
                let mut d = parse(h);
                clean_document(&mut d, &CleanOptions::default());
                annotate_page(d, &recognizers)
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("role_assignment_30_pages", domain.name()),
            &pages,
            |b, pages| {
                b.iter(|| black_box(SourceTokens::from_pages(pages)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, wrapping, extraction, tokenize_and_roles);
criterion_main!(benches);
