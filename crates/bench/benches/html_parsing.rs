//! Substrate throughput: tokenizer, tolerant DOM builder, cleaner, and
//! the VIPS-style layout/segmentation pass.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use objectrunner_bench::bench_source;
use objectrunner_html::{clean_document, parse, to_html, CleanOptions, EventTokenizer};
use objectrunner_segment::{block_tree, layout_document, LayoutOptions};
use objectrunner_webgen::Domain;
use std::hint::black_box;

fn substrate(c: &mut Criterion) {
    let page = bench_source(Domain::Books, 1).pages.remove(0);
    let bytes = page.len() as u64;

    let mut group = c.benchmark_group("html_substrate");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("tokenize", |b| {
        b.iter(|| {
            let mut tokenizer = EventTokenizer::new(&page);
            let mut events = 0usize;
            while let Some(event) = tokenizer.next_event() {
                black_box(event);
                events += 1;
            }
            events
        })
    });
    group.bench_function("parse", |b| b.iter(|| black_box(parse(&page))));
    group.bench_function("parse_and_clean", |b| {
        b.iter(|| {
            let mut doc = parse(&page);
            clean_document(&mut doc, &CleanOptions::default());
            black_box(doc)
        })
    });
    let doc = parse(&page);
    group.bench_function("serialize", |b| {
        b.iter(|| black_box(to_html(&doc, doc.root())))
    });
    group.bench_function("layout_and_blocks", |b| {
        let opts = LayoutOptions::default();
        b.iter(|| {
            let layout = layout_document(&doc, &opts);
            black_box(block_tree(&doc, &layout, &opts))
        })
    });
    group.finish();
}

criterion_group!(benches, substrate);
criterion_main!(benches);
