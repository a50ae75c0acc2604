//! Streaming-extraction trajectory point (`BENCH_extract.json`).
//!
//! Exercises the crawl-scale path end to end: a Cars wrapper is
//! induced once, two disk corpora are generated with the streaming
//! writer (N/10 and N pages, same template), and both are extracted
//! through `extract_stream` reading `mmap`ed pages from disk. The
//! document records:
//!
//! * `pages_per_sec` — streamed throughput over the big corpus;
//! * `rss_flat_ok` — `VmHWM` after the 10× corpus must sit within a
//!   fixed budget of `VmHWM` after the small one. The high-water mark
//!   is monotonic, so any O(corpus) residency in the big run would
//!   show up as growth here;
//! * `stream_equals_batch` — streamed instances, page by page, equal
//!   the materialized `extract_only` path's byte-for-byte;
//! * `automaton_speedup_vs_char_seed` — the compiled byte-level
//!   recognizer engine against the char-level engine this refactor
//!   replaced, on the recorded seed timing of the same workload.
//!
//! Output is one JSON document on stdout; `ci.sh` redirects it into a
//! scratch file and checks the sanity fields, and a recorded 100k-page
//! run is committed as `BENCH_extract.json` at the repository root.

use objectrunner_bench::{bench_config, bench_pipeline, bench_source};
use objectrunner_core::pipeline::extract_only;
use objectrunner_core::{extract_stream, StreamConfig, StreamStats};
use objectrunner_html::{clean_document, parse, CleanOptions, NodeKind};
use objectrunner_knowledge::compiled::{CompiledRecognizerSet, MatchScratch};
use objectrunner_webgen::{knowledge, write_corpus, CorpusDir, Domain, Drift, PageKind, SiteSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `match_all` µs/rep of the char-level engine (the revision this
/// refactor replaced) on the same workload — every text node of the
/// 20-page Cars bench corpus — measured on the reference machine.
const SEED_CHAR_MICROS_PER_REP: f64 = 172.2;

/// Allowed `VmHWM` growth between the small and the 10× run. The big
/// corpus is ~10× the small one on disk (~30 MB vs ~3 MB at the
/// default size), so O(corpus) residency would blow far past this.
const RSS_GROWTH_BUDGET_KB: u64 = 64 * 1024;

/// The process peak resident set, in kB, from `/proc/self/status`
/// (0 where the file does not exist — the flatness check is vacuous
/// off Linux).
fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Stream a corpus directory through the wrapper, counting objects.
fn stream_dir(
    dir: &Path,
    wrapper: &objectrunner_core::wrapper::Wrapper,
    main_block: Option<&objectrunner_segment::MainBlockChoice>,
    clean: &CleanOptions,
) -> StreamStats {
    let corpus = CorpusDir::open(dir).expect("bench corpus opens");
    extract_stream(
        wrapper,
        main_block,
        clean,
        corpus.pages().map(|r| r.expect("bench page maps")),
        &StreamConfig::default(),
        |_, instances| {
            black_box(&instances);
        },
    )
}

/// Best-of-8 × 400 reps of compiled `match_all` over the seed
/// workload's text nodes, in µs per rep.
fn automaton_micros_per_rep() -> f64 {
    let source = bench_source(Domain::Cars, 20);
    let mut texts: Vec<String> = Vec::new();
    for html in &source.pages {
        let mut doc = parse(html);
        clean_document(&mut doc, &CleanOptions::default());
        for id in doc.descendants(doc.root()) {
            if let NodeKind::Text(t) = &doc.node(id).kind {
                texts.push(t.clone());
            }
        }
    }
    let compiled = CompiledRecognizerSet::compile(&knowledge::recognizers_for(Domain::Cars, 0.2));
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    // Warm: touch every memo/code path once before timing.
    for t in &texts {
        compiled.match_all(t, &mut scratch, &mut out);
        black_box(&out);
    }
    // Min over many short rounds: the reference machine drifts between
    // frequency states, and the recorded seed number is a fast-state
    // measurement, so the comparison must capture the fast state too.
    const REPS: usize = 400;
    let mut best = u128::MAX;
    for _ in 0..20 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            for t in &texts {
                compiled.match_all(t, &mut scratch, &mut out);
                black_box(&out);
            }
        }
        best = best.min(t0.elapsed().as_micros());
    }
    best as f64 / REPS as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pages_big: usize = args
        .iter()
        .position(|a| a == "--pages")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let pages_small = (pages_big / 10).max(100);

    // Timed before the corpus work: the engine comparison is the
    // noise-sensitive measurement, so it runs on a quiet machine.
    let automaton = automaton_micros_per_rep();
    let automaton_speedup = SEED_CHAR_MICROS_PER_REP / automaton.max(0.001);
    let automaton_ok = automaton_speedup >= 1.5;

    let scratch: PathBuf =
        std::env::temp_dir().join(format!("objectrunner-bench-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Same template (same name/style/seed) at two corpus sizes: page i
    // is byte-identical across both, only the page count differs.
    let seed = 0xca25;
    let spec_small = SiteSpec::clean(
        "stream-cars",
        Domain::Cars,
        PageKind::List,
        pages_small,
        seed,
    );
    let spec_big = SiteSpec::clean("stream-cars", Domain::Cars, PageKind::List, pages_big, seed);
    let t0 = Instant::now();
    write_corpus(&spec_small, &Drift::NONE, &scratch.join("small")).expect("write small corpus");
    let big_stats =
        write_corpus(&spec_big, &Drift::NONE, &scratch.join("big")).expect("write big corpus");
    let gen_micros = t0.elapsed().as_micros();

    // Induce the wrapper from the corpus' own first pages, so the
    // streamed runs replay exactly the cached-wrapper serving case.
    let sample_corpus = CorpusDir::open(&scratch.join("big")).expect("big corpus opens");
    let sample: Vec<String> = (0..30.min(sample_corpus.len()))
        .map(|i| {
            sample_corpus
                .page(i)
                .expect("sample page")
                .as_str()
                .to_owned()
        })
        .collect();
    let config = bench_config();
    let clean = config.clean.clone();
    let outcome = bench_pipeline(Domain::Cars, config)
        .run_on_html(&sample)
        .expect("bench corpus induces");
    let (wrapper, main_block) = (outcome.wrapper, outcome.main_block);
    drop(sample);

    // VmHWM is monotonic: small first, then the 10× corpus. Flat peak
    // RSS means the second number barely moves.
    let small = stream_dir(
        &scratch.join("small"),
        &wrapper,
        main_block.as_ref(),
        &clean,
    );
    let hwm_small_kb = vmhwm_kb();
    let big = stream_dir(&scratch.join("big"), &wrapper, main_block.as_ref(), &clean);
    let hwm_big_kb = vmhwm_kb();
    let rss_growth_kb = hwm_big_kb.saturating_sub(hwm_small_kb);
    let rss_flat_ok = rss_growth_kb <= RSS_GROWTH_BUDGET_KB;

    // Equality against the materialized path, after the RSS numbers
    // are taken (this deliberately materializes a page vector).
    let eq_corpus = CorpusDir::open(&scratch.join("small")).expect("small corpus opens");
    let eq_pages: Vec<String> = (0..1_000.min(eq_corpus.len()))
        .map(|i| eq_corpus.page(i).expect("eq page").as_str().to_owned())
        .collect();
    let batch = extract_only(&wrapper, main_block.as_ref(), &clean, &eq_pages, None);
    let expect: Vec<Vec<String>> = batch
        .per_page
        .iter()
        .map(|page| page.iter().map(|o| o.to_string()).collect())
        .collect();
    let mut got: Vec<Vec<String>> = Vec::with_capacity(eq_pages.len());
    extract_stream(
        &wrapper,
        main_block.as_ref(),
        &clean,
        eq_pages.iter().map(String::as_str),
        &StreamConfig::default(),
        |_, instances| got.push(instances.iter().map(|o| o.to_string()).collect()),
    );
    let stream_equals_batch = got == expect;

    let _ = std::fs::remove_dir_all(&scratch);

    println!("{{");
    println!("  \"bench\": \"extract_stream\",");
    println!("  \"threads\": {},", big.threads);
    println!("  \"pages_small\": {pages_small},");
    println!("  \"pages_big\": {pages_big},");
    println!("  \"corpus_bytes_big\": {},", big_stats.bytes);
    println!("  \"corpus_gen_micros\": {gen_micros},");
    println!("  \"small_wall_micros\": {},", small.wall_micros);
    println!("  \"big_wall_micros\": {},", big.wall_micros);
    println!("  \"pages_per_sec\": {:.1},", big.pages_per_sec());
    println!("  \"objects\": {},", big.objects);
    println!("  \"vmhwm_after_small_kb\": {hwm_small_kb},");
    println!("  \"vmhwm_after_big_kb\": {hwm_big_kb},");
    println!("  \"rss_growth_kb\": {rss_growth_kb},");
    println!("  \"rss_growth_budget_kb\": {RSS_GROWTH_BUDGET_KB},");
    println!("  \"rss_flat_ok\": {rss_flat_ok},");
    println!("  \"stream_equals_batch\": {stream_equals_batch},");
    println!("  \"automaton_micros_per_rep\": {automaton:.1},");
    println!("  \"seed_char_micros_per_rep\": {SEED_CHAR_MICROS_PER_REP},");
    println!("  \"automaton_speedup_vs_char_seed\": {automaton_speedup:.2},");
    println!("  \"automaton_speedup_ok\": {automaton_ok}");
    println!("}}");
}
