//! Peak RSS of `extract_stream` stays flat as the corpus grows.
//!
//! A Cars wrapper is induced once, then two disk corpora of the same
//! template — N/10 and N pages, N = 10 000 — are streamed through
//! `extract_stream`, reading pages lazily from disk. `VmHWM` (the
//! process's peak resident set) is monotonic, so any residency that
//! grows with the corpus shows up as growth between the two reads.
//! The bounds: growth under half the big corpus's bytes (about 5 MB,
//! so holding the corpus's pages fails) and never over 64 MB, and a
//! peak under 256 MB.
//!
//! `VmHWM` covers the whole process, so this file holds one test and
//! nothing else runs beside it. The bounds were set on release builds;
//! run it with `cargo test --release --test stream_rss`.

use objectrunner::core::pipeline::{Pipeline, PipelineConfig};
use objectrunner::core::sample::SampleConfig;
use objectrunner::core::wrapper::Wrapper;
use objectrunner::core::{extract_stream, StreamConfig};
use objectrunner::html::CleanOptions;
use objectrunner::segment::MainBlockChoice;
use objectrunner::webgen::{knowledge, write_corpus, CorpusDir, Domain, Drift, PageKind, SiteSpec};
use std::path::Path;

const PAGES: usize = 10_000;
/// Cap on the allowed `VmHWM` growth from the small run to the 10× run.
const GROWTH_CAP_KB: u64 = 64 * 1024;
const PEAK_CEILING_KB: u64 = 256 * 1024;

/// The process's peak resident set, in kB, from `/proc/self/status`.
fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line")
}

/// Stream a corpus directory through the wrapper; returns the page
/// count the sink saw.
fn stream_dir(
    dir: &Path,
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
) -> usize {
    let corpus = CorpusDir::open(dir).expect("corpus opens");
    let mut pages = 0;
    extract_stream(
        wrapper,
        main_block,
        clean,
        corpus.pages().map(|r| r.expect("page reads")),
        &StreamConfig::default(),
        |_, _| pages += 1,
    );
    pages
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "RSS bounds are set on release builds: cargo test --release --test stream_rss"
)]
fn peak_rss_stays_flat_across_a_tenfold_corpus() {
    let scratch =
        std::env::temp_dir().join(format!("objectrunner-stream-rss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    // Same name, style and seed at both sizes: page i is byte-identical
    // in the two corpora, only the page count differs.
    let spec = |pages| SiteSpec::clean("stream-cars", Domain::Cars, PageKind::List, pages, 0xca25);
    write_corpus(&spec(PAGES / 10), &Drift::NONE, &scratch.join("small")).expect("small corpus");
    let big_bytes = write_corpus(&spec(PAGES), &Drift::NONE, &scratch.join("big"))
        .expect("big corpus")
        .bytes;
    // The big corpus is about 10 MB on disk, far under the cap, so the
    // budget scales with it.
    let growth_budget_kb = (big_bytes / 2 / 1024).min(GROWTH_CAP_KB);

    // Induce from the corpus's own first pages: the streamed runs then
    // replay the cached-wrapper serving case.
    let corpus = CorpusDir::open(&scratch.join("big")).expect("big corpus opens");
    let sample: Vec<String> = (0..30)
        .map(|i| corpus.page(i).expect("sample page"))
        .collect();
    let config = PipelineConfig {
        sample: SampleConfig {
            sample_size: 20,
            ..SampleConfig::default()
        },
        ..PipelineConfig::default()
    };
    let clean = config.clean.clone();
    let outcome = Pipeline::new(
        Domain::Cars.sod(),
        knowledge::recognizers_for(Domain::Cars, 0.2),
    )
    .with_config(config)
    .run_on_html(&sample)
    .expect("cars corpus induces");
    drop(sample);
    let (wrapper, main_block) = (outcome.wrapper, outcome.main_block);

    let small = stream_dir(
        &scratch.join("small"),
        &wrapper,
        main_block.as_ref(),
        &clean,
    );
    let hwm_small_kb = vmhwm_kb();
    let big = stream_dir(&scratch.join("big"), &wrapper, main_block.as_ref(), &clean);
    let hwm_big_kb = vmhwm_kb();
    let _ = std::fs::remove_dir_all(&scratch);

    assert_eq!((small, big), (PAGES / 10, PAGES), "every page streamed");
    let growth_kb = hwm_big_kb.saturating_sub(hwm_small_kb);
    assert!(
        growth_kb <= growth_budget_kb,
        "peak RSS grew {growth_kb} kB (budget {growth_budget_kb} kB) from {} to {PAGES} pages \
         ({hwm_small_kb} -> {hwm_big_kb} kB)",
        PAGES / 10
    );
    assert!(
        hwm_big_kb < PEAK_CEILING_KB,
        "peak RSS {hwm_big_kb} kB is over the {PEAK_CEILING_KB} kB ceiling"
    );
}
