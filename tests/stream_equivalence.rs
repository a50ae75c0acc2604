//! Differential guard for the streaming extraction path: on every
//! golden domain and every template-drift tier, `extract_stream` must
//! deliver — page by page, in page order — exactly the instances the
//! materialized `extract_only` path produces, at one worker and at
//! eight. A second test closes the loop through disk: pages written by
//! the streaming corpus writer and read back through `mmap` extract
//! identically to the in-memory strings they came from. A third feeds
//! pages whose text is spelled with character references, so the
//! entity-decoding branch of the parser runs on the extraction chain.

use objectrunner::core::pipeline::{extract_only, Pipeline, PipelineConfig};
use objectrunner::core::sample::SampleConfig;
use objectrunner::core::wrapper::Wrapper;
use objectrunner::core::{extract_stream, StreamConfig};
use objectrunner::html::CleanOptions;
use objectrunner::segment::MainBlockChoice;
use objectrunner::webgen::{
    generate_drifted, generate_site, knowledge, write_corpus, CorpusDir, Domain, Drift, PageKind,
    SiteSpec,
};

/// Same corpus family as `golden_equivalence.rs`.
fn spec(domain: Domain, index: usize) -> SiteSpec {
    SiteSpec::clean(
        &format!("golden-{}", domain.name()),
        domain,
        PageKind::List,
        15,
        17_000 + index as u64,
    )
}

fn induce(domain: Domain, index: usize) -> (Wrapper, Option<MainBlockChoice>, CleanOptions) {
    let cfg = PipelineConfig {
        sample: SampleConfig {
            sample_size: 12,
            ..SampleConfig::default()
        },
        ..PipelineConfig::default()
    };
    let clean = cfg.clean.clone();
    let pipeline =
        Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2)).with_config(cfg);
    let outcome = pipeline
        .run_on_html(&generate_site(&spec(domain, index)).pages)
        .unwrap_or_else(|e| panic!("{} failed to wrap: {e}", domain.name()));
    (outcome.wrapper, outcome.main_block, clean)
}

/// Per-page canonical renderings via the streaming path.
fn streamed(
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
    pages: &[String],
    threads: usize,
) -> Vec<Vec<String>> {
    let mut got: Vec<(usize, Vec<String>)> = Vec::new();
    extract_stream(
        wrapper,
        main_block,
        clean,
        pages.iter().map(String::as_str),
        &StreamConfig {
            threads: Some(threads),
            ..StreamConfig::default()
        },
        |i, instances| got.push((i, instances.iter().map(|o| o.to_string()).collect())),
    );
    // Page order is part of the contract.
    assert_eq!(
        got.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        (0..pages.len()).collect::<Vec<_>>(),
        "sink saw pages out of order at threads={threads}"
    );
    got.into_iter().map(|(_, page)| page).collect()
}

/// Per-page canonical renderings via the materialized path.
fn materialized(
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
    pages: &[String],
) -> Vec<Vec<String>> {
    extract_only(wrapper, main_block, clean, pages, None)
        .per_page
        .iter()
        .map(|page| page.iter().map(|o| o.to_string()).collect())
        .collect()
}

#[test]
fn streamed_extraction_matches_materialized_across_drift_tiers() {
    for (i, domain) in Domain::ALL.into_iter().enumerate() {
        let (wrapper, main_block, clean) = induce(domain, i);
        for drift in [0.0, 0.3, 0.6, 0.9] {
            // Drifted pages render the same objects through a mutated
            // template — the serving path's hard case: partial matches,
            // dropped pages, shifted markup.
            let pages = generate_drifted(&spec(domain, i), drift).pages;
            let expect = materialized(&wrapper, main_block.as_ref(), &clean, &pages);
            for threads in [1, 8] {
                let got = streamed(&wrapper, main_block.as_ref(), &clean, &pages, threads);
                assert_eq!(
                    got,
                    expect,
                    "{} drift={drift} threads={threads} diverged from batch",
                    domain.name()
                );
            }
        }
    }
}

#[test]
fn streamed_extraction_from_mapped_corpus_matches_in_memory() {
    let domain = Domain::Books;
    let index = 2;
    let (wrapper, main_block, clean) = induce(domain, index);
    let pages = generate_site(&spec(domain, index)).pages;
    let expect = materialized(&wrapper, main_block.as_ref(), &clean, &pages);

    let dir = std::env::temp_dir().join(format!(
        "objectrunner-stream-equivalence-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    write_corpus(&spec(domain, index), &Drift::NONE, &dir).expect("write corpus");
    let corpus = CorpusDir::open(&dir).expect("open corpus");
    assert_eq!(corpus.len(), pages.len());

    let mut got: Vec<Vec<String>> = Vec::new();
    extract_stream(
        &wrapper,
        main_block.as_ref(),
        &clean,
        corpus.pages().map(|r| r.expect("map page")),
        &StreamConfig {
            threads: Some(8),
            ..StreamConfig::default()
        },
        |_, instances| got.push(instances.iter().map(|o| o.to_string()).collect()),
    );
    assert_eq!(got, expect, "mmap-fed stream diverged from in-memory batch");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `page` with every `e` and `a` in character data spelled as a
/// numeric character reference (`&#101;`, `&#x61;`). Markup, comments
/// and raw-text elements, whose content is never decoded, are copied
/// as they are, so the rewritten page parses to the same text.
fn with_entity_text(page: &str) -> String {
    let spell = |text: &str| text.replace('e', "&#101;").replace('a', "&#x61;");
    let mut out = String::with_capacity(page.len() * 2);
    let mut rest = page;
    while let Some(lt) = rest.find('<') {
        out.push_str(&spell(&rest[..lt]));
        rest = &rest[lt..];
        let close = if rest.starts_with("<!--") { "-->" } else { ">" };
        let mut end = rest.find(close).map_or(rest.len(), |i| i + close.len());
        let name: String = rest[1..]
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase();
        if ["script", "style", "textarea", "title"].contains(&name.as_str()) {
            let closing = format!("</{name}");
            end = rest[end..]
                .to_ascii_lowercase()
                .find(&closing)
                .map_or(rest.len(), |i| end + i);
        }
        out.push_str(&rest[..end]);
        rest = &rest[end..];
    }
    out.push_str(&spell(rest));
    out
}

#[test]
fn entity_spelled_pages_extract_like_the_originals() {
    let domain = Domain::Books;
    let index = 2;
    let (wrapper, main_block, clean) = induce(domain, index);
    let pages = generate_site(&spec(domain, index)).pages;
    let spelled: Vec<String> = pages.iter().map(|p| with_entity_text(p)).collect();
    assert!(spelled.iter().all(|p| p.contains("&#101;")));

    let expect = materialized(&wrapper, main_block.as_ref(), &clean, &pages);
    assert!(
        expect.iter().any(|page| !page.is_empty()),
        "source extracts"
    );
    assert_eq!(
        materialized(&wrapper, main_block.as_ref(), &clean, &spelled),
        expect,
        "extract_only diverged on entity-spelled pages"
    );
    for threads in [1, 8] {
        assert_eq!(
            streamed(&wrapper, main_block.as_ref(), &clean, &spelled, threads),
            expect,
            "extract_stream threads={threads} diverged on entity-spelled pages"
        );
    }
}
