//! Output never depends on interner numbering (DESIGN §7).
//!
//! `Symbol` and `PathId` ids are handed out in first-intern order, so
//! they depend on everything the process interned before. No output
//! may: not the extracted objects, not their order, not the persisted
//! wrapper, not the support/rerun accounting, and not the error a
//! rejected source fails with.
//!
//! The test runs the golden corpus, a fixed draw of generated sources
//! and one tied-gap source three times. The plain run happens in this
//! process. The other two run in child processes that first intern
//! decoys: the SODs' entity-type names and every word, tag and
//! attribute of those pages, in ascending order in one child and in
//! descending order in the other, then every node path of the parsed
//! pages in a fixed shuffled order. The decoys shift every id, and one
//! of the two children numbers any two decoy words the other way round
//! from the plain run, so a sort, hash-map walk or tie-break that reads
//! ids shows up as a fingerprint diff.
//!
//! The tied-gap source is what gives tie-breaks something to decide:
//! its title and author share one text node, and with every title and
//! author in the dictionaries that gap holds both types with equal
//! counts. The author set maps to it only through the gap-majority
//! tie-break, and the `.orw` lists both types for that gap.
//!
//! The comparison does NOT sort the extracted instances (unlike the
//! golden snapshots): page-scan order is part of what is pinned.
//!
//! Induction runs on one thread, but extraction fans pages out across
//! `exec::drive`'s pool. The `parallel_*` tests pin that fan-out: on
//! the golden corpus and on generated sources, `extract_only` at eight
//! threads must return the same objects, in the same page order, as at
//! one thread.

use objectrunner::core::pipeline::{extract_only, Pipeline, PipelineConfig};
use objectrunner::core::sample::SampleConfig;
use objectrunner::html::{node_path_id, parse, Symbol};
use objectrunner::store::{save, StoredWrapper};
use objectrunner::webgen::{generate_site, knowledge, Domain, PageKind, SiteSpec};
use proptest::prelude::*;
use proptest::TestRng;
use std::process::Command;

/// One source of the comparison.
struct Case {
    domain: Domain,
    pages: Vec<String>,
    sample_size: usize,
    /// Dictionary coverage of the recognizers.
    coverage: f64,
}

/// The golden corpus (same specs as `golden_equivalence.rs`), eight
/// generated sources drawn over domain × size × seed × sample size,
/// then the tied-gap source. Some generated sources are rejected; their
/// errors are compared too.
fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Domain::ALL
        .into_iter()
        .enumerate()
        .map(|(i, domain)| {
            let spec = SiteSpec::clean(
                &format!("golden-{}", domain.name()),
                domain,
                PageKind::List,
                15,
                17_000 + i as u64,
            );
            Case {
                domain,
                pages: generate_site(&spec).pages,
                sample_size: 12,
                coverage: 0.2,
            }
        })
        .collect();
    let mut rng = TestRng::seed_from_u64(0x5eed);
    for _ in 0..8 {
        let domain = Domain::ALL[rng.below(Domain::ALL.len())];
        let pages = 6 + rng.below(8);
        let seed = rng.below(1_000) as u64;
        let spec = SiteSpec::clean("determinism-prop", domain, PageKind::List, pages, seed);
        cases.push(Case {
            domain,
            pages: generate_site(&spec).pages,
            sample_size: 5 + rng.below(7),
            coverage: 0.2,
        });
    }
    cases.push(tied_gap_case());
    cases
}

/// Books pages whose first cell reads "<title> by <author>", induced
/// with every title and author in the dictionaries: one gap carries the
/// two types with equal counts.
fn tied_gap_case() -> Case {
    let source = generate_site(&SiteSpec::clean(
        "determinism-tie",
        Domain::Books,
        PageKind::List,
        10,
        17_100,
    ));
    let pages = source
        .truth
        .iter()
        .map(|objects| {
            let records: String = objects
                .iter()
                .map(|o| {
                    format!(
                        "<li><div>{} by {}</div><div>{}</div></li>",
                        o.values("title")[0],
                        o.values("author")[0],
                        o.values("price")[0]
                    )
                })
                .collect();
            format!(
                "<html><head><title>books</title></head><body>\
                 <div class=\"nav\">home about contact</div><ul>{records}</ul>\
                 <div class=\"footer\">copyright legal privacy</div></body></html>"
            )
        })
        .collect();
    Case {
        domain: Domain::Books,
        pages,
        sample_size: 8,
        coverage: 1.0,
    }
}

/// Everything observable about one run, as one comparable string. The
/// wrapper is rendered in the canonical `.orw` form, which spells every
/// symbol and path out as a string in a fixed order.
fn fingerprint(case: &Case) -> String {
    let pipeline = Pipeline::new(
        case.domain.sod(),
        knowledge::recognizers_for(case.domain, case.coverage),
    )
    .with_config(PipelineConfig {
        sample: SampleConfig {
            sample_size: case.sample_size,
            ..SampleConfig::default()
        },
        ..PipelineConfig::default()
    });
    let outcome = match pipeline.run_on_html(&case.pages) {
        Ok(outcome) => outcome,
        Err(e) => return format!("error: {e}"),
    };
    let objects: Vec<String> = outcome.objects.iter().map(|o| o.to_string()).collect();
    let stats = &outcome.stats;
    let summary = format!(
        "support: {} splits: {} rounds: {} reruns: {} pages: {} sample: {}",
        stats.support_used,
        stats.conflict_splits,
        stats.rounds,
        stats.reruns,
        stats.pages,
        stats.sample_pages,
    );
    let wrapper = save(&StoredWrapper {
        source: "determinism".into(),
        domain: case.domain.name().to_lowercase(),
        revision: 1,
        sod: case.domain.sod(),
        wrapper: outcome.wrapper,
        main_block: outcome.main_block,
        clean: PipelineConfig::default().clean,
        repair: None,
    });
    format!("objects:\n{}\n{summary}\n{wrapper}", objects.join("\n"))
}

fn fingerprints(cases: &[Case]) -> String {
    cases
        .iter()
        .map(fingerprint)
        .collect::<Vec<_>>()
        .join("\n----\n")
}

/// Fisher–Yates with a fixed seed.
fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Intern every entity-type name of the cases' SODs and every word, tag
/// and attribute of their pages in sorted order (reversed when
/// `descending`), then every node path of the parsed pages in a fixed
/// shuffled order.
fn intern_decoys(cases: &[Case], descending: bool) {
    let sods: Vec<_> = cases.iter().map(|c| c.domain.sod()).collect();
    let mut words: Vec<&str> = cases
        .iter()
        .flat_map(|c| &c.pages)
        .flat_map(|page| page.split(|c: char| !c.is_alphanumeric()))
        .chain(sods.iter().flat_map(|sod| sod.entity_types()))
        .filter(|w| !w.is_empty())
        .collect();
    words.sort_unstable();
    words.dedup();
    if descending {
        words.reverse();
    }
    for word in words {
        Symbol::intern(word);
        Symbol::intern(&word.to_lowercase());
    }
    let docs: Vec<_> = cases
        .iter()
        .flat_map(|c| &c.pages)
        .map(|p| parse(p))
        .collect();
    let mut nodes: Vec<_> = docs
        .iter()
        .flat_map(|doc| doc.descendants(doc.root()).map(move |node| (doc, node)))
        .collect();
    shuffle(&mut nodes, &mut TestRng::seed_from_u64(0xdec0));
    for (doc, node) in nodes {
        node_path_id(doc, node);
    }
}

const BEGIN: &str = "<<<fingerprints";
const END: &str = "fingerprints>>>";
/// A string every golden page contains; its id shows whether the two
/// processes numbered symbols differently.
const PROBE: &str = "div";

/// The child's decoy order: `ascending` or `descending`.
const DECOY_ORDER: &str = "DETERMINISM_DECOY_ORDER";

/// Child half of the test: decoys first, then the same fingerprints.
#[test]
#[ignore = "run as a child process by output_is_independent_of_interner_history"]
fn fingerprints_after_decoy_interning() {
    let cases = cases();
    intern_decoys(
        &cases,
        std::env::var(DECOY_ORDER).is_ok_and(|o| o == "descending"),
    );
    let fingerprints = fingerprints(&cases);
    let probe = Symbol::lookup(PROBE).expect("probe interned").index();
    println!("\n{BEGIN}\n{probe}\n{fingerprints}\n{END}");
}

#[test]
fn output_is_independent_of_interner_history() {
    let plain = fingerprints(&cases());
    let probe = Symbol::lookup(PROBE).expect("probe interned").index();

    for order in ["ascending", "descending"] {
        let child = Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "fingerprints_after_decoy_interning",
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads",
                "1",
            ])
            .env(DECOY_ORDER, order)
            .output()
            .expect("spawn the decoy run");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success(),
            "{order} decoy run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
        let start = stdout.find(BEGIN).expect("decoy run printed fingerprints") + BEGIN.len() + 1;
        let end = stdout
            .find(END)
            .expect("decoy run finished its fingerprints");
        let (child_probe, decoyed) = stdout[start..end]
            .trim_end_matches('\n')
            .split_once('\n')
            .expect("probe line");
        assert_ne!(
            child_probe,
            probe.to_string(),
            "{order} decoys did not change the numbering"
        );
        if plain != decoyed {
            for (a, b) in plain.lines().zip(decoyed.lines()) {
                assert_eq!(
                    a, b,
                    "first line that depends on interner history ({order} decoys)"
                );
            }
            panic!("fingerprints differ in length ({order} decoys)");
        }
    }
}

/// Induce a wrapper for `pages`, then extract them with it at one and
/// at eight threads. Each extraction is rendered one page per block, so
/// page boundaries and in-page order are compared too. `None` when the
/// pipeline rejects the source: it then has no wrapper to apply.
fn extract_at_one_and_eight_threads(
    domain: Domain,
    pages: &[String],
    sample_size: usize,
) -> Option<(String, String)> {
    let config = PipelineConfig {
        sample: SampleConfig {
            sample_size,
            ..SampleConfig::default()
        },
        ..PipelineConfig::default()
    };
    let clean = config.clean.clone();
    let outcome = Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
        .with_config(config)
        .run_on_html(pages)
        .ok()?;
    let render = |threads| {
        extract_only(
            &outcome.wrapper,
            outcome.main_block.as_ref(),
            &clean,
            pages,
            Some(threads),
        )
        .per_page
        .iter()
        .map(|page| {
            page.iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect::<Vec<_>>()
        .join("\n--page--\n")
    };
    Some((render(1), render(8)))
}

#[test]
fn parallel_run_is_byte_identical_on_golden_corpus() {
    for case in cases().iter().take(Domain::ALL.len()) {
        let (sequential, parallel) =
            extract_at_one_and_eight_threads(case.domain, &case.pages, case.sample_size)
                .unwrap_or_else(|| panic!("{}: golden corpus must wrap", case.domain.name()));
        assert!(
            sequential.lines().any(|line| line != "--page--"),
            "{}: golden corpus must extract objects",
            case.domain.name()
        );
        assert_eq!(
            sequential,
            parallel,
            "{}: extraction at threads=8 diverged from threads=1",
            case.domain.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized sources (domain × size × seed × sample size): wherever
    /// the pipeline induces a wrapper, extraction at eight threads must
    /// match extraction at one.
    #[test]
    fn parallel_matches_sequential_on_generated_sources(
        domain_idx in 0usize..Domain::ALL.len(),
        pages in 6usize..14,
        seed in 0u64..1_000,
        sample_size in 5usize..12,
    ) {
        let domain = Domain::ALL[domain_idx];
        let spec = SiteSpec::clean("determinism-prop", domain, PageKind::List, pages, seed);
        let source = generate_site(&spec).pages;
        if let Some((sequential, parallel)) =
            extract_at_one_and_eight_threads(domain, &source, sample_size)
        {
            prop_assert_eq!(sequential, parallel);
        }
    }
}
