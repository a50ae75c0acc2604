//! Acceptance guard for tree-diff wrapper repair: on the cosmetic and
//! separator drift tiers, a *repaired* wrapper — old wrapper patched
//! through the template-tree mapping, no induction stages — must
//! extract byte-identical objects to a full re-induction on the
//! drifted pages, for every domain and at both thread counts the
//! determinism suite pins. On the container tier, repair must decline
//! loudly so the serving layer falls back to re-induction.

use objectrunner::core::pipeline::{extract_only, Pipeline, PipelineConfig};
use objectrunner::core::sample::SampleConfig;
use objectrunner::core::wrapper::{repair_wrapper, RepairConfig};
use objectrunner::webgen::{
    generate_drifted, generate_site, knowledge, Domain, PageKind, SiteSpec,
};

fn spec(domain: Domain, index: usize) -> SiteSpec {
    let mut spec = SiteSpec::clean(
        &format!("repair-{}", domain.name()),
        domain,
        PageKind::List,
        15,
        17_200 + index as u64,
    );
    // Pin the markup style so the tier exercised at a given strength
    // is the same across seeds.
    spec.style = index % 3;
    spec
}

fn config() -> PipelineConfig {
    PipelineConfig {
        sample: SampleConfig {
            sample_size: 12,
            ..SampleConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Induce a clean wrapper, drift the site, repair, and return
/// `(repaired objects, freshly re-induced objects)`.
fn repaired_vs_fresh(
    domain: Domain,
    index: usize,
    strength: f64,
    threads: Option<usize>,
) -> (Vec<String>, Vec<String>) {
    let spec = spec(domain, index);
    let clean_pages = generate_site(&spec).pages;
    let cfg = config();
    let clean = cfg.clean.clone();
    let pipeline = Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
        .with_config(cfg.clone());
    let outcome = pipeline
        .run_on_html(&clean_pages)
        .unwrap_or_else(|e| panic!("{} failed to wrap clean site: {e}", domain.name()));

    let drifted = generate_drifted(&spec, strength);
    let prepared = extract_only(
        &outcome.wrapper,
        outcome.main_block.as_ref(),
        &clean,
        &drifted.pages,
        threads,
    );
    let repaired = repair_wrapper(
        &outcome.wrapper,
        &domain.sod(),
        &prepared.docs,
        &RepairConfig::default(),
    )
    .unwrap_or_else(|e| {
        panic!(
            "{} strength {strength}: repair declined ({e}) on a tier it must absorb",
            domain.name()
        )
    });
    let served = extract_only(
        &repaired.wrapper,
        outcome.main_block.as_ref(),
        &clean,
        &drifted.pages,
        threads,
    );
    let repaired_objects: Vec<String> = served.objects().iter().map(|o| o.to_string()).collect();

    let fresh = Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
        .with_config(cfg)
        .run_on_html(&drifted.pages)
        .unwrap_or_else(|e| panic!("{} failed to re-induce at {strength}: {e}", domain.name()));
    let fresh_objects: Vec<String> = fresh.objects.iter().map(|o| o.to_string()).collect();
    (repaired_objects, fresh_objects)
}

fn assert_tier_equivalence(strength: f64) {
    for (i, domain) in Domain::ALL.into_iter().enumerate() {
        for threads in [Some(1), Some(8)] {
            let (repaired, fresh) = repaired_vs_fresh(domain, i, strength, threads);
            assert!(
                !fresh.is_empty(),
                "{} strength {strength}: fresh re-induction extracted nothing",
                domain.name()
            );
            assert_eq!(
                repaired,
                fresh,
                "{} strength {strength} threads {threads:?}: repaired extraction \
                 diverged from fresh re-induction",
                domain.name()
            );
        }
    }
}

#[test]
fn repaired_extraction_matches_reinduction_on_cosmetic_drift() {
    assert_tier_equivalence(0.1);
}

#[test]
fn repaired_extraction_matches_reinduction_on_separator_drift() {
    assert_tier_equivalence(0.3);
}

/// On the container tier the chain tokens change (`<ul>` → `<ol>`,
/// `<div>` → `<section>`, a new wrapper `<div>`). Repair must never
/// produce a silently wrong wrapper here: it either declines (the
/// serving layer falls back to re-induction) or — when the drifted
/// markup still embeds the old chain token-for-token — the patched
/// wrapper must extract exactly what a fresh re-induction would.
#[test]
fn repair_never_silently_corrupts_on_container_redesign() {
    let mut declined = 0usize;
    for (i, domain) in Domain::ALL.into_iter().enumerate() {
        let spec = spec(domain, i);
        let clean_pages = generate_site(&spec).pages;
        let cfg = config();
        let clean = cfg.clean.clone();
        let outcome = Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
            .with_config(cfg.clone())
            .run_on_html(&clean_pages)
            .unwrap_or_else(|e| panic!("{} failed to wrap clean site: {e}", domain.name()));

        let drifted = generate_drifted(&spec, 0.8);
        let prepared = extract_only(
            &outcome.wrapper,
            outcome.main_block.as_ref(),
            &clean,
            &drifted.pages,
            None,
        );
        match repair_wrapper(
            &outcome.wrapper,
            &domain.sod(),
            &prepared.docs,
            &RepairConfig::default(),
        ) {
            Err(_) => declined += 1,
            Ok(repaired) => {
                let served = extract_only(
                    &repaired.wrapper,
                    outcome.main_block.as_ref(),
                    &clean,
                    &drifted.pages,
                    None,
                );
                let repaired_objects: Vec<String> =
                    served.objects().iter().map(|o| o.to_string()).collect();
                let fresh = Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
                    .with_config(cfg)
                    .run_on_html(&drifted.pages)
                    .unwrap_or_else(|e| {
                        panic!("{} failed to re-induce at 0.8: {e}", domain.name())
                    });
                let fresh_objects: Vec<String> =
                    fresh.objects.iter().map(|o| o.to_string()).collect();
                assert_eq!(
                    repaired_objects,
                    fresh_objects,
                    "{}: repair survived the container tier but extracted wrong objects",
                    domain.name()
                );
            }
        }
    }
    // The tag-renaming redesigns (`ul` → `ol` on style 0) must hit the
    // fallback path — that is the behaviour the serving layer's
    // re-induction fallback and the ci smoke stage pin down.
    assert!(
        declined >= 1,
        "no domain declined at the container tier; the fallback path is untested"
    );
}
