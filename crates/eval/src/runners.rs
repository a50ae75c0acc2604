//! Drive the three systems over a generated source and normalize
//! their outputs for classification.

use crate::classify::{align_fields, classify_source, ExtractedObject, SourceReport};
use objectrunner_baselines::exalg::{self, ExalgConfig};
use objectrunner_baselines::roadrunner;
use objectrunner_core::pipeline::{
    extract_only, Pipeline, PipelineConfig, PipelineError, PipelineStats,
};
use objectrunner_core::sample::SampleStrategy;
use objectrunner_html::{clean_document, parse, CleanOptions, Document};
use objectrunner_knowledge::recognizer::RecognizerSet;
use objectrunner_sod::Instance;
use objectrunner_webgen::{knowledge, Source};
use std::sync::atomic::{AtomicBool, Ordering};

/// The compared systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemId {
    ObjectRunner,
    ExAlg,
    RoadRunner,
}

impl SystemId {
    /// Table III abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            SystemId::ObjectRunner => "OR",
            SystemId::ExAlg => "EA",
            SystemId::RoadRunner => "RR",
        }
    }
}

/// One system's outcome on one source.
#[derive(Debug, Clone)]
pub struct SourceRun {
    pub system: SystemId,
    pub report: SourceReport,
    /// Wrapping wall-clock in microseconds (ObjectRunner only).
    pub wrapping_micros: Option<u128>,
    /// Full pipeline stats — stage timings included (ObjectRunner
    /// only; `None` when the source was discarded or a baseline ran).
    pub stats: Option<PipelineStats>,
}

/// When set, every ObjectRunner run prints one machine-readable line
/// per source to stdout: `{"source":..,"system":"OR","stats":{..}}`.
/// Toggled by the eval binaries' `--stats-json` flag.
static STATS_JSON: AtomicBool = AtomicBool::new(false);

/// Enable/disable per-source stats-JSON emission process-wide.
pub fn set_stats_json(on: bool) {
    STATS_JSON.store(on, Ordering::Relaxed);
}

/// Is `--stats-json` emission on?
pub fn stats_json_enabled() -> bool {
    STATS_JSON.load(Ordering::Relaxed)
}

fn emit_stats_json(source: &Source, system: SystemId, stats: &PipelineStats) {
    if stats_json_enabled() {
        println!(
            "{}",
            objectrunner_obs::export::stats_json_line(
                &source.spec.name,
                system.abbrev(),
                &stats.snapshot(),
            )
        );
    }
}

/// Default dictionary coverage (the paper's ≥20% condition).
pub const DEFAULT_COVERAGE: f64 = 0.2;

/// Sample size used everywhere (the paper's "approximately 20 pages").
pub const SAMPLE_SIZE: usize = 20;

/// Run ObjectRunner on a source.
pub fn run_objectrunner(source: &Source, strategy: SampleStrategy) -> SourceRun {
    run_objectrunner_with(source, strategy, DEFAULT_COVERAGE)
}

/// Run ObjectRunner with an explicit dictionary coverage (Appendix A).
pub fn run_objectrunner_with(
    source: &Source,
    strategy: SampleStrategy,
    coverage: f64,
) -> SourceRun {
    let recognizers = knowledge::recognizers_for(source.spec.domain, coverage);
    run_objectrunner_custom(source, strategy, recognizers, (3, 5))
}

/// Fully parameterized ObjectRunner run (used by the support sweep).
pub fn run_objectrunner_custom(
    source: &Source,
    strategy: SampleStrategy,
    recognizers: RecognizerSet,
    support_range: (usize, usize),
) -> SourceRun {
    let sod = source.spec.domain.sod();
    let config = PipelineConfig {
        strategy,
        support_range,
        sample: objectrunner_core::sample::SampleConfig {
            sample_size: SAMPLE_SIZE,
            ..Default::default()
        },
        ..PipelineConfig::default()
    };
    let pipeline = Pipeline::new(sod.clone(), recognizers).with_config(config);
    match pipeline.run_on_html(&source.pages) {
        Ok(outcome) => {
            // Re-extract through the cached-extract path to keep page
            // boundaries for pairing.
            let per_page: Vec<Vec<ExtractedObject>> = extract_only(
                &outcome.wrapper,
                outcome.main_block.as_ref(),
                &CleanOptions::default(),
                &source.pages,
                Some(1),
            )
            .per_page
            .iter()
            .map(|page| {
                page.iter()
                    .map(|inst| instance_to_object(inst, &sod))
                    .collect()
            })
            .collect();
            emit_stats_json(source, SystemId::ObjectRunner, &outcome.stats);
            SourceRun {
                system: SystemId::ObjectRunner,
                report: classify_source(source, &per_page, false),
                wrapping_micros: Some(outcome.stats.wrapping_micros),
                stats: Some(outcome.stats),
            }
        }
        Err(PipelineError::Sample(_)) => SourceRun {
            system: SystemId::ObjectRunner,
            report: classify_source(source, &[], true),
            wrapping_micros: None,
            stats: None,
        },
        Err(PipelineError::Wrapper(_)) => SourceRun {
            system: SystemId::ObjectRunner,
            report: classify_source(source, &[], false),
            wrapping_micros: None,
            stats: None,
        },
    }
}

/// Convert an extracted [`Instance`] into the typed evaluation form.
pub fn instance_to_object(inst: &Instance, sod: &objectrunner_sod::Sod) -> ExtractedObject {
    let mut obj = ExtractedObject::default();
    for attr in sod.entity_types() {
        let mut values = Vec::new();
        inst.values_of_type(attr, &mut values);
        let owned: Vec<String> = values.into_iter().map(str::to_owned).collect();
        obj.push_all(attr, &owned);
    }
    obj
}

fn cleaned_docs(source: &Source) -> Vec<Document> {
    source
        .pages
        .iter()
        .map(|h| {
            let mut d = parse(h);
            clean_document(&mut d, &CleanOptions::default());
            d
        })
        .collect()
}

/// The induction sample handed to the baselines: the paper's authors
/// collected same-template *record* pages for the ExAlg/RoadRunner
/// prototypes ("the pages selected for each source are produced by the
/// same template", §IV-A), so the baselines receive the record-bearing
/// pages. ObjectRunner gets no such curation — its own Algorithm 1
/// filters the raw crawl.
fn curated_sample(source: &Source, docs: &[Document], k: usize) -> Vec<Document> {
    docs.iter()
        .zip(source.truth.iter())
        .filter(|(_, gold)| !gold.is_empty())
        .map(|(d, _)| d.clone())
        .take(k)
        .collect()
}

/// Run the ExAlg baseline on a source.
pub fn run_exalg(source: &Source) -> SourceRun {
    let docs = cleaned_docs(source);
    let sample = curated_sample(source, &docs, SAMPLE_SIZE);
    let flat_pages: Vec<Vec<objectrunner_baselines::FlatRecord>> =
        match exalg::induce(&sample, &ExalgConfig::default()) {
            Ok(wrapper) => docs.iter().map(|d| wrapper.extract(d)).collect(),
            Err(_) => docs.iter().map(|_| Vec::new()).collect(),
        };
    let typed = align_fields(source, &flat_pages);
    SourceRun {
        system: SystemId::ExAlg,
        report: classify_source(source, &typed, false),
        wrapping_micros: None,
        stats: None,
    }
}

/// Run the RoadRunner baseline on a source.
pub fn run_roadrunner(source: &Source) -> SourceRun {
    let docs = cleaned_docs(source);
    // RoadRunner generalizes pairwise; a moderate sample keeps the
    // alignment tractable, as in the original system.
    let sample = curated_sample(source, &docs, 10);
    let flat_pages: Vec<Vec<objectrunner_baselines::FlatRecord>> = match roadrunner::induce(&sample)
    {
        Ok(wrapper) => docs.iter().map(|d| wrapper.extract(d)).collect(),
        Err(_) => docs.iter().map(|_| Vec::new()).collect(),
    };
    let typed = align_fields(source, &flat_pages);
    SourceRun {
        system: SystemId::RoadRunner,
        report: classify_source(source, &typed, false),
        wrapping_micros: None,
        stats: None,
    }
}

/// Run one system by id.
pub fn run_system(system: SystemId, source: &Source) -> SourceRun {
    match system {
        SystemId::ObjectRunner => run_objectrunner(source, SampleStrategy::SodBased),
        SystemId::ExAlg => run_exalg(source),
        SystemId::RoadRunner => run_roadrunner(source),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use objectrunner_webgen::{generate_site, Domain, PageKind, SiteSpec};

    fn quick_source(domain: Domain) -> Source {
        let mut spec = SiteSpec::clean("unit", domain, PageKind::List, 10, 77);
        spec.style = 0;
        generate_site(&spec)
    }

    #[test]
    fn objectrunner_runs_on_cars() {
        let source = quick_source(Domain::Cars);
        let run = run_objectrunner(&source, SampleStrategy::SodBased);
        assert!(!run.report.discarded);
        assert!(run.report.pc() > 0.5, "Pc = {}", run.report.pc());
    }

    #[test]
    fn exalg_runs_on_cars() {
        let source = quick_source(Domain::Cars);
        let run = run_exalg(&source);
        assert!(run.report.pp() > 0.3, "Pp = {}", run.report.pp());
    }

    #[test]
    fn roadrunner_runs_on_cars() {
        let source = quick_source(Domain::Cars);
        let run = run_roadrunner(&source);
        // Varying record counts: RR should find the iterator and do
        // reasonably well here.
        assert!(run.report.pp() > 0.3, "Pp = {}", run.report.pp());
    }

    #[test]
    fn objectrunner_discards_unstructured() {
        let spec = SiteSpec::clean("junk", Domain::Albums, PageKind::List, 8, 5)
            .with_quirk(objectrunner_webgen::Quirk::Unstructured);
        let source = generate_site(&spec);
        let run = run_objectrunner(&source, SampleStrategy::SodBased);
        assert!(run.report.discarded);
    }
}
