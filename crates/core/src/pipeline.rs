//! The end-to-end ObjectRunner pipeline.
//!
//! Page cleaning → visual simplification to the main block →
//! annotation + sample selection (Algorithm 1) → wrapper generation
//! (Algorithm 2) with the §IV self-validation loop ("when necessary,
//! we variate the parameters of the wrapping algorithm and re-execute
//! it … by variating the support between 3 and 5 pages") → extraction
//! from all pages.
//!
//! The pipeline is *staged*: each step above is a node of the explicit
//! stage graph in [`crate::stage`]. Induction runs every stage on the
//! caller's thread, and the self-validation loop tries the support
//! values in order, stopping at the first good-enough wrapper. Only
//! the extract-only path ([`extract_only`]) fans pages out, on the
//! pool in [`crate::exec`], whose reduction is index-ordered, so its
//! output is byte-identical at any thread count.

use crate::annotate::{AnnotatedPage, Annotator};
use crate::eqclass::EqConfig;
use crate::exec::{drive, resolve_threads};
use crate::roles::DiffConfig;
use crate::sample::{select_sample, SampleConfig, SampleError, SampleStrategy};
use crate::stage::{clean_stage, extract_stage, parse_stage, segment_stage, Stage, StageTiming};
use crate::stream::process_page;
use crate::wrapper::{generate_wrapper, Wrapper, WrapperError};
use objectrunner_html::{CleanOptions, Document};
use objectrunner_knowledge::recognizer::RecognizerSet;
use objectrunner_obs::{MetricsSnapshot, Obs, Span};
use objectrunner_segment::{LayoutOptions, MainBlockChoice};
use objectrunner_sod::{Instance, Sod};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Sampling parameters (size k, α threshold).
    pub sample: SampleConfig,
    /// How the sample is chosen (Table II's comparison knob).
    pub strategy: SampleStrategy,
    /// Support values tried by the self-validation loop (inclusive).
    pub support_range: (usize, usize),
    /// Stop the loop early once a wrapper reaches this quality.
    pub quality_threshold: f64,
    /// Apply the VIPS-style main-block simplification.
    pub use_main_block: bool,
    /// HTML cleaning options.
    pub clean: CleanOptions,
    /// Exclude annotated data words from template classes (the
    /// ObjectRunner guard; baselines turn this off).
    pub annotations_guard: bool,
    /// Observability handle. The default is [`Obs::disabled`], where
    /// every tracing/metrics call in the pipeline reduces to a single
    /// branch; extraction results never depend on this.
    pub obs: Obs,
    /// `(trace, parent span)` to attach this run's spans under — how
    /// the serving layer stitches pipeline spans into its per-request
    /// trace. `None` starts a fresh trace per run.
    pub trace_context: Option<(u64, u64)>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            sample: SampleConfig::default(),
            strategy: SampleStrategy::SodBased,
            support_range: (3, 5),
            quality_threshold: 0.9,
            use_main_block: true,
            clean: CleanOptions::default(),
            annotations_guard: true,
            obs: Obs::disabled(),
            trace_context: None,
        }
    }
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The source was discarded during sampling (§III-E).
    Sample(SampleError),
    /// No support value produced a wrapper.
    Wrapper(WrapperError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Sample(e) => write!(f, "sampling: {e}"),
            PipelineError::Wrapper(e) => write!(f, "wrapper generation: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Run statistics.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    pub pages: usize,
    pub sample_pages: usize,
    pub support_used: usize,
    pub conflict_splits: usize,
    pub rounds: usize,
    pub reruns: usize,
    pub wrapping_micros: u128,
    pub extraction_micros: u128,
    /// Per-stage wall/CPU timings, in execution order. The Annotate
    /// entry accounts the annotation rounds *inside* the Sample stage
    /// (CPU only).
    pub stage_timings: Vec<StageTiming>,
    /// Worker threads the run used (always 1 for induction).
    pub threads: usize,
    /// Annotation memo-cache hits during this run (stats only — the
    /// cached values are pure functions of the text, so hit counts
    /// never influence results; the split is scheduling-dependent,
    /// hits + misses is not).
    pub annotation_cache_hits: u64,
    /// Annotation memo-cache misses (= unique texts matched) during
    /// this run.
    pub annotation_cache_misses: u64,
}

impl PipelineStats {
    /// The timing entry of one stage, if it ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageTiming> {
        self.stage_timings.iter().find(|t| t.stage == stage)
    }

    /// Externalize this run's stats under the canonical metric names
    /// (`objectrunner.<crate>.<stage>.<name>`). Stage timings become
    /// `objectrunner.core.stage.<stage>.{wall,cpu}_micros` counters —
    /// key *presence* marks a stage as having run, which is how tests
    /// assert "the Wrap stage did not run" via snapshot diffs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("objectrunner.core.pipeline.pages", self.pages as u64);
        snap.set_counter(
            "objectrunner.core.pipeline.sample_pages",
            self.sample_pages as u64,
        );
        snap.set_counter(
            "objectrunner.core.wrap.support_used",
            self.support_used as u64,
        );
        snap.set_counter(
            "objectrunner.core.wrap.conflict_splits",
            self.conflict_splits as u64,
        );
        snap.set_counter("objectrunner.core.wrap.rounds", self.rounds as u64);
        snap.set_counter("objectrunner.core.wrap.reruns", self.reruns as u64);
        snap.set_counter(
            "objectrunner.core.pipeline.wrapping_micros",
            self.wrapping_micros as u64,
        );
        snap.set_counter(
            "objectrunner.core.pipeline.extraction_micros",
            self.extraction_micros as u64,
        );
        snap.set_counter("objectrunner.core.exec.threads", self.threads as u64);
        snap.set_counter(
            "objectrunner.core.annotate.cache_hits",
            self.annotation_cache_hits,
        );
        snap.set_counter(
            "objectrunner.core.annotate.cache_misses",
            self.annotation_cache_misses,
        );
        // hits + misses is scheduling-independent even though the
        // split is not — the deterministic total baselines diff on.
        snap.set_counter(
            "objectrunner.core.annotate.cache_lookups",
            self.annotation_cache_hits + self.annotation_cache_misses,
        );
        for t in &self.stage_timings {
            let name = t.stage.name();
            snap.set_counter(
                objectrunner_obs::export::stage_wall_metric(name),
                t.wall_micros as u64,
            );
            snap.set_counter(
                objectrunner_obs::export::stage_cpu_metric(name),
                t.cpu_micros as u64,
            );
        }
        snap
    }

    /// Machine-readable JSON form (one object, no trailing newline).
    /// Key order is fixed, so equal stats render byte-identically;
    /// consumed by the eval runners' `--stats-json` mode and the serve
    /// protocol. Rendered by the one shared legacy emitter in
    /// `objectrunner_obs::export`, over [`PipelineStats::snapshot`].
    pub fn to_json(&self) -> String {
        objectrunner_obs::export::legacy_stats_json(&self.snapshot())
    }

    /// Accumulate this run into a live registry. Timing-free callers
    /// pass a disabled handle, which makes this free. `exec.threads`
    /// is a gauge (last run wins) rather than a counter — summing
    /// thread counts across runs is meaningless.
    pub fn record_into(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        for (name, value) in &self.snapshot().counters {
            if name == "objectrunner.core.exec.threads" {
                obs.gauge_set(name, *value as i64);
            } else {
                obs.counter_add(name, *value);
            }
        }
    }
}

/// Pipeline output.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The extracted objects, all pages concatenated.
    pub objects: Vec<Instance>,
    /// The wrapper that produced them.
    pub wrapper: Wrapper,
    /// The main-block choice the segment stage voted (None when
    /// simplification is off or no candidate block was found). A
    /// persisted wrapper carries this so the extract-only path can
    /// replay the identical simplification on unseen pages.
    pub main_block: Option<MainBlockChoice>,
    pub stats: PipelineStats,
}

/// Output of the extract-only fast path ([`extract_only`]).
#[derive(Debug)]
pub struct ExtractOutcome {
    /// Extracted instances, page boundaries preserved.
    pub per_page: Vec<Vec<Instance>>,
    /// The prepared (cleaned + simplified) documents, for callers that
    /// need to score them afterwards (drift detection).
    pub docs: Vec<Document>,
    /// Stage timings of the fast path: Parse/Clean/Segment/Extract
    /// only — no Annotate, Sample or Wrap entries, proving induction
    /// was skipped.
    pub stats: PipelineStats,
}

impl ExtractOutcome {
    /// All instances, pages concatenated.
    pub fn objects(&self) -> Vec<&Instance> {
        self.per_page.iter().flatten().collect()
    }
}

/// Apply an already-induced wrapper to raw pages, skipping induction
/// entirely: Parse → Clean → Segment (replaying `main_block`) →
/// Extract. The preparation steps mirror [`Pipeline::run_on_html`]
/// byte-for-byte — same cleaning options, same block simplification —
/// so on pages of the unchanged template the output is identical to a
/// fresh pipeline run with this wrapper.
pub fn extract_only<S: AsRef<str> + Sync>(
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
    pages: &[S],
    threads: Option<usize>,
) -> ExtractOutcome {
    extract_only_with(
        wrapper,
        main_block,
        clean,
        pages,
        threads,
        &Obs::disabled(),
        None,
        None,
    )
}

/// The steps of `stream::process_page`, in its timing order, with the
/// span each reports under.
const FUSED_STEPS: [(Stage, &str); 4] = [
    (Stage::Parse, "stage.parse"),
    (Stage::Clean, "stage.clean"),
    (Stage::Segment, "stage.segment"),
    (Stage::Extract, "stage.extract"),
];

/// [`extract_only`] with tracing/metrics: emits a `pipeline.extract`
/// span tree (attached under `trace_context` when given) and
/// accumulates the run into `obs`'s registry.
///
/// `queue_wait_micros` is how long the caller held the request before
/// this pipeline invocation started (the serving layer's admission /
/// batching delay); when given it is stamped on the root span, so a
/// trace splits end-to-end latency into queue wait vs service time
/// (the span's own duration).
///
/// Every page runs through the one per-page chain
/// (`stream::process_page`) on the pool's driver, so the
/// steps are fused per page rather than staged and have no wall clock
/// of their own: each step's timing entry carries its summed per-page
/// time as both wall and CPU, and its `stage.*` child span carries it
/// as CPU.
#[allow(clippy::too_many_arguments)]
pub fn extract_only_with<S: AsRef<str> + Sync>(
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
    pages: &[S],
    threads: Option<usize>,
    obs: &Obs,
    trace_context: Option<(u64, u64)>,
    queue_wait_micros: Option<u64>,
) -> ExtractOutcome {
    let mut root = match trace_context {
        Some((trace, parent)) => obs.span_in(trace, parent, "pipeline.extract"),
        None => obs.trace("pipeline.extract"),
    };
    root.attr_u64("pages", pages.len() as u64);
    if let Some(wait) = queue_wait_micros {
        root.attr_u64("queue_wait_micros", wait);
    }
    let mut docs = Vec::with_capacity(pages.len());
    let mut per_page = Vec::with_capacity(pages.len());
    let mut steps = [Duration::ZERO; 4];
    let run = drive(
        pages.iter(),
        resolve_threads(threads),
        pages.len(),
        |_, page| process_page(page.as_ref(), wrapper, main_block, clean),
        |_, page| {
            for (total, step) in steps.iter_mut().zip(page.steps) {
                *total += step;
            }
            docs.push(page.doc);
            per_page.push(page.objects);
        },
    );
    let mut stage_timings = Vec::with_capacity(steps.len());
    for ((stage, span_name), d) in FUSED_STEPS.into_iter().zip(steps) {
        if stage == Stage::Segment && main_block.is_none() {
            continue;
        }
        let timing = StageTiming {
            stage,
            wall_micros: d.as_micros(),
            cpu_micros: d.as_micros(),
        };
        finish_stage_span(root.child(span_name), &timing);
        stage_timings.push(timing);
    }
    let stats = PipelineStats {
        pages: docs.len(),
        support_used: wrapper.support,
        conflict_splits: wrapper.conflict_splits,
        rounds: wrapper.rounds,
        extraction_micros: steps[3].as_micros(),
        stage_timings,
        threads: run.workers,
        ..PipelineStats::default()
    };
    obs.counter_add("objectrunner.core.pipeline.extract_only_runs", 1);
    stats.record_into(obs);
    root.attr_u64(
        "objects",
        per_page.iter().map(Vec::len).sum::<usize>() as u64,
    );
    root.add_cpu_micros(run.busy.as_micros() as u64);
    root.finish();
    ExtractOutcome {
        per_page,
        docs,
        stats,
    }
}

/// Close a stage span, attributing the stage's summed worker CPU.
fn finish_stage_span(mut span: Span, timing: &StageTiming) {
    span.add_cpu_micros(timing.cpu_micros as u64);
    span.finish();
}

/// What the §IV self-validation loop produced: the winning wrapper
/// plus the cost split between the winner and the evaluations that
/// lost ("reruns").
struct WrapOutcome {
    wrapper: Wrapper,
    /// How many evaluations ran past the first — exactly the ones
    /// that did not win (the stats field and the rerun span's count).
    reruns: usize,
    /// Time spent generating the winning wrapper.
    winner_busy: Duration,
    /// Time spent on the evaluations that ran and did not win.
    rerun_busy: Duration,
}

/// The ObjectRunner engine for one source.
#[derive(Debug, Clone)]
pub struct Pipeline {
    sod: Sod,
    recognizers: RecognizerSet,
    /// Compiled, memoizing annotation engine over `recognizers`.
    /// Behind an `Arc` so cloned pipelines (and callers holding one via
    /// [`Pipeline::with_annotator`]) share the compiled automatons and
    /// the warm memo cache instead of recompiling.
    annotator: Arc<Annotator>,
    config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with default configuration.
    pub fn new(sod: Sod, recognizers: RecognizerSet) -> Pipeline {
        let annotator = Arc::new(Annotator::new(&recognizers));
        Pipeline {
            sod,
            recognizers,
            annotator,
            config: PipelineConfig::default(),
        }
    }

    /// A pipeline reusing an existing annotation engine (must be
    /// compiled from `recognizers`); the serving layer uses this to
    /// share the compiled automatons and memo cache across requests.
    pub fn with_annotator(
        sod: Sod,
        recognizers: RecognizerSet,
        annotator: Arc<Annotator>,
    ) -> Pipeline {
        Pipeline {
            sod,
            recognizers,
            annotator,
            config: PipelineConfig::default(),
        }
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: PipelineConfig) -> Pipeline {
        self.config = config;
        self
    }

    /// The SOD this pipeline targets.
    pub fn sod(&self) -> &Sod {
        &self.sod
    }

    /// The shared annotation engine.
    pub fn annotator(&self) -> &Arc<Annotator> {
        &self.annotator
    }

    /// Induce a wrapper from raw HTML pages and extract from all of
    /// them, running every stage on the caller's thread.
    pub fn run_on_html<S: AsRef<str>>(
        &self,
        pages: &[S],
    ) -> Result<PipelineOutcome, PipelineError> {
        let obs = &self.config.obs;
        let mut root = match self.config.trace_context {
            Some((trace, parent)) => obs.span_in(trace, parent, "pipeline.induce"),
            None => obs.trace("pipeline.induce"),
        };
        root.attr_u64("pages", pages.len() as u64);
        let parse_span = root.child("stage.parse");
        let (mut docs, parse_timing) = parse_stage(pages);
        finish_stage_span(parse_span, &parse_timing);
        let mut timings = vec![parse_timing];

        // 1. Cleaning (per page).
        let clean_span = root.child("stage.clean");
        timings.push(clean_stage(&mut docs, &self.config.clean));
        finish_stage_span(clean_span, timings.last().expect("just pushed"));

        // 2. Main-block simplification (per-page scoring, whole-source
        // vote, per-page simplification).
        let mut main_block: Option<MainBlockChoice> = None;
        if self.config.use_main_block {
            let segment_span = root.child("stage.segment");
            let (choice, timing) = segment_stage(&mut docs, &LayoutOptions::default());
            main_block = choice;
            timings.push(timing);
            finish_stage_span(segment_span, timings.last().expect("just pushed"));
        }

        let wrap_start = Instant::now();
        // 3. Annotation + sampling (annotation rounds per page;
        // shrinking and selection are whole-source). On failure the
        // open spans close on drop, so the trace still shows where the
        // source was discarded.
        let sample_start = Instant::now();
        let mut sample_span = root.child("stage.sample");
        let cache_hits_before = self.annotator.cache_hits();
        let cache_misses_before = self.annotator.cache_misses();
        let sample_outcome = select_sample(
            &docs,
            &self.recognizers,
            &self.annotator,
            &self.sod,
            &self.config.sample,
            self.config.strategy,
        )
        .map_err(PipelineError::Sample)?;
        timings.push(StageTiming {
            stage: Stage::Annotate,
            // Annotation has no wall-clock of its own: its rounds are
            // interleaved with Sample's shrinking, so only CPU is
            // attributed here.
            wall_micros: 0,
            cpu_micros: sample_outcome.annotate_busy.as_micros(),
        });
        let mut annotate_span = sample_span.child("stage.annotate");
        annotate_span.add_cpu_micros(sample_outcome.annotate_busy.as_micros() as u64);
        annotate_span.finish();
        // The Sample entry carries selection CPU only — annotation CPU
        // already lives in the Annotate entry above, so attributing
        // `annotate_busy` here again (as this stage once did) would
        // double-count it and push the per-stage CPU total past the
        // pipeline's actual work.
        timings.push(StageTiming::record(
            Stage::Sample,
            sample_start,
            sample_outcome.select_busy,
        ));
        let sample = sample_outcome.sample;
        sample_span.attr_u64("sample_pages", sample.len() as u64);
        sample_span.add_cpu_micros(sample_outcome.select_busy.as_micros() as u64);
        sample_span.finish();

        // 4. Wrapper generation with the self-validation loop.
        let wrap_stage_start = Instant::now();
        let mut wrap_span = root.child("stage.wrap");
        let wrap = self.best_wrapper(&sample)?;
        // Losing support evaluations get their own entry (wall 0: they
        // overlap the Wrap stage's clock) so aggregate per-stage CPU
        // sums to the pipeline's real work.
        if wrap.reruns > 0 {
            timings.push(StageTiming {
                stage: Stage::SampleRerun,
                wall_micros: 0,
                cpu_micros: wrap.rerun_busy.as_micros(),
            });
            let mut rerun_span = wrap_span.child("sample.rerun");
            rerun_span.attr_u64("evals", wrap.reruns as u64);
            rerun_span.add_cpu_micros(wrap.rerun_busy.as_micros() as u64);
            rerun_span.finish();
        }
        timings.push(StageTiming::record(
            Stage::Wrap,
            wrap_stage_start,
            wrap.winner_busy,
        ));
        wrap_span.attr_u64("support", wrap.wrapper.support as u64);
        wrap_span.attr_f64("quality", wrap.wrapper.quality);
        wrap_span.add_cpu_micros(wrap.winner_busy.as_micros() as u64);
        wrap_span.finish();
        let wrapping_micros = wrap_start.elapsed().as_micros();

        // 5. Extraction from all pages (per page).
        let extract_start = Instant::now();
        let extract_span = root.child("stage.extract");
        let (per_page, extract_timing) = extract_stage(&wrap.wrapper, &docs);
        finish_stage_span(extract_span, &extract_timing);
        let objects: Vec<Instance> = per_page.into_iter().flatten().collect();
        timings.push(extract_timing);
        let extraction_micros = extract_start.elapsed().as_micros();

        let stats = PipelineStats {
            pages: docs.len(),
            sample_pages: sample.len(),
            support_used: wrap.wrapper.support,
            conflict_splits: wrap.wrapper.conflict_splits,
            rounds: wrap.wrapper.rounds,
            reruns: wrap.reruns,
            wrapping_micros,
            extraction_micros,
            stage_timings: timings,
            threads: 1,
            annotation_cache_hits: self.annotator.cache_hits() - cache_hits_before,
            annotation_cache_misses: self.annotator.cache_misses() - cache_misses_before,
        };
        obs.counter_add("objectrunner.core.pipeline.induce_runs", 1);
        stats.record_into(obs);
        root.attr_u64("objects", objects.len() as u64);
        root.finish();
        Ok(PipelineOutcome {
            objects,
            wrapper: wrap.wrapper,
            main_block,
            stats,
        })
    }

    /// §IV "automatic variation of parameters": run wrapper generation
    /// for each support value in order, keep the best quality (earliest
    /// support on ties), and stop at the first support whose wrapper
    /// reaches the quality threshold.
    fn best_wrapper(&self, sample: &[AnnotatedPage]) -> Result<WrapOutcome, PipelineError> {
        self.self_validate(|support| {
            let diff_cfg = DiffConfig {
                eq: EqConfig {
                    min_support: support,
                    annotations_guard: self.config.annotations_guard,
                    ..EqConfig::default()
                },
                ..DiffConfig::default()
            };
            generate_wrapper(sample, &self.sod, &diff_cfg)
        })
    }

    /// The loop behind [`Pipeline::best_wrapper`], over any per-support
    /// evaluation (unit tests substitute wrappers of chosen quality).
    fn self_validate(
        &self,
        mut evaluate: impl FnMut(usize) -> Result<Wrapper, WrapperError>,
    ) -> Result<WrapOutcome, PipelineError> {
        let (lo, hi) = self.config.support_range;
        let mut best: Option<(Wrapper, Duration)> = None;
        let mut last_err: Option<WrapperError> = None;
        let mut evals_busy = Duration::ZERO;
        let mut evals = 0usize;
        for support in lo..=hi.max(lo) {
            let eval_start = Instant::now();
            let result = evaluate(support);
            let elapsed = eval_start.elapsed();
            evals_busy += elapsed;
            evals += 1;
            match result {
                Ok(w) => {
                    let good_enough = w.quality >= self.config.quality_threshold;
                    if best.as_ref().is_none_or(|(b, _)| w.quality > b.quality) {
                        best = Some((w, elapsed));
                    }
                    if good_enough {
                        break;
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        match best {
            Some((wrapper, winner_busy)) => Ok(WrapOutcome {
                wrapper,
                reruns: evals - 1,
                winner_busy,
                rerun_busy: evals_busy - winner_busy,
            }),
            None => Err(PipelineError::Wrapper(
                last_err.unwrap_or(WrapperError::EmptySample),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use objectrunner_knowledge::gazetteer::Gazetteer;
    use objectrunner_knowledge::recognizer::Recognizer;
    use objectrunner_sod::{Multiplicity, SodBuilder};

    fn concert_sod() -> Sod {
        SodBuilder::tuple("concert")
            .entity("artist", Multiplicity::One)
            .entity("date", Multiplicity::One)
            .build()
    }

    fn recognizers(artists: &[&str]) -> RecognizerSet {
        let mut g = Gazetteer::new();
        for a in artists {
            g.insert(a, 0.9, 5.0);
        }
        let mut set = RecognizerSet::new();
        set.insert("artist", Recognizer::dictionary(g));
        set.insert("date", Recognizer::predefined_date());
        set
    }

    fn source_pages(n_pages: usize) -> Vec<String> {
        (0..n_pages)
            .map(|p| {
                let recs: String = (0..(p % 3 + 1))
                    .map(|i| {
                        format!(
                            "<li><div>Band{p}x{i}</div><div>May {}, 2010</div></li>",
                            i + 1
                        )
                    })
                    .collect();
                format!(
                    "<html><head><title>t</title></head><body>\
                     <div class=\"nav\">home about contact pages</div>\
                     <div class=\"content\"><ul>{recs}</ul></div>\
                     <div class=\"footer\">copyright legal privacy terms</div>\
                     </body></html>"
                )
            })
            .collect()
    }

    #[test]
    fn full_pipeline_extracts_from_synthetic_source() {
        let pages = source_pages(12);
        // Dictionary knows a fifth of the artists (paper: ≥20%).
        let known: Vec<String> = (0..12).step_by(3).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let pipeline =
            Pipeline::new(concert_sod(), recognizers(&refs)).with_config(PipelineConfig {
                sample: SampleConfig {
                    sample_size: 8,
                    ..SampleConfig::default()
                },
                ..PipelineConfig::default()
            });
        let outcome = pipeline.run_on_html(&pages).expect("pipeline succeeds");
        // Every record extracted: pages have 1..3 records.
        let expected: usize = (0..12).map(|p| p % 3 + 1).sum();
        assert_eq!(outcome.objects.len(), expected);
        // No nav/footer noise in values.
        for o in &outcome.objects {
            let mut vals = Vec::new();
            o.values_of_type("artist", &mut vals);
            for v in vals {
                assert!(v.starts_with("Band"), "noise extracted: {v}");
            }
        }
        assert_eq!(outcome.stats.pages, 12);
        assert!(outcome.stats.sample_pages <= 8);
    }

    #[test]
    fn discards_irrelevant_source() {
        let pages: Vec<String> = (0..8)
            .map(|i| {
                format!("<html><body><p>weather report number {i} nothing else</p></body></html>")
            })
            .collect();
        let pipeline = Pipeline::new(concert_sod(), recognizers(&["Metallica"]));
        let err = pipeline.run_on_html(&pages).expect_err("discarded");
        assert!(matches!(err, PipelineError::Sample(_)));
    }

    #[test]
    fn random_strategy_also_runs() {
        let pages = source_pages(12);
        let known: Vec<String> = (0..12).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let pipeline =
            Pipeline::new(concert_sod(), recognizers(&refs)).with_config(PipelineConfig {
                strategy: SampleStrategy::Random(17),
                sample: SampleConfig {
                    sample_size: 8,
                    ..SampleConfig::default()
                },
                ..PipelineConfig::default()
            });
        let outcome = pipeline.run_on_html(&pages).expect("runs");
        assert!(!outcome.objects.is_empty());
    }

    #[test]
    fn wrapping_time_is_recorded() {
        let pages = source_pages(10);
        let known: Vec<String> = (0..10).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let pipeline = Pipeline::new(concert_sod(), recognizers(&refs));
        let outcome = pipeline.run_on_html(&pages).expect("runs");
        assert!(outcome.stats.wrapping_micros > 0);
    }

    #[test]
    fn stage_timings_cover_the_graph() {
        let pages = source_pages(10);
        let known: Vec<String> = (0..10).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let pipeline = Pipeline::new(concert_sod(), recognizers(&refs));
        let outcome = pipeline.run_on_html(&pages).expect("runs");
        for stage in [
            Stage::Parse,
            Stage::Clean,
            Stage::Segment,
            Stage::Annotate,
            Stage::Sample,
            Stage::Wrap,
            Stage::Extract,
        ] {
            assert!(
                outcome.stats.stage(stage).is_some(),
                "missing timing for stage {stage}"
            );
        }
        assert!(outcome.stats.threads >= 1);
        // The Sample stage dominates the wrap clock together with Wrap.
        let sample_wall = outcome.stats.stage(Stage::Sample).unwrap().wall_micros;
        let wrap_wall = outcome.stats.stage(Stage::Wrap).unwrap().wall_micros;
        assert!(sample_wall + wrap_wall <= outcome.stats.wrapping_micros + 1_000);
    }

    #[test]
    fn extract_only_matches_full_pipeline() {
        let pages = source_pages(12);
        let known: Vec<String> = (0..12).step_by(3).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let config = PipelineConfig {
            sample: SampleConfig {
                sample_size: 8,
                ..SampleConfig::default()
            },
            ..PipelineConfig::default()
        };
        let pipeline = Pipeline::new(concert_sod(), recognizers(&refs)).with_config(config.clone());
        let outcome = pipeline.run_on_html(&pages).expect("pipeline succeeds");
        assert!(outcome.main_block.is_some(), "segment vote captured");

        let fast = extract_only(
            &outcome.wrapper,
            outcome.main_block.as_ref(),
            &config.clean,
            &pages,
            None,
        );
        let fast_objects: Vec<String> = fast.objects().iter().map(|o| o.to_string()).collect();
        let full_objects: Vec<String> = outcome.objects.iter().map(|o| o.to_string()).collect();
        assert_eq!(fast_objects, full_objects, "fast path diverged");

        // Induction stages never ran on the fast path.
        for stage in [Stage::Annotate, Stage::Sample, Stage::Wrap] {
            assert!(
                fast.stats.stage(stage).is_none(),
                "{stage} ran on fast path"
            );
        }
        for stage in [Stage::Parse, Stage::Clean, Stage::Segment, Stage::Extract] {
            assert!(fast.stats.stage(stage).is_some(), "{stage} missing");
        }
    }

    #[test]
    fn stats_json_is_machine_readable() {
        let stats = PipelineStats {
            pages: 3,
            sample_pages: 2,
            support_used: 4,
            stage_timings: vec![StageTiming {
                stage: Stage::Parse,
                wall_micros: 10,
                cpu_micros: 9,
            }],
            threads: 1,
            ..PipelineStats::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"pages\":3"));
        assert!(json.contains("\"stage\":\"parse\""));
        assert!(json.contains("\"wall_micros\":10"));
        // Fixed key order: equal stats render byte-identically.
        assert_eq!(json, stats.clone().to_json());
    }

    #[test]
    fn sample_stage_cpu_is_not_double_counted() {
        // Regression: the Sample entry used to re-attribute
        // `annotate_busy` as its own CPU, so Annotate + Sample summed
        // to twice the annotation work. Induction runs on one thread,
        // so per-stage busy time is bounded by the stage's wall clock.
        let pages = source_pages(12);
        let known: Vec<String> = (0..12).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let pipeline = Pipeline::new(concert_sod(), recognizers(&refs));
        let outcome = pipeline.run_on_html(&pages).expect("runs");
        let stats = &outcome.stats;
        let annotate = stats.stage(Stage::Annotate).unwrap();
        let sample = stats.stage(Stage::Sample).unwrap();
        assert!(
            annotate.cpu_micros + sample.cpu_micros
                <= sample.wall_micros + sample.wall_micros / 10 + 500,
            "annotate ({}) + sample ({}) CPU exceeds the sample wall ({}): double-counted",
            annotate.cpu_micros,
            sample.cpu_micros,
            sample.wall_micros
        );
        // The loop stopped at the first support, so nothing reran.
        assert_eq!(stats.support_used, 3);
        assert!(stats.stage(Stage::SampleRerun).is_none());

        // An unreachable quality threshold makes the loop try every
        // support. The losing evaluations are split out, not folded
        // into Wrap.
        let pipeline =
            Pipeline::new(concert_sod(), recognizers(&refs)).with_config(PipelineConfig {
                quality_threshold: 2.0,
                ..PipelineConfig::default()
            });
        let outcome = pipeline.run_on_html(&pages).expect("runs");
        let stats = &outcome.stats;
        let rerun = stats
            .stage(Stage::SampleRerun)
            .expect("sample.rerun entry present when the loop reran");
        assert_eq!(rerun.wall_micros, 0, "rerun work overlaps the wrap clock");
        let wrap = stats.stage(Stage::Wrap).unwrap();
        assert!(
            wrap.cpu_micros <= wrap.wall_micros + wrap.wall_micros / 10 + 500,
            "wrap CPU ({}) exceeds wrap wall ({}): rerun work not split out",
            wrap.cpu_micros,
            wrap.wall_micros
        );
        // The legacy JSON renders the new entry in canonical order.
        let json = stats.to_json();
        let rerun_pos = json.find("\"stage\":\"sample.rerun\"").expect("rendered");
        let wrap_pos = json.find("\"stage\":\"wrap\"").expect("rendered");
        assert!(rerun_pos < wrap_pos);
    }

    #[test]
    fn reruns_count_every_evaluation_past_the_first() {
        let pages = source_pages(12);
        let known: Vec<String> = (0..12).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let pipeline = Pipeline::new(concert_sod(), recognizers(&refs));
        let base = pipeline.run_on_html(&pages).expect("runs").wrapper;
        // Wrappers of a chosen quality per support; the default loop
        // tries supports 3..=5 against a 0.9 threshold.
        let run = |quality: &dyn Fn(usize) -> f64| {
            let wrap = pipeline
                .self_validate(|support| {
                    Ok(Wrapper {
                        support,
                        quality: quality(support),
                        ..base.clone()
                    })
                })
                .expect("a wrapper wins");
            (wrap.wrapper.support, wrap.reruns)
        };
        assert_eq!(run(&|_| 1.0), (3, 0), "first support good enough");
        assert_eq!(
            run(&|s| if s == 3 { 0.5 } else { 1.0 }),
            (4, 1),
            "support 3 misses the threshold, support 4 reaches it"
        );
        assert_eq!(run(&|s| if s == 5 { 1.0 } else { 0.5 }), (5, 2));
        assert_eq!(run(&|_| 0.5), (3, 2), "none good enough: earliest best");
    }

    #[test]
    fn pipeline_emits_a_deterministic_span_tree() {
        let pages = source_pages(12);
        let known: Vec<String> = (0..12).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let shape = |quality_threshold: f64| {
            let obs = objectrunner_obs::Obs::enabled();
            let pipeline =
                Pipeline::new(concert_sod(), recognizers(&refs)).with_config(PipelineConfig {
                    quality_threshold,
                    obs: obs.clone(),
                    ..PipelineConfig::default()
                });
            pipeline.run_on_html(&pages).expect("runs");
            let spans = obs.drain_spans();
            // (name, parent name) pairs in id order — ids themselves
            // are handle-local, the tree shape must be invariant.
            spans
                .iter()
                .map(|s| {
                    let parent = spans
                        .iter()
                        .find(|p| p.id == s.parent)
                        .map(|p| p.name)
                        .unwrap_or("");
                    (s.name, parent)
                })
                .collect::<Vec<_>>()
        };
        let mut expected = vec![
            ("pipeline.induce", ""),
            ("stage.parse", "pipeline.induce"),
            ("stage.clean", "pipeline.induce"),
            ("stage.segment", "pipeline.induce"),
            ("stage.sample", "pipeline.induce"),
            ("stage.annotate", "stage.sample"),
            ("stage.wrap", "pipeline.induce"),
            ("stage.extract", "pipeline.induce"),
        ];
        let tree = shape(0.9);
        assert_eq!(tree, shape(0.9), "span tree differs across runs");
        // The first support is good enough: no rerun span.
        assert_eq!(tree, expected);
        // Every support runs: the reruns get their span under Wrap.
        expected.insert(7, ("sample.rerun", "stage.wrap"));
        assert_eq!(shape(2.0), expected);
    }

    #[test]
    fn pipeline_records_metrics_when_enabled() {
        let pages = source_pages(12);
        let known: Vec<String> = (0..12).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let obs = objectrunner_obs::Obs::enabled();
        let before = obs.snapshot();
        let pipeline =
            Pipeline::new(concert_sod(), recognizers(&refs)).with_config(PipelineConfig {
                obs: obs.clone(),
                ..PipelineConfig::default()
            });
        let outcome = pipeline.run_on_html(&pages).expect("runs");
        let diff = obs.snapshot().diff(&before);
        assert_eq!(diff.counter("objectrunner.core.pipeline.induce_runs"), 1);
        assert_eq!(
            diff.counter("objectrunner.core.pipeline.pages"),
            outcome.stats.pages as u64
        );
        assert_eq!(
            diff.counter("objectrunner.core.annotate.cache_lookups"),
            outcome.stats.annotation_cache_hits + outcome.stats.annotation_cache_misses
        );
        // Stage-ran keys present in the per-run snapshot.
        let run_snap = outcome.stats.snapshot();
        assert!(run_snap
            .counters
            .contains_key("objectrunner.core.stage.wrap.wall_micros"));

        // The extract-only fast path records no induction stages.
        let fast_obs = objectrunner_obs::Obs::enabled();
        let fast = extract_only_with(
            &outcome.wrapper,
            outcome.main_block.as_ref(),
            &CleanOptions::default(),
            &pages,
            None,
            &fast_obs,
            None,
            None,
        );
        let fast_snap = fast.stats.snapshot();
        assert!(!fast_snap
            .counters
            .contains_key("objectrunner.core.stage.wrap.wall_micros"));
        assert_eq!(
            fast_obs
                .snapshot()
                .counter("objectrunner.core.pipeline.extract_only_runs"),
            1
        );
    }
}
