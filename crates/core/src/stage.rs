//! The explicit stage graph of the ObjectRunner pipeline.
//!
//! The monolithic `run_on_documents` is decomposed into named stages
//! with a fixed dependency order:
//!
//! ```text
//!   Parse ─▶ Clean ─▶ Segment ─▶ Annotate/Sample ─▶ Wrap ─▶ Extract
//!   per-page  per-page  per-page+vote   per-page rounds   per-support  per-page
//! ```
//!
//! * **Per-page stages** (Parse, Clean, Segment scoring, Annotate
//!   rounds, Extract) fan out across the [`Executor`]'s workers; their
//!   reductions run in page-index order, so the fan-out is invisible in
//!   the output.
//! * **Whole-source stages** (the Segment vote, Sample shrinking, Wrap)
//!   are sequential folds over per-page results — they are the points
//!   where cross-page state is combined, and keeping them sequential is
//!   what makes `threads = N` byte-identical to `threads = 1`.
//! * **Wrap** additionally fans out across the §IV self-validation
//!   loop's candidate support values (3..=5 by default); the winner is
//!   chosen by replaying the serial loop's (quality, support-order)
//!   rule over the precomputed results.
//!
//! Each stage reports wall-clock and summed-worker CPU time through
//! [`StageTiming`], surfaced in `PipelineStats::stage_timings`.

use crate::exec::Executor;
use crate::wrapper::Wrapper;
use objectrunner_html::{clean_document, parse, CleanOptions, Document};
use objectrunner_segment::{
    score_page, simplify_to_main_block, vote_main_block, LayoutOptions, MainBlockChoice,
};
use objectrunner_sod::Instance;
use std::time::{Duration, Instant};

/// The pipeline's stages, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// HTML → DOM, per page.
    Parse,
    /// JTidy-style cleaning, per page.
    Clean,
    /// Layout + main-block scoring per page, cross-page vote,
    /// per-page simplification.
    Segment,
    /// Recognizer annotation rounds, per page (runs inside Sample).
    Annotate,
    /// Algorithm 1 sample selection (whole-source; includes Annotate).
    Sample,
    /// Speculative §IV self-validation work that a serial run would
    /// also have paid but whose wrappers lost (or tied) the support
    /// vote. Kept distinct from Wrap so per-stage CPU totals sum to
    /// pipeline wall time instead of double-counting rerun work.
    SampleRerun,
    /// Algorithm 2 wrapper generation across candidate supports
    /// (whole-source, fanned out per support value).
    Wrap,
    /// Template application to every page.
    Extract,
}

impl Stage {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Clean => "clean",
            Stage::Segment => "segment",
            Stage::Annotate => "annotate",
            Stage::Sample => "sample",
            Stage::SampleRerun => "sample.rerun",
            Stage::Wrap => "wrap",
            Stage::Extract => "extract",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall/CPU accounting for one executed stage.
///
/// `cpu_micros` is the summed busy time of the workers that ran the
/// stage's items; at `threads = 1` it tracks `wall_micros`, and the
/// ratio `cpu / wall` approximates the stage's effective parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    pub stage: Stage,
    pub wall_micros: u128,
    pub cpu_micros: u128,
}

impl StageTiming {
    /// Record a stage that started at `start` and kept workers busy for
    /// `busy` in total.
    pub fn record(stage: Stage, start: Instant, busy: Duration) -> StageTiming {
        StageTiming {
            stage,
            wall_micros: start.elapsed().as_micros(),
            cpu_micros: busy.as_micros(),
        }
    }
}

/// Parse stage: raw HTML batch → documents, fanned out per page.
pub fn parse_stage(exec: &Executor, pages: &[&str]) -> (Vec<Document>, StageTiming) {
    let start = Instant::now();
    let (docs, busy) = exec.map_timed(pages, |_, html| parse(html));
    (docs, StageTiming::record(Stage::Parse, start, busy))
}

/// Clean stage: in-place JTidy-style cleaning, fanned out per page.
pub fn clean_stage(exec: &Executor, docs: &mut [Document], opts: &CleanOptions) -> StageTiming {
    let start = Instant::now();
    let busy = exec.for_each_mut(docs, |_, doc| clean_document(doc, opts));
    StageTiming::record(Stage::Clean, start, busy)
}

/// Segment stage: score candidate main blocks per page concurrently,
/// vote across pages in page order, then simplify every page to the
/// winning block. Returns the choice (None when no page yields a
/// candidate block — pages are then left untouched).
pub fn segment_stage(
    exec: &Executor,
    docs: &mut [Document],
    opts: &LayoutOptions,
) -> (Option<MainBlockChoice>, StageTiming) {
    let start = Instant::now();
    let (scores, mut busy) = exec.map_timed(docs, |_, doc| score_page(doc, opts));
    let choice = vote_main_block(scores);
    if let Some(choice) = &choice {
        busy += exec.for_each_mut(docs, |_, doc| {
            let _ = simplify_to_main_block(doc, choice);
        });
    }
    (choice, StageTiming::record(Stage::Segment, start, busy))
}

/// Extract stage: apply a wrapper to every page, fanned out per page.
/// Returns per-page instances (page boundaries preserved) so callers
/// can keep extraction paired with its page.
pub fn extract_stage(
    exec: &Executor,
    wrapper: &Wrapper,
    docs: &[Document],
) -> (Vec<Vec<Instance>>, StageTiming) {
    let start = Instant::now();
    let (per_page, busy) = exec.map_timed(docs, |_, doc| wrapper.extract_document(doc));
    (per_page, StageTiming::record(Stage::Extract, start, busy))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(records: usize) -> String {
        let recs: String = (0..records)
            .map(|i| format!("<li>record {i} with a fairly descriptive body text</li>"))
            .collect();
        format!(
            "<html><body>\
             <div class=\"nav\">home products about contact</div>\
             <div class=\"content\"><ul>{recs}</ul></div>\
             <div class=\"footer\">copyright fine print terms privacy</div>\
             </body></html>"
        )
    }

    fn run_stages(threads: usize) -> Vec<String> {
        let exec = Executor::new(threads);
        let pages: Vec<String> = (0..9).map(|i| page(3 + i)).collect();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let (mut docs, parse_t) = parse_stage(&exec, &refs);
        assert_eq!(parse_t.stage, Stage::Parse);
        assert_eq!(docs.len(), 9);
        let clean_t = clean_stage(&exec, &mut docs, &CleanOptions::default());
        assert_eq!(clean_t.stage, Stage::Clean);
        let (choice, segment_t) = segment_stage(&exec, &mut docs, &LayoutOptions::default());
        assert_eq!(segment_t.stage, Stage::Segment);
        assert!(choice.is_some(), "content block found");
        docs.iter()
            .map(|d| objectrunner_html::to_html(d, d.root()))
            .collect()
    }

    #[test]
    fn staged_output_is_thread_count_invariant() {
        let seq = run_stages(1);
        let par = run_stages(8);
        assert_eq!(seq, par, "threads=8 diverged from threads=1");
        // The nav/footer noise is gone after segmentation.
        for html in &seq {
            assert!(!html.contains("copyright"));
            assert!(html.contains("record 0"));
        }
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = [
            Stage::Parse,
            Stage::Clean,
            Stage::Segment,
            Stage::Annotate,
            Stage::Sample,
            Stage::SampleRerun,
            Stage::Wrap,
            Stage::Extract,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        assert_eq!(
            names,
            vec![
                "parse",
                "clean",
                "segment",
                "annotate",
                "sample",
                "sample.rerun",
                "wrap",
                "extract"
            ]
        );
    }
}
