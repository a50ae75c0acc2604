//! The explicit stage graph of the ObjectRunner pipeline.
//!
//! Induction runs as named stages with a fixed dependency order:
//!
//! ```text
//!   Parse ─▶ Clean ─▶ Segment ─▶ Annotate/Sample ─▶ Wrap ─▶ Extract
//!   per-page  per-page  per-page+vote   per-page rounds   per-support  per-page
//! ```
//!
//! Every stage is a plain loop on the caller's thread: induction reads
//! a source's ~20-page sample, and parallelism pays across sources and
//! requests (the daemon's worker pool), not inside one source.
//!
//! * **Per-page stages** (Parse, Clean, Segment scoring, Annotate
//!   rounds, Extract) loop over the pages in page order.
//! * **Whole-source stages** (the Segment vote, Sample shrinking, Wrap)
//!   fold the per-page results — the points where cross-page state is
//!   combined.
//! * **Wrap** runs the §IV self-validation loop: it tries the candidate
//!   support values (3..=5 by default) in order and stops at the first
//!   wrapper that is good enough.
//!
//! Each stage reports wall-clock time and the time spent in its
//! per-item work through [`StageTiming`], surfaced in
//! `PipelineStats::stage_timings`.

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
    /// §IV self-validation evaluations that ran but did not win: the
    /// loop's reruns, whose wrappers were discarded. Kept distinct from
    /// Wrap so per-stage CPU totals sum to the pipeline's work instead
    /// of double-counting rerun work.
    SampleRerun,
    /// Algorithm 2 wrapper generation at the winning support value.
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
/// `cpu_micros` is the time spent in the stage's per-item work (summed
/// over workers where a stage fans out); for a stage run on one thread
/// it tracks `wall_micros`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    pub stage: Stage,
    pub wall_micros: u128,
    pub cpu_micros: u128,
}

impl StageTiming {
    /// Record a stage that started at `start` and spent `busy` in its
    /// per-item work.
    pub fn record(stage: Stage, start: Instant, busy: Duration) -> StageTiming {
        StageTiming {
            stage,
            wall_micros: start.elapsed().as_micros(),
            cpu_micros: busy.as_micros(),
        }
    }
}

/// Parse stage: raw HTML batch → documents, one page at a time.
pub fn parse_stage<S: AsRef<str>>(pages: &[S]) -> (Vec<Document>, StageTiming) {
    let start = Instant::now();
    let docs: Vec<Document> = pages.iter().map(|html| parse(html.as_ref())).collect();
    (
        docs,
        StageTiming::record(Stage::Parse, start, start.elapsed()),
    )
}

/// Clean stage: in-place JTidy-style cleaning of every page.
pub fn clean_stage(docs: &mut [Document], opts: &CleanOptions) -> StageTiming {
    let start = Instant::now();
    for doc in docs.iter_mut() {
        clean_document(doc, opts);
    }
    StageTiming::record(Stage::Clean, start, start.elapsed())
}

/// Segment stage: score candidate main blocks per page, vote across
/// pages in page order, then simplify every page to the winning block.
/// Returns the choice (None when no page yields a candidate block —
/// pages are then left untouched). The vote is not per-page work, so
/// its time counts toward wall but not CPU.
pub fn segment_stage(
    docs: &mut [Document],
    opts: &LayoutOptions,
) -> (Option<MainBlockChoice>, StageTiming) {
    let start = Instant::now();
    let scores: Vec<_> = docs.iter().map(|doc| score_page(doc, opts)).collect();
    let mut busy = start.elapsed();
    let choice = vote_main_block(scores);
    if let Some(choice) = &choice {
        let simplify_start = Instant::now();
        for doc in docs.iter_mut() {
            let _ = simplify_to_main_block(doc, choice);
        }
        busy += simplify_start.elapsed();
    }
    (choice, StageTiming::record(Stage::Segment, start, busy))
}

/// Extract stage: apply a wrapper to every page. Returns per-page
/// instances (page boundaries preserved) so callers can keep
/// extraction paired with its page.
pub fn extract_stage(wrapper: &Wrapper, docs: &[Document]) -> (Vec<Vec<Instance>>, StageTiming) {
    let start = Instant::now();
    let per_page: Vec<Vec<Instance>> = docs
        .iter()
        .map(|doc| wrapper.extract_document(doc))
        .collect();
    (
        per_page,
        StageTiming::record(Stage::Extract, start, start.elapsed()),
    )
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

    #[test]
    fn stages_reduce_pages_to_the_main_block() {
        let pages: Vec<String> = (0..9).map(|i| page(3 + i)).collect();
        let (mut docs, parse_t) = parse_stage(&pages);
        assert_eq!(parse_t.stage, Stage::Parse);
        assert_eq!(docs.len(), 9);
        let clean_t = clean_stage(&mut docs, &CleanOptions::default());
        assert_eq!(clean_t.stage, Stage::Clean);
        let (choice, segment_t) = segment_stage(&mut docs, &LayoutOptions::default());
        assert_eq!(segment_t.stage, Stage::Segment);
        assert!(choice.is_some(), "content block found");
        // The nav/footer noise is gone after segmentation.
        for doc in &docs {
            let html = objectrunner_html::to_html(doc, doc.root());
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
