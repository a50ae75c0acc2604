//! Annotation-driven page-sample selection (paper Algorithm 1 and
//! §III-E's annotation-phase early stop).
//!
//! "Our approach here starts from the observation that only a subset
//! of these pages have to be annotated, and from the annotated ones
//! only a further subset (approximately 20 pages) are used as sample
//! in the next stage … We use selectivity estimates, both at the level
//! of types and at the one of type instances, and look for entity
//! matches in a greedy manner, starting from types with likely few
//! witness pages and instances."
//!
//! Pages are **borrowed** throughout: the pool is a list of
//! `(page index, annotation map)` pairs over `&[Document]`, and only
//! the final k sample pages are cloned into owned [`AnnotatedPage`]s
//! for wrapper induction. Annotation rounds and the block-threshold
//! check loop over the pool in page-index order on the caller's
//! thread, so every cross-page reduction has one fixed order.

use crate::annotate::{
    propagate_upwards_into, AnnotatedPage, AnnotationMap, Annotator, PageMatches,
};
use objectrunner_html::{Document, NodeKind};
use objectrunner_knowledge::recognizer::RecognizerSet;
use objectrunner_segment::{block_tree, layout_document, LayoutOptions};
use objectrunner_sod::Sod;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Sampling parameters.
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// Final sample size k (the paper uses ~20 pages).
    pub sample_size: usize,
    /// Block-annotation threshold α of §III-E (0.5 in the paper).
    pub alpha: f64,
    /// After each annotation round, keep this fraction of pages
    /// (never below `sample_size`).
    pub shrink_factor: f64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            sample_size: 20,
            alpha: 0.5,
            shrink_factor: 0.5,
        }
    }
}

/// How the sample is chosen — the comparison of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStrategy {
    /// Algorithm 1: greedy, SOD/selectivity-guided.
    SodBased,
    /// Baseline: uniform random pages (seeded, deterministic).
    Random(u64),
}

/// Why a source was discarded during sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleError {
    /// No input pages.
    EmptySource,
    /// §III-E: no visual block reached the α annotation threshold.
    AnnotationThreshold {
        /// The best average annotation count per block observed.
        best_block_avg_milli: u64,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::EmptySource => write!(f, "source has no pages"),
            SampleError::AnnotationThreshold {
                best_block_avg_milli,
            } => write!(
                f,
                "no block reached the annotation threshold (best avg {:.3} per page)",
                *best_block_avg_milli as f64 / 1000.0
            ),
        }
    }
}

impl std::error::Error for SampleError {}

/// A selected, fully annotated sample plus the annotation-stage CPU
/// accounting the pipeline surfaces in its per-stage timings.
#[derive(Debug)]
pub struct SampleOutcome {
    /// The k sample pages, annotated (the only pages cloned out of the
    /// borrowed source).
    pub sample: Vec<AnnotatedPage>,
    /// Time spent in the annotation rounds.
    pub annotate_busy: Duration,
    /// Time spent in selection proper — page scoring,
    /// shrinking, and the §III-E block-threshold check. Disjoint from
    /// `annotate_busy`, so the pipeline can attribute annotation CPU
    /// and selection CPU to their own stages without double-counting.
    pub select_busy: Duration,
}

/// Select and annotate the wrapper-induction sample from a source.
///
/// Both strategies return fully annotated pages; they differ only in
/// *which* pages form the sample (the Table II comparison keeps
/// everything else equal). Documents are borrowed — only the selected
/// sample pages are cloned. `annotator` must be compiled from
/// `recognizers`; a caller-owned one keeps the compiled automatons and
/// the text memo cache warm across calls (pipeline re-runs, serving
/// re-inductions).
pub fn select_sample(
    docs: &[Document],
    recognizers: &RecognizerSet,
    annotator: &Annotator,
    sod: &Sod,
    config: &SampleConfig,
    strategy: SampleStrategy,
) -> Result<SampleOutcome, SampleError> {
    if docs.is_empty() {
        return Err(SampleError::EmptySource);
    }
    match strategy {
        SampleStrategy::SodBased => sod_based_sample(docs, recognizers, annotator, sod, config),
        SampleStrategy::Random(seed) => {
            random_sample(docs, recognizers, annotator, sod, config, seed)
        }
    }
}

fn sod_types<'a>(sod: &'a Sod, recognizers: &RecognizerSet) -> Vec<&'a str> {
    // Annotation order: dictionary types by decreasing selectivity,
    // then pattern types — restricted to the SOD's entity types.
    let order = recognizers.annotation_order();
    let wanted: Vec<&str> = sod.entity_types();
    order
        .into_iter()
        .filter(|t| wanted.contains(t))
        .map(|t| {
            // Re-borrow from the SOD so lifetimes tie to `sod`.
            *wanted.iter().find(|w| **w == t).expect("filtered")
        })
        .collect()
}

/// One pool entry: a page (by index into the borrowed docs) and its
/// annotations so far.
struct PoolPage {
    index: usize,
    annotations: AnnotationMap,
    /// All-type matches of the page's text nodes, computed by the
    /// first annotation round; later rounds project from this instead
    /// of re-walking the DOM and re-querying the memo cache.
    matches: Option<PageMatches>,
}

fn sod_based_sample(
    docs: &[Document],
    recognizers: &RecognizerSet,
    annotator: &Annotator,
    sod: &Sod,
    config: &SampleConfig,
) -> Result<SampleOutcome, SampleError> {
    let types = sod_types(sod, recognizers);
    let mut annotate_busy = Duration::ZERO;
    let mut select_busy = Duration::ZERO;
    // S := Si
    let mut pool: Vec<PoolPage> = (0..docs.len())
        .map(|index| PoolPage {
            index,
            annotations: HashMap::new(),
            matches: None,
        })
        .collect();
    // Scores per page per processed type.
    let mut min_scores: Vec<f64> = vec![f64::INFINITY; pool.len()];

    for type_name in &types {
        // Annotation round for this type, page by page.
        let round_start = Instant::now();
        for page in &mut pool {
            let matches = page
                .matches
                .get_or_insert_with(|| annotator.page_matches(&docs[page.index]));
            annotator.annotate_from_matches(matches, &mut page.annotations, type_name);
        }
        annotate_busy += round_start.elapsed();
        // Page score for this type (Eq. 3), fold into running minimum.
        let score_start = Instant::now();
        for (page, min_score) in pool.iter().zip(min_scores.iter_mut()) {
            let s = page_type_score(&docs[page.index], &page.annotations, recognizers, type_name);
            *min_score = min_score.min(s);
        }
        select_busy += score_start.elapsed();
        // Keep the richest pages only (shrink, floor at sample_size).
        let keep = ((pool.len() as f64 * config.shrink_factor).ceil() as usize)
            .max(config.sample_size)
            .min(pool.len());
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| {
            min_scores[b]
                .partial_cmp(&min_scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(keep);
        order.sort_unstable(); // preserve original page order
        pool = extract_indices(pool, &order);
        // Re-index the running minima to the kept pages.
        min_scores = order.iter().map(|&i| min_scores[i]).collect();
    }

    let propagate_start = Instant::now();
    for page in &mut pool {
        propagate_upwards_into(&docs[page.index], &mut page.annotations);
    }
    annotate_busy += propagate_start.elapsed();

    let threshold_start = Instant::now();
    check_block_threshold(docs, &pool, config)?;
    select_busy += threshold_start.elapsed();

    // Final sample: the k most annotated pages. Pages with no
    // annotations at all (interstitials, category browses) never
    // qualify — a short sample beats a polluted one.
    let mut order: Vec<usize> = (0..pool.len())
        .filter(|&i| !pool[i].annotations.is_empty())
        .collect();
    if order.is_empty() {
        return Err(SampleError::AnnotationThreshold {
            best_block_avg_milli: 0,
        });
    }
    order.sort_by_key(|&i| std::cmp::Reverse(pool[i].annotations.len()));
    order.truncate(config.sample_size);
    order.sort_unstable();
    let sample = extract_indices(pool, &order)
        .into_iter()
        .map(|page| AnnotatedPage {
            doc: docs[page.index].clone(),
            annotations: page.annotations,
        })
        .collect();
    Ok(SampleOutcome {
        sample,
        annotate_busy,
        select_busy,
    })
}

fn random_sample(
    docs: &[Document],
    recognizers: &RecognizerSet,
    annotator: &Annotator,
    sod: &Sod,
    config: &SampleConfig,
    seed: u64,
) -> Result<SampleOutcome, SampleError> {
    let types = sod_types(sod, recognizers);
    let k = config.sample_size.min(docs.len());
    let picks = random_indices(docs.len(), k, seed);
    let mut pages: Vec<AnnotatedPage> = docs
        .iter()
        .enumerate()
        .filter(|(i, _)| picks.contains(i))
        .map(|(_, doc)| AnnotatedPage {
            doc: doc.clone(),
            annotations: HashMap::new(),
        })
        .collect();
    let annotate_start = Instant::now();
    for page in &mut pages {
        // One DOM traversal annotates every type at once.
        annotator.annotate_types_into(&page.doc, &mut page.annotations, &types);
        propagate_upwards_into(&page.doc, &mut page.annotations);
    }
    Ok(SampleOutcome {
        sample: pages,
        annotate_busy: annotate_start.elapsed(),
        select_busy: Duration::ZERO,
    })
}

/// Deterministic k-of-n sampling via an xorshift generator (keeps the
/// core crate dependency-free; the seed makes Table II reproducible).
fn random_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Partial Fisher–Yates.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = i + (next() as usize) % (n - i);
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx
}

fn extract_indices(pool: Vec<PoolPage>, keep: &[usize]) -> Vec<PoolPage> {
    pool.into_iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, p)| p)
        .collect()
}

/// Eq. 3: `score(page/tj) = Σ_{i' ∈ tj in page} score(i, tj) / tf(i)`.
///
/// For dictionary types the gazetteer supplies `score(i,t)` and
/// `tf(i)`; for pattern types each match contributes its confidence
/// (tf 1), which only matters for the running-minimum ordering.
fn page_type_score(
    doc: &Document,
    annotations: &AnnotationMap,
    recognizers: &RecognizerSet,
    type_name: &str,
) -> f64 {
    let gaz = recognizers.get(type_name).and_then(|r| r.gazetteer());
    let mut total = 0.0;
    for (&node, anns) in annotations {
        if !anns.iter().any(|a| a.type_name == type_name) {
            continue;
        }
        let NodeKind::Text(text) = &doc.node(node).kind else {
            continue;
        };
        match gaz.and_then(|g| g.get(text)) {
            Some(entry) => total += entry.confidence / entry.term_frequency,
            None => {
                let conf = anns
                    .iter()
                    .find(|a| a.type_name == type_name)
                    .map(|a| a.confidence)
                    .unwrap_or(0.0);
                total += conf;
            }
        }
    }
    total
}

/// §III-E annotation-phase stop: "For each block, we check if the
/// following condition holds: Σ_{i=1..k} (no. of annotations in
/// block)/k > α … if we obtain at least one block that satisfies the
/// given condition, we continue … Otherwise the process is stopped."
///
/// Per-signature sums are folded in page order (f64 addition is not
/// associative, so the fold order is pinned for determinism).
fn check_block_threshold(
    docs: &[Document],
    pool: &[PoolPage],
    config: &SampleConfig,
) -> Result<(), SampleError> {
    if pool.is_empty() {
        return Err(SampleError::EmptySource);
    }
    let opts = LayoutOptions::default();
    // Average annotation count per block *signature* across pages.
    let mut per_block: objectrunner_html::FxHashMap<objectrunner_html::PathId, f64> =
        objectrunner_html::FxHashMap::default();
    for page in pool {
        let doc = &docs[page.index];
        let layout = layout_document(doc, &opts);
        let tree = block_tree(doc, &layout, &opts);
        for block in &tree.blocks {
            let sig = objectrunner_html::node_path_id(doc, block.node);
            let count = doc
                .descendants(block.node)
                .filter(|id| page.annotations.contains_key(id))
                .count();
            *per_block.entry(sig).or_insert(0.0) += count as f64;
        }
    }
    let k = pool.len() as f64;
    let best = per_block.values().fold(0.0f64, |m, &v| m.max(v / k));
    if best > config.alpha {
        Ok(())
    } else {
        Err(SampleError::AnnotationThreshold {
            best_block_avg_milli: (best * 1000.0) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use objectrunner_html::parse;
    use objectrunner_knowledge::gazetteer::Gazetteer;
    use objectrunner_knowledge::recognizer::Recognizer;
    use objectrunner_sod::{Multiplicity, SodBuilder};

    fn recognizers() -> RecognizerSet {
        let mut artists = Gazetteer::new();
        for (a, tf) in [("Metallica", 5.0), ("Madonna", 8.0), ("Muse", 4.0)] {
            artists.insert(a, 0.9, tf);
        }
        let mut set = RecognizerSet::new();
        set.insert("artist", Recognizer::dictionary(artists));
        set.insert("date", Recognizer::predefined_date());
        set
    }

    fn sod() -> objectrunner_sod::Sod {
        SodBuilder::tuple("concert")
            .entity("artist", Multiplicity::One)
            .entity("date", Multiplicity::One)
            .build()
    }

    fn concert_page(artist: &str) -> Document {
        parse(&format!(
            "<body><div class=\"m\"><li><div>{artist}</div>\
             <div>Monday May 11, 8:00pm</div></li></div></body>"
        ))
    }

    fn junk_page() -> Document {
        parse("<body><div class=\"m\"><p>nothing relevant here at all</p></div></body>")
    }

    /// Algorithm 1 over `docs` with a fresh annotator.
    fn sample(
        docs: &[Document],
        cfg: &SampleConfig,
        strategy: SampleStrategy,
    ) -> Result<Vec<AnnotatedPage>, SampleError> {
        let recognizers = recognizers();
        let annotator = Annotator::new(&recognizers);
        select_sample(docs, &recognizers, &annotator, &sod(), cfg, strategy).map(|o| o.sample)
    }

    #[test]
    fn selects_annotated_pages_over_junk() {
        let mut docs = vec![junk_page(), junk_page()];
        docs.push(concert_page("Metallica"));
        docs.push(concert_page("Madonna"));
        docs.push(concert_page("Muse"));
        let cfg = SampleConfig {
            sample_size: 3,
            ..SampleConfig::default()
        };
        let sample = sample(&docs, &cfg, SampleStrategy::SodBased).expect("sample");
        assert_eq!(sample.len(), 3);
        for page in &sample {
            assert!(page.annotated_node_count() > 0, "junk page selected");
        }
    }

    #[test]
    fn discards_unannotatable_source() {
        let docs: Vec<Document> = (0..10).map(|_| junk_page()).collect();
        let cfg = SampleConfig {
            sample_size: 5,
            ..SampleConfig::default()
        };
        let err = sample(&docs, &cfg, SampleStrategy::SodBased).expect_err("must be discarded");
        assert!(matches!(err, SampleError::AnnotationThreshold { .. }));
    }

    #[test]
    fn empty_source_is_an_error() {
        let err =
            sample(&[], &SampleConfig::default(), SampleStrategy::SodBased).expect_err("empty");
        assert_eq!(err, SampleError::EmptySource);
    }

    #[test]
    fn random_strategy_is_deterministic_per_seed() {
        let docs: Vec<Document> = (0..30)
            .map(|i| {
                if i % 3 == 0 {
                    concert_page("Metallica")
                } else {
                    junk_page()
                }
            })
            .collect();
        let cfg = SampleConfig {
            sample_size: 5,
            ..SampleConfig::default()
        };
        let s1 = sample(&docs, &cfg, SampleStrategy::Random(42)).expect("sample");
        let s2 = sample(&docs, &cfg, SampleStrategy::Random(42)).expect("sample");
        let texts = |s: &[AnnotatedPage]| -> Vec<String> {
            s.iter().map(|p| p.doc.text_content(p.doc.root())).collect()
        };
        assert_eq!(texts(&s1), texts(&s2));
    }

    #[test]
    fn random_indices_are_distinct_and_in_range() {
        let picks = random_indices(50, 20, 7);
        assert_eq!(picks.len(), 20);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_respects_requested_size() {
        let docs: Vec<Document> = (0..40).map(|_| concert_page("Metallica")).collect();
        let cfg = SampleConfig {
            sample_size: 7,
            ..SampleConfig::default()
        };
        let sample = sample(&docs, &cfg, SampleStrategy::SodBased).expect("sample");
        assert_eq!(sample.len(), 7);
    }
}
