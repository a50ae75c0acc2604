//! Main-content block selection (paper §III):
//!
//! "we applied the straightforward heuristic of selecting as the best
//! candidate segment the one described by the largest and most central
//! rectangle in the page. As block sizes and even the block structure
//! may vary from one page to another, across all the pages of a given
//! source, we identified the best candidate block by its tag name, its
//! path in the DOM tree and its attribute names and values."

use crate::blocks::{block_tree, BlockTree};
use crate::layout::{layout_document, LayoutOptions, Rect};
use objectrunner_html::{Document, NodeId, NodeSignature};

/// The outcome of main-block selection over a set of pages.
#[derive(Debug, Clone)]
pub struct MainBlockChoice {
    /// The cross-page identity of the chosen block.
    pub signature: NodeSignature,
    /// How many of the input pages contain a block with this signature.
    pub support: usize,
    /// Score of the winning block on its best page.
    pub score: f64,
}

/// Score of a candidate rectangle: area × centrality.
///
/// Centrality decays with the horizontal distance between the block's
/// center and the viewport's center line; vertically we prefer blocks
/// that start in the upper two-thirds of the page (headers aside).
fn block_score(rect: &Rect, viewport_width: f64, page_height: f64) -> f64 {
    if rect.area() <= 0.0 {
        return 0.0;
    }
    let (cx, _) = rect.center();
    let horiz_offset = ((cx - viewport_width / 2.0).abs() / (viewport_width / 2.0)).min(1.0);
    let centrality = 1.0 - 0.5 * horiz_offset;
    let vert_penalty = if page_height > 0.0 && rect.y > page_height * 0.8 {
        0.5 // likely a footer region
    } else {
        1.0
    };
    rect.area() * centrality * vert_penalty
}

/// Per-page half of main-block selection: lay the page out and score
/// its candidate blocks, returning the best block's cross-page
/// signature and score. Pages are independent, so callers may run this
/// concurrently; [`vote_main_block`] folds the per-page results.
pub fn score_page(doc: &Document, opts: &LayoutOptions) -> Option<(NodeSignature, f64)> {
    objectrunner_obs::global_count("objectrunner.segment.score.pages", 1);
    let layout = layout_document(doc, opts);
    let tree: BlockTree = block_tree(doc, &layout, opts);
    let page_height = tree.root().map(|b| b.rect.h).unwrap_or(0.0);
    // Candidates: non-root blocks. Prefer deeper blocks on ties so we
    // zoom into the content rather than stay at <body>.
    let mut best: Option<(NodeSignature, f64)> = None;
    for block in tree.blocks.iter().skip(1) {
        let Some(sig) = NodeSignature::of(doc, block.node) else {
            continue;
        };
        let mut s = block_score(&block.rect, opts.viewport_width, page_height);
        // Depth tie-break: marginally prefer inner blocks that hold the
        // same content as their wrapper.
        s *= 1.0 + 0.01 * block.depth as f64;
        if best.as_ref().map(|(_, bs)| s > *bs).unwrap_or(true) {
            best = Some((sig, s));
        }
    }
    best
}

/// Select the main-content block for a *source* (a set of pages sharing
/// a template): run the per-page heuristic, then vote across pages so
/// the block is identified by a signature that exists on (most) pages.
pub fn select_main_block(pages: &[Document], opts: &LayoutOptions) -> Option<MainBlockChoice> {
    vote_main_block(pages.iter().map(|doc| score_page(doc, opts)))
}

/// Cross-page half of main-block selection: fold per-page
/// [`score_page`] results into the winning block. The vote is a
/// sequential reduction, so feeding it per-page results **in page
/// order** yields the same choice whether the scoring ran sequentially
/// or fanned out across threads.
pub fn vote_main_block<I>(choices: I) -> Option<MainBlockChoice>
where
    I: IntoIterator<Item = Option<(NodeSignature, f64)>>,
{
    let mut votes: Vec<(NodeSignature, usize, f64)> = Vec::new();
    let mut candidate_pages = 0u64;
    for choice in choices {
        let Some((sig, score)) = choice else {
            continue;
        };
        candidate_pages += 1;
        match votes.iter_mut().find(|(s, _, _)| *s == sig) {
            Some((_, count, best_score)) => {
                *count += 1;
                if score > *best_score {
                    *best_score = score;
                }
            }
            None => votes.push((sig, 1, score)),
        }
    }
    if candidate_pages > 0 {
        objectrunner_obs::global_count(
            "objectrunner.segment.vote.candidate_pages",
            candidate_pages,
        );
    }
    votes
        .into_iter()
        .max_by(|a, b| {
            (a.1, a.2)
                .partial_cmp(&(b.1, b.2))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(signature, support, score)| MainBlockChoice {
            signature,
            support,
            score,
        })
}

/// Reduce `doc` to the subtree rooted at the chosen main block: every
/// other child of the block's ancestors is detached. Returns the block
/// node when found on this page.
pub fn simplify_to_main_block(doc: &mut Document, choice: &MainBlockChoice) -> Option<NodeId> {
    let matches = choice.signature.find_in(doc);
    let &target = matches.first()?;
    // Detach all siblings along the ancestor chain.
    let mut keep = target;
    while let Some(parent) = doc.parent(keep) {
        let siblings: Vec<NodeId> = doc
            .children(parent)
            .iter()
            .copied()
            .filter(|&c| c != keep)
            .collect();
        doc.detach_all(&siblings);
        keep = parent;
    }
    Some(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use objectrunner_html::parse;

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
    fn picks_the_content_block_not_nav_or_footer() {
        let pages: Vec<Document> = (0..3).map(|i| parse(&page(10 + i))).collect();
        let choice = select_main_block(&pages, &LayoutOptions::default()).expect("choice");
        assert!(
            choice
                .signature
                .attrs
                .iter()
                .any(|&(_, v)| v.as_str() == "content")
                || choice.signature.path.render().contains("ul"),
            "chose {:?}",
            choice.signature
        );
        assert_eq!(choice.support, 3);
    }

    #[test]
    fn simplify_removes_other_regions() {
        let mut doc = parse(&page(10));
        let choice = select_main_block(std::slice::from_ref(&doc), &LayoutOptions::default())
            .expect("choice");
        simplify_to_main_block(&mut doc, &choice).expect("block on page");
        let text = doc.text_content(doc.root());
        assert!(text.contains("record 0"));
        assert!(!text.contains("copyright"));
        assert!(!text.contains("home products"));
    }

    #[test]
    fn signature_survives_varying_record_counts() {
        let pages: Vec<Document> = [3usize, 30, 12].iter().map(|&n| parse(&page(n))).collect();
        let choice = select_main_block(&pages, &LayoutOptions::default()).expect("choice");
        for p in &pages {
            assert_eq!(choice.signature.find_in(p).len(), 1);
        }
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(select_main_block(&[], &LayoutOptions::default()).is_none());
    }

    #[test]
    fn block_score_prefers_center() {
        let wide = Rect {
            x: 0.0,
            y: 0.0,
            w: 1024.0,
            h: 100.0,
        };
        let off_left = Rect {
            x: 0.0,
            y: 0.0,
            w: 200.0,
            h: 512.0,
        };
        let centered = Rect {
            x: 412.0,
            y: 0.0,
            w: 200.0,
            h: 512.0,
        };
        // Same area: centered beats off-center.
        assert!(block_score(&centered, 1024.0, 1000.0) > block_score(&off_left, 1024.0, 1000.0));
        // Area dominates.
        assert!(block_score(&wide, 1024.0, 1000.0) > block_score(&off_left, 1024.0, 1000.0));
    }
}
