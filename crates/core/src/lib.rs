//! # objectrunner-core
//!
//! The ObjectRunner extraction engine (paper §III): targeted wrapper
//! induction guided by an SOD and entity-type annotations.
//!
//! The extraction process has two stages — "(1) automatic annotation,
//! which consists in recognizing instances of the input SOD's entity
//! types in page content, and (2) extraction template construction,
//! using the semantic annotations from the previous stage and the
//! regularity of pages."
//!
//! Module map (in pipeline order):
//!
//! * [`annotate`] — recognize entity instances in DOM text and
//!   propagate annotations up the tree (§III-B).
//! * [`sample`] — Algorithm 1: greedy, selectivity-ordered annotation
//!   rounds and top-k page sample selection, with the block-level
//!   α-threshold early stop (§III-B, §III-E).
//! * [`tokens`] — page tokens, roles, and the interned dtoken streams
//!   the equivalence-class analysis runs on (§III-C).
//! * [`eqclass`] — occurrence vectors, equivalence classes, validity
//!   (ordered + nested) and invalid-class handling (§III-C).
//! * [`roles`] — Algorithm 2's role differentiation: HTML features,
//!   EQ positions, non-conflicting annotations, then conflicting
//!   annotations with the 0.7 generalization threshold (§III-C).
//! * [`template`] — the annotated template tree built from the class
//!   hierarchy (§III-D).
//! * [`matching`] — bottom-up matching of the canonical SOD into the
//!   template tree, including partial matchings for the §III-E abort
//!   condition.
//! * [`extract`] — applying the inferred template to all pages of the
//!   source, producing [`objectrunner_sod::Instance`] objects.
//! * [`wrapper`] — the wrapper-generation driver (Algorithm 2), plus
//!   tree-diff wrapper *repair* for drifted templates.
//! * [`treediff`] — GumTree-style matching between two template trees
//!   (top-down isomorphic subtrees, bottom-up containers by dice),
//!   the machinery under wrapper repair.
//! * [`pipeline`] — the end-to-end engine with the self-validation
//!   loop that varies the support parameter (§IV "automatic variation
//!   of parameters").
//! * [`dedup`] — cross-source de-duplication and object fusion (the
//!   architecture's de-duplication stage, Fig. 1).
//!
//! Orchestration:
//!
//! * [`stage`] — the explicit stage graph (Parse → Clean → Segment →
//!   Annotate/Sample → Wrap → Extract) with per-stage timings.
//! * [`exec`] — the deterministic scoped-thread pool that fans the
//!   extract-only paths out across pages (induction runs on the
//!   caller's thread).
//! * [`stream`] — the one extract-only path: a per-page Parse → Clean →
//!   main-block replay → Extract function and the bounded-window driver
//!   that runs it over an iterator of pages, behind both
//!   [`extract_stream`] and `pipeline::extract_only`.

pub mod annotate;
pub mod dedup;
pub mod eqclass;
pub mod exec;
pub mod extract;
pub mod matching;
pub mod pipeline;
pub mod roles;
pub mod sample;
pub mod stage;
pub mod stream;
pub mod template;
pub mod tokens;
pub mod treediff;
pub mod wrapper;

pub use annotate::{annotate_page, AnnotatedPage, Annotation};
pub use pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineOutcome};
pub use stage::{Stage, StageTiming};
pub use stream::{extract_stream, StreamConfig, StreamStats};
pub use treediff::{MappingSummary, MatchKind, TreeDiffConfig, TreeMapping};
pub use wrapper::{
    generate_wrapper, repair_wrapper, RepairConfig, RepairError, RepairOutcome, RepairReport,
    Wrapper, WrapperError,
};
