//! # objectrunner-html
//!
//! A from-scratch, error-tolerant HTML substrate for the ObjectRunner
//! reproduction. The paper pre-processes pages with JTidy to obtain
//! well-formed documents; this crate plays that role:
//!
//! * [`tokenizer`] — an HTML tokenizer producing a flat stream of
//!   [`tokenizer::Token`]s (tags, text, comments, doctype), tolerant of
//!   malformed markup.
//! * [`dom`] — an arena-based DOM built from the token stream with
//!   HTML-style error recovery (void elements, implied end tags,
//!   mismatched close tags).
//! * [`clean`] — the paper's cleaning pass: drop scripts, styles,
//!   comments, hidden elements, empty nodes; normalize whitespace.
//! * [`path`] — DOM paths and structural node signatures used to
//!   identify the same block across pages of a source.
//! * [`serialize`] — back to HTML text, plus the *word/tag token
//!   stream* consumed by the wrapper-induction algorithms.
//! * [`entities`] — HTML entity decoding.
//! * [`intern`] — process-wide [`intern::Symbol`] / [`intern::PathId`]
//!   interners and the FxHash-style hasher; tags, attributes, words and
//!   DOM paths are integer handles everywhere downstream.
//!
//! The DOM is deliberately simple: a `Vec`-backed arena addressed by
//! [`dom::NodeId`]; no interior mutability, no reference counting.

pub mod clean;
pub mod dom;
pub mod entities;
pub mod intern;
pub mod path;
pub mod serialize;
pub mod stream;
pub mod tokenizer;

pub use clean::{clean_document, CleanOptions};
pub use dom::{Document, Node, NodeId, NodeKind, TreeBuilder};
pub use intern::{FxHashMap, FxHashSet, FxHasher, PathId, Symbol};
pub use path::{node_path, node_path_id, NodeSignature};
pub use serialize::{to_html, token_stream, PageToken};
pub use stream::{Event, EventTokenizer};
pub use tokenizer::{tokenize, Token};

fn count_parse(input: &str) {
    if objectrunner_obs::global_enabled() {
        objectrunner_obs::global_count("objectrunner.html.parse.documents", 1);
        objectrunner_obs::global_count("objectrunner.html.parse.bytes", input.len() as u64);
    }
}

/// Parse an HTML string into a well-formed [`Document`].
///
/// Never fails: malformed input is repaired in the style of JTidy
/// (unclosed tags are auto-closed, stray end tags are dropped).
///
/// ```
/// let doc = objectrunner_html::parse("<ul><li>a<li>b</ul>");
/// let text = doc.text_content(doc.root());
/// assert_eq!(text, "a b");
/// ```
pub fn parse(input: &str) -> Document {
    count_parse(input);
    let mut tokenizer = EventTokenizer::new(input);
    let mut builder = TreeBuilder::new();
    while let Some(event) = tokenizer.next_event() {
        builder.event(event);
    }
    builder.finish()
}

/// The per-page parser the benchmark harness calls. It holds no
/// state: [`PageParser::parse`] is [`parse`].
#[derive(Default)]
pub struct PageParser;

impl PageParser {
    /// A parser (stateless).
    pub fn new() -> PageParser {
        PageParser
    }

    /// Parse one page; same as [`parse`].
    pub fn parse(&mut self, input: &str) -> Document {
        parse(input)
    }

    /// Always 0: parsing keeps no per-page text arena. Exists only so
    /// the benchmark harness that reads it keeps building.
    pub fn arena_peak_bytes(&self) -> usize {
        0
    }
}

/// Parse and clean in one step with default [`CleanOptions`].
pub fn parse_clean(input: &str) -> Document {
    let mut doc = parse(input);
    clean::clean_document(&mut doc, &CleanOptions::default());
    doc
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    /// Compile-time guarantee that pages can cross thread boundaries —
    /// the contract the pipeline executor relies on.
    #[test]
    fn document_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Document>();
        assert_send_sync::<Symbol>();
        assert_send_sync::<PathId>();
    }
}
