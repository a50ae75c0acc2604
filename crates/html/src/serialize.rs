//! Serialization back to HTML text and the flat *page token stream*
//! consumed by the wrapper-induction algorithms.
//!
//! Both ObjectRunner's equivalence-class analysis and the ExAlg /
//! RoadRunner baselines operate on a sequence of tokens where a token
//! is an HTML tag or a text *word* (paper §III-C: "occurrence vectors
//! for page tokens (words or HTML tags)").

use crate::dom::{is_void, Document, NodeId, NodeKind};
use crate::entities::encode_text;
use crate::intern::Symbol;
use std::cmp::Ordering;
use std::fmt;

/// One token of the flattened page, as used by wrapper induction.
/// `Copy` — 8 bytes of interned handles, so token streams clone and
/// compare without touching strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageToken {
    /// An opening tag `<name>` (attributes intentionally omitted; they
    /// are part of the template's fixed structure, not of the data).
    Open(Symbol),
    /// A closing tag `</name>`.
    Close(Symbol),
    /// One word of text content.
    Word(Symbol),
}

impl PageToken {
    /// True for `Open`/`Close`.
    pub fn is_tag(&self) -> bool {
        !matches!(self, PageToken::Word(_))
    }

    /// The token's text form, used in separator strings.
    pub fn render(&self) -> String {
        match self {
            PageToken::Open(t) => format!("<{t}>"),
            PageToken::Close(t) => format!("</{t}>"),
            PageToken::Word(w) => w.as_str().to_owned(),
        }
    }

    fn order_key(&self) -> (u8, &'static str) {
        match self {
            PageToken::Open(t) => (0, t.as_str()),
            PageToken::Close(t) => (1, t.as_str()),
            PageToken::Word(w) => (2, w.as_str()),
        }
    }
}

// Ordered by resolved string, not by symbol index: interning order
// depends on everything the process interned before, so index order
// would make any sorted-by-token output depend on process history.
impl PartialOrd for PageToken {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PageToken {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl fmt::Display for PageToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Flatten the subtree at `start` into a token stream. Each token is
/// paired with the id of the DOM node it came from, so annotations on
/// DOM nodes can be transferred onto tokens.
pub fn token_stream(doc: &Document, start: NodeId) -> Vec<(PageToken, NodeId)> {
    let mut out = Vec::new();
    flatten(doc, start, &mut out);
    out
}

fn flatten(doc: &Document, id: NodeId, out: &mut Vec<(PageToken, NodeId)>) {
    match &doc.node(id).kind {
        NodeKind::Document => {
            for &c in doc.children(id) {
                flatten(doc, c, out);
            }
        }
        NodeKind::Element { name, .. } => {
            out.push((PageToken::Open(*name), id));
            for &c in doc.children(id) {
                flatten(doc, c, out);
            }
            if !is_void(*name) {
                out.push((PageToken::Close(*name), id));
            }
        }
        NodeKind::Text(t) => {
            for w in t.split_whitespace() {
                out.push((PageToken::Word(Symbol::intern(w)), id));
            }
        }
        NodeKind::Comment(_) => {}
    }
}

/// Serialize the subtree at `start` back to HTML text.
pub fn to_html(doc: &Document, start: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, start, &mut out);
    out
}

fn write_node(doc: &Document, id: NodeId, out: &mut String) {
    match &doc.node(id).kind {
        NodeKind::Document => {
            for &c in doc.children(id) {
                write_node(doc, c, out);
            }
        }
        NodeKind::Element { name, attrs } => {
            out.push('<');
            out.push_str(name.as_str());
            for (a, v) in attrs {
                out.push(' ');
                out.push_str(a.as_str());
                let v = v.as_str();
                if !v.is_empty() {
                    out.push_str("=\"");
                    out.push_str(&v.replace('"', "&quot;"));
                    out.push('"');
                }
            }
            out.push('>');
            if !is_void(*name) {
                for &c in doc.children(id) {
                    write_node(doc, c, out);
                }
                out.push_str("</");
                out.push_str(name.as_str());
                out.push('>');
            }
        }
        NodeKind::Text(t) => out.push_str(&encode_text(t)),
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn token_stream_interleaves_tags_and_words() {
        let doc = parse("<div><p>two words</p></div>");
        let toks: Vec<PageToken> = token_stream(&doc, doc.root())
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(
            toks,
            vec![
                PageToken::Open("div".into()),
                PageToken::Open("p".into()),
                PageToken::Word("two".into()),
                PageToken::Word("words".into()),
                PageToken::Close("p".into()),
                PageToken::Close("div".into()),
            ]
        );
    }

    #[test]
    fn words_carry_their_text_node_id() {
        let doc = parse("<p>a b</p>");
        let stream = token_stream(&doc, doc.root());
        let word_nodes: Vec<NodeId> = stream
            .iter()
            .filter(|(t, _)| !t.is_tag())
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(word_nodes.len(), 2);
        assert_eq!(word_nodes[0], word_nodes[1]);
    }

    #[test]
    fn void_elements_have_no_close_token() {
        let doc = parse("<p>a<br>b</p>");
        let toks: Vec<PageToken> = token_stream(&doc, doc.root())
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert!(toks.contains(&PageToken::Open("br".into())));
        assert!(!toks.contains(&PageToken::Close("br".into())));
    }

    #[test]
    fn serialize_round_trips_structure() {
        let src = "<div id=\"m\"><p>hello world</p><br></div>";
        let doc = parse(src);
        let html = to_html(&doc, doc.root());
        assert_eq!(html, src);
        // Re-parsing the output yields identical text content.
        let doc2 = parse(&html);
        assert_eq!(doc.text_content(doc.root()), doc2.text_content(doc2.root()));
    }

    #[test]
    fn serialize_escapes_text() {
        let doc = parse("<p>a &lt; b</p>");
        let html = to_html(&doc, doc.root());
        assert_eq!(html, "<p>a &lt; b</p>");
    }

    #[test]
    fn boolean_attr_serializes_bare() {
        let doc = parse("<input type=\"hidden\" checked>");
        let html = to_html(&doc, doc.root());
        assert_eq!(html, "<input type=\"hidden\" checked>");
    }

    #[test]
    fn render_forms() {
        assert_eq!(PageToken::Open("div".into()).render(), "<div>");
        assert_eq!(PageToken::Close("div".into()).render(), "</div>");
        assert_eq!(PageToken::Word("x".into()).render(), "x");
    }
}
