//! Arena-based DOM with JTidy-style error recovery.
//!
//! The tree builder consumes the tokenizer's events and always produces
//! a well-formed tree: void elements never take children, implied end
//! tags are inserted (`<li>`, `<p>`, `<option>`, table parts), stray
//! end tags are dropped, and everything left open at EOF is closed.
//! Nesting is capped at [`MAX_DEPTH`] open elements, as browsers cap
//! it, so every recursive walk over a tree is bounded whatever the
//! input.
//!
//! Tag and attribute identities are interned [`Symbol`]s, and every
//! node carries its interned tag-path ([`PathId`]) computed
//! incrementally at insertion — reading a node's path is O(1).

use crate::intern::{FxHashSet, PathId, Symbol};
use crate::stream::Event;
use std::fmt;
use std::sync::OnceLock;

/// Index of a node in its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Node payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The synthetic document root.
    Document,
    /// An element with its (lower-cased, interned) tag name and
    /// attributes.
    Element {
        name: Symbol,
        attrs: Vec<(Symbol, Symbol)>,
    },
    /// A text node (entity-decoded).
    Text(String),
    /// A comment (dropped by cleaning).
    Comment(String),
}

/// One DOM node: payload plus tree links and its interned tag-path.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    /// Interned tag-path from the root (text/comment nodes contribute
    /// the `#text`/`#comment` pseudo-segments). Computed once at
    /// insertion; detaching a node does not rewrite it.
    pub path: PathId,
}

/// An HTML document as a node arena rooted at [`Document::root`].
#[derive(Debug, Clone, Default)]
pub struct Document {
    nodes: Vec<Node>,
}

/// Elements that never have content.
pub const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Symbol-level check for [`VOID_ELEMENTS`] (hot in tree building and
/// token-stream flattening).
pub fn is_void(tag: Symbol) -> bool {
    static SET: OnceLock<FxHashSet<Symbol>> = OnceLock::new();
    SET.get_or_init(|| VOID_ELEMENTS.iter().map(|t| Symbol::intern(t)).collect())
        .contains(&tag)
}

/// `(child, closes)`: opening `child` implies closing the nearest open
/// element in `closes`.
const IMPLIED_END: &[(&str, &[&str])] = &[
    ("li", &["li"]),
    ("option", &["option"]),
    ("tr", &["tr", "td", "th"]),
    ("td", &["td", "th"]),
    ("th", &["td", "th"]),
    ("p", &["p"]),
    ("dt", &["dt", "dd"]),
    ("dd", &["dt", "dd"]),
];

/// Pseudo-segment for text nodes in tag paths.
pub fn text_segment() -> Symbol {
    static SYM: OnceLock<Symbol> = OnceLock::new();
    *SYM.get_or_init(|| Symbol::intern("#text"))
}

/// Pseudo-segment for comment nodes in tag paths.
pub fn comment_segment() -> Symbol {
    static SYM: OnceLock<Symbol> = OnceLock::new();
    *SYM.get_or_init(|| Symbol::intern("#comment"))
}

fn path_segment(kind: &NodeKind) -> Option<Symbol> {
    match kind {
        NodeKind::Document => None,
        NodeKind::Element { name, .. } => Some(*name),
        NodeKind::Text(_) => Some(text_segment()),
        NodeKind::Comment(_) => Some(comment_segment()),
    }
}

impl Document {
    /// Create a document holding only a root node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
                path: PathId::ROOT,
            }],
        }
    }

    /// The synthetic root.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes in the arena (including detached ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document holds only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Append a new node under `parent` and return its id. The node's
    /// tag-path is derived from the parent's in O(1).
    pub fn push_node(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let parent_path = self.nodes[parent.index()].path;
        let path = match path_segment(&kind) {
            Some(seg) => parent_path.child(seg),
            None => parent_path,
        };
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
            path,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Element tag symbol, or `None` for non-elements.
    pub fn tag(&self, id: NodeId) -> Option<Symbol> {
        match &self.node(id).kind {
            NodeKind::Element { name, .. } => Some(*name),
            _ => None,
        }
    }

    /// Element tag name, or `None` for non-elements.
    pub fn tag_name(&self, id: NodeId) -> Option<&'static str> {
        self.tag(id).map(Symbol::as_str)
    }

    /// The node's interned tag-path (O(1); computed at insertion).
    pub fn path_id(&self, id: NodeId) -> PathId {
        self.node(id).path
    }

    /// Attribute lookup on an element node.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&'static str> {
        let name = Symbol::lookup(name)?;
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs
                .iter()
                .find(|(a, _)| *a == name)
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// Iterate over all node ids in depth-first pre-order from `start`.
    pub fn descendants(&self, start: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![start],
        }
    }

    /// The concatenated, whitespace-normalized text beneath `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut parts = Vec::new();
        self.collect_text(id, &mut parts);
        let joined = parts.join(" ");
        normalize_ws(&joined)
    }

    fn collect_text(&self, id: NodeId, out: &mut Vec<String>) {
        match &self.node(id).kind {
            NodeKind::Text(t) => {
                let t = normalize_ws(t);
                if !t.is_empty() {
                    out.push(t);
                }
            }
            NodeKind::Comment(_) => {}
            _ => {
                for &c in &self.node(id).children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Direct children ids (slice, no allocation).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// Parent id, `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Detach `id` from its parent. The node stays in the arena but is
    /// no longer reachable from the root.
    pub fn detach(&mut self, id: NodeId) {
        self.detach_all(std::slice::from_ref(&id));
    }

    /// [`Document::detach`] every node of `ids`, visiting each parent's
    /// child list once, so detaching every child of a wide node costs
    /// one pass instead of one per child.
    pub fn detach_all(&mut self, ids: &[NodeId]) {
        let mut parents: Vec<NodeId> = ids
            .iter()
            .filter_map(|&id| self.nodes[id.index()].parent.take())
            .collect();
        parents.sort_unstable();
        parents.dedup();
        for p in parents {
            let mut children = std::mem::take(&mut self.nodes[p.index()].children);
            children.retain(|&c| self.nodes[c.index()].parent.is_some());
            self.nodes[p.index()].children = children;
        }
    }

    /// All element descendants with the given tag name.
    pub fn elements_by_tag(&self, start: NodeId, tag: &str) -> Vec<NodeId> {
        let Some(tag) = Symbol::lookup(tag) else {
            return Vec::new();
        };
        self.descendants(start)
            .filter(|&id| self.tag(id) == Some(tag))
            .collect()
    }

    /// Count of reachable nodes (excludes detached subtrees).
    pub fn reachable_count(&self) -> usize {
        self.descendants(self.root()).count()
    }
}

/// Depth-first pre-order iterator over node ids.
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let children = &self.doc.node(id).children;
        self.stack.extend(children.iter().rev().copied());
        Some(id)
    }
}

/// Collapse runs of whitespace into single spaces and trim.
pub fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Most elements open at once. An element that would open deeper is
/// still attached, but it takes no children: what follows lands beside
/// it, under the deepest open element.
pub const MAX_DEPTH: usize = 512;

/// Incremental tree builder: the DOM's recovery logic, fed one
/// tokenizer [`Event`] at a time so parsing never materializes a token
/// vector.
pub struct TreeBuilder {
    doc: Document,
    /// Stack of open elements; root is always at the bottom.
    open: Vec<NodeId>,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        TreeBuilder::new()
    }
}

impl TreeBuilder {
    /// A builder holding an empty document.
    pub fn new() -> TreeBuilder {
        let doc = Document::new();
        let open = vec![doc.root()];
        TreeBuilder { doc, open }
    }

    /// Feed one tokenizer event (borrowed text is copied here, at the
    /// single point where the tree takes ownership).
    pub fn event(&mut self, event: Event<'_>) {
        match event {
            Event::Doctype(_) => {}
            Event::Comment(c) => self.comment(c.into_owned()),
            Event::Text(t) => self.text(t.into_owned()),
            Event::Open {
                name,
                attrs,
                self_closing,
            } => self.open_tag(name, attrs, self_closing),
            Event::Close { name } => self.close_tag(name),
        }
    }

    /// Open an element (with implied-end recovery).
    pub fn open_tag(&mut self, name: Symbol, attrs: Vec<(Symbol, Symbol)>, self_closing: bool) {
        apply_implied_end(&self.doc, &mut self.open, name);
        let parent = *self.open.last().expect("root always open");
        let id = self
            .doc
            .push_node(parent, NodeKind::Element { name, attrs });
        if !is_void(name) && !self_closing && self.open.len() < MAX_DEPTH {
            self.open.push(id);
        }
    }

    /// Close the nearest matching open element; stray closes are dropped.
    pub fn close_tag(&mut self, name: Symbol) {
        if let Some(pos) = self
            .open
            .iter()
            .rposition(|&id| self.doc.tag(id) == Some(name))
        {
            self.open.truncate(pos);
        }
    }

    /// Append a text node under the current open element.
    pub fn text(&mut self, t: String) {
        let parent = *self.open.last().expect("root always open");
        self.doc.push_node(parent, NodeKind::Text(t));
    }

    /// Append a comment node under the current open element.
    pub fn comment(&mut self, c: String) {
        let parent = *self.open.last().expect("root always open");
        self.doc.push_node(parent, NodeKind::Comment(c));
    }

    /// Close everything still open and hand back the document.
    pub fn finish(self) -> Document {
        self.doc
    }
}

struct ImpliedEndTable {
    /// `(incoming, closes)` with everything pre-interned.
    rules: Vec<(Symbol, Vec<Symbol>)>,
    boundaries: FxHashSet<Symbol>,
}

fn implied_end_table() -> &'static ImpliedEndTable {
    static TABLE: OnceLock<ImpliedEndTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Structural container boundaries implied-end never crosses.
        const BOUNDARIES: &[&str] = &[
            "ul", "ol", "table", "tbody", "thead", "tfoot", "select", "dl", "div", "body", "html",
        ];
        ImpliedEndTable {
            rules: IMPLIED_END
                .iter()
                .map(|(c, closes)| {
                    (
                        Symbol::intern(c),
                        closes.iter().map(|t| Symbol::intern(t)).collect(),
                    )
                })
                .collect(),
            boundaries: BOUNDARIES.iter().map(|t| Symbol::intern(t)).collect(),
        }
    })
}

fn apply_implied_end(doc: &Document, open: &mut Vec<NodeId>, incoming: Symbol) {
    let table = implied_end_table();
    let Some((_, closes)) = table.rules.iter().find(|(c, _)| *c == incoming) else {
        return;
    };
    // Close the nearest open element in `closes`, but never cross a
    // structural container boundary (ul/ol/table/tbody/select/dl/div).
    // Pop the maximal run of closeable elements at the top of the
    // stack (e.g. an incoming <tr> closes both the open <td> and the
    // previous <tr>), stopping at any container boundary.
    let mut cut = open.len();
    for i in (1..open.len()).rev() {
        let Some(tag) = doc.tag(open[i]) else { break };
        if closes.contains(&tag) {
            cut = i;
        } else {
            break;
        }
        if table.boundaries.contains(&tag) {
            break;
        }
    }
    open.truncate(cut);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn tags(doc: &Document) -> Vec<String> {
        doc.descendants(doc.root())
            .filter_map(|id| doc.tag_name(id).map(str::to_owned))
            .collect()
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let depth = MAX_DEPTH + 100;
        let html = format!("{}x{}", "<div>".repeat(depth), "</div>".repeat(depth));
        let doc = parse(&html);
        assert_eq!(tags(&doc).len(), depth, "every element is kept");
        let deepest = doc
            .descendants(doc.root())
            .map(|id| {
                let mut d = 0;
                let mut at = id;
                while let Some(p) = doc.node(at).parent {
                    d += 1;
                    at = p;
                }
                d
            })
            .max()
            .unwrap_or(0);
        assert_eq!(deepest, MAX_DEPTH, "no node sits deeper than the cap");
        assert_eq!(doc.text_content(doc.root()), "x");
    }

    #[test]
    fn builds_simple_tree() {
        let doc = parse("<html><body><p>hi</p></body></html>");
        assert_eq!(tags(&doc), vec!["html", "body", "p"]);
        assert_eq!(doc.text_content(doc.root()), "hi");
    }

    #[test]
    fn auto_closes_li() {
        let doc = parse("<ul><li>a<li>b<li>c</ul>");
        let ul = doc.elements_by_tag(doc.root(), "ul")[0];
        let lis = doc.elements_by_tag(ul, "li");
        assert_eq!(lis.len(), 3);
        // Each li is a direct child of ul, not nested.
        for li in lis {
            assert_eq!(doc.parent(li), Some(ul));
        }
    }

    #[test]
    fn auto_closes_p() {
        let doc = parse("<div><p>one<p>two</div>");
        let ps = doc.elements_by_tag(doc.root(), "p");
        assert_eq!(ps.len(), 2);
        assert_eq!(doc.text_content(ps[0]), "one");
        assert_eq!(doc.text_content(ps[1]), "two");
    }

    #[test]
    fn li_does_not_close_across_nested_ul() {
        let doc = parse("<ul><li>a<ul><li>a1</ul><li>b</ul>");
        let top_ul = doc.elements_by_tag(doc.root(), "ul")[0];
        let li = Symbol::intern("li");
        let direct_lis: Vec<_> = doc
            .children(top_ul)
            .iter()
            .filter(|&&c| doc.tag(c) == Some(li))
            .collect();
        assert_eq!(direct_lis.len(), 2);
    }

    #[test]
    fn table_cells_auto_close() {
        let doc = parse("<table><tr><td>a<td>b<tr><td>c</table>");
        let trs = doc.elements_by_tag(doc.root(), "tr");
        assert_eq!(trs.len(), 2);
        assert_eq!(doc.elements_by_tag(trs[0], "td").len(), 2);
        assert_eq!(doc.elements_by_tag(trs[1], "td").len(), 1);
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse("<p>a<br>b</p>");
        let p = doc.elements_by_tag(doc.root(), "p")[0];
        assert_eq!(doc.children(p).len(), 3);
        let br = doc.elements_by_tag(doc.root(), "br")[0];
        assert!(doc.children(br).is_empty());
        assert!(is_void(Symbol::intern("br")));
        assert!(!is_void(Symbol::intern("p")));
    }

    #[test]
    fn stray_end_tags_are_dropped() {
        let doc = parse("</div><p>x</p></span>");
        assert_eq!(tags(&doc), vec!["p"]);
        assert_eq!(doc.text_content(doc.root()), "x");
    }

    #[test]
    fn unclosed_tags_close_at_eof() {
        let doc = parse("<div><span>deep");
        assert_eq!(doc.text_content(doc.root()), "deep");
        assert_eq!(tags(&doc), vec!["div", "span"]);
    }

    #[test]
    fn mismatched_close_pops_to_match() {
        // </div> closes both span and div (span is implicitly closed).
        let doc = parse("<div><span>a</div><p>b</p>");
        let p = doc.elements_by_tag(doc.root(), "p")[0];
        assert_eq!(doc.parent(p), Some(doc.root()));
    }

    #[test]
    fn text_content_normalizes_whitespace() {
        let doc = parse("<p>  a \n b\t</p><p>c</p>");
        assert_eq!(doc.text_content(doc.root()), "a b c");
    }

    #[test]
    fn detach_removes_subtree_from_reachable() {
        let mut doc = parse("<div><p>a</p><p>b</p></div>");
        let before = doc.reachable_count();
        let p = doc.elements_by_tag(doc.root(), "p")[0];
        doc.detach(p);
        assert!(doc.reachable_count() < before);
        assert_eq!(doc.text_content(doc.root()), "b");
    }

    #[test]
    fn attrs_accessible() {
        let doc = parse("<div id=\"main\" class=\"content box\">x</div>");
        let div = doc.elements_by_tag(doc.root(), "div")[0];
        assert_eq!(doc.attr(div, "id"), Some("main"));
        assert_eq!(doc.attr(div, "class"), Some("content box"));
        assert_eq!(doc.attr(div, "missing"), None);
    }

    #[test]
    fn descendants_preorder() {
        let doc = parse("<a><b></b><c><d></d></c></a>");
        assert_eq!(tags(&doc), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn node_paths_are_incremental() {
        let doc = parse("<html><body><div><span>x</span></div></body></html>");
        let span = doc.elements_by_tag(doc.root(), "span")[0];
        assert_eq!(doc.path_id(span).render(), "html/body/div/span");
        let text = doc.children(span)[0];
        assert_eq!(doc.path_id(text).parent(), Some(doc.path_id(span)));
        assert_eq!(doc.path_id(doc.root()), PathId::ROOT);
        // Same structure on another page -> identical PathId.
        let doc2 = parse("<html><body><div><span>y</span></div></body></html>");
        let span2 = doc2.elements_by_tag(doc2.root(), "span")[0];
        assert_eq!(doc.path_id(span), doc2.path_id(span2));
    }
}
