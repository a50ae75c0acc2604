//! Page cleaning (paper §III, pre-processing).
//!
//! "Often, there are many segments in Web pages that do not encode
//! useful information, such as headers, scripts, styles, comments,
//! images, hidden tags, white spaces, tag properties, empty tags, etc."
//!
//! [`clean_document`] removes those in place: script/style/noise
//! elements, comments, hidden elements, presentational attributes,
//! whitespace-only text nodes, and (repeatedly) empty elements.

use crate::dom::{is_void, Document, NodeId, NodeKind};

/// Configuration for [`clean_document`].
#[derive(Debug, Clone)]
pub struct CleanOptions {
    /// Elements removed entirely, subtree included.
    pub drop_elements: Vec<String>,
    /// Remove comment nodes.
    pub drop_comments: bool,
    /// Remove elements with `style="display:none"` / `hidden` /
    /// `type="hidden"`.
    pub drop_hidden: bool,
    /// Keep only these attributes (the ones later stages need to
    /// identify blocks); everything else is presentational noise.
    pub keep_attrs: Vec<String>,
    /// Remove whitespace-only text nodes and collapse internal runs.
    pub normalize_whitespace: bool,
    /// Repeatedly remove childless non-void elements.
    pub drop_empty_elements: bool,
}

impl Default for CleanOptions {
    fn default() -> Self {
        CleanOptions {
            drop_elements: ["script", "style", "noscript", "iframe", "svg", "head"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            drop_comments: true,
            drop_hidden: true,
            keep_attrs: ["id", "class", "type", "href"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            normalize_whitespace: true,
            drop_empty_elements: true,
        }
    }
}

/// Clean `doc` in place according to `opts`.
pub fn clean_document(doc: &mut Document, opts: &CleanOptions) {
    objectrunner_obs::global_count("objectrunner.html.clean.documents", 1);
    let victims: Vec<NodeId> = doc
        .descendants(doc.root())
        .filter(|&id| should_drop(doc, id, opts))
        .collect();
    doc.detach_all(&victims);

    strip_attrs(doc, opts);

    if opts.normalize_whitespace {
        normalize_text_nodes(doc);
    }

    if opts.drop_empty_elements {
        // Removing an empty element can make its parent empty; iterate
        // to a fixpoint (bounded by tree depth).
        loop {
            let empties: Vec<NodeId> = doc
                .descendants(doc.root())
                .filter(|&id| is_empty_element(doc, id))
                .collect();
            if empties.is_empty() {
                break;
            }
            doc.detach_all(&empties);
        }
    }
}

fn should_drop(doc: &Document, id: NodeId, opts: &CleanOptions) -> bool {
    match &doc.node(id).kind {
        NodeKind::Comment(_) => opts.drop_comments,
        NodeKind::Element { name, attrs } => {
            let name = name.as_str();
            if opts.drop_elements.iter().any(|d| d == name) {
                return true;
            }
            if opts.drop_hidden {
                let hidden_attr = attrs.iter().any(|&(a, v)| {
                    let a = a.as_str();
                    (a == "hidden")
                        || (a == "type" && v.as_str() == "hidden")
                        || (a == "style" && v.as_str().replace(' ', "").contains("display:none"))
                });
                if hidden_attr {
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

fn strip_attrs(doc: &mut Document, opts: &CleanOptions) {
    let ids: Vec<NodeId> = doc.descendants(doc.root()).collect();
    for id in ids {
        if let NodeKind::Element { attrs, .. } = &mut doc.node_mut(id).kind {
            attrs.retain(|(a, _)| opts.keep_attrs.iter().any(|k| k == a.as_str()));
        }
    }
}

fn normalize_text_nodes(doc: &mut Document) {
    let ids: Vec<NodeId> = doc.descendants(doc.root()).collect();
    let mut empty_text = Vec::new();
    for id in ids {
        if let NodeKind::Text(t) = &mut doc.node_mut(id).kind {
            let norm = crate::dom::normalize_ws(t);
            if norm.is_empty() {
                empty_text.push(id);
            } else {
                *t = norm;
            }
        }
    }
    doc.detach_all(&empty_text);
}

fn is_empty_element(doc: &Document, id: NodeId) -> bool {
    match &doc.node(id).kind {
        NodeKind::Element { name, .. } => !is_void(*name) && doc.children(id).is_empty(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn cleaned(html: &str) -> Document {
        let mut doc = parse(html);
        clean_document(&mut doc, &CleanOptions::default());
        doc
    }

    #[test]
    fn drops_scripts_and_styles() {
        let doc = cleaned("<body><script>x()</script><style>.a{}</style><p>keep</p></body>");
        assert_eq!(doc.text_content(doc.root()), "keep");
        assert!(doc.elements_by_tag(doc.root(), "script").is_empty());
        assert!(doc.elements_by_tag(doc.root(), "style").is_empty());
    }

    #[test]
    fn drops_head() {
        let doc = cleaned("<html><head><title>T</title></head><body><p>b</p></body></html>");
        assert_eq!(doc.text_content(doc.root()), "b");
    }

    #[test]
    fn drops_comments() {
        let doc = cleaned("<p>a<!-- hidden note -->b</p>");
        assert_eq!(doc.text_content(doc.root()), "a b");
    }

    #[test]
    fn drops_hidden_elements() {
        let doc = cleaned(
            "<div><span hidden>h1</span><input type=\"hidden\" value=\"v\">\
             <span style=\"display: none\">h2</span><span>vis</span></div>",
        );
        assert_eq!(doc.text_content(doc.root()), "vis");
    }

    #[test]
    fn strips_presentational_attributes() {
        let doc = cleaned("<div id=\"m\" style=\"color:red\" onclick=\"x()\" class=\"c\">t</div>");
        let div = doc.elements_by_tag(doc.root(), "div")[0];
        assert_eq!(doc.attr(div, "id"), Some("m"));
        assert_eq!(doc.attr(div, "class"), Some("c"));
        assert_eq!(doc.attr(div, "style"), None);
        assert_eq!(doc.attr(div, "onclick"), None);
    }

    #[test]
    fn removes_whitespace_only_text() {
        let doc = cleaned("<div>\n   <p>x</p>\n   </div>");
        let div = doc.elements_by_tag(doc.root(), "div")[0];
        assert_eq!(doc.children(div).len(), 1);
    }

    #[test]
    fn removes_empty_elements_transitively() {
        let doc = cleaned("<div><span><b></b></span><p>x</p></div>");
        assert!(doc.elements_by_tag(doc.root(), "span").is_empty());
        assert!(doc.elements_by_tag(doc.root(), "b").is_empty());
        assert_eq!(doc.text_content(doc.root()), "x");
    }

    #[test]
    fn keeps_void_elements() {
        let doc = cleaned("<p>a<br>b</p>");
        assert_eq!(doc.elements_by_tag(doc.root(), "br").len(), 1);
    }

    #[test]
    fn empty_element_removal_can_be_disabled() {
        let mut doc = parse("<div><span></span>x</div>");
        let opts = CleanOptions {
            drop_empty_elements: false,
            ..CleanOptions::default()
        };
        clean_document(&mut doc, &opts);
        assert_eq!(doc.elements_by_tag(doc.root(), "span").len(), 1);
    }
}
