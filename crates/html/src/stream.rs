//! Incremental, pull-based HTML tokenization.
//!
//! [`EventTokenizer`] yields one [`Event`] at a time from a borrowed
//! byte slice — no token vector, no up-front pass. Text that needs no
//! entity decoding is handed out as a zero-copy slice of the input;
//! decoded text is an owned string.
//!
//! The tokenizer never fails; any byte sequence yields *some* event
//! stream. Tag and attribute names are lower-cased, attribute values
//! and text are entity-decoded, and the contents of raw-text elements
//! (`<script>`, `<style>`, `<textarea>`, `<title>`) come out as a
//! single text event, with neither markup nor entities interpreted.

use crate::entities;
use crate::intern::Symbol;
use std::borrow::Cow;

/// Elements whose content is raw text (no markup interpretation).
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style", "textarea", "title"];

/// One parse event. Borrowed variants point into the input — nothing
/// is copied until the caller decides to keep it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v">`; `self_closing` records a trailing `/>`.
    Open {
        name: Symbol,
        attrs: Vec<(Symbol, Symbol)>,
        self_closing: bool,
    },
    /// `</name>`
    Close { name: Symbol },
    /// Character data, entity-decoded, whitespace preserved.
    Text(Cow<'a, str>),
    /// `<!-- ... -->` (and processing instructions).
    Comment(Cow<'a, str>),
    /// `<!DOCTYPE ...>` with the keyword stripped.
    Doctype(Cow<'a, str>),
}

/// Resumable pull tokenizer (see module docs).
pub struct EventTokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Reusable attribute-value decode scratch.
    scratch: String,
    /// Raw-text element just opened: its content is the next event.
    pending_raw: Option<Symbol>,
}

impl<'a> EventTokenizer<'a> {
    /// Tokenize `input`, allocating decoded text as owned strings.
    pub fn new(input: &'a str) -> EventTokenizer<'a> {
        EventTokenizer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            scratch: String::new(),
            pending_raw: None,
        }
    }

    /// Pull the next event; `None` at end of input.
    pub fn next_event(&mut self) -> Option<Event<'a>> {
        loop {
            if let Some(name) = self.pending_raw.take() {
                if let Some(ev) = self.consume_raw_text(name) {
                    return Some(ev);
                }
                continue; // close tag immediately follows the open
            }
            if self.pos >= self.bytes.len() {
                return None;
            }
            let ev = if self.bytes[self.pos] == b'<' {
                self.consume_markup()
            } else {
                Some(self.consume_text())
            };
            if ev.is_some() {
                return ev;
            }
        }
    }

    fn consume_text(&mut self) -> Event<'a> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let raw = &self.input[start..self.pos];
        debug_assert!(!raw.is_empty());
        Event::Text(if entities::may_have_entities(raw) {
            Cow::Owned(entities::decode(raw))
        } else {
            Cow::Borrowed(raw)
        })
    }

    fn consume_markup(&mut self) -> Option<Event<'a>> {
        debug_assert_eq!(self.bytes[self.pos], b'<');
        let rest = &self.bytes[self.pos..];
        if rest.len() < 2 {
            // Lone '<' at EOF: literal text.
            self.pos += 1;
            return Some(Event::Text(Cow::Borrowed("<")));
        }
        match rest[1] {
            b'!' => Some(self.consume_declaration()),
            b'/' => self.consume_end_tag(),
            b'?' => Some(self.consume_processing_instruction()),
            c if c.is_ascii_alphabetic() => Some(self.consume_start_tag()),
            _ => {
                // '<' followed by junk: literal text.
                self.pos += 1;
                Some(Event::Text(Cow::Borrowed("<")))
            }
        }
    }

    fn consume_declaration(&mut self) -> Event<'a> {
        if self.input[self.pos..].starts_with("<!--") {
            let body_start = self.pos + 4;
            return match self.input[body_start..].find("-->") {
                Some(off) => {
                    let body = &self.input[body_start..body_start + off];
                    self.pos = body_start + off + 3;
                    Event::Comment(Cow::Borrowed(body))
                }
                None => {
                    // Unterminated comment: swallow to EOF.
                    let body = &self.input[body_start..];
                    self.pos = self.bytes.len();
                    Event::Comment(Cow::Borrowed(body))
                }
            };
        }
        // <!DOCTYPE ...> or other declarations: up to next '>'.
        let body_start = self.pos + 2;
        let end = self.find_byte(body_start, b'>').unwrap_or(self.bytes.len());
        let mut body = self.input[body_start..end].trim();
        // Strip the leading DOCTYPE keyword, keeping only its subject.
        if body.len() >= 7 && body[..7].eq_ignore_ascii_case("doctype") {
            body = body[7..].trim_start();
        }
        self.pos = (end + 1).min(self.bytes.len());
        Event::Doctype(Cow::Borrowed(body))
    }

    fn consume_processing_instruction(&mut self) -> Event<'a> {
        // Treated as a comment-like construct; skipped by the DOM builder.
        let end = self
            .find_byte(self.pos + 2, b'>')
            .unwrap_or(self.bytes.len());
        let body = &self.input[self.pos + 2..end];
        self.pos = (end + 1).min(self.bytes.len());
        Event::Comment(Cow::Borrowed(body))
    }

    fn consume_end_tag(&mut self) -> Option<Event<'a>> {
        let name_start = self.pos + 2;
        let mut i = name_start;
        while i < self.bytes.len() && is_name_byte(self.bytes[i]) {
            i += 1;
        }
        let raw = &self.input[name_start..i];
        let end = self.find_byte(i, b'>').unwrap_or(self.bytes.len());
        self.pos = (end + 1).min(self.bytes.len());
        if raw.is_empty() {
            return None;
        }
        Some(Event::Close {
            name: Symbol::intern_lower(raw),
        })
    }

    fn consume_start_tag(&mut self) -> Event<'a> {
        let name_start = self.pos + 1;
        let mut i = name_start;
        while i < self.bytes.len() && is_name_byte(self.bytes[i]) {
            i += 1;
        }
        let name = Symbol::intern_lower(&self.input[name_start..i]);
        let (attrs, self_closing, after) = self.consume_attributes(i);
        self.pos = after;
        if !self_closing && RAW_TEXT_ELEMENTS.contains(&name.as_str()) {
            self.pending_raw = Some(name);
        }
        Event::Open {
            name,
            attrs,
            self_closing,
        }
    }

    /// Parse attributes starting at byte offset `i`; returns
    /// (attrs, self_closing, position after the closing '>').
    fn consume_attributes(&mut self, mut i: usize) -> (Vec<(Symbol, Symbol)>, bool, usize) {
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            while i < self.bytes.len() && self.bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= self.bytes.len() {
                return (attrs, self_closing, i);
            }
            match self.bytes[i] {
                b'>' => return (attrs, self_closing, i + 1),
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => {
                    let name_start = i;
                    while i < self.bytes.len()
                        && !self.bytes[i].is_ascii_whitespace()
                        && !matches!(self.bytes[i], b'=' | b'>' | b'/')
                    {
                        i += 1;
                    }
                    let name = &self.input[name_start..i];
                    while i < self.bytes.len() && self.bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let value: &'a str = if i < self.bytes.len() && self.bytes[i] == b'=' {
                        i += 1;
                        while i < self.bytes.len() && self.bytes[i].is_ascii_whitespace() {
                            i += 1;
                        }
                        let (v, next) = self.consume_attr_value(i);
                        i = next;
                        v
                    } else {
                        ""
                    };
                    if !name.is_empty() {
                        // Attribute values are always plain input
                        // slices, so decoding can go through the
                        // scratch buffer — no per-attribute String.
                        let value_sym = if entities::may_have_entities(value) {
                            self.scratch.clear();
                            entities::decode_into(value, &mut self.scratch);
                            Symbol::intern(&self.scratch)
                        } else {
                            Symbol::intern(value)
                        };
                        attrs.push((Symbol::intern_lower(name), value_sym));
                    } else if i < self.bytes.len() && !matches!(self.bytes[i], b'>' | b'/') {
                        // Junk byte that is neither name nor terminator:
                        // skip it to guarantee progress.
                        i += 1;
                    }
                }
            }
        }
    }

    fn consume_attr_value(&self, i: usize) -> (&'a str, usize) {
        if i >= self.bytes.len() {
            return ("", i);
        }
        match self.bytes[i] {
            q @ (b'"' | b'\'') => {
                let start = i + 1;
                let end = self.find_byte(start, q).unwrap_or(self.bytes.len());
                (&self.input[start..end], (end + 1).min(self.bytes.len()))
            }
            _ => {
                let start = i;
                let mut j = i;
                while j < self.bytes.len()
                    && !self.bytes[j].is_ascii_whitespace()
                    && self.bytes[j] != b'>'
                {
                    j += 1;
                }
                (&self.input[start..j], j)
            }
        }
    }

    /// Raw-text content runs to the matching case-insensitive close
    /// tag. Scanned in place — no lowercased copy of the tail.
    fn consume_raw_text(&mut self, name: Symbol) -> Option<Event<'a>> {
        let close = name.as_str().as_bytes(); // already lower-case
        let hay = &self.bytes[self.pos..];
        let mut i = 0;
        let mut found = None;
        while i + 2 + close.len() <= hay.len() {
            let Some(lt) = hay[i..].iter().position(|&b| b == b'<') else {
                break;
            };
            let at = i + lt;
            if at + 2 + close.len() > hay.len() {
                break;
            }
            if hay[at + 1] == b'/' && hay[at + 2..at + 2 + close.len()].eq_ignore_ascii_case(close)
            {
                found = Some(at);
                break;
            }
            i = at + 1;
        }
        match found {
            Some(off) => {
                let text = &self.input[self.pos..self.pos + off];
                // Let consume_end_tag handle the close tag itself.
                self.pos += off;
                // Raw text is never entity-decoded.
                (!text.is_empty()).then_some(Event::Text(Cow::Borrowed(text)))
            }
            None => {
                let text = &self.input[self.pos..];
                self.pos = self.bytes.len();
                (!text.is_empty()).then_some(Event::Text(Cow::Borrowed(text)))
            }
        }
    }

    fn find_byte(&self, from: usize, byte: u8) -> Option<usize> {
        self.bytes[from.min(self.bytes.len())..]
            .iter()
            .position(|&b| b == byte)
            .map(|off| from + off)
    }
}

pub(crate) fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b':'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<Event<'_>> {
        let mut t = EventTokenizer::new(input);
        let mut out = Vec::new();
        while let Some(ev) = t.next_event() {
            out.push(ev);
        }
        out
    }

    fn open(name: &str) -> Event<'static> {
        Event::Open {
            name: Symbol::intern(name),
            attrs: Vec::new(),
            self_closing: false,
        }
    }

    fn close(name: &str) -> Event<'static> {
        Event::Close {
            name: Symbol::intern(name),
        }
    }

    fn text(t: &str) -> Event<'_> {
        Event::Text(Cow::Borrowed(t))
    }

    fn open_with_attrs(
        evs: &[Event<'_>],
        idx: usize,
    ) -> (&'static str, Vec<(&'static str, &'static str)>) {
        match &evs[idx] {
            Event::Open { name, attrs, .. } => (
                name.as_str(),
                attrs
                    .iter()
                    .map(|(a, v)| (a.as_str(), v.as_str()))
                    .collect(),
            ),
            other => panic!("expected open tag, got {other:?}"),
        }
    }

    #[test]
    fn tokenizes_simple_markup() {
        assert_eq!(
            events("<div><p>hello</p></div>"),
            vec![
                open("div"),
                open("p"),
                text("hello"),
                close("p"),
                close("div"),
            ]
        );
    }

    #[test]
    fn lowercases_tag_and_attr_names() {
        let evs = events("<DIV CLASS=\"Main\">x</DIV>");
        let (name, attrs) = open_with_attrs(&evs, 0);
        assert_eq!(name, "div");
        assert_eq!(attrs, vec![("class", "Main")]);
        assert_eq!(evs[2], close("div"));
    }

    #[test]
    fn parses_attribute_styles() {
        let evs = events("<input type=text checked value='a b' data-x=\"1&amp;2\">");
        let (_, attrs) = open_with_attrs(&evs, 0);
        assert_eq!(
            attrs,
            vec![
                ("type", "text"),
                ("checked", ""),
                ("value", "a b"),
                ("data-x", "1&2"),
            ]
        );
    }

    #[test]
    fn handles_self_closing() {
        let evs = events("<br/><img src=x />");
        assert!(matches!(
            &evs[0],
            Event::Open { self_closing: true, name, .. } if name.as_str() == "br"
        ));
        assert!(matches!(
            &evs[1],
            Event::Open { self_closing: true, name, .. } if name.as_str() == "img"
        ));
    }

    #[test]
    fn captures_script_as_raw_text() {
        let evs = events("<script>if (a<b) { x(); }</script><p>t</p>");
        assert_eq!(evs[0], open("script"));
        assert_eq!(evs[1], text("if (a<b) { x(); }"));
        assert_eq!(evs[2], close("script"));
        assert_eq!(evs[3], open("p"));
    }

    #[test]
    fn raw_text_close_tag_is_case_insensitive() {
        let evs = events("<style>.a{}</STYLE>after");
        assert_eq!(evs[1], text(".a{}"));
        assert_eq!(evs[2], close("style"));
        assert_eq!(evs[3], text("after"));
    }

    #[test]
    fn raw_text_is_not_entity_decoded() {
        assert_eq!(
            events("<textarea>&amp; raw</textarea>"),
            vec![open("textarea"), text("&amp; raw"), close("textarea")]
        );
        assert_eq!(
            events("<title>café &eacute;</title>"),
            vec![open("title"), text("café &eacute;"), close("title")]
        );
    }

    #[test]
    fn unterminated_script_swallows_to_eof() {
        let evs = events("<script>var x = 1;");
        assert_eq!(evs[1], text("var x = 1;"));
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn parses_comments_and_doctype() {
        let evs = events("<!DOCTYPE html><!-- note --><p>x</p>");
        assert_eq!(evs[0], Event::Doctype("html".into()));
        assert_eq!(evs[1], Event::Comment(" note ".into()));
    }

    #[test]
    fn unterminated_comment_swallows_to_eof() {
        let evs = events("a<!-- no end");
        assert_eq!(evs[0], text("a"));
        assert_eq!(evs[1], Event::Comment(" no end".into()));
    }

    #[test]
    fn decodes_entities_in_text() {
        let evs = events("<p>Simon &amp; Garfunkel</p>");
        assert_eq!(evs[1], text("Simon & Garfunkel"));
    }

    #[test]
    fn stray_lt_is_text() {
        assert_eq!(events("a < b"), vec![text("a "), text("<"), text(" b")]);
    }

    #[test]
    fn lone_lt_at_eof() {
        assert_eq!(events("x<"), vec![text("x"), text("<")]);
    }

    #[test]
    fn end_tag_with_junk_attrs() {
        assert_eq!(events("</p class=\"x\">"), vec![close("p")]);
    }

    #[test]
    fn processing_instruction_becomes_comment() {
        let evs = events("<?xml version=\"1.0\"?><p>x</p>");
        assert!(matches!(&evs[0], Event::Comment(_)));
        assert_eq!(evs[1], open("p"));
    }

    #[test]
    fn never_panics_on_garbage() {
        for garbage in [
            "<",
            "<<>><",
            "<a href=",
            "<a href='x",
            "</",
            "<!",
            "<!-",
            "<p <q>",
        ] {
            let _ = events(garbage);
        }
    }

    #[test]
    fn unquoted_attr_stops_at_gt() {
        let evs = events("<a href=http://x.com/y>link</a>");
        let (_, attrs) = open_with_attrs(&evs, 0);
        assert_eq!(attrs[0].1, "http://x.com/y");
        assert_eq!(evs[1], text("link"));
    }

    #[test]
    fn plain_text_is_borrowed() {
        let mut t = EventTokenizer::new("<p>no entities here</p>");
        t.next_event(); // open
        match t.next_event() {
            Some(Event::Text(Cow::Borrowed(s))) => assert_eq!(s, "no entities here"),
            other => panic!("expected borrowed text, got {other:?}"),
        }
    }

    #[test]
    fn decoded_text_is_owned_without_arena() {
        let mut t = EventTokenizer::new("<p>a &amp; b</p>");
        t.next_event();
        match t.next_event() {
            Some(Event::Text(Cow::Owned(s))) => assert_eq!(s, "a & b"),
            other => panic!("expected owned text, got {other:?}"),
        }
    }

    #[test]
    fn raw_text_close_found_without_lowercasing() {
        let evs = events("<script>var a = '</SCRIPTx' + 1<2;</SCRIPT>after");
        assert_eq!(evs[0], open("script"));
        // "</SCRIPTx" matches the "</script" prefix search — same
        // substring semantics as the historical lowercased find().
        assert_eq!(evs[1], text("var a = '"));
    }

    #[test]
    fn resumable_pull_interleaves_with_caller_work() {
        let mut t = EventTokenizer::new("<ul><li>a</li><li>b</li></ul>");
        let mut texts = Vec::new();
        while let Some(ev) = t.next_event() {
            if let Event::Text(s) = ev {
                texts.push(s.into_owned());
            }
        }
        assert_eq!(texts, vec!["a", "b"]);
    }
}
