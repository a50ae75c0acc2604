//! HTML character-reference (entity) decoding.
//!
//! Supports the named entities that occur in practice on data-centric
//! pages plus decimal/hexadecimal numeric references. Unknown entities
//! are left verbatim, which is the tolerant behaviour the extraction
//! pipeline wants: a bad entity must never destroy surrounding text.

/// Named entities recognized by [`decode`].
const NAMED: &[(&str, &str)] = &[
    ("amp", "&"),
    ("lt", "<"),
    ("gt", ">"),
    ("quot", "\""),
    ("apos", "'"),
    ("nbsp", " "),
    ("copy", "\u{a9}"),
    ("reg", "\u{ae}"),
    ("trade", "\u{2122}"),
    ("hellip", "\u{2026}"),
    ("mdash", "\u{2014}"),
    ("ndash", "\u{2013}"),
    ("lsquo", "\u{2018}"),
    ("rsquo", "\u{2019}"),
    ("ldquo", "\u{201c}"),
    ("rdquo", "\u{201d}"),
    ("bull", "\u{2022}"),
    ("middot", "\u{b7}"),
    ("laquo", "\u{ab}"),
    ("raquo", "\u{bb}"),
    ("times", "\u{d7}"),
    ("divide", "\u{f7}"),
    ("deg", "\u{b0}"),
    ("pound", "\u{a3}"),
    ("euro", "\u{20ac}"),
    ("yen", "\u{a5}"),
    ("cent", "\u{a2}"),
    ("sect", "\u{a7}"),
    ("para", "\u{b6}"),
    ("eacute", "\u{e9}"),
    ("egrave", "\u{e8}"),
    ("agrave", "\u{e0}"),
    ("ccedil", "\u{e7}"),
    ("uuml", "\u{fc}"),
    ("ouml", "\u{f6}"),
    ("auml", "\u{e4}"),
    ("szlig", "\u{df}"),
];

/// Decode HTML character references in `input`.
///
/// ```
/// use objectrunner_html::entities::decode;
/// assert_eq!(decode("Simon &amp; Garfunkel"), "Simon & Garfunkel");
/// assert_eq!(decode("&#65;&#x42;"), "AB");
/// assert_eq!(decode("a &undefined; b"), "a &undefined; b");
/// ```
pub fn decode(input: &str) -> String {
    if !input.contains('&') {
        return input.to_owned();
    }
    let mut out = String::with_capacity(input.len());
    decode_into(input, &mut out);
    out
}

/// Decode HTML character references in `input`, appending the result to
/// a caller-provided buffer. The streaming parse path reuses one buffer
/// across every attribute value instead of allocating a fresh `String`
/// per value; output is byte-identical to [`decode`].
pub fn decode_into(input: &str, out: &mut String) {
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Copy the run up to the next '&' in one append.
        let Some(amp) = bytes[i..].iter().position(|&b| b == b'&') else {
            out.push_str(&input[i..]);
            return;
        };
        out.push_str(&input[i..i + amp]);
        i += amp;
        // Find a terminating ';' within a reasonable window.
        let decoded = find_semicolon(bytes, i + 1).is_some_and(|end| {
            if decode_one_into(&input[i + 1..end], out) {
                i = end + 1;
                true
            } else {
                false
            }
        });
        if !decoded {
            out.push('&');
            i += 1;
        }
    }
}

/// Would [`decode`] change `input` at all? (Cheap pre-check: any '&'.)
pub fn may_have_entities(input: &str) -> bool {
    input.contains('&')
}

/// Entities longer than this are treated as plain text.
const MAX_ENTITY_LEN: usize = 12;

fn find_semicolon(bytes: &[u8], start: usize) -> Option<usize> {
    let limit = (start + MAX_ENTITY_LEN).min(bytes.len());
    (start..limit).find(|&j| bytes[j] == b';')
}

/// Decode one entity body (`amp`, `#65`, `#x42`) into `out`; returns
/// `false` (appending nothing) when the body is not a valid entity.
fn decode_one_into(body: &str, out: &mut String) -> bool {
    if let Some(num) = body.strip_prefix('#') {
        let cp = if let Some(hex) = num.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()
        } else {
            num.parse::<u32>().ok()
        };
        if let Some(c) = cp.and_then(char::from_u32) {
            out.push(c);
            return true;
        }
        return false;
    }
    if let Some((_, v)) = NAMED.iter().find(|(name, _)| *name == body) {
        out.push_str(v);
        return true;
    }
    false
}

/// Encode the minimal set of characters needed to round-trip text
/// safely through HTML.
pub fn encode_text(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_named_entities() {
        assert_eq!(decode("&lt;b&gt;"), "<b>");
        assert_eq!(decode("&nbsp;"), " ");
        assert_eq!(decode("Caf&eacute;"), "Café");
    }

    #[test]
    fn decodes_numeric_entities() {
        assert_eq!(decode("&#8212;"), "\u{2014}");
        assert_eq!(decode("&#x20AC;"), "€");
        assert_eq!(decode("&#X20AC;"), "€");
    }

    #[test]
    fn leaves_unknown_entities_verbatim() {
        assert_eq!(decode("&bogus;"), "&bogus;");
        assert_eq!(decode("AT&T"), "AT&T");
        assert_eq!(decode("a & b"), "a & b");
    }

    #[test]
    fn ignores_overlong_candidate_entities() {
        let s = "&thisistoolongforanentity;";
        assert_eq!(decode(s), s);
    }

    #[test]
    fn rejects_invalid_codepoints() {
        assert_eq!(decode("&#1114112;"), "&#1114112;"); // > U+10FFFF
        assert_eq!(decode("&#xD800;"), "&#xD800;"); // surrogate
    }

    #[test]
    fn handles_trailing_ampersand() {
        assert_eq!(decode("fish &"), "fish &");
        assert_eq!(decode("&"), "&");
    }

    #[test]
    fn preserves_multibyte_text() {
        assert_eq!(decode("héllo &amp; wörld — ok"), "héllo & wörld — ok");
    }

    #[test]
    fn encode_round_trips() {
        let original = "a < b & c > d";
        assert_eq!(decode(&encode_text(original)), original);
    }

    #[test]
    fn decode_into_matches_decode() {
        let cases = [
            "",
            "plain text",
            "Simon &amp; Garfunkel",
            "&lt;b&gt;&nbsp;&bogus;",
            "&#65;&#x42;&#X20AC;",
            "héllo &amp; wörld — ok",
            "AT&T & fish &",
            "&thisistoolongforanentity;",
            "&#1114112;&#xD800;",
            "&amp",
            "tail&",
            "&;",
        ];
        for case in cases {
            let mut buf = String::from("prefix·");
            decode_into(case, &mut buf);
            assert_eq!(buf, format!("prefix·{}", decode(case)), "case {case:?}");
        }
    }

    #[test]
    fn decode_into_appends_without_clearing() {
        let mut buf = String::new();
        decode_into("a&amp;", &mut buf);
        decode_into("b&lt;", &mut buf);
        assert_eq!(buf, "a&b<");
    }
}
