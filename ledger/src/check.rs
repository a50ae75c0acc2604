//! Output checks: a response is correct when it equals the serial
//! in-process reference once the fields that legitimately differ
//! between runs are removed — the `trace` id, the wall-clock `stats`,
//! and (with an object store) the `store` ingest counts, which depend
//! on what other requests stored first.

use objectrunner_store::Json;

/// Keys removed before two responses are compared.
pub const VOLATILE: &[&str] = &["trace", "stats", "store"];

/// The comparable prefix of a response line. The protocol renders
/// `stats`, `store` and `trace` after every other field and the
/// renderer escapes quotes inside strings, so the first unescaped
/// `,"stats":` (or, without stats, `,"trace":`) starts the volatile
/// tail. [`same`] falls back to a full parse when this prefix differs,
/// so the shortcut can never report a false mismatch.
pub fn content(line: &str) -> &str {
    match line.find(",\"stats\":") {
        Some(i) => &line[..i],
        None => match line.rfind(",\"trace\":") {
            Some(i) => &line[..i],
            None => line,
        },
    }
}

/// The response with every volatile key dropped, re-rendered.
pub fn normalized(line: &str) -> Option<String> {
    match Json::parse(line).ok()? {
        Json::Obj(pairs) => Some(
            Json::Obj(
                pairs
                    .into_iter()
                    .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                    .collect(),
            )
            .render(),
        ),
        other => Some(other.render()),
    }
}

/// Does `got` match the reference response `want`?
pub fn same(got: &str, want: &str) -> bool {
    content(got) == content(want) || {
        let n = normalized(got);
        n.is_some() && n == normalized(want)
    }
}

/// Did the daemon report success?
pub fn ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
        || Json::parse(line)
            .ok()
            .and_then(|j| j.get("ok").and_then(Json::as_bool))
            == Some(true)
}
