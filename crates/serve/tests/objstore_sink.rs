//! The object-store sink through the protocol layer: extraction
//! persists de-duplicated objects with provenance, the query surface
//! (`query`/`get`/`store-status`/`compact`) answers over them, and a
//! daemon started *without* `--object-store` keeps its old response
//! shapes and rejects store commands loudly.

use objectrunner_serve::{ServeConfig, Service};
use objectrunner_store::Json;
use objectrunner_webgen::{generate_site, Domain, PageKind, SiteSpec};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "objectrunner-objstore-sink-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A daemon with (or without) an object store attached.
fn service(tag: &str, with_store: bool) -> Service {
    let dir = scratch_dir(tag);
    Service::new(ServeConfig {
        store_dir: dir.join("wrappers"),
        object_store: with_store.then(|| dir.join("objects")),
        ..ServeConfig::default()
    })
}

fn request(cmd: &str, source: &str, domain: Option<&str>, pages: &[String]) -> String {
    let mut fields = vec![
        ("cmd".to_owned(), Json::str(cmd)),
        ("source".to_owned(), Json::str(source)),
    ];
    if let Some(d) = domain {
        fields.push(("domain".to_owned(), Json::str(d)));
    }
    fields.push((
        "pages".to_owned(),
        Json::Arr(pages.iter().map(Json::str).collect()),
    ));
    Json::Obj(fields).render()
}

fn respond(service: &mut Service, line: &str) -> Json {
    let raw = service.handle_line(line);
    let json = Json::parse(&raw).expect("responses are valid JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {raw}"
    );
    json
}

fn induce_and_extract(service: &mut Service, name: &str, pages: &[String]) -> Json {
    respond(service, &request("induce", name, Some("Books"), pages));
    respond(service, &request("extract", name, None, pages))
}

fn books_pages() -> Vec<String> {
    generate_site(&SiteSpec::clean(
        "shop",
        Domain::Books,
        PageKind::List,
        12,
        17_003,
    ))
    .pages
}

#[test]
fn extraction_persists_and_the_query_surface_answers() {
    let mut service = service("full", true);
    let pages = books_pages();
    let extract = induce_and_extract(&mut service, "shop", &pages);

    // The extract response reports what the sink did with the batch.
    let store = extract.get("store").expect("store section");
    let ingested = store.get("ingested").and_then(Json::as_i64).unwrap();
    let new = store.get("new").and_then(Json::as_i64).unwrap();
    assert!(new > 0, "fresh store starts empty");
    assert_eq!(ingested, new, "every object is first-seen");
    assert_eq!(store.get("skipped").and_then(Json::as_i64), Some(0));

    // Walk the whole store through cursor pagination.
    let mut keys: Vec<String> = Vec::new();
    let mut cursor = Json::Null;
    loop {
        let mut req = vec![
            ("cmd".to_owned(), Json::str("query")),
            ("domain".to_owned(), Json::str("Books")),
            ("limit".to_owned(), Json::int(7)),
        ];
        if let Json::Str(c) = &cursor {
            req.push(("cursor".to_owned(), Json::str(c)));
        }
        let page = respond(&mut service, &Json::Obj(req).render());
        for hit in page.get("hits").and_then(Json::as_arr).unwrap() {
            keys.push(hit.get("key").and_then(Json::as_str).unwrap().to_owned());
        }
        cursor = page.get("next_cursor").cloned().unwrap();
        if cursor.is_null() {
            break;
        }
    }
    assert_eq!(keys.len() as i64, new, "pagination covers every object");
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        sorted, keys,
        "hits arrive in identity-key order, no repeats"
    );

    // `get` returns the record with per-attribute provenance naming
    // the synthesized inline-page ids.
    let get = respond(
        &mut service,
        &format!(r#"{{"cmd":"get","key":"{}"}}"#, keys[0]),
    );
    assert_eq!(get.get("found").and_then(Json::as_bool), Some(true));
    let attrs = get
        .get("hit")
        .and_then(|h| h.get("attrs"))
        .and_then(Json::as_arr)
        .expect("hit.attrs");
    assert!(!attrs.is_empty());
    for attr in attrs {
        let prov = attr.get("prov").expect("attr provenance");
        assert_eq!(prov.get("source").and_then(Json::as_str), Some("shop"));
        assert_eq!(prov.get("revision").and_then(Json::as_i64), Some(1));
        let page = prov.get("page").and_then(Json::as_str).unwrap();
        assert!(page.starts_with("page-"), "inline pages get ids: {page}");
    }

    // A second extract of the same pages is pure duplicates: nothing
    // new is written and the status counters say so.
    let again = respond(&mut service, &request("extract", "shop", None, &pages));
    let store = again.get("store").expect("store section");
    assert_eq!(store.get("new").and_then(Json::as_i64), Some(0));
    assert_eq!(store.get("duplicates").and_then(Json::as_i64), Some(new));

    let status = respond(&mut service, r#"{"cmd":"store-status"}"#);
    assert_eq!(status.get("live_objects").and_then(Json::as_i64), Some(new));
    assert_eq!(
        status.get("ingested").and_then(Json::as_i64),
        Some(2 * new),
        "both batches counted"
    );
    assert_eq!(
        status
            .get("per_domain")
            .and_then(|d| d.get("Books"))
            .and_then(Json::as_i64),
        Some(new)
    );
    assert_eq!(status.get("last_compaction_unix_micros"), Some(&Json::Null));

    // The daemon status mirrors the same section.
    let daemon = respond(&mut service, r#"{"cmd":"status"}"#);
    let section = daemon.get("object_store").expect("object_store section");
    assert_eq!(
        section.get("live_objects").and_then(Json::as_i64),
        Some(new)
    );

    // Compaction preserves every hit byte-for-byte.
    let before = respond(&mut service, r#"{"cmd":"query","limit":500}"#);
    let compact = respond(&mut service, r#"{"cmd":"compact"}"#);
    assert_eq!(
        compact.get("live_records").and_then(Json::as_i64),
        Some(new)
    );
    let after = respond(&mut service, r#"{"cmd":"query","limit":500}"#);
    assert_eq!(
        before.get("hits").map(Json::render),
        after.get("hits").map(Json::render),
        "compaction must not change query results"
    );
    let status = respond(&mut service, r#"{"cmd":"store-status"}"#);
    assert_eq!(status.get("compactions").and_then(Json::as_i64), Some(1));
    assert!(status
        .get("last_compaction_unix_micros")
        .and_then(Json::as_i64)
        .is_some());
}

#[test]
fn filters_project_and_match_normalized() {
    let mut service = service("filters", true);
    let pages = books_pages();
    induce_and_extract(&mut service, "shop", &pages);

    let all = respond(&mut service, r#"{"cmd":"query","limit":500}"#);
    let first = &all.get("hits").and_then(Json::as_arr).unwrap()[0];
    let title = first
        .get("object")
        .and_then(|o| o.get("fields"))
        .and_then(Json::as_arr)
        .and_then(|fields| {
            fields.iter().find_map(|f| {
                (f.get("t").and_then(Json::as_str) == Some("title"))
                    .then(|| f.get("v").and_then(Json::as_str).unwrap().to_owned())
            })
        })
        .expect("a book has a title");

    // eq under normalization: querying the uppercased title matches.
    let q = Json::Obj(vec![
        ("cmd".to_owned(), Json::str("query")),
        (
            "where".to_owned(),
            Json::Arr(vec![Json::Obj(vec![
                ("attr".to_owned(), Json::str("title")),
                ("value".to_owned(), Json::str(title.to_uppercase())),
            ])]),
        ),
        ("select".to_owned(), Json::Arr(vec![Json::str("title")])),
    ]);
    let hits = respond(&mut service, &q.render());
    let hits = hits.get("hits").and_then(Json::as_arr).unwrap();
    assert!(!hits.is_empty(), "normalized eq must match");
    for hit in hits {
        assert!(hit.get("object").is_none(), "select drops the full object");
        let attrs = hit.get("attrs").and_then(Json::as_arr).unwrap();
        assert!(attrs
            .iter()
            .all(|a| a.get("t").and_then(Json::as_str) == Some("title")));
    }

    // A malformed clause is an error, not an empty result.
    let raw =
        service.handle_line(r#"{"cmd":"query","where":[{"attr":"t","op":"like","value":"x"}]}"#);
    let bad = Json::parse(&raw).unwrap();
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
}

#[test]
fn without_a_store_the_surface_declines_and_shapes_are_unchanged() {
    let mut service = service("absent", false);
    let pages = books_pages();
    let extract = induce_and_extract(&mut service, "shop", &pages);
    assert!(
        extract.get("store").is_none(),
        "no sink, no store section — response shape is unchanged"
    );
    let daemon = respond(&mut service, r#"{"cmd":"status"}"#);
    assert_eq!(daemon.get("object_store"), Some(&Json::Null));
    for cmd in ["query", "get", "store-status", "compact"] {
        let raw = service.handle_line(&format!(r#"{{"cmd":"{cmd}"}}"#));
        let json = Json::parse(&raw).unwrap();
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(false),
            "{cmd} must fail without a store"
        );
        assert!(
            json.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("--object-store"),
            "{cmd} names the fix"
        );
    }
}

/// Run the real daemon binary once over `lines`, return its parsed
/// responses. Cold process: empty interner tables, store state comes
/// only from disk.
fn daemon_session(dir: &Path, lines: &[String]) -> Vec<Json> {
    use std::io::Write;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_objectrunner-serve"))
        .arg("--store")
        .arg(dir.join("wrappers"))
        .arg("--object-store")
        .arg(dir.join("objects"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in lines {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let output = child.wait_with_output().expect("daemon exits at EOF");
    assert!(output.status.success(), "daemon failed");
    let responses: Vec<Json> = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).expect("valid response"))
        .collect();
    assert_eq!(responses.len(), lines.len());
    for r in &responses {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    }
    responses
}

#[test]
fn cursors_stay_valid_across_cold_daemon_processes() {
    let dir = scratch_dir("cold");
    let pages_dir = dir.join("pages");
    std::fs::create_dir_all(&pages_dir).unwrap();
    for (i, page) in books_pages().iter().enumerate() {
        std::fs::write(pages_dir.join(format!("page-{i:03}.html")), page).unwrap();
    }
    let dir_req = |cmd: &str| {
        format!(
            r#"{{"cmd":"{cmd}","source":"shop","domain":"Books","dir":"{}"}}"#,
            pages_dir.display()
        )
    };

    // Process 1 harvests into the store; process 2 hands out a cursor;
    // process 3 — another cold start — resumes from it.
    daemon_session(&dir, &[dir_req("induce"), dir_req("extract")]);
    let handed_out = daemon_session(
        &dir,
        &[
            r#"{"cmd":"query","limit":5}"#.to_owned(),
            r#"{"cmd":"query","limit":500}"#.to_owned(),
        ],
    );
    let cursor = handed_out[0]
        .get("next_cursor")
        .and_then(Json::as_str)
        .expect("more than 5 objects")
        .to_owned();
    let all_hits = handed_out[1].get("hits").and_then(Json::as_arr).unwrap();
    let expected_rest: Vec<String> = all_hits[5..].iter().map(Json::render).collect();

    let resumed = daemon_session(
        &dir,
        &[format!(
            r#"{{"cmd":"query","limit":500,"cursor":"{cursor}"}}"#
        )],
    );
    let rest: Vec<String> = resumed[0]
        .get("hits")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(Json::render)
        .collect();
    assert_eq!(
        rest, expected_rest,
        "a cursor from one process resumes exactly in another"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sink_survives_daemon_restart_and_cursors_stay_valid() {
    let dir = scratch_dir("restart");
    let config = || ServeConfig {
        store_dir: dir.join("wrappers"),
        object_store: Some(dir.join("objects")),
        ..ServeConfig::default()
    };
    let pages = books_pages();
    let mut first = Service::new(config());
    induce_and_extract(&mut first, "shop", &pages);
    let page1 = respond(&mut first, r#"{"cmd":"query","limit":5}"#);
    let cursor = page1
        .get("next_cursor")
        .and_then(Json::as_str)
        .expect("more than 5 objects")
        .to_owned();
    let live = respond(&mut first, r#"{"cmd":"store-status"}"#)
        .get("live_objects")
        .and_then(Json::as_i64)
        .unwrap();
    let rest_warm = respond(
        &mut first,
        &format!(r#"{{"cmd":"query","limit":500,"cursor":"{cursor}"}}"#),
    );
    drop(first);

    // A fresh daemon over the same directory sees the same objects,
    // and the cursor handed out before the restart still works —
    // pagination order is a property of the persisted keys.
    let mut second = Service::new(config());
    let status = respond(&mut second, r#"{"cmd":"store-status"}"#);
    assert_eq!(
        status.get("live_objects").and_then(Json::as_i64),
        Some(live)
    );
    let rest_cold = respond(
        &mut second,
        &format!(r#"{{"cmd":"query","limit":500,"cursor":"{cursor}"}}"#),
    );
    assert_eq!(
        rest_warm.get("hits").map(Json::render),
        rest_cold.get("hits").map(Json::render),
        "a pre-restart cursor resumes identically"
    );
}
