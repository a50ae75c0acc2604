//! Determinism guard for the object store behind the daemon: the
//! persisted store bytes and every protocol response must be
//! byte-identical across two daemons fed the same session. Scheduling
//! may only change wall-clock, never what is stored — ingest stages
//! offers per identity key and appends in key order, so the on-disk
//! history is a pure function of the request sequence.

use objectrunner::obs::{Clock, Obs, DEFAULT_SPAN_CAPACITY};
use objectrunner::serve::{ServeConfig, Service};
use objectrunner::store::Json;
use objectrunner::webgen::{generate_site, Domain, PageKind, SiteSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "objectrunner-objstore-equiv-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every file of a store directory, name → bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
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

/// Drive one daemon (with a pinned fake clock, so timestamps cannot
/// differ between runs) through the same session and return every raw
/// response plus the final store bytes.
fn run_session(tag: &str) -> (Vec<String>, BTreeMap<String, Vec<u8>>) {
    let dir = scratch_dir(tag);
    let (clock, fake) = Clock::fake();
    fake.set_wall_unix_micros(1_700_000_000_000_000);
    let obs = Obs::with_clock_and_capacity(clock.clone(), DEFAULT_SPAN_CAPACITY);
    let mut service = Service::with_observability(
        ServeConfig {
            store_dir: dir.join("wrappers"),
            object_store: Some(dir.join("objects")),
            ..ServeConfig::default()
        },
        obs,
        clock,
    );

    let pages = generate_site(&SiteSpec::clean(
        "equiv-books",
        Domain::Books,
        PageKind::List,
        12,
        17_003,
    ))
    .pages;

    let mut responses = Vec::new();
    let mut push = |service: &mut Service, line: &str| {
        let raw = service.handle_line(line);
        let json = Json::parse(&raw).expect("valid response");
        // Induction/extraction responses embed wall-clock stage
        // timings — legitimately run-dependent. Compare their object payload and store
        // outcome; everything else must match byte-for-byte.
        let comparable = match json.get("cmd").and_then(Json::as_str) {
            Some("induce" | "extract") => Json::Obj(
                ["cmd", "count", "objects", "store"]
                    .iter()
                    .filter_map(|k| json.get(k).map(|v| ((*k).to_owned(), v.clone())))
                    .collect(),
            )
            .render(),
            _ => raw,
        };
        responses.push(comparable);
        json
    };
    push(
        &mut service,
        &request("induce", "equiv-books", Some("Books"), &pages),
    );
    push(
        &mut service,
        &request("extract", "equiv-books", None, &pages),
    );
    // Walk two query pages through the cursor, then inspect and
    // compact — every response participates in the byte comparison.
    let page1 = push(
        &mut service,
        r#"{"cmd":"query","domain":"Books","limit":7}"#,
    );
    let cursor = page1
        .get("next_cursor")
        .and_then(Json::as_str)
        .expect("a second page exists")
        .to_owned();
    push(
        &mut service,
        &format!(r#"{{"cmd":"query","domain":"Books","limit":7,"cursor":"{cursor}"}}"#),
    );
    push(&mut service, r#"{"cmd":"store-status"}"#);
    push(&mut service, r#"{"cmd":"compact"}"#);
    push(
        &mut service,
        r#"{"cmd":"query","domain":"Books","limit":7}"#,
    );
    push(&mut service, r#"{"cmd":"store-status"}"#);
    drop(service);

    let bytes = dir_bytes(&dir.join("objects"));
    let _ = std::fs::remove_dir_all(&dir);
    (responses, bytes)
}

#[test]
fn store_bytes_and_responses_are_identical_across_thread_counts() {
    let (responses_1, bytes_1) = run_session("t1");
    let (responses_8, bytes_8) = run_session("t8");

    assert_eq!(
        responses_1, responses_8,
        "protocol responses must not depend on thread count"
    );
    assert_eq!(
        bytes_1.keys().collect::<Vec<_>>(),
        bytes_8.keys().collect::<Vec<_>>(),
        "same store files"
    );
    for (name, bytes) in &bytes_1 {
        assert_eq!(
            bytes, &bytes_8[name],
            "store file {name} differs between 1 and 8 threads"
        );
    }
}
