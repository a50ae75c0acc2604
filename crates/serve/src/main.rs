//! `objectrunner-serve` — the wrapper-serving daemon.
//!
//! Default mode is a long-running service speaking line-delimited JSON
//! on stdin/stdout (and optionally TCP via `--listen`):
//!
//! ```text
//! objectrunner-serve --store wrappers
//!   {"cmd":"induce","source":"shop","domain":"books","dir":"pages/"}
//!   {"cmd":"extract","source":"shop","dir":"pages/"}
//!   {"cmd":"status"}
//! ```
//!
//! Three auxiliary subcommands support scripting and testing:
//!
//! * `seed-corpus` — write a synthetic source's pages to a directory
//!   (`--drift` renders the same objects through a mutated template);
//! * `extract-file` — load a stored wrapper in *this* (cold) process
//!   and extract a page directory, printing one canonical JSON line
//!   per object. Exercises the store's cold-process fidelity: the
//!   loading process has empty interner tables.
//! * `extract-stream` — the crawl-scale sibling of `extract-file`:
//!   pages are `mmap`ed lazily and fed through the streaming,
//!   memory-bounded extraction path, printing one JSON line **per
//!   page** as it completes. Peak memory is the working window, not
//!   the corpus.

use objectrunner_core::pipeline::extract_only;
use objectrunner_core::{extract_stream, StreamConfig};
use objectrunner_objstore::{IngestContext, IngestObject, ObjectStore};
use objectrunner_obs::Obs;
use objectrunner_serve::service::instance_json;
use objectrunner_serve::{serve_tcp, PoolConfig, ServeConfig, Service};
use objectrunner_store::{load_file, Json};
use objectrunner_webgen::{generate_drifted, CorpusDir, Domain, MappedText, PageKind, SiteSpec};
use std::io::{BufRead, BufWriter, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("seed-corpus") => seed_corpus(&args[1..]),
        Some("extract-file") => extract_file(&args[1..]),
        Some("extract-stream") => extract_stream_cmd(&args[1..]),
        Some("--help" | "-h") => {
            print!("{HELP}");
            0
        }
        _ => serve(&args),
    };
    std::process::exit(code);
}

const HELP: &str = "\
objectrunner-serve — wrapper-serving daemon (line-delimited JSON)

USAGE:
  objectrunner-serve [--store DIR] [--object-store DIR] [--threshold F] \\
                     [--min-reinduce-pages N] [--repair-floor F] \\
                     [--empty-page-threshold F] [--listen ADDR]
  objectrunner-serve seed-corpus --domain D --name NAME --out DIR \\
                     [--seed N] [--pages N] [--style K] [--drift S]
  objectrunner-serve extract-file --wrapper FILE --pages DIR
  objectrunner-serve extract-stream --wrapper FILE --pages DIR [--threads N] \\
                     [--object-store DIR] [--extracted-at MICROS]

PROTOCOL (one JSON object per line on stdin; one response per line):
  {\"cmd\":\"induce\",\"source\":S,\"domain\":D,\"pages\":[..]|\"dir\":PATH}
  {\"cmd\":\"extract\",\"source\":S,\"pages\":[..]|\"dir\":PATH}
  {\"cmd\":\"status\"}     (uptime, per-source state, metrics + live sections)
  {\"cmd\":\"trace\",\"limit\":N}  (span trees of the last N requests)
  {\"cmd\":\"trace\",\"kind\":\"slow|errors|shed\",\"limit\":N}
                         (tail-sampled span trees of qualifying requests)
  {\"cmd\":\"watch\",\"interval_micros\":N,\"count\":N}
                         (stream one metrics-snapshot line per tick)
  {\"cmd\":\"metrics-text\"}   (Prometheus-style text exposition)

OBJECT STORE (only with --object-store; extractions are de-duplicated,
fused across sources and persisted with per-attribute provenance):
  {\"cmd\":\"query\",\"domain\":D,\"where\":[{\"attr\":A,\"op\":\"eq|contains|prefix\",
   \"value\":V}],\"select\":[A,..],\"limit\":N,\"cursor\":C}
  {\"cmd\":\"get\",\"key\":K}   (one object + full provenance)
  {\"cmd\":\"store-status\"}   (segments, live objects, fusion rate)
  {\"cmd\":\"compact\"}        (drop superseded versions, rewrite segments)

LIFECYCLE FLAGS (echoed back under status.config):
  --threshold F             mean per-page drift at which a wrapper goes stale (0.5)
  --min-reinduce-pages N    buffered pages required before repair/re-induction (6)
  --repair-floor F          min fraction of buffered pages a tree-diff-repaired
                            wrapper must extract on, else full re-induction (0.5)
  --empty-page-threshold F  fraction of zero-extraction pages that flags a
                            low-drift batch stale anyway (silent miss, 0.8)

TELEMETRY FLAGS:
  --access-log FILE           structured JSONL access log (one line/request)
  --access-log-max-bytes N    rotate the log to FILE.1 past N bytes (64 MiB)
  --slow-trace-micros N       floor for slow-trace retention; combined with
                              the adaptive windowed-p99 threshold
  --watch-interval MICROS     default tick interval for watch (1000000)

Every response echoes a \"trace\" id joinable against the trace command.
Each request runs start to finish on one thread: the stdin loop's, or
with --listen the pool worker that took it.
";

/// Pull `--flag value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse `--name`'s value when the flag is given. A value that does
/// not parse is reported as `bad --name 'v'` and becomes exit code 2.
fn parsed_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, i32> {
    match flag(args, name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| {
            eprintln!("bad {name} '{v}'");
            2
        }),
    }
}

/// The daemon's lifecycle, telemetry and pool settings from its flags.
fn configure(args: &[String]) -> Result<(ServeConfig, PoolConfig), i32> {
    let mut config = ServeConfig::default();
    if let Some(dir) = flag(args, "--store") {
        config.store_dir = PathBuf::from(dir);
    }
    if let Some(dir) = flag(args, "--object-store") {
        config.object_store = Some(PathBuf::from(dir));
    }
    if let Some(v) = parsed_flag(args, "--threshold")? {
        config.drift_threshold = v;
    }
    if let Some(v) = parsed_flag(args, "--min-reinduce-pages")? {
        config.min_reinduce_pages = v;
    }
    if let Some(v) = parsed_flag(args, "--repair-floor")? {
        config.repair_floor = v;
    }
    if let Some(v) = parsed_flag(args, "--empty-page-threshold")? {
        config.empty_page_threshold = v;
    }
    if let Some(path) = flag(args, "--access-log") {
        config.access_log = Some(PathBuf::from(path));
    }
    if let Some(v) = parsed_flag(args, "--access-log-max-bytes")? {
        config.access_log_max_bytes = v;
    }
    if let Some(v) = parsed_flag(args, "--slow-trace-micros")? {
        config.slow_trace_micros = Some(v);
    }
    if let Some(v) = parsed_flag(args, "--watch-interval")? {
        config.watch_interval_micros = v;
    }
    let mut pool = PoolConfig::default();
    if let Some(v) = parsed_flag(args, "--workers")? {
        pool.workers = v;
    }
    if let Some(v) = parsed_flag(args, "--max-conns")? {
        pool.max_conns = v;
    }
    if let Some(v) = parsed_flag(args, "--inflight")? {
        pool.inflight = v;
    }
    if let Some(v) = parsed_flag(args, "--batch")? {
        pool.batch_max = v;
    }
    Ok((config, pool))
}

fn serve(args: &[String]) -> i32 {
    let (config, pool) = match configure(args) {
        Ok(settings) => settings,
        Err(code) => return code,
    };
    let service = Arc::new(Service::new(config));

    let listening = flag(args, "--listen").is_some();
    let mut pool_handle = None;
    if let Some(addr) = flag(args, "--listen") {
        let listener = match TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("listen {addr}: {e}");
                return 2;
            }
        };
        let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
        let handle = serve_tcp(listener, Arc::clone(&service), pool.clone());
        eprintln!(
            "listening on {bound} ({} workers, {} conns, {} in flight, batch {})",
            pool.workers.max(1),
            pool.max_conns,
            pool.inflight.max(1),
            pool.batch_max.max(1)
        );
        pool_handle = Some(handle);
    }

    // Stdin loop: EOF shuts the daemon down — unless a TCP listener is
    // up, in which case the daemon keeps serving connections (running
    // under an init system typically means stdin is closed from the
    // start).
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    // Lines are split on raw bytes and decoded lossily, as on TCP, so a
    // non-UTF-8 line gets an error response instead of ending the loop.
    for raw in stdin.lock().split(b'\n').map_while(Result::ok) {
        let line = String::from_utf8_lossy(raw.strip_suffix(b"\r").unwrap_or(&raw));
        if line.trim().is_empty() {
            continue;
        }
        // Streaming commands (`watch`, `metrics-text`) write their
        // output as it is produced instead of one response line.
        if let Some(spec) = service.special(&line) {
            let mut io_ok = true;
            service.run_special(&spec, &mut |chunk| {
                let mut out = stdout.lock();
                io_ok = writeln!(out, "{chunk}").and_then(|()| out.flush()).is_ok();
                io_ok
            });
            if !io_ok {
                break;
            }
            continue;
        }
        let response = service.handle_line(&line);
        let mut out = stdout.lock();
        if writeln!(out, "{response}")
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
    if listening {
        eprintln!("stdin closed; serving TCP only");
        loop {
            std::thread::park();
        }
    }
    drop(pool_handle);
    0
}

fn seed_corpus(args: &[String]) -> i32 {
    let domain = match flag(args, "--domain").as_deref().and_then(Domain::by_name) {
        Some(d) => d,
        None => {
            eprintln!("seed-corpus: missing or unknown --domain");
            return 2;
        }
    };
    let name = match flag(args, "--name") {
        Some(n) => n,
        None => {
            eprintln!("seed-corpus: missing --name");
            return 2;
        }
    };
    let out = match flag(args, "--out") {
        Some(o) => PathBuf::from(o),
        None => {
            eprintln!("seed-corpus: missing --out");
            return 2;
        }
    };
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(17_000);
    let pages: usize = flag(args, "--pages")
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    let drift: f64 = flag(args, "--drift")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);

    let mut spec = SiteSpec::clean(&name, domain, PageKind::List, pages, seed);
    if let Some(style) = flag(args, "--style").and_then(|s| s.parse().ok()) {
        spec.style = style;
    }
    let source = generate_drifted(&spec, drift);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("seed-corpus: {}: {e}", out.display());
        return 1;
    }
    for (i, page) in source.pages.iter().enumerate() {
        let path = out.join(format!("page-{i:03}.html"));
        if let Err(e) = std::fs::write(&path, page) {
            eprintln!("seed-corpus: {}: {e}", path.display());
            return 1;
        }
    }
    eprintln!(
        "seed-corpus: wrote {} pages ({} objects) to {}",
        source.pages.len(),
        source.object_count(),
        out.display()
    );
    0
}

fn extract_file(args: &[String]) -> i32 {
    let wrapper_path = match flag(args, "--wrapper") {
        Some(w) => PathBuf::from(w),
        None => {
            eprintln!("extract-file: missing --wrapper");
            return 2;
        }
    };
    let pages_dir = match flag(args, "--pages") {
        Some(p) => PathBuf::from(p),
        None => {
            eprintln!("extract-file: missing --pages");
            return 2;
        }
    };
    let stored = match load_file(&wrapper_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("extract-file: {}: {e}", wrapper_path.display());
            return 1;
        }
    };
    let pages = match read_pages(&pages_dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("extract-file: {e}");
            return 1;
        }
    };
    let outcome = extract_only(
        &stored.wrapper,
        stored.main_block.as_ref(),
        &stored.clean,
        &pages,
        None,
    );
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for object in outcome.objects() {
        if writeln!(out, "{}", instance_json(object).render()).is_err() {
            return 1;
        }
    }
    0
}

/// `extract-stream`: apply a stored wrapper to a corpus directory via
/// the streaming path — pages `mmap`ed lazily, a bounded window in
/// flight, one JSON line per page in page order — then a run summary
/// on stderr. Output objects are byte-identical to `extract-file`'s;
/// only the line grouping differs (per page instead of per object).
///
/// With `--object-store DIR` each page's objects are also ingested
/// into a durable object store as they stream past — de-duplicated,
/// fused with whatever earlier crawls stored, and stamped with
/// per-attribute provenance. `--extracted-at MICROS` pins the
/// provenance timestamp (scripted runs use it for reproducible store
/// bytes); it defaults to the current wall clock.
fn extract_stream_cmd(args: &[String]) -> i32 {
    let wrapper_path = match flag(args, "--wrapper") {
        Some(w) => PathBuf::from(w),
        None => {
            eprintln!("extract-stream: missing --wrapper");
            return 2;
        }
    };
    let pages_dir = match flag(args, "--pages") {
        Some(p) => PathBuf::from(p),
        None => {
            eprintln!("extract-stream: missing --pages");
            return 2;
        }
    };
    let threads: Option<usize> = match flag(args, "--threads").map(|s| s.parse()) {
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => {
            eprintln!("extract-stream: bad --threads");
            return 2;
        }
        None => None,
    };
    let stored = match load_file(&wrapper_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("extract-stream: {}: {e}", wrapper_path.display());
            return 1;
        }
    };
    let corpus = match CorpusDir::open(&pages_dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("extract-stream: {e}");
            return 1;
        }
    };
    let mut store = match flag(args, "--object-store") {
        None => None,
        Some(dir) => match ObjectStore::open(&dir, Obs::disabled()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("extract-stream: object store '{dir}': {e}");
                return 1;
            }
        },
    };
    let extracted_at: u64 = match flag(args, "--extracted-at").map(|s| s.parse()) {
        Some(Ok(t)) => t,
        Some(Err(_)) => {
            eprintln!("extract-stream: bad --extracted-at");
            return 2;
        }
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0),
    };
    let sink_domain = match (&store, Domain::by_name(&stored.domain)) {
        (None, _) => None,
        (Some(_), Some(d)) => Some(d),
        (Some(_), None) => {
            eprintln!(
                "extract-stream: wrapper domain '{}' is unknown; cannot build identity keys",
                stored.domain
            );
            return 1;
        }
    };

    // The scheduler cannot abort mid-stream, so a page that fails to
    // map streams as empty and the first error is reported afterwards.
    enum Page {
        Text(MappedText),
        Failed,
    }
    impl AsRef<str> for Page {
        fn as_ref(&self) -> &str {
            match self {
                Page::Text(t) => t.as_str(),
                Page::Failed => "",
            }
        }
    }
    let failed: Mutex<Option<String>> = Mutex::new(None);
    let pages = corpus.pages().map(|r| match r {
        Ok(text) => Page::Text(text),
        Err(e) => {
            let mut first = failed.lock().expect("error slot");
            first.get_or_insert_with(|| e.to_string());
            Page::Failed
        }
    });

    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let mut io_err = false;
    let source = wrapper_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| stored.source.clone());
    let key_attrs = sink_domain.map(|d| d.key_attributes()).unwrap_or_default();
    let mut store_err: Option<String> = None;
    let mut stored_objects: u64 = 0;
    let mut fused: u64 = 0;
    let stats = extract_stream(
        &stored.wrapper,
        stored.main_block.as_ref(),
        &stored.clean,
        pages,
        &StreamConfig {
            threads,
            ..StreamConfig::default()
        },
        |page, instances| {
            let line = Json::Obj(vec![
                ("page".into(), Json::int(page)),
                (
                    "objects".into(),
                    Json::Arr(instances.iter().map(instance_json).collect()),
                ),
            ]);
            if writeln!(out, "{}", line.render()).is_err() {
                io_err = true;
            }
            // Sink the page's objects as the stream goes by: one
            // ingest batch (and one manifest commit) per page keeps
            // memory bounded by the page, and a crash loses at most
            // the in-flight page.
            if let (Some(store), Some(domain), None) = (&mut store, sink_domain, &store_err) {
                let page_id = corpus.file_stem(page);
                let offers = instances
                    .into_iter()
                    .map(|instance| IngestObject {
                        instance,
                        page_id: page_id.clone(),
                    })
                    .collect();
                let ctx = IngestContext {
                    source: &source,
                    domain: domain.name(),
                    wrapper_revision: stored.revision,
                    repaired_from: stored.repair.as_ref().map(|r| r.repaired_from),
                    extracted_unix_micros: extracted_at,
                    confidence: stored.wrapper.quality,
                    key_attrs: &key_attrs,
                };
                match store.ingest(offers, &ctx, None) {
                    Ok(report) => {
                        stored_objects += report.new_objects;
                        fused += report.fused;
                    }
                    Err(e) => store_err = Some(e.to_string()),
                }
            }
        },
    );
    if out.flush().is_err() || io_err {
        return 1;
    }
    if let Some(store) = &store {
        let status = store.status();
        eprintln!(
            "extract-stream: object store: +{stored_objects} new, {fused} fused, {} live",
            status.live_objects
        );
    }
    if let Some(e) = store_err {
        eprintln!("extract-stream: object store ingest: {e}");
        return 1;
    }
    eprintln!(
        "extract-stream: {} pages, {} objects, {:.0} pages/sec, {} threads",
        stats.pages,
        stats.objects,
        stats.pages_per_sec(),
        stats.threads
    );
    if let Some(e) = failed.into_inner().expect("error slot") {
        eprintln!("extract-stream: {e}");
        return 1;
    }
    0
}

fn read_pages(dir: &Path) -> Result<Vec<String>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "html"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}
