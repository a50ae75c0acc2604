//! Serving-core trajectory point (`BENCH_serve.json`).
//!
//! Drives the daemon's TCP front door the way a crawler fleet does:
//! `--conns` concurrent connections, each pipelining `--requests`
//! cached extracts in bursts of `--burst` lines, against the real
//! serving core (`serve_tcp`: sharded lock-free wrapper reads, a
//! bounded worker pool, request batching and buffered writes) in
//! process, over a seeded wrapper store.
//!
//! The document records throughput (requests/sec over the wall time of
//! the full run) and client-observed latency quantiles (burst send →
//! response arrival), the server's own extract histogram quantiles,
//! and the sanity gates `ci.sh` checks: every pooled response must
//! normalize byte-identical to a serial `handle_line` reference, and a
//! correctly budgeted run must shed nothing. The pre-pool global-mutex
//! daemon is no longer rebuilt here; its recorded comparison is
//! EXPERIMENTS.md E14, and the benchmark ledger times the pool layer
//! by layer.
//!
//! Output is one JSON document on stdout; a recorded run is committed
//! as `BENCH_serve.json` at the repository root.

use objectrunner_obs::LATENCY_BUCKETS_MICROS;
use objectrunner_serve::{serve_tcp, PoolConfig, ServeConfig, Service, REQUEST_LATENCY};
use objectrunner_store::Json;
use objectrunner_webgen::{generate_site, Domain, PageKind, SiteSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SOURCE: &str = "bench-books";

fn service(store_dir: PathBuf) -> Service {
    Service::new(ServeConfig {
        store_dir,
        ..ServeConfig::default()
    })
}

/// Induce and persist the wrapper the server will serve, and return
/// the extract request line every client sends.
fn seed_wrapper(store_dir: &Path, pages: usize) -> String {
    let site = generate_site(&SiteSpec::clean(
        SOURCE,
        Domain::Books,
        PageKind::List,
        pages.max(2),
        17_031,
    ));
    let page_json = Json::Arr(site.pages.iter().take(pages).map(Json::str).collect());
    let induce = Json::Obj(vec![
        ("cmd".into(), Json::str("induce")),
        ("source".into(), Json::str(SOURCE)),
        ("domain".into(), Json::str("Books")),
        (
            "pages".into(),
            Json::Arr(site.pages.iter().map(Json::str).collect()),
        ),
    ])
    .render();
    let seeder = service(store_dir.to_path_buf());
    let response = seeder.handle_line(&induce);
    assert!(
        response.contains("\"ok\":true"),
        "seed induction failed: {response}"
    );
    Json::Obj(vec![
        ("cmd".into(), Json::str("extract")),
        ("source".into(), Json::str(SOURCE)),
        ("pages".into(), page_json),
    ])
    .render()
}

/// Strip the fields that legitimately differ between runs: the
/// per-request `trace` id and the wall-clock `stats` timings.
fn normalize(raw: &str) -> String {
    match Json::parse(raw).expect("valid response") {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "trace" && k != "stats")
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

struct LoadResult {
    wall_micros: u128,
    /// Client-observed burst-send → response-arrival times, micros.
    latencies: Vec<u64>,
    mismatches: usize,
}

/// Fire `conns` connections, each sending `requests` extract lines in
/// pipelined bursts of `burst`, and compare every response against the
/// normalized serial reference.
fn run_load(
    addr: SocketAddr,
    conns: usize,
    requests: usize,
    burst: usize,
    extract: &str,
    expected: &str,
) -> LoadResult {
    // Warm the wrapper from disk outside the timed window, so the
    // server is measured in cached steady state.
    let mut warm = TcpStream::connect(addr).expect("warm connect");
    writeln!(warm, "{extract}").expect("warm send");
    let mut line = String::new();
    BufReader::new(&warm)
        .read_line(&mut line)
        .expect("warm response");
    assert!(line.contains("\"ok\":true"), "warmup failed: {line}");
    drop(warm);

    let t0 = Instant::now();
    let per_conn: Vec<(Vec<u64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut latencies = Vec::with_capacity(requests);
                    let mut mismatches = 0usize;
                    let mut sent = 0usize;
                    while sent < requests {
                        let n = burst.min(requests - sent);
                        let mut lines = String::new();
                        for _ in 0..n {
                            lines.push_str(extract);
                            lines.push('\n');
                        }
                        let burst_t0 = Instant::now();
                        (&stream).write_all(lines.as_bytes()).expect("send burst");
                        for _ in 0..n {
                            let mut response = String::new();
                            reader.read_line(&mut response).expect("read response");
                            latencies.push(burst_t0.elapsed().as_micros() as u64);
                            if normalize(response.trim_end()) != expected {
                                mismatches += 1;
                            }
                        }
                        sent += n;
                    }
                    (latencies, mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall_micros = t0.elapsed().as_micros();

    let mut latencies = Vec::with_capacity(conns * requests);
    let mut mismatches = 0;
    for (lat, mis) in per_conn {
        latencies.extend(lat);
        mismatches += mis;
    }
    latencies.sort_unstable();
    LoadResult {
        wall_micros,
        latencies,
        mismatches,
    }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn rps(total: usize, wall_micros: u128) -> f64 {
    total as f64 / (wall_micros as f64 / 1e6)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let conns = arg("--conns", 64);
    let requests = arg("--requests", 16);
    let burst = arg("--burst", 8).max(1);
    let pages = arg("--pages", 3).max(1);
    let workers = arg("--workers", 0); // 0 = pool default
    let total = conns * requests;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let dir: PathBuf =
        std::env::temp_dir().join(format!("objectrunner-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let extract = seed_wrapper(&dir, pages);

    // The serial reference every response is held against.
    let serial = service(dir.clone());
    let expected = normalize(&serial.handle_line(&extract));
    assert!(expected.contains("\"ok\":true"), "serial reference failed");
    drop(serial);

    // Pooled: the real serving core, budgeted so nothing sheds.
    let pooled_service = Arc::new(service(dir.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind pooled");
    let mut pool = PoolConfig {
        max_conns: conns + 8,
        inflight: (conns * burst).max(64),
        ..PoolConfig::default()
    };
    if workers > 0 {
        pool.workers = workers;
    }
    let pool_workers = pool.workers;
    let handle = serve_tcp(listener, Arc::clone(&pooled_service), pool);
    let pooled = run_load(handle.addr(), conns, requests, burst, &extract, &expected);

    let snap = pooled_service.obs().snapshot();
    let batched = snap.counter("objectrunner.serve.serving.batched_requests");
    let batches = snap.counter("objectrunner.serve.serving.batches");
    let shed_requests = snap.counter("objectrunner.serve.serving.shed_requests");
    let shed_conns = snap.counter("objectrunner.serve.serving.shed_conns");
    // Per-domain key (lowercased domain name); resolve by prefix so
    // the bench doesn't bake in the serving core's casing.
    let server_hist = snap
        .histograms
        .iter()
        .find(|(k, _)| k.starts_with("objectrunner.serve.extract.latency_micros."))
        .map(|(_, h)| h.clone())
        .unwrap_or_default();
    let (server_p50, server_p99) = (server_hist.quantile(0.5), server_hist.quantile(0.99));

    // The live-telemetry view of the same traffic: the 60 s sliding
    // window over the request-latency histogram holds every sample of
    // a sub-minute run, so its quantiles must agree with the
    // cumulative histogram's to within one bucket — the window is
    // just a different read over the identical records.
    let now = pooled_service
        .obs()
        .clock()
        .map_or(0, |c| c.monotonic_micros());
    let windowed = pooled_service
        .obs()
        .windows()
        .and_then(|w| w.get(REQUEST_LATENCY))
        .map(|w| w.snapshot(now, 60_000_000))
        .unwrap_or_default();
    let cumulative = snap
        .histograms
        .iter()
        .find(|(k, _)| k.as_str() == REQUEST_LATENCY)
        .map(|(_, h)| h.clone())
        .unwrap_or_default();
    let bucket = |v: u64| {
        LATENCY_BUCKETS_MICROS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(LATENCY_BUCKETS_MICROS.len())
    };
    let window_agrees = [0.5, 0.99, 0.999]
        .iter()
        .all(|&q| bucket(windowed.quantile(q)).abs_diff(bucket(cumulative.quantile(q))) <= 1);
    assert!(
        window_agrees,
        "windowed quantiles diverge from cumulative histogram: \
         window p50/p99/p999 = {}/{}/{}, histogram = {}/{}/{}",
        windowed.quantile(0.5),
        windowed.quantile(0.99),
        windowed.quantile(0.999),
        cumulative.quantile(0.5),
        cumulative.quantile(0.99),
        cumulative.quantile(0.999),
    );
    handle.shutdown();

    let pooled_rps = rps(total, pooled.wall_micros);
    let pooled_equals_serial = pooled.mismatches == 0;

    let _ = std::fs::remove_dir_all(&dir);

    println!("{{");
    println!("  \"bench\": \"serve\",");
    println!("  \"host_cpus\": {host_cpus},");
    println!("  \"conns\": {conns},");
    println!("  \"requests_per_conn\": {requests},");
    println!("  \"burst\": {burst},");
    println!("  \"pages_per_request\": {pages},");
    println!("  \"total_requests\": {total},");
    println!("  \"pool_workers\": {pool_workers},");
    println!("  \"pooled_wall_micros\": {},", pooled.wall_micros);
    println!("  \"pooled_rps\": {pooled_rps:.1},");
    println!(
        "  \"pooled_p50_micros\": {},",
        quantile(&pooled.latencies, 0.5)
    );
    println!(
        "  \"pooled_p99_micros\": {},",
        quantile(&pooled.latencies, 0.99)
    );
    println!(
        "  \"pooled_p999_micros\": {},",
        quantile(&pooled.latencies, 0.999)
    );
    println!("  \"pooled_server_p50_micros\": {server_p50},");
    println!("  \"pooled_server_p99_micros\": {server_p99},");
    println!(
        "  \"pooled_window_p50_micros\": {},",
        windowed.quantile(0.5)
    );
    println!(
        "  \"pooled_window_p99_micros\": {},",
        windowed.quantile(0.99)
    );
    println!(
        "  \"pooled_window_p999_micros\": {},",
        windowed.quantile(0.999)
    );
    println!("  \"window_agrees_with_histogram\": {window_agrees},");
    println!("  \"batches\": {batches},");
    println!("  \"batched_requests\": {batched},");
    println!("  \"shed_requests\": {shed_requests},");
    println!("  \"shed_conns\": {shed_conns},");
    println!("  \"pooled_equals_serial\": {pooled_equals_serial}");
    println!("}}");
}
