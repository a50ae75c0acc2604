//! What the daemon workloads (`serve-cached`, `harvest`) share;
//! `onboard-drift` shares the cold starts.
//!
//! 1. Set-up: the daemon is started cold [`SETUPS`] times; each start
//!    is timed until every source has answered one single-page
//!    extract, and `setup_s` is the median.
//! 2. Warm-up (untimed): requests until the daemon's span ring is full,
//!    the state a long-running daemon is in.
//! 3. Open loop ([`OPEN_SHARE`] of the measured time): requests sent at
//!    a fixed rate, evenly spaced, round-robin over the connections;
//!    latency from each request's due time gives `p50_ms` and `tail_ms`
//!    ([`TAIL`]). An attempt the generator sent late is run again, and
//!    the run is invalid when every attempt is late (see
//!    [`crate::on_time`]).
//! 4. Closed loop (the rest): [`DEPTH`] requests in flight on every
//!    connection; pages answered per second give `pages_per_s`.
//!
//! Requests are dealt from the workload's seeded pool, each pooled
//! request once before any repeats, so every phase sees the pool's mix.

use crate::check;
use crate::daemon::Daemon;
use crate::inputs::{Deck, Rng};
use crate::net::{self, Client, Completion};
use crate::report::Report;
use crate::stats;
use crate::{Ctx, LATE_ATTEMPTS, TAIL};
use std::time::{Duration, Instant};

/// Share of the measured time the open-loop phase takes; the
/// closed-loop phase, whose throughput spreads more from run to run,
/// takes the rest.
const OPEN_SHARE: f64 = 0.4;
/// Requests each connection keeps in flight in the closed-loop phase:
/// a client that pipelines a few requests, as a crawler fleet's does.
/// (At the seed commit this concurrency is bounded by the 8 KiB
/// response stall, not by the daemon's CPU; see README.md.)
const DEPTH: usize = 4;
/// The open-loop phase is cut into up to this many windows, and a
/// latency metric is the median of its per-window values: enough
/// windows to outvote a burst of interference from elsewhere on the
/// host.
const WINDOWS: usize = 6;
/// Windows of the closed-loop phase, whose per-window counts are less
/// noisy than tail quantiles.
const RATE_WINDOWS: usize = 15;

/// Requests in flight per connection while filling the span ring.
const RING_DEPTH: usize = 16;

/// Cold starts per run; `setup_s` is their median. A start takes tens
/// of milliseconds, so many are cheap, and their median holds still
/// where one start swings with the host.
const SETUPS: usize = 25;

/// How long responses may trail the end of a phase before the requests
/// still in flight count as unanswered.
pub const DRAIN: Duration = Duration::from_secs(10);

/// A request the generator can send.
#[derive(Clone)]
pub struct Pooled {
    /// The protocol line, newline included.
    pub line: Vec<u8>,
    /// Pages the request carries.
    pub pages: usize,
    /// The serial in-process response, when it is known up front.
    pub reference: Option<String>,
}

pub fn lines(pool: &[Pooled]) -> Vec<&[u8]> {
    pool.iter().map(|p| p.line.as_slice()).collect()
}

/// The open-loop phase's requests: one every `1 / rate` seconds over
/// `span`, dealt from a pool by `deck`. A shorter span yields a prefix
/// of a longer one.
///
/// Evenly spaced sends keep the arrival process out of the run-to-run
/// spread. Poisson arrivals were tried: at the seed commit, where a
/// response waits for the acknowledgement the next request on its
/// connection carries (see README.md), they made every latency depend
/// on the gap to the next arrival and on how fast the host ran at the
/// time, and moved p50 and p90 by 30% over eight seeds, against 1% for
/// even spacing.
pub fn schedule(
    rng: &mut Rng,
    deck: &mut Deck,
    rate: f64,
    span: Duration,
) -> Vec<(Duration, usize)> {
    let n = (span.as_secs_f64() * rate) as usize;
    (1..=n)
        .map(|k| (Duration::from_secs_f64(k as f64 / rate), deck.draw(rng)))
        .collect()
}

/// Account one answered request against its reference; a request
/// with no reference only needs to succeed.
pub fn check(report: &mut Report, pool: &[Pooled], c: &Completion) {
    let correct = match &pool[c.id].reference {
        Some(want) => check::same(&c.response, want),
        None => true,
    };
    report.answered(&c.response, correct);
}

/// Account requests that were sent but never answered.
pub fn unanswered(report: &mut Report, sent: usize, answered: usize) {
    let missing = sent.saturating_sub(answered) as u64;
    report.attempted += missing;
    report.unanswered += missing;
}

/// Start the daemon cold [`SETUPS`] times (once at smoke scale). Each
/// set-up is timed from spawn until every `warm` request has been
/// answered over one connection; the last daemon is kept running.
/// Returns the daemon and the set-up times in seconds.
pub fn cold_starts(
    ctx: &mut Ctx,
    args: &[String],
    warm: &[Pooled],
) -> Result<(Daemon, Vec<f64>), String> {
    let setups = if ctx.smoke { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for k in 0..setups {
        drop(kept.take());
        let daemon = Daemon::spawn(&ctx.serve_bin, args, &ctx.path(&format!("daemon-{k}.log")))?;
        let mut client = Client::connect(daemon.addr, 1).map_err(|e| format!("connect: {e}"))?;
        // One request at a time: each response is answered (and
        // acknowledged by the next request) before the next is sent.
        let mut last = daemon.spawned;
        for (id, w) in warm.iter().enumerate() {
            let c = client
                .call(id, &w.line, DRAIN)
                .map_err(|e| format!("warm-up request {id}: {e}"))?;
            check(&mut ctx.report, warm, &c);
            last = c.done;
        }
        times.push(last.duration_since(daemon.spawned).as_secs_f64());
        kept = Some(daemon);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Requests a warm-up may send before the span ring must have wrapped.
const FILL_LIMIT: usize = 200_000;

/// The daemon's count of spans evicted from its full span ring.
fn dropped_spans(client: &mut Client) -> Result<u64, String> {
    let status = client
        .call(0, b"{\"cmd\":\"status\"}\n", DRAIN)
        .map_err(|e| format!("status: {e}"))?
        .response;
    objectrunner_store::Json::parse(&status)
        .ok()
        .and_then(|j| j.get("live")?.get("dropped_spans")?.as_i64())
        .map(|n| n as u64)
        .ok_or_else(|| format!("status without live.dropped_spans: {status}"))
}

/// Bring the daemon to the state a long-running one is in before
/// timing it: its span ring full, so that every span it records evicts
/// the oldest. A fresh daemon does not pay for that eviction yet, and a
/// phase that crossed the point where it starts would measure two
/// daemons. Sends the `fill` requests, checked by `check`, until the
/// daemon reports evicted spans. Skipped at smoke scale.
pub fn fill_span_ring(
    ctx: &mut Ctx,
    daemon: &Daemon,
    fill: &[Pooled],
    check: &mut dyn FnMut(&mut Report, &Completion),
) -> Result<(), String> {
    if ctx.smoke {
        return Ok(());
    }
    let lines = lines(fill);
    let mut client =
        Client::connect(daemon.addr, ctx.conns).map_err(|e| format!("connect: {e}"))?;
    let mut status = Client::connect(daemon.addr, 1).map_err(|e| format!("connect: {e}"))?;
    let mut sent = 0;
    let mut next = 0;
    while dropped_spans(&mut status)? == 0 {
        if sent > FILL_LIMIT {
            return Err(format!("span ring still not full after {sent} requests"));
        }
        let report = &mut ctx.report;
        let (done, _, _) = net::closed_loop(
            &mut client,
            RING_DEPTH,
            Duration::from_millis(250),
            DRAIN,
            &lines,
            |_| {
                next += 1;
                next % lines.len()
            },
            |c| check(report, c),
        )
        .map_err(|e| format!("warm-up: {e}"))?;
        sent += done.len();
        unanswered(report, done.len() + client.total_in_flight(), done.len());
    }
    Ok(())
}

/// What the two phases measured.
pub struct Phases {
    /// (due time from the phase start, latency in ms) per request of
    /// the open-loop phase.
    latency: Vec<(Duration, f64)>,
    open: Duration,
    /// (completion time from the phase start, pages) per request of
    /// the closed-loop phase.
    pages: Vec<(Duration, f64)>,
    closed: Duration,
    rss_mb: f64,
}

/// Run the open-loop phase at `rate` requests/s, then the closed-loop
/// phase, dealing requests from `pool` (seeded by the named `stream`)
/// and handing every response to `check`.
pub fn measure(
    ctx: &mut Ctx,
    daemon: &Daemon,
    pool: &[Pooled],
    stream: &str,
    rate: f64,
    check: &mut dyn FnMut(&mut Report, &Completion),
) -> Result<Phases, String> {
    let lines = lines(pool);
    let mut client =
        Client::connect(daemon.addr, ctx.conns).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Rng::fork(ctx.seed, stream);
    let open = ctx.span(OPEN_SHARE);
    let mut deck = Deck::new(pool.len());
    // A phase the generator sent late measured a busy host, not the
    // daemon: run it again; if every attempt is late the run is invalid.
    let mut done = Vec::new();
    for attempt in 1..=LATE_ATTEMPTS {
        let schedule = schedule(&mut rng, &mut deck, rate, open);
        let report = &mut ctx.report;
        done = net::open_loop(&mut client, &schedule, &lines, DRAIN, |c| check(report, c))
            .map_err(|e| format!("open-loop phase: {e}"))?;
        unanswered(report, schedule.len(), done.len());
        let late: Vec<f64> = done.iter().map(|c| stats::ms(c.lateness())).collect();
        if crate::on_time(report, "open-loop phase", attempt, &late).1 {
            break;
        }
    }
    let t0 = done
        .iter()
        .map(|c| c.due)
        .min()
        .unwrap_or_else(Instant::now);
    let latency = done
        .iter()
        .map(|c| (c.due - t0, stats::ms(c.latency())))
        .collect();

    let closed = ctx.span(1.0 - OPEN_SHARE);
    let report = &mut ctx.report;
    let (done, start, end) = net::closed_loop(
        &mut client,
        DEPTH,
        closed,
        DRAIN,
        &lines,
        |_| deck.draw(&mut rng),
        |c| check(report, c),
    )
    .map_err(|e| format!("closed-loop phase: {e}"))?;
    unanswered(report, done.len() + client.total_in_flight(), done.len());
    let pages = done
        .iter()
        .filter(|c| c.done < end)
        .map(|c| (c.done - start, pool[c.id].pages as f64))
        .collect();
    Ok(Phases {
        latency,
        open,
        pages,
        closed: end - start,
        rss_mb: daemon.peak_rss_mb().unwrap_or(f64::NAN),
    })
}

/// The end-to-end metrics of a daemon workload.
pub fn emit(ctx: &mut Ctx, setup: &[f64], p: &Phases, rate: f64, what: &str) {
    let window_s = p.closed.as_secs_f64() / RATE_WINDOWS as f64;
    // At least 100 samples a window, so that ten lie beyond its p90.
    let windows = (p.latency.len() / 100).clamp(1, WINDOWS);
    let note = format!("{what} at {rate} req/s open loop; median of {windows} windows");
    let quantile =
        |q: f64| stats::windowed_median(&p.latency, p.open, windows, |w| stats::quantile(w, q));
    let r = &mut ctx.report;
    r.metric(
        "setup_s",
        stats::median(setup),
        "s",
        setup.len(),
        "median cold start until every source answered once",
    );
    r.metric("p50_ms", quantile(0.5), "ms", p.latency.len(), &note);
    r.metric(
        "tail_ms",
        quantile(TAIL),
        "ms",
        p.latency.len(),
        &format!("p90, {note}"),
    );
    r.metric(
        "pages_per_s",
        stats::windowed_median(&p.pages, p.closed, RATE_WINDOWS, |w| {
            w.iter().sum::<f64>() / window_s
        }),
        "1/s",
        p.pages.len(),
        &format!("closed loop, {DEPTH} in flight per conn; median of {RATE_WINDOWS} windows"),
    );
    r.metric("peak_rss_mb", p.rss_mb, "MB", 0, "daemon VmHWM");
}
