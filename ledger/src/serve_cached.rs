//! `serve-cached`: cached `extract` traffic against a daemon holding
//! 40 pre-induced sources (8 per domain; mixed template style, cell
//! markup and navigation noise).
//!
//! Sources are picked Zipf(1.0), so a few hot sources carry most of
//! the traffic and same-source runs exercise the daemon's batching;
//! each request carries 1–16 pages, log-uniform, so responses fall on
//! both sides of 8 KiB. Both draws are stratified: every seed gets the
//! same mix of source ranks and sizes, and the seed only changes which
//! request carries which and what the pages hold, so the run-to-run
//! spread measures the daemon, not the mix. The connection, service, JSON codec and
//! extract-stage layers do most of the work; the induction layers do
//! none.
//!
//! Set-up and phases are those of every daemon workload (see
//! [`crate::serving`]); every response must equal the serial
//! reference with `trace` and `stats` stripped.

use crate::fleet;
use crate::inputs::{extract_line, log_uniform_at, mixed_spec, strata, window, wire, Rng, Zipf};
use crate::serving::{self, Pooled};
use crate::Ctx;
use objectrunner_webgen::Domain;

pub const SOURCES: usize = 40;
/// Pages per source: the wrapper is induced from the first 20, and
/// requests draw windows from all of them.
pub const POOL_PAGES: usize = 24;
/// Distinct requests the traffic draws from.
const REQUESTS: usize = 512;
/// Offered load of the open-loop phase, requests/s: about 20% of the
/// highest rate the seed commit sustains on a quiet two-core host with
/// its p99 under 100 ms and no growing backlog (about 1 200 req/s once
/// its span ring is full). At 480 req/s (40%) a daemon on a host slowed
/// by its neighbours fell seconds behind, and requests went unanswered.
pub const R_FIXED: f64 = 240.0;

pub struct Inputs {
    pub fleet: fleet::Fleet,
    /// One single-page extract per source, for the cold starts.
    pub warm: Vec<Pooled>,
    pub pool: Vec<Pooled>,
}

/// Induce the fleet, draw the request pool, and answer every pooled
/// request once with a serial in-process service over the same store.
pub fn inputs(ctx: &Ctx) -> Result<Inputs, String> {
    let (sources, requests) = if ctx.smoke {
        (10, 64)
    } else {
        (SOURCES, REQUESTS)
    };
    let fleet = fleet::induce(
        ctx.seed,
        "cached",
        sources,
        &ctx.path("store"),
        |k, name, rng| mixed_spec(name, Domain::ALL[k % Domain::ALL.len()], POOL_PAGES, k, rng),
    )?;
    let reference = fleet::service(&fleet.store, None);
    let pooled = |line: String, pages: usize| Pooled {
        reference: Some(reference.handle_line(&line)),
        line: wire(line),
        pages,
    };
    let warm = fleet
        .sources
        .iter()
        .map(|s| pooled(extract_line(&s.name, [&s.pages[0]]), 1))
        .collect();
    let mut rng = Rng::fork(ctx.seed, "cached-requests");
    let zipf = Zipf::new(fleet.sources.len(), 1.0);
    let pool = strata(requests)
        .zip(page_counts(requests, &mut rng))
        .map(|(u, n)| {
            let s = &fleet.sources[zipf.at(u)];
            let start = rng.below(s.pages.len());
            pooled(extract_line(&s.name, window(&s.pages, start, n)), n)
        })
        .collect();
    Ok(Inputs { fleet, warm, pool })
}

/// Pages per request for `n` requests: 1–16, log-uniform, the same
/// counts for every seed, in seeded order.
pub fn page_counts(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut counts: Vec<usize> = strata(n).map(|u| log_uniform_at(1, 16, u)).collect();
    rng.shuffle(&mut counts);
    counts
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let inputs = inputs(ctx)?;
    let args = vec![
        "--store".to_owned(),
        inputs.fleet.store.display().to_string(),
    ];
    let (daemon, setup) = serving::cold_starts(ctx, &args, &inputs.warm)?;
    serving::fill_span_ring(ctx, &daemon, &inputs.warm, &mut |r, c| {
        serving::check(r, &inputs.warm, c)
    })?;
    let phases = serving::measure(
        ctx,
        &daemon,
        &inputs.pool,
        "cached-traffic",
        R_FIXED,
        &mut |r, c| serving::check(r, &inputs.pool, c),
    )?;
    drop(daemon);
    serving::emit(ctx, &setup, &phases, R_FIXED, "cached extract");
    Ok(())
}
