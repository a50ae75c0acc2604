//! `objectrunner-obs` — the observability layer: hierarchical spans,
//! a typed metrics registry, and canonical exporters (events JSONL,
//! Chrome `trace_event`, human report, legacy `--stats-json`).
//!
//! Design (DESIGN.md §10):
//!
//! * **Dependency-free leaf.** Every other crate may depend on this
//!   one, so it depends on nothing — including `store`, and it parses
//!   no JSON. The `obs_check` validator for its exports lives in
//!   `objectrunner-eval` (`eval::obs_check`) and reads them with
//!   `store::Json`.
//! * **Zero-cost when disabled.** [`Obs::disabled`] is `const`; every
//!   operation on a disabled handle is one branch. The `ci.sh`
//!   bench-smoke stage enforces ≤2% overhead on the annotation bench
//!   with observability *enabled*.
//! * **Deterministic by construction.** Span parenthood is explicit
//!   ([`Span::child`] / [`Obs::span_in`]), never thread-local, so the
//!   trace tree's shape depends only on the code path. Exports sort by
//!   `(trace, id)` and render with fixed key order; the determinism
//!   suite byte-compares span trees across `OBJECTRUNNER_THREADS=1`
//!   and `=8` after normalizing worker-allocated ids.
//!
//! Metric names follow `objectrunner.<crate>.<stage>.<name>`.

pub mod clock;
pub mod export;
pub mod metrics;
pub mod span;
pub mod window;

pub use clock::{Clock, ClockSource, FakeClock, SystemClock};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, DRIFT_BUCKETS_MILLI,
    LATENCY_BUCKETS_MICROS,
};
pub use span::{AttrValue, Obs, Span, SpanRecord, DEFAULT_SPAN_CAPACITY};
pub use window::{SlidingWindow, WindowConfig, WindowRegistry};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// Install `obs` as the process-wide handle used by build-level
/// counters in the html / segment / knowledge crates (the crates the
/// pipeline cannot reasonably thread a handle into). First caller
/// wins; returns whether this call installed it.
///
/// Only *enabled* handles are installed — setting a disabled handle is
/// a no-op so the ambient fast path stays a single relaxed load.
pub fn set_global(obs: Obs) -> bool {
    if !obs.is_enabled() {
        return false;
    }
    let installed = GLOBAL.set(obs).is_ok();
    if installed {
        GLOBAL_ENABLED.store(true, Ordering::Release);
    }
    installed
}

/// The process-wide handle, or a disabled one if none was installed.
/// The disabled path is one relaxed atomic load.
#[inline]
pub fn global() -> Obs {
    if !GLOBAL_ENABLED.load(Ordering::Relaxed) {
        return Obs::disabled();
    }
    GLOBAL.get().cloned().unwrap_or(Obs::disabled())
}

/// Is a process-wide handle installed? One relaxed load — the guard
/// instrumented crates use before doing any counting work.
#[inline]
pub fn global_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Bump a counter on the global handle if one is installed. The
/// disabled cost is the `global_enabled` load plus a branch.
#[inline]
pub fn global_count(name: &str, n: u64) {
    if GLOBAL_ENABLED.load(Ordering::Relaxed) {
        if let Some(obs) = GLOBAL.get() {
            obs.counter_add(name, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global handle is process-wide state, so all assertions about
    // it live in one test (test threads share the process).
    #[test]
    fn global_handle_lifecycle() {
        assert!(
            !set_global(Obs::disabled()),
            "disabled handles are rejected"
        );
        // Before installation the ambient path must be inert…
        // (cannot assert global_enabled()==false here: another test
        // binary run may have installed it — within this unit test
        // binary, we are the only installer.)
        let obs = Obs::enabled();
        assert!(set_global(obs.clone()));
        assert!(global_enabled());
        assert!(!set_global(Obs::enabled()), "first caller wins");
        global_count("objectrunner.test.global", 3);
        global_count("objectrunner.test.global", 4);
        assert_eq!(obs.snapshot().counter("objectrunner.test.global"), 7);
        let via_global = global();
        via_global.counter_add("objectrunner.test.global", 1);
        assert_eq!(obs.snapshot().counter("objectrunner.test.global"), 8);
    }
}
