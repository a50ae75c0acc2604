//! # objectrunner-eval
//!
//! The paper's evaluation methodology (§IV-B) and the harness that
//! regenerates every table and figure:
//!
//! * [`classify`] — the golden-standard test: correct / partially
//!   correct / incorrect attributes and objects, and the two precision
//!   measures `Pc = Oc/No` and `Pp = (Oc+Op)/No`.
//! * [`runners`] — drive ObjectRunner, ExAlg and RoadRunner over a
//!   generated source and normalize their outputs.
//! * [`tables`] — Table I (per-source results), Table II (sample
//!   selection strategies) and Table III (system comparison).
//! * [`figures`] — Figure 6(a) object classification rates and 6(b)
//!   incompletely-managed source rates.
//! * [`obs_check`] — schema checks and baseline diffs for the
//!   observability exports `obs_golden` writes.
//!
//! Binaries: `table1`, `table2`, `table3`, `figure6`,
//! `dictionary_coverage` (Appendix A), `support_sweep` (Appendix B),
//! `drift_sweep` (E7: template-drift strength vs detection/repair),
//! `obs_golden` and its checker `obs_check`.
//!
//! Every binary that drives the ObjectRunner pipeline accepts
//! `--stats-json`, which makes the runners print one machine-readable
//! line per source (`{"source":..,"system":..,"stats":{..}}`) with
//! per-stage wall/CPU timings alongside the human-readable output.

pub mod classify;
pub mod figures;
pub mod obs_check;
pub mod runners;
pub mod tables;

pub use classify::{classify_source, AttrStatus, ExtractedObject, ObjectStatus, SourceReport};
pub use runners::{
    run_exalg, run_objectrunner, run_roadrunner, set_stats_json, stats_json_enabled, SourceRun,
    SystemId,
};

/// Consume `--stats-json` from a binary's argument list: enables the
/// runners' per-source stats emission and returns the remaining args.
pub fn parse_stats_json_flag(args: Vec<String>) -> Vec<String> {
    let (flags, rest): (Vec<String>, Vec<String>) =
        args.into_iter().partition(|a| a == "--stats-json");
    if !flags.is_empty() {
        set_stats_json(true);
    }
    rest
}
