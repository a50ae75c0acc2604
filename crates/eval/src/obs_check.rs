//! Schema checking and baseline diffing for exported observability
//! artifacts, used by the `obs_check` bin in the `ci.sh obs-smoke`
//! stage. It sits next to `obs_golden`, which produces the artifacts,
//! and reads them with the workspace's one JSON codec,
//! [`objectrunner_store::Json`].

use objectrunner_store::Json;
use std::fmt::Write as _;

/// Parse one JSON document, rendering a parse failure as text.
fn parse_doc(text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| e.to_string())
}

/// Members of a JSON object.
fn as_obj(value: &Json) -> Option<&[(String, Json)]> {
    match value {
        Json::Obj(pairs) => Some(pairs),
        _ => None,
    }
}

/// Counts of each event kind found in a valid events JSONL file.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct EventsSummary {
    pub spans: usize,
    pub counters: usize,
    pub gauges: usize,
    pub histograms: usize,
}

/// Validate an events JSONL document line by line: every line must
/// parse, carry a known `type`, and have that type's required fields
/// with the right JSON types. Returns per-kind counts.
pub fn validate_events_jsonl(text: &str) -> Result<EventsSummary, String> {
    let mut summary = EventsSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        let ctx = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if line.trim().is_empty() {
            return Err(ctx("blank line"));
        }
        let value = parse_doc(line).map_err(|e| ctx(&e))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string field `type`"))?;
        match kind {
            "span" => {
                for field in ["trace", "id", "parent", "start_us", "dur_us", "cpu_us"] {
                    value
                        .get(field)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| ctx(&format!("span missing numeric `{field}`")))?;
                }
                value
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("span missing string `name`"))?;
                value
                    .get("attrs")
                    .and_then(as_obj)
                    .ok_or_else(|| ctx("span missing object `attrs`"))?;
                summary.spans += 1;
            }
            "counter" | "gauge" => {
                value
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("metric missing string `name`"))?;
                value
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ctx("metric missing numeric `value`"))?;
                if kind == "counter" {
                    summary.counters += 1;
                } else {
                    summary.gauges += 1;
                }
            }
            "histogram" => {
                value
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("histogram missing string `name`"))?;
                let bounds = value
                    .get("bounds")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ctx("histogram missing array `bounds`"))?;
                let counts = value
                    .get("counts")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ctx("histogram missing array `counts`"))?;
                if counts.len() != bounds.len() + 1 {
                    return Err(ctx("histogram counts must be bounds + overflow slot"));
                }
                for field in ["sum", "count"] {
                    value
                        .get(field)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| ctx(&format!("histogram missing numeric `{field}`")))?;
                }
                summary.histograms += 1;
            }
            other => return Err(ctx(&format!("unknown event type `{other}`"))),
        }
    }
    Ok(summary)
}

/// Validate a Chrome `trace_event` JSON document: the object form with
/// a `traceEvents` array of complete (`"ph":"X"`) events, each with
/// the fields Perfetto requires. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let value = parse_doc(text)?;
    let events = value
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing array `traceEvents`")?;
    for (i, event) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string `ph`"))?;
        if ph != "X" {
            return Err(ctx(&format!("expected complete event (ph=X), got `{ph}`")));
        }
        for field in ["name", "cat"] {
            event
                .get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| ctx(&format!("missing string `{field}`")))?;
        }
        for field in ["ts", "dur", "pid", "tid"] {
            event
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| ctx(&format!("missing numeric `{field}`")))?;
        }
        event
            .get("args")
            .and_then(as_obj)
            .ok_or_else(|| ctx("missing object `args`"))?;
    }
    Ok(events.len())
}

/// Metric-name substrings whose values are machine- or
/// scheduling-dependent and therefore excluded from baseline diffs by
/// default: timings, latency/drift distributions, and the annotation
/// cache hit/miss split (the deterministic `cache_lookups` total is
/// still compared).
pub const DEFAULT_SKIP_SUBSTRINGS: &[&str] = &[
    "micros",
    "latency",
    "drift",
    "cache_hits",
    "cache_misses",
    "uptime",
];

fn skipped(name: &str, skip: &[String]) -> bool {
    skip.iter().any(|s| name.contains(s.as_str()))
}

/// Diff two snapshot JSON documents (the [`objectrunner_obs::MetricsSnapshot`]
/// `to_json` shape). Counters and gauges must match within
/// `tolerance` (relative, e.g. `0.05` = ±5%); histogram total counts
/// likewise. Names containing any `skip` substring are ignored, as are
/// keys only one side has when skipped. Returns human-readable
/// mismatch lines — empty means the snapshots agree.
pub fn diff_snapshots(
    baseline: &str,
    current: &str,
    skip: &[String],
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let base = parse_doc(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse_doc(current).map_err(|e| format!("current: {e}"))?;
    let mut mismatches = Vec::new();

    for section in ["counters", "gauges"] {
        let base_map = base
            .get(section)
            .and_then(as_obj)
            .ok_or_else(|| format!("baseline: missing object `{section}`"))?;
        let cur_map = cur
            .get(section)
            .and_then(as_obj)
            .ok_or_else(|| format!("current: missing object `{section}`"))?;
        for (name, base_val) in base_map {
            if skipped(name, skip) {
                continue;
            }
            let base_num = base_val
                .as_f64()
                .ok_or_else(|| format!("baseline: `{name}` is not a number"))?;
            match cur_map.iter().find(|(k, _)| k == name) {
                None => mismatches.push(format!("{section}: `{name}` missing from current")),
                Some((_, v)) => {
                    let cur_num = v
                        .as_f64()
                        .ok_or_else(|| format!("current: `{name}` is not a number"))?;
                    if !within(base_num, cur_num, tolerance) {
                        let mut line = String::new();
                        let _ = write!(
                            line,
                            "{section}: `{name}` baseline {base_num} vs current {cur_num}"
                        );
                        if tolerance > 0.0 {
                            let _ = write!(line, " (tolerance {tolerance})");
                        }
                        mismatches.push(line);
                    }
                }
            }
        }
        for (name, _) in cur_map {
            if skipped(name, skip) {
                continue;
            }
            if !base_map.iter().any(|(k, _)| k == name) {
                mismatches.push(format!(
                    "{section}: `{name}` not in baseline (regenerate results/obs_baseline.json)"
                ));
            }
        }
    }

    let base_hists = base
        .get("histograms")
        .and_then(as_obj)
        .ok_or("baseline: missing object `histograms`")?;
    let cur_hists = cur
        .get("histograms")
        .and_then(as_obj)
        .ok_or("current: missing object `histograms`")?;
    for (name, base_h) in base_hists {
        if skipped(name, skip) {
            continue;
        }
        let base_count = base_h
            .get("count")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline: histogram `{name}` missing count"))?;
        match cur_hists.iter().find(|(k, _)| k == name) {
            None => mismatches.push(format!("histograms: `{name}` missing from current")),
            Some((_, h)) => {
                let cur_count = h
                    .get("count")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("current: histogram `{name}` missing count"))?;
                if !within(base_count, cur_count, tolerance) {
                    mismatches.push(format!(
                        "histograms: `{name}` count baseline {base_count} vs current {cur_count}"
                    ));
                }
            }
        }
    }
    Ok(mismatches)
}

fn within(base: f64, cur: f64, tolerance: f64) -> bool {
    if tolerance <= 0.0 {
        return base == cur;
    }
    (cur - base).abs() <= tolerance * base.abs().max(1.0)
}

/// Aggregate report over a parsed events JSONL file (the file-based
/// sibling of [`objectrunner_obs::export::report`], for `obs_check report`).
pub fn report_from_events(text: &str) -> Result<String, String> {
    validate_events_jsonl(text)?;
    let mut by_name: std::collections::BTreeMap<String, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    let mut metric_lines = Vec::new();
    for line in text.lines() {
        let value = parse_doc(line)?;
        match value.get("type").and_then(Json::as_str) {
            Some("span") => {
                let name = value.get("name").and_then(Json::as_str).unwrap_or("");
                let dur = value.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let e = by_name.entry(name.to_owned()).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += dur;
                e.2 = e.2.max(dur);
            }
            Some("counter") | Some("gauge") => {
                let name = value.get("name").and_then(Json::as_str).unwrap_or("");
                let v = value.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                metric_lines.push(format!("{name:<56} {v:>12}"));
            }
            _ => {}
        }
    }
    let mut out = String::new();
    out.push_str("== spans ==\n");
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>12} {:>10} {:>10}",
        "name", "count", "total_ms", "mean_us", "max_us"
    );
    for (name, (count, total, max)) in &by_name {
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12.3} {:>10.1} {:>10}",
            name,
            count,
            *total as f64 / 1_000.0,
            *total as f64 / *count as f64,
            max
        );
    }
    if !metric_lines.is_empty() {
        out.push_str("\n== metrics ==\n");
        for line in metric_lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use objectrunner_obs::export::{chrome_trace, events_jsonl};
    use objectrunner_obs::Obs;

    #[test]
    fn parser_round_trips_exporter_output() {
        let obs = Obs::enabled();
        let mut span = obs.trace("pipeline.induce");
        span.attr_str("domain", "golden-\"quoted\"");
        span.attr_f64("score", 0.5);
        span.finish();
        obs.counter_add("objectrunner.test.c", 9);
        let jsonl = events_jsonl(&obs.spans(), &obs.snapshot());
        let summary = validate_events_jsonl(&jsonl).expect("valid jsonl");
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.counters, 1);
        let first = parse_doc(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first
                .get("attrs")
                .and_then(|a| a.get("domain"))
                .and_then(Json::as_str),
            Some("golden-\"quoted\"")
        );
    }

    #[test]
    fn jsonl_validator_rejects_malformed_lines() {
        assert!(validate_events_jsonl("{\"type\":\"span\"}").is_err());
        assert!(validate_events_jsonl("not json").is_err());
        assert!(validate_events_jsonl("{\"type\":\"mystery\",\"name\":\"x\"}").is_err());
        let bad_hist = "{\"type\":\"histogram\",\"name\":\"h\",\"bounds\":[1],\"counts\":[1],\"sum\":0,\"count\":0}";
        assert!(
            validate_events_jsonl(bad_hist).is_err(),
            "counts must include overflow"
        );
    }

    #[test]
    fn chrome_validator_accepts_exporter_output() {
        let obs = Obs::enabled();
        let root = obs.trace("pipeline.induce");
        root.child("stage.parse").finish();
        root.finish();
        let json = chrome_trace(&obs.spans());
        assert_eq!(validate_chrome_trace(&json).expect("valid"), 2);
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"B\"}]}").is_err());
    }

    #[test]
    fn snapshot_diff_respects_skip_and_tolerance() {
        let baseline =
            "{\"counters\":{\"a.pages\":10,\"a.wall_micros\":500},\"gauges\":{},\"histograms\":{}}";
        let same =
            "{\"counters\":{\"a.pages\":10,\"a.wall_micros\":900},\"gauges\":{},\"histograms\":{}}";
        let skip = vec!["micros".to_owned()];
        assert!(diff_snapshots(baseline, same, &skip, 0.0)
            .unwrap()
            .is_empty());

        let drifted =
            "{\"counters\":{\"a.pages\":11,\"a.wall_micros\":500},\"gauges\":{},\"histograms\":{}}";
        let strict = diff_snapshots(baseline, drifted, &skip, 0.0).unwrap();
        assert_eq!(strict.len(), 1);
        assert!(strict[0].contains("a.pages"));
        assert!(diff_snapshots(baseline, drifted, &skip, 0.2)
            .unwrap()
            .is_empty());

        let missing = "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
        let report = diff_snapshots(baseline, missing, &skip, 0.0).unwrap();
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("missing from current"));

        let extra = "{\"counters\":{\"a.pages\":10,\"b.new\":1},\"gauges\":{},\"histograms\":{}}";
        let report = diff_snapshots(baseline, extra, &skip, 0.0).unwrap();
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("not in baseline"));
    }

    #[test]
    fn report_from_events_aggregates_spans() {
        let obs = Obs::enabled();
        obs.trace("pipeline.extract").finish();
        obs.trace("pipeline.extract").finish();
        let jsonl = events_jsonl(&obs.spans(), &obs.snapshot());
        let report = report_from_events(&jsonl).unwrap();
        assert!(report.contains("pipeline.extract"));
        assert!(report.contains("== spans =="));
    }
}
