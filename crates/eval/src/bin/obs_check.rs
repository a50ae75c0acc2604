//! `obs_check` — schema checker and baseline differ for exported
//! observability artifacts. Exit status 0 means the artifact passed.
//!
//! Subcommands:
//!   obs_check jsonl <events.jsonl>
//!   obs_check chrome <trace.json>
//!   obs_check diff <baseline.json> <current.json> [--tolerance F]
//!             [--skip SUBSTR]... [--no-default-skips]
//!   obs_check report <events.jsonl>

use objectrunner_eval::obs_check as check;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: obs_check <jsonl|chrome|diff|report> ...");
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "jsonl" => run_jsonl(rest),
        "chrome" => run_chrome(rest),
        "diff" => run_diff(rest),
        "report" => run_report(rest),
        other => {
            eprintln!("obs_check: unknown subcommand `{other}`");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("obs_check: cannot read `{path}`: {e}");
        ExitCode::FAILURE
    })
}

fn run_jsonl(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: obs_check jsonl <events.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match read(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match check::validate_events_jsonl(&text) {
        Ok(summary) => {
            println!(
                "obs_check jsonl OK: {} spans, {} counters, {} gauges, {} histograms",
                summary.spans, summary.counters, summary.gauges, summary.histograms
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check jsonl FAIL ({path}): {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_chrome(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: obs_check chrome <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match read(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match check::validate_chrome_trace(&text) {
        Ok(n) => {
            println!("obs_check chrome OK: {n} trace events");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check chrome FAIL ({path}): {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut skips: Vec<String> = Vec::new();
    let mut tolerance = 0.0_f64;
    let mut default_skips = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("obs_check: --tolerance needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--skip" => match it.next() {
                Some(s) => skips.push(s.clone()),
                None => {
                    eprintln!("obs_check: --skip needs a substring");
                    return ExitCode::FAILURE;
                }
            },
            "--no-default-skips" => default_skips = false,
            _ => paths.push(arg.clone()),
        }
    }
    let [baseline, current] = paths.as_slice() else {
        eprintln!("usage: obs_check diff <baseline.json> <current.json> [--tolerance F] [--skip SUBSTR]...");
        return ExitCode::FAILURE;
    };
    if default_skips {
        skips.extend(check::DEFAULT_SKIP_SUBSTRINGS.iter().map(|s| s.to_string()));
    }
    let (base_text, cur_text) = match (read(baseline), read(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    match check::diff_snapshots(&base_text, &cur_text, &skips, tolerance) {
        Ok(mismatches) if mismatches.is_empty() => {
            println!("obs_check diff OK: snapshots agree (tolerance {tolerance})");
            ExitCode::SUCCESS
        }
        Ok(mismatches) => {
            eprintln!("obs_check diff FAIL: {} mismatch(es)", mismatches.len());
            for m in mismatches {
                eprintln!("  {m}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("obs_check diff FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: obs_check report <events.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match read(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match check::report_from_events(&text) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check report FAIL ({path}): {e}");
            ExitCode::FAILURE
        }
    }
}
