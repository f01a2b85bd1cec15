//! `perftrace` — the in-process half of the `cdp` benchmark.
//!
//! The benchmark script (`perfbench/run.py`) measures the released `cdp`
//! binary from outside. This program covers what needs the library:
//!
//! * `check` — re-assess each published `best.csv` against its regenerated
//!   original and print the winner's measures, so the script can compare
//!   them with what the run reported;
//! * `expect` — the `DONE` line an in-process `Session::run` produces for
//!   each spec, the reference every served reply must equal;
//! * `trace` — run the same specs through the library's public entry
//!   points with a span around every layer call, and print the per-layer
//!   metrics (see `perfbench/README.md`).
//!
//! Input is one job per stdin line; output is one JSON object per line.

mod json;
mod trace;

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cdp::pipeline::Session;
use cdp_cli::protocol::{DoneSummary, Response};
use cdp_cli::spec::JobSpec;
use cdp_dataset::io::{read_table_path, SchemaSource};
use cdp_metrics::Evaluator;

use json::Obj;

const USAGE: &str = "\
perftrace check            stdin: <out dir>\\t<job spec> per line
perftrace expect           stdin: <job spec> per line
perftrace trace [--spans <file>] [--scratch <dir>] [--snapshot-dir <dir>]
                           stdin: <warm|job>\\t<job spec> per line";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lines: Vec<String> = std::io::stdin()
        .lock()
        .lines()
        .map_while(std::result::Result::ok)
        .filter(|l| !l.trim().is_empty())
        .collect();
    let outcome = match args.first().map(String::as_str) {
        Some("check") => Ok(parallel_map(&lines, 2, |line| {
            let (dir, spec) = line.split_once('\t').ok_or("expected <dir>\\t<spec>")?;
            check(Path::new(dir), spec)
        })),
        Some("expect") => Ok(parallel_map(&lines, 2, expect)),
        Some("trace") => Ok(vec![trace::run(&args[1..], &lines)]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(results) => {
            let mut out = std::io::stdout().lock();
            for result in results {
                let line = match result {
                    Ok(text) => text,
                    Err(e) => Obj::new().str("error", &e).finish(),
                };
                writeln!(out, "{line}").expect("stdout");
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Apply `f` to every line on `threads` worker threads, keeping input
/// order in the output.
fn parallel_map<F>(lines: &[String], threads: usize, f: F) -> Vec<Result<String, String>>
where
    F: Fn(&str) -> Result<String, String> + Sync,
{
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![None; lines.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(line) = lines.get(i) else { break };
                let result = f(line);
                results.lock().expect("results lock")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every line processed"))
        .collect()
}

/// Parse a canonical job spec into a runnable job.
pub(crate) fn job_of(spec: &str) -> Result<cdp::pipeline::ProtectionJob, String> {
    JobSpec::parse(spec)
        .and_then(|s| s.to_job())
        .map_err(|e| format!("spec `{spec}`: {e}"))
}

/// Re-assess the published winner of one `cdp optimize` run.
fn check(dir: &Path, spec: &str) -> Result<String, String> {
    let job = job_of(spec)?;
    let src = job.resolve_source().map_err(|e| e.to_string())?;
    let original = src.original();
    let evaluator = Evaluator::new(&original, job.metrics()).map_err(|e| e.to_string())?;
    let schema = SchemaSource::Fixed(Arc::clone(src.table.schema()));
    let published =
        read_table_path(schema, dir.join("best.csv")).map_err(|e| format!("best.csv: {e}"))?;
    let masked = published
        .subtable(&src.protected)
        .map_err(|e| e.to_string())?;
    evaluator
        .prepared()
        .check_compatible(&masked)
        .map_err(|e| format!("best.csv does not match the original: {e}"))?;
    let a = evaluator.evaluate(&masked);
    Ok(Obj::new()
        .int("rows", published.n_rows())
        .str("il4", &format!("{:.4}", a.il()))
        .str("dr4", &format!("{:.4}", a.dr()))
        .num("eq1", (a.il() + a.dr()) / 2.0)
        .finish())
}

/// The reference `DONE` line of one spec, from a fresh in-process session.
fn expect(spec: &str) -> Result<String, String> {
    let job = job_of(spec)?;
    let report = Session::new().run(&job).map_err(|e| e.to_string())?;
    let line = Response::Done(DoneSummary::from_report(&report)).to_line();
    Ok(Obj::new().str("done", &line).finish())
}
