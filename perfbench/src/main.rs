//! Layered service benchmark for revmatch.
//!
//! ```text
//! revmatch-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     [--server PATH] [--out DIR]
//! revmatch-perfbench --self-test [--server PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that splits the time across
//! layers. Every answer is checked outside the timed regions; a wrong
//! answer exits 1. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod checks;
mod client;
mod layers;
mod report;
mod run;
mod stats;
mod workload;

use std::process::ExitCode;

use workload::Workload;

const USAGE: &str =
    "usage: revmatch-perfbench --workload match-small|sat-served|oracle-wide|wire-small \
--seed N --seconds S --trace 0|1 [--server PATH] [--out DIR] | --self-test [--server PATH]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: String,
    pub out: String,
}

fn parse_args() -> Result<(Option<Args>, String, String), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = "target/release/revmatch-server".to_string();
    let mut out = "perfbench/out".to_string();
    let mut self_test = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                })
            }
            "--server" => server = value()?,
            "--out" => out = value()?,
            "--self-test" => self_test = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if self_test {
        return Ok((None, server, out));
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server,
        out,
    };
    Ok((Some(args), String::new(), String::new()))
}

fn main() -> ExitCode {
    let (args, server, out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(args) = args else {
        return run::self_test(&server, &out);
    };
    match run::run(&args) {
        Ok(result) => {
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
