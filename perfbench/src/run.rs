//! The untraced end-to-end run, the answer checks shared with the
//! traced run, and the self-test.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use revmatch::{MatchService, ServiceConfig};

use crate::checks::{self, Tally};
use crate::client::{Client, JobRecord, LoopRun, Status, Stop, SHARDS};
use crate::report::RunResult;
use crate::stats::{self, Summary};
use crate::workload::{build_pool, per_cell, Item, Workload};
use crate::{layers, Args};

/// Share of `--seconds` given to the closed loop; the open loop gets
/// the rest.
const CLOSED_SHARE: f64 = 0.35;
/// The loops run as this many equal segments, each on its own freshly
/// set-up service; `setup_s` is the median of their set-ups.
const SEGMENTS: usize = 10;
/// Segments whose loops give the timings: the quietest half.
const KEPT: usize = SEGMENTS / 2;
/// At most this many open-loop slices (see `SLICE_SAMPLES`): the median
/// slice discards bursts (scheduler or socket-timer episodes) that
/// cover less than half the loop.
const SLICES: usize = 32;
/// Open-loop latency quantiles are taken per slice of at least this many
/// samples (so p99 has ten beyond it) and reported as the median slice.
const SLICE_SAMPLES: usize = 1000;
/// Wire reports compared bit for bit with in-process re-runs.
const REPLAYED: usize = 256;

pub fn run(args: &Args) -> Result<RunResult, String> {
    print_record(args);
    if args.trace {
        layers::traced_run(args)
    } else {
        end_to_end(args)
    }
}

/// Prints the run record: machine, resolved substrates, inputs.
fn print_record(args: &Args) {
    println!("record workload {}", args.workload.name());
    println!("record seed {}", args.seed);
    println!("record seconds {}", args.seconds);
    println!("record trace {}", u8::from(args.trace));
    println!("record cpu_model {}", stats::cpu_model());
    println!("record nproc {}", stats::nproc());
    println!("record shards {SHARDS}");
    println!("record kernel {}", revmatch_circuit::active_kernel_name());
    println!("record sat_opts {}", revmatch_sat::active_sat_opts_label());
    println!(
        "record quantum_backend {}",
        revmatch_quantum::active_quantum_backend_name()
    );
    println!("record offered_rate_jps {}", args.workload.offered_rate());
}

/// Starts the workload's transport and makes one warm-up pass over the
/// pool; returns the warm client, the set-up time in seconds and the
/// warm-up loop.
pub fn set_up(
    args: &Args,
    pool: &[Item],
    trace: bool,
    over_wire: bool,
) -> Result<(Client, f64, LoopRun), String> {
    let t0 = Instant::now();
    let mut client = Client::start(over_wire, args.seed, &args.server, trace)?;
    let warm = client.closed_loop(pool, Stop::Count(pool.len()))?;
    Ok((client, t0.elapsed().as_secs_f64(), warm))
}

/// Answered jobs per second of a loop's wall time.
pub fn throughput(run: &LoopRun) -> f64 {
    let answered = run.records.iter().filter(|r| r.answered()).count();
    answered as f64 / run.wall().as_secs_f64()
}

/// Answered jobs per second over several loops.
pub fn throughput_of(runs: &[LoopRun]) -> f64 {
    let answered: usize = runs
        .iter()
        .map(|r| r.records.iter().filter(|x| x.answered()).count())
        .sum();
    let wall: f64 = runs.iter().map(|r| r.wall().as_secs_f64()).sum();
    answered as f64 / wall
}

/// Open-loop latencies (ms), infinite for unanswered jobs.
pub fn latencies(run: &LoopRun) -> Vec<f64> {
    run.records.iter().map(JobRecord::latency_ms).collect()
}

fn end_to_end(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    let pool = build_pool(w, args.seed, per_cell(w));
    let closed_span = Duration::from_secs_f64(args.seconds * CLOSED_SHARE / SEGMENTS as f64);
    let open_span = Duration::from_secs_f64(args.seconds * (1.0 - CLOSED_SHARE) / SEGMENTS as f64);
    let steal0 = stats::cpu_ticks();
    let mut setup_times = Vec::new();
    let mut loops = Vec::new();
    let mut closed = Vec::new();
    let mut open = Vec::new();
    let mut rss = Vec::new();
    let mut steal = Vec::new();
    // Each segment runs on a freshly set-up service (or server), so the
    // run averages over thread placements as well as over time.
    for k in 0..SEGMENTS {
        let (mut client, setup, warm) = set_up(args, &pool, false, w.over_wire())?;
        setup_times.push(setup);
        loops.push(warm);
        let ticks = stats::cpu_ticks();
        closed.push(client.closed_loop(&pool, Stop::After(closed_span))?);
        open.push(client.open_loop(&pool, w.offered_rate(), open_span)?);
        steal.push(stats::steal_frac_since(ticks));
        // In process, only the first service's peak is its own: later
        // set-ups start with memory the allocator kept from earlier ones.
        if k == 0 || w.over_wire() {
            rss.push(client.peak_rss_mb().ok_or("cannot read VmHWM")?);
        }
        client.shutdown()?;
    }

    let mut result = RunResult::default();
    let tally = Tally::of(closed.iter().chain(&open));
    let all: Vec<&LoopRun> = loops.iter().chain(&closed).chain(&open).collect();
    let wire = if w.over_wire() { &all[..] } else { &[] };
    let mut errors = verify(args, &pool, &all, wire);
    errors.extend(checks::check_accounting(&Tally::of(&loops)));

    // Timings come from the segments during which the hypervisor took the
    // least CPU time from this machine: the same code reads up to 3×
    // slower while a neighbour steals 5–15% of the CPUs.
    let mut order: Vec<usize> = (0..SEGMENTS).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut kept = order[..KEPT].to_vec();
    kept.sort_unstable();
    println!("record segment_steal_frac {steal:.4?}");
    println!("record timed_segments {kept:?}");
    let rates: Vec<f64> = kept.iter().map(|&k| throughput(&closed[k])).collect();
    let rates = Summary::of(&rates).expect("KEPT > 0");
    result.push("throughput_jps", rates.median, "1/s").with(
        Some(rates),
        format!(
            "closed loop, window {}; median of the {KEPT} quietest of {SEGMENTS} segments",
            crate::client::WINDOW,
        ),
    );
    let lat: Vec<f64> = kept.iter().flat_map(|&k| latencies(&open[k])).collect();
    let n = lat.len();
    let parts = (n / SLICE_SAMPLES).clamp(1, SLICES);
    let beyond_p99 = n / parts - (0.99 * (n / parts) as f64).ceil() as usize;
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
        let per_slice: Vec<f64> = lat
            .chunks(n.div_ceil(parts))
            .map(|c| stats::quantile(c, q).expect("non-empty"))
            .collect();
        let s = Summary::of(&per_slice).expect("at least one slice");
        let note = format!(
            "open loop at {} jobs/s, {n} samples in the {KEPT} quietest segments; \
             median over {parts} slices, {beyond_p99} beyond p99 in each{}",
            w.offered_rate(),
            if beyond_p99 < 10 { " (TOO FEW)" } else { "" }
        );
        result.push(name, s.median, "ms").with(Some(s), note);
    }
    let answered = tally.completed as f64 / tally.offered.max(1) as f64;
    result.push("answered_frac", answered, "ratio").with(
        None,
        format!(
            "1 - failed_frac; failed {} refused {} shed {} lost {} of {}",
            tally.failed, tally.rejected, tally.shed, tally.lost, tally.offered
        ),
    );
    let setup = Summary::of(&setup_times).expect("SEGMENTS > 0");
    result.push("setup_s", setup.median, "s").with(
        Some(setup),
        format!("start + one warm-up pass over {} pool jobs", pool.len()),
    );
    let rss = Summary::of(&rss).expect("at least one reading");
    result.push("peak_rss_mb", rss.median, "MiB").with(
        Some(rss),
        if w.over_wire() {
            "VmHWM of each segment's revmatch-server, median"
        } else {
            "VmHWM of this process through the first segment"
        },
    );
    println!("record cpu_steal_frac {}", stats::steal_frac_since(steal0));
    println!(
        "failed_frac {} ({} of {})",
        tally.unanswered() as f64 / tally.offered.max(1) as f64,
        tally.unanswered(),
        tally.offered
    );
    errors.extend(checks::check_accounting(&tally));
    finish(&mut result, tally, errors);
    Ok(result)
}

/// Checks every answer of the given loops, and replays a prefix of the
/// jobs that went over the wire in process with the same seeds: the
/// reports must match bit for bit.
pub fn verify(args: &Args, pool: &[Item], runs: &[&LoopRun], wire: &[&LoopRun]) -> Vec<String> {
    let mut errors = checks::check_answers(pool, runs.iter().copied());
    if !wire.is_empty() {
        errors.extend(replay_in_process(args, pool, wire.iter().copied()));
    }
    errors
}

fn replay_in_process<'a>(
    args: &Args,
    pool: &[Item],
    runs: impl Iterator<Item = &'a LoopRun>,
) -> Vec<String> {
    let service = MatchService::start(ServiceConfig::default().with_shards(SHARDS));
    let mut errors = Vec::new();
    let mut seen = 0;
    let answered = runs.flat_map(|run| {
        (run.base..)
            .zip(&run.records)
            .filter(|(_, r)| r.status != Status::Pending)
            .map(move |(seq, r)| (seq, r, run))
    });
    for (seq, r, run) in answered.take(REPLAYED) {
        let seed = revmatch::job_seed(args.seed, seq);
        let local = service
            .submit_wait_seeded(pool[r.pool_index as usize].job.clone(), seed)
            .wait();
        let wire = &run.answers[r.answer as usize].1;
        if checks::answer_bytes(wire) != checks::answer_bytes(&local) {
            errors.push(format!(
                "job {seq}: wire report differs from the in-process report at the same seed"
            ));
        }
        seen += 1;
    }
    service.shutdown();
    println!("check wire_replayed {seen}");
    errors
}

/// Fills the JSON header fields and prints every check failure.
pub fn finish(result: &mut RunResult, tally: Tally, errors: Vec<String>) {
    for e in errors.iter().take(20) {
        println!("CHECK FAILED: {e}");
    }
    println!("check errors {}", errors.len());
    result.correct = errors.is_empty();
    result.attempted = tally.offered;
    result.failed = tally.unanswered();
    result.print();
}

/// A short run of every workload in both modes, asserting every named
/// metric is printed with its unit and every check passes; then a
/// deliberately corrupted answer must be rejected.
pub fn self_test(server: &str, out: &str) -> ExitCode {
    let mut failures = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 7,
                seconds: 1.0,
                trace,
                server: server.to_string(),
                out: out.to_string(),
            };
            match run(&args) {
                Ok(result) => {
                    let expected = if trace {
                        layers::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
                    } else {
                        END_TO_END.to_vec()
                    };
                    for (name, unit) in expected {
                        let found = result.metrics.iter().find(|m| m.name == name);
                        if found.is_none_or(|m| m.unit != unit || m.value.is_nan()) {
                            failures.push(format!(
                                "{} trace={trace}: {name} [{unit}] missing",
                                w.name()
                            ));
                        }
                    }
                    if !result.correct {
                        failures.push(format!("{} trace={trace}: checks failed", w.name()));
                    }
                }
                Err(e) => failures.push(format!("{} trace={trace}: {e}", w.name())),
            }
        }
    }
    failures.extend(corruption_is_rejected());
    for f in &failures {
        println!("SELF-TEST FAILED: {f}");
    }
    if failures.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end metric names and units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_jps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("answered_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Flips one witness bit, corrupts a SAT verdict, an enumerate count and
/// an identified class in otherwise correct reports: each must fail.
fn corruption_is_rejected() -> Vec<String> {
    let mut failures = Vec::new();
    for w in [Workload::MatchSmall, Workload::SatServed] {
        let pool = build_pool(w, 11, 1);
        let run = Client::start(false, 11, "", false).and_then(|mut c| {
            let run = c.closed_loop(&pool, Stop::Count(pool.len()))?;
            c.shutdown()?;
            Ok(run)
        });
        let mut run = match run {
            Ok(run) => run,
            Err(e) => {
                failures.push(format!("corruption test setup: {e}"));
                continue;
            }
        };
        if !checks::check_answers(&pool, [&run]).is_empty() {
            failures.push(format!("{}: clean answers rejected", w.name()));
        }
        for (index, report) in &mut run.answers {
            checks::corrupt(report);
            if checks::check_answer(&pool, *index as usize, report).is_ok() {
                failures.push(format!(
                    "{}: corrupted {} answer accepted",
                    w.name(),
                    report.kind
                ));
            }
        }
    }
    failures
}
