//! The traced run: splits the time across the layers.
//!
//! Three measurements, all on the workload's own pool:
//!
//! 1. **Service loops.** An untraced and a traced in-process service run
//!    the same closed loop (their throughput ratio is the tracing
//!    overhead); the traced one then runs the open loop. The service's
//!    counters (`Metrics`) and its stage spans (`TraceConfig`) give the
//!    service-side numbers; the client's own spans around each submit
//!    and wait share the service's job id and clock, so each job's
//!    client latency can be split into the stages that cover it.
//! 2. **Wire loops.** The same jobs sent to a spawned `revmatch-server`
//!    (closed loop, then open loop): the wire/in-process throughput ratio
//!    and the gap the report's own timing does not explain.
//! 3. **Direct calls.** Each layer's public entry points, called
//!    single-threaded from outside on the pool's inputs after one
//!    warm-up pass: table compile, promise matcher, identify, Simon, SAT
//!    check and enumerate, and the wire codec.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use revmatch::{
    check_witness_sat_with, enumerate_witnesses_sat_with, identify_equivalence_with_oracles,
    match_n_i_simon_with, read_client_frame, read_server_frame, solve_promise_report,
    write_client_frame, write_server_frame, ClientFrame, EnumerationStrategy, Equivalence,
    IdentifyOptions, JobKind, JobReport, MatcherConfig, Metrics, Oracle, ProblemOracles,
    ServerFrame, Side, SolverBackend, SpanRecord, Stage, VerifyMode, WitnessFamily,
};
use revmatch_circuit::{Circuit, DenseTable};

use crate::checks::{self, Tally};
use crate::client::{LoopRun, Stop, SHARDS};
use crate::report::RunResult;
use crate::run::{finish, set_up, throughput, throughput_of, verify};
use crate::stats::{self, quantile};
use crate::workload::{build_pool, per_cell, Item, Workload};
use crate::Args;

/// One per-layer metric: its name and unit as `BENCHMARK.json` lists
/// them, and the end-to-end metric it should move, on which workload.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub target: &'static str,
}

const fn m(name: &'static str, unit: &'static str, target: &'static str) -> LayerMetric {
    LayerMetric { name, unit, target }
}

pub const PER_LAYER: &[LayerMetric] = &[
    m(
        "kernel.table_compile_ms_p50",
        "ms",
        "throughput_jps, latency_p50_ms @ oracle-wide; nothing @ sat-served",
    ),
    m(
        "kernel.ns_per_probe",
        "ns",
        "throughput_jps, latency_p50_ms @ oracle-wide; nothing @ sat-served",
    ),
    m(
        "kernel.compiles_per_job",
        "1/job",
        "throughput_jps @ oracle-wide",
    ),
    m(
        "service.table_cache_hit_ratio",
        "ratio",
        "setup_s, throughput_jps @ match-small",
    ),
    m(
        "service.solver_cache_hit_ratio",
        "ratio",
        "throughput_jps @ sat-served",
    ),
    m(
        "service.submit_us_p50",
        "us",
        "latency_p50_ms @ match-small",
    ),
    m(
        "service.queue_wait_ms_p50",
        "ms",
        "latency_p99_ms @ sat-served",
    ),
    m(
        "service.queue_wait_ms_p99",
        "ms",
        "latency_p99_ms @ sat-served",
    ),
    m(
        "service.exec_ms_p50.promise",
        "ms",
        "throughput_jps @ match-small, oracle-wide",
    ),
    m(
        "service.exec_ms_p50.identify",
        "ms",
        "throughput_jps @ match-small",
    ),
    m(
        "service.exec_ms_p50.quantum",
        "ms",
        "throughput_jps @ match-small, oracle-wide",
    ),
    m(
        "service.exec_ms_p50.sat",
        "ms",
        "throughput_jps @ sat-served",
    ),
    m(
        "service.exec_ms_p50.enumerate",
        "ms",
        "throughput_jps @ sat-served",
    ),
    m(
        "service.overhead_us_p50",
        "us",
        "latency_p50_ms @ match-small",
    ),
    m(
        "service.busy_frac",
        "ratio",
        "throughput_jps (below 1: the generator limits it)",
    ),
    m("service.steals", "1/job", "throughput_jps @ match-small"),
    m(
        "matchers.promise_us_p50",
        "us",
        "throughput_jps @ match-small",
    ),
    m("identify.us_p50", "us", "throughput_jps @ match-small"),
    m(
        "matchers.queries_per_job",
        "count",
        "none (the paper's metric; repeats exactly)",
    ),
    m(
        "matchers.charged_queries_per_job",
        "count",
        "none (the paper's metric; repeats exactly)",
    ),
    m(
        "quantum.simon_us_p50",
        "us",
        "throughput_jps @ match-small, oracle-wide",
    ),
    m(
        "sat.check_ms_p50",
        "ms",
        "throughput_jps, latency_p99_ms @ sat-served only",
    ),
    m(
        "sat.enumerate_ms_p50",
        "ms",
        "throughput_jps, latency_p99_ms @ sat-served only",
    ),
    m("sat.xors_per_job", "1/job", "throughput_jps @ sat-served"),
    m(
        "sat.inprocess_ms_per_job",
        "ms",
        "throughput_jps @ sat-served",
    ),
    m("wire.encode_us_p50", "us", "latency_p50_ms @ wire-small"),
    m("wire.decode_us_p50", "us", "latency_p50_ms @ wire-small"),
    m(
        "wire.submit_bytes_mean",
        "bytes",
        "latency_p50_ms @ wire-small",
    ),
    m(
        "wire.report_bytes_mean",
        "bytes",
        "latency_p50_ms @ wire-small",
    ),
    m("wire.gap_us_p50", "us", "latency_p50_ms @ wire-small"),
    m("wire.gap_us_p99", "us", "latency_p99_ms @ wire-small"),
    m("wire.inproc_ratio", "ratio", "throughput_jps @ wire-small"),
    m("trace.overhead_frac", "ratio", "none (cost of tracing)"),
    m(
        "trace.unaccounted_frac",
        "ratio",
        "none (client latency no stage span covers)",
    ),
    m("trace.spans_dropped", "count", "none"),
    m("loadgen.lag_p99_ms", "ms", "none (generator health)"),
    m("layer.kernel_frac", "ratio", "throughput_jps @ oracle-wide"),
    m(
        "layer.matchers_frac",
        "ratio",
        "throughput_jps @ match-small",
    ),
    m(
        "layer.quantum_frac",
        "ratio",
        "throughput_jps @ match-small, oracle-wide",
    ),
    m(
        "layer.sat_frac",
        "ratio",
        "throughput_jps, latency_p99_ms @ sat-served",
    ),
    m(
        "layer.service_frac",
        "ratio",
        "latency_p50_ms @ match-small",
    ),
    m("layer.wire_frac", "ratio", "latency_p50_ms @ wire-small"),
];

/// Shares of `--seconds` for each phase of the traced run.
const LOOP_SHARE: f64 = 0.24;
/// Alternating closed-loop segments per service in the traced run.
const SEGMENTS: usize = 4;
const OPEN_SHARE: f64 = 0.3;
const WIRE_SHARE: f64 = 0.1;
/// Direct calls on each layer stop after this share (at least one pass).
const CALL_SHARE: f64 = 0.03;
/// Span rings hold this many spans each (8 MiB per ring).
pub const RING_SPANS: usize = 1 << 18;
/// Client and service spans of at most this many jobs are written out.
const WRITTEN_JOBS: u64 = 2000;

/// The per-layer values, filled phase by phase.
#[derive(Default)]
struct Values(HashMap<&'static str, (f64, String)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} unlisted");
        self.0.insert(name, (value, note.into()));
    }
}

/// Counter readings taken between loops.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    compiles: u64,
    table_hits: u64,
    solver_hits: u64,
    xors: u64,
    inprocess_us: u64,
    busy_us: u64,
    steals: u64,
    completed: u64,
    sat_jobs: u64,
}

impl Counters {
    fn read(m: &Metrics) -> Self {
        Self {
            compiles: m.table_compile().count(),
            table_hits: m.table_cache_hits(),
            solver_hits: m.solver_cache_hits(),
            xors: m.sat_xors_extracted(),
            inprocess_us: m.sat_inprocess_micros(),
            busy_us: (0..m.shards()).map(|s| m.shard_busy_micros(s)).sum(),
            steals: (0..m.shards()).map(|s| m.shard_steals(s)).sum(),
            completed: m.jobs_completed(),
            sat_jobs: m.jobs_completed_of(JobKind::Sat) + m.jobs_completed_of(JobKind::Enumerate),
        }
    }

    fn plus(self, other: Self) -> Self {
        Self {
            compiles: self.compiles + other.compiles,
            table_hits: self.table_hits + other.table_hits,
            solver_hits: self.solver_hits + other.solver_hits,
            xors: self.xors + other.xors,
            inprocess_us: self.inprocess_us + other.inprocess_us,
            busy_us: self.busy_us + other.busy_us,
            steals: self.steals + other.steals,
            completed: self.completed + other.completed,
            sat_jobs: self.sat_jobs + other.sat_jobs,
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            compiles: self.compiles - before.compiles,
            table_hits: self.table_hits - before.table_hits,
            solver_hits: self.solver_hits - before.solver_hits,
            xors: self.xors - before.xors,
            inprocess_us: self.inprocess_us - before.inprocess_us,
            busy_us: self.busy_us - before.busy_us,
            steals: self.steals - before.steals,
            completed: self.completed - before.completed,
            sat_jobs: self.sat_jobs - before.sat_jobs,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share)
}

pub fn traced_run(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    let pool = build_pool(w, args.seed, per_cell(w));
    let mut v = Values::default();
    let mut loops: Vec<LoopRun> = Vec::new();

    // 1. Service loops: untraced and traced services, both warm, take
    //    turns on the same closed loop; then the traced one runs the
    //    open loop.
    let (mut plain, _, warm) = set_up(args, &pool, false, false)?;
    loops.push(warm);
    let (mut traced, _, warm) = set_up(args, &pool, true, false)?;
    let queries = queries_per_job(&pool, &warm);
    loops.push(warm);
    let mut base = Vec::new();
    let mut closed = Vec::new();
    let segment = secs(args, LOOP_SHARE / SEGMENTS as f64);
    let mut cc = Counters::default();
    for _ in 0..SEGMENTS {
        base.push(plain.closed_loop(&pool, Stop::After(segment))?);
        let service = traced.service().expect("in process");
        service.trace_spans(); // closed-loop spans are not analysed
        let before = Counters::read(service.metrics());
        closed.push(traced.closed_loop(&pool, Stop::After(segment))?);
        let service = traced.service().expect("in process");
        cc = cc.plus(Counters::read(service.metrics()).since(before));
    }
    plain.shutdown()?;
    let service = traced.service().expect("in process");
    service.trace_spans();
    let c1 = Counters::read(service.metrics());
    let open = traced.open_loop(&pool, w.offered_rate(), secs(args, OPEN_SHARE))?;
    let service = traced.service().expect("in process");
    let oc = Counters::read(service.metrics()).since(c1);
    let spans = service.trace_spans();
    let tracer = service.tracer().expect("traced service");
    let to_us = |run: &LoopRun, ns: u64| tracer.to_us(run.at(ns));
    let client_spans = client_spans(&open, &to_us);
    let (base_jps, traced_jps) = (throughput_of(&base), throughput_of(&closed));
    service_values(&mut v, &pool, &closed, &open, cc, oc);
    let (shares, unaccounted, dropped) = attribute_in_process(&spans, &client_spans);
    write_trace(args, &spans, &client_spans)?;
    traced.shutdown()?;
    v.set(
        "trace.overhead_frac",
        1.0 - ratio(traced_jps, base_jps),
        format!("traced {traced_jps:.1} vs untraced {base_jps:.1} jobs/s, {SEGMENTS} alternating segments each"),
    );
    v.set(
        "trace.spans_dropped",
        dropped as f64,
        "open-loop jobs whose execute or report span was overwritten",
    );
    v.set(
        "matchers.queries_per_job",
        queries.0,
        "mean over the pool's warm-up answers",
    );
    v.set(
        "matchers.charged_queries_per_job",
        queries.1,
        "mean over the pool's warm-up answers",
    );

    // 2. Wire loops on the same jobs.
    let (mut wire, _, wire_warm) = set_up(args, &pool, false, true)?;
    let wire_closed = wire.closed_loop(&pool, Stop::After(secs(args, WIRE_SHARE)))?;
    let wire_open = wire.open_loop(&pool, w.offered_rate(), secs(args, WIRE_SHARE))?;
    wire.shutdown()?;
    let wire_jps = throughput(&wire_closed);
    v.set(
        "wire.inproc_ratio",
        ratio(wire_jps, base_jps),
        format!("wire {wire_jps:.1} vs in-process {base_jps:.1} jobs/s, same jobs"),
    );
    let (wire_shares, wire_unaccounted) = wire_values(&mut v, &wire_open);

    // Layer shares: the wire run's for wire-small, the in-process one's
    // otherwise.
    let (shares, unaccounted, basis) = if w.over_wire() {
        (wire_shares, wire_unaccounted, "wire open loop")
    } else {
        (shares, unaccounted, "traced in-process open loop")
    };
    for (name, share) in &shares {
        v.set(name, *share, format!("self time / client latency, {basis}"));
    }
    v.set(
        "trace.unaccounted_frac",
        unaccounted,
        format!("client latency no stage span covers, {basis}"),
    );
    let dominant = shares
        .iter()
        .chain([&(
            if w.over_wire() {
                "unspanned (revmatch-server threads and loopback socket)"
            } else {
                "unspanned"
            },
            unaccounted,
        )])
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(name, share)| format!("{name} ({:.1}%)", share * 100.0))
        .unwrap_or_default();
    println!("dominant_layer {dominant}");
    loops.extend(base);
    loops.extend(closed);
    loops.push(open);
    let wire_loops = [wire_warm, wire_closed, wire_open];

    // 3. Direct calls into each layer.
    direct_calls(&mut v, args, &pool, &loops);

    let all: Vec<&LoopRun> = loops.iter().chain(&wire_loops).collect();
    let tally = Tally::of(all.iter().copied());
    let wire: Vec<&LoopRun> = wire_loops.iter().collect();
    let mut errors = verify(args, &pool, &all, &wire);
    errors.extend(checks::check_accounting(&tally));
    let mut result = RunResult::default();
    for lm in PER_LAYER {
        let (value, note) =
            v.0.remove(lm.name)
                .unwrap_or((0.0, "n/a on this workload".into()));
        result
            .push(lm.name, value, lm.unit)
            .with(None, format!("{note}; moves {}", lm.target));
    }
    finish(&mut result, tally, errors);
    Ok(result)
}

/// Mean queries and charged queries over the pool's first answers (the
/// warm-up pass, whose seeds are fixed by the run seed).
fn queries_per_job(pool: &[Item], warm: &LoopRun) -> (f64, f64) {
    let mut seen = vec![false; pool.len()];
    let (mut q, mut c, mut n) = (0u64, 0u64, 0u64);
    for r in warm.records.iter().filter(|r| r.answered()) {
        if !std::mem::replace(&mut seen[r.pool_index as usize], true) {
            let report = &warm.answers[r.answer as usize].1;
            q += report.queries;
            c += report.charged_queries;
            n += 1;
        }
    }
    (ratio(q as f64, n as f64), ratio(c as f64, n as f64))
}

fn p(values: &[f64], q: f64) -> f64 {
    quantile(values, q).unwrap_or(0.0)
}

fn kind_of(pool: &[Item], index: u32) -> JobKind {
    pool[index as usize].planted.kind
}

/// Service-side values from the traced closed-loop segments and open
/// loop, with their counter deltas.
fn service_values(
    v: &mut Values,
    pool: &[Item],
    closed: &[LoopRun],
    open: &LoopRun,
    cc: Counters,
    oc: Counters,
) {
    let both = cc.plus(oc);
    let jobs = both.completed as f64;
    v.set(
        "kernel.compiles_per_job",
        ratio(both.compiles as f64, jobs),
        format!("{} cold compiles", both.compiles),
    );
    v.set(
        "service.table_cache_hit_ratio",
        ratio(
            both.table_hits as f64,
            (both.table_hits + both.compiles) as f64,
        ),
        format!("{} hits, {} compiles", both.table_hits, both.compiles),
    );
    v.set(
        "service.solver_cache_hit_ratio",
        ratio(both.solver_hits as f64, both.sat_jobs as f64),
        format!(
            "{} hits over {} sat/enumerate jobs",
            both.solver_hits, both.sat_jobs
        ),
    );
    v.set("sat.xors_per_job", ratio(both.xors as f64, jobs), "");
    v.set(
        "sat.inprocess_ms_per_job",
        ratio(both.inprocess_us as f64 / 1e3, jobs),
        "",
    );
    v.set(
        "service.steals",
        ratio(both.steals as f64, jobs),
        format!("{} steals", both.steals),
    );
    let wall: f64 = closed.iter().map(|r| r.wall().as_secs_f64()).sum();
    v.set(
        "service.busy_frac",
        ratio(cc.busy_us as f64 / 1e6, SHARDS as f64 * wall),
        "closed loop",
    );

    let answered: Vec<_> = open.records.iter().filter(|r| r.answered()).collect();
    let submit: Vec<f64> = open
        .records
        .iter()
        .map(|r| r.submit_ns as f64 / 1e3)
        .collect();
    v.set("service.submit_us_p50", p(&submit, 0.5), "open loop");
    let wait: Vec<f64> = answered
        .iter()
        .map(|r| r.queue_wait_us as f64 / 1e3)
        .collect();
    v.set(
        "service.queue_wait_ms_p50",
        p(&wait, 0.5),
        format!("{} jobs, open loop", wait.len()),
    );
    v.set(
        "service.queue_wait_ms_p99",
        p(&wait, 0.99),
        format!("{} jobs, open loop", wait.len()),
    );
    let overhead: Vec<f64> = answered
        .iter()
        .map(|r| {
            let client = r.done_ns.saturating_sub(r.sent_ns()) as f64 / 1e3;
            client - f64::from(r.queue_wait_us) - f64::from(r.exec_us)
        })
        .collect();
    v.set(
        "service.overhead_us_p50",
        p(&overhead, 0.5),
        "client latency - queue wait - exec",
    );
    let lag: Vec<f64> = open
        .records
        .iter()
        .map(|r| f64::from(r.lag_ns) / 1e6)
        .collect();
    v.set("loadgen.lag_p99_ms", p(&lag, 0.99), "open loop");
    for kind in JobKind::ALL {
        let exec: Vec<f64> = closed
            .iter()
            .chain([open])
            .flat_map(|run| run.records.iter())
            .filter(|r| r.answered() && kind_of(pool, r.pool_index) == kind)
            .map(|r| f64::from(r.exec_us) / 1e3)
            .collect();
        if !exec.is_empty() {
            let name = match kind {
                JobKind::Promise => "service.exec_ms_p50.promise",
                JobKind::Identify => "service.exec_ms_p50.identify",
                JobKind::Quantum => "service.exec_ms_p50.quantum",
                JobKind::Sat => "service.exec_ms_p50.sat",
                JobKind::Enumerate => "service.exec_ms_p50.enumerate",
            };
            v.set(name, p(&exec, 0.5), format!("{} jobs", exec.len()));
        }
    }
}

/// A client-side span: the benchmark's own, on the tracer's clock.
#[derive(Debug, Clone, Copy)]
struct ClientSpan {
    job: u64,
    name: &'static str,
    start_us: u64,
    end_us: u64,
}

/// The client's `submit` and `wait` spans for every open-loop job.
fn client_spans(open: &LoopRun, to_us: &dyn Fn(&LoopRun, u64) -> u64) -> Vec<ClientSpan> {
    let mut out = Vec::new();
    for (job, r) in (open.base..).zip(&open.records) {
        if !r.answered() {
            continue;
        }
        let sent = r.sent_ns();
        let submitted = sent + u64::from(r.submit_ns);
        out.push(ClientSpan {
            job,
            name: "client.submit",
            start_us: to_us(open, sent),
            end_us: to_us(open, submitted),
        });
        out.push(ClientSpan {
            job,
            name: "client.wait",
            start_us: to_us(open, submitted),
            end_us: to_us(open, r.done_ns),
        });
    }
    out
}

/// The layer a service span's self time belongs to.
fn layer_of(span: &SpanRecord) -> &'static str {
    match span.stage {
        Stage::TableCompile => "layer.kernel_frac",
        Stage::Execute => match span.detail.name() {
            Some("cdcl" | "dpll") => "layer.sat_frac",
            Some("dense" | "sparse" | "stabilizer") => "layer.quantum_frac",
            _ => "layer.matchers_frac",
        },
        _ => "layer.service_frac",
    }
}

const SHARE_NAMES: [&str; 6] = [
    "layer.kernel_frac",
    "layer.matchers_frac",
    "layer.quantum_frac",
    "layer.sat_frac",
    "layer.service_frac",
    "layer.wire_frac",
];

/// Splits each answered open-loop job's client latency (submit call to
/// report in hand) into the self times of the service's stage spans of
/// the same job id. A span's self time is its duration minus what its
/// nested spans cover (compile inside cache probe inside execute).
/// Returns each layer's share of the summed client latency, the share
/// no span covers, and how many jobs lost spans to ring overwrites
/// (`Tracer::dropped` counts every overwrite since start, drained or
/// not, so it cannot say this).
fn attribute_in_process(
    spans: &[SpanRecord],
    client: &[ClientSpan],
) -> (Vec<(&'static str, f64)>, f64, u64) {
    let mut by_job: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        by_job.entry(s.job).or_default().push(s);
    }
    let mut self_us: HashMap<&'static str, f64> = HashMap::new();
    let (mut total, mut covered_total, mut dropped) = (0.0, 0.0, 0);
    for pair in client.chunks(2) {
        let (submit, wait) = (pair[0], pair[1]);
        let job_spans = by_job.get(&submit.job).map_or(&[][..], Vec::as_slice);
        let complete = [Stage::Execute, Stage::Report]
            .iter()
            .all(|stage| job_spans.iter().any(|s| s.stage == *stage));
        if !complete {
            dropped += 1;
            continue;
        }
        let (lo, hi) = (submit.start_us, wait.end_us);
        total += (hi - lo) as f64;
        // Covered time: union of every stage span clipped to the job.
        let mut intervals: Vec<(u64, u64)> = job_spans
            .iter()
            .map(|s| (s.start_us.clamp(lo, hi), s.end_us().clamp(lo, hi)))
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = lo;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        covered_total += covered as f64;
        for s in job_spans {
            let nested: u64 = job_spans
                .iter()
                .filter(|c| nests_in(c, s))
                .map(|c| c.dur_us)
                .sum();
            *self_us.entry(layer_of(s)).or_default() += s.dur_us.saturating_sub(nested) as f64;
        }
    }
    let shares = SHARE_NAMES
        .iter()
        .map(|&n| (n, ratio(self_us.get(n).copied().unwrap_or(0.0), total)))
        .collect();
    (shares, ratio(total - covered_total, total), dropped)
}

/// Whether `child` is directly nested in `parent` (execute ⊃ cache
/// probe ⊃ table compile).
fn nests_in(child: &SpanRecord, parent: &SpanRecord) -> bool {
    let direct = matches!(
        (parent.stage, child.stage),
        (Stage::Execute, Stage::CacheProbe) | (Stage::CacheProbe, Stage::TableCompile)
    );
    direct && child.start_us >= parent.start_us && child.end_us() <= parent.end_us() + 1
}

/// Wire values from the wire open loop: each job's client latency
/// (frame write to decoded report) minus the report's own queue wait
/// and exec is the wire gap; the codec's share is the frame write plus
/// the decode. The server records no spans, so the rest of the gap
/// (socket and server threads) is unaccounted.
fn wire_values(v: &mut Values, open: &LoopRun) -> (Vec<(&'static str, f64)>, f64) {
    let mut gap = Vec::new();
    let (mut total, mut service, mut codec) = (0.0, 0.0, 0.0);
    for r in open.records.iter().filter(|r| r.answered()) {
        let client_us = r.done_ns.saturating_sub(r.sent_ns()) as f64 / 1e3;
        let inside = f64::from(r.queue_wait_us) + f64::from(r.exec_us);
        gap.push(client_us - inside);
        total += client_us;
        service += inside;
        codec += f64::from(r.submit_ns + r.decode_ns) / 1e3;
    }
    v.set(
        "wire.gap_us_p50",
        p(&gap, 0.5),
        format!("{} jobs, wire open loop", gap.len()),
    );
    v.set(
        "wire.gap_us_p99",
        p(&gap, 0.99),
        format!("{} jobs, wire open loop", gap.len()),
    );
    let shares = SHARE_NAMES
        .iter()
        .map(|&n| {
            let share = match n {
                "layer.service_frac" => ratio(service, total),
                "layer.wire_frac" => ratio(codec, total),
                _ => 0.0,
            };
            (n, share)
        })
        .collect();
    (shares, ratio(total - service - codec, total))
}

/// Writes the open loop's service and client spans (first
/// `WRITTEN_JOBS` jobs) as Chrome trace-event JSON.
fn write_trace(args: &Args, spans: &[SpanRecord], client: &[ClientSpan]) -> Result<(), String> {
    let first = client.first().map_or(0, |s| s.job);
    let keep = |job: u64| job >= first && job < first + WRITTEN_JOBS;
    let mut events = Vec::new();
    for s in spans.iter().filter(|s| keep(s.job)) {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"job\":{}}}}}",
            s.stage.as_str(),
            s.kind.as_str(),
            s.start_us,
            s.dur_us,
            s.tid,
            s.job
        ));
    }
    for s in client.iter().filter(|s| keep(s.job)) {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":0,\"args\":{{\"job\":{}}}}}",
            s.name,
            s.start_us,
            s.end_us - s.start_us,
            s.job
        ));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    let path = format!(
        "{}/trace-{}-{}.json",
        args.out,
        args.workload.name(),
        args.seed
    );
    std::fs::write(
        &path,
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
    )
    .map_err(|e| format!("{path}: {e}"))?;
    println!("trace_file {path} ({} events)", events.len());
    Ok(())
}

/// Times `f` over `inputs` (one untimed warm-up pass first), repeating
/// passes until `budget` is spent; returns per-call times in µs.
fn time_calls<T>(inputs: &[T], budget: Duration, mut f: impl FnMut(&T)) -> Vec<f64> {
    for x in inputs {
        f(x);
    }
    let mut out = Vec::new();
    let start = Instant::now();
    loop {
        for x in inputs {
            let t = Instant::now();
            f(x);
            out.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if inputs.is_empty() || start.elapsed() >= budget {
            return out;
        }
    }
}

/// The distinct circuits of the pool (both sides of every pair).
fn circuits(pool: &[Item]) -> Vec<Circuit> {
    let mut out: Vec<Circuit> = Vec::new();
    for item in pool {
        let (c1, c2) = item.circuits();
        for c in [c1, c2] {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
    }
    out
}

/// Oracles for one pair, compiled outside any timed region.
struct Pair {
    c1: Circuit,
    c2: Circuit,
    o1: Oracle,
    o2: Oracle,
    o1_inv: Oracle,
    o2_inv: Oracle,
    item: usize,
}

/// Pairs for the direct calls: every pool item, or at most `per_kind`
/// of each job kind.
fn pairs(pool: &[Item], per_kind: usize) -> Vec<Pair> {
    let mut taken: HashMap<JobKind, usize> = HashMap::new();
    pool.iter()
        .enumerate()
        .filter(|(_, it)| {
            let n = taken.entry(it.planted.kind).or_default();
            *n += 1;
            *n <= per_kind
        })
        .map(|(item, it)| {
            let (c1, c2) = it.circuits();
            Pair {
                c1: c1.clone(),
                c2: c2.clone(),
                o1: Oracle::precompiled(c1.clone()),
                o2: Oracle::precompiled(c2.clone()),
                o1_inv: Oracle::precompiled(c1.inverse()),
                o2_inv: Oracle::precompiled(c2.inverse()),
                item,
            }
        })
        .collect()
}

/// Direct, single-threaded calls into each layer on the pool's inputs.
fn direct_calls(v: &mut Values, args: &Args, pool: &[Item], loops: &[LoopRun]) {
    let budget = secs(args, CALL_SHARE);
    let wide = args.workload == Workload::OracleWide;
    // Wide pairs cost 4 × 8 MiB of tables each; a few suffice.
    let pairs = pairs(pool, if wide { 2 } else { pool.len() });
    let cfg = MatcherConfig::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);

    // circuit::batch — dense-table compile, per width.
    let all = circuits(pool);
    let mut per_width: HashMap<usize, usize> = HashMap::new();
    let sample: Vec<&Circuit> = all
        .iter()
        .filter(|c| {
            let n = per_width.entry(c.width()).or_default();
            *n += 1;
            !wide || *n <= 2
        })
        .collect();
    let mut per_probe: HashMap<usize, Vec<f64>> = HashMap::new();
    let compile = time_calls(&sample, budget, |c| {
        let (table, took) = DenseTable::compile_timed(c).expect("width <= DENSE_MAX_WIDTH");
        black_box(table);
        per_probe
            .entry(c.width())
            .or_default()
            .push(took.as_nanos() as f64 / (1u64 << c.width()) as f64);
    });
    v.set(
        "kernel.table_compile_ms_p50",
        p(&compile, 0.5) / 1e3,
        format!("{} compiles", compile.len()),
    );
    let mut widths: Vec<_> = per_probe.keys().copied().collect();
    widths.sort_unstable();
    let by_width: Vec<String> = widths
        .iter()
        .map(|w| format!("w{w} {:.3}ns", p(&per_probe[w], 0.5)))
        .collect();
    let all_probe: Vec<f64> = per_probe.values().flatten().copied().collect();
    v.set(
        "kernel.ns_per_probe",
        p(&all_probe, 0.5),
        by_width.join(", "),
    );

    // core::matchers — the registry's promise matcher, with inverses.
    let promise = time_calls(&pairs, budget, |x| {
        let oracles = ProblemOracles {
            c1: &x.o1,
            c2: &x.o2,
            c1_inv: Some(&x.o1_inv),
            c2_inv: Some(&x.o2_inv),
        };
        let e = pool[x.item].planted.equivalence;
        black_box(solve_promise_report(e, &oracles, &cfg, &mut rng).ok());
    });
    v.set(
        "matchers.promise_us_p50",
        p(&promise, 0.5),
        format!("{} calls", promise.len()),
    );

    // core::identify — the lattice walk, brute force off.
    let options = IdentifyOptions {
        config: cfg.clone(),
        allow_brute_force: false,
        verify: VerifyMode::Exhaustive,
    };
    // A wide lattice walk takes about half a second: two suffice.
    let walked = &pairs[..if wide { 2 } else { pairs.len() }];
    let identify = time_calls(walked, budget, |x| {
        black_box(
            identify_equivalence_with_oracles(
                &x.c1, &x.c2, &x.o1, &x.o2, &x.o1_inv, &x.o2_inv, &options, &mut rng,
            )
            .ok(),
        );
    });
    v.set(
        "identify.us_p50",
        p(&identify, 0.5),
        format!("{} calls", identify.len()),
    );

    // quantum — Simon on the pool's N-I pairs.
    let n_i: Vec<&Pair> = pairs
        .iter()
        .filter(|x| pool[x.item].planted.equivalence == Equivalence::new(Side::N, Side::I))
        .collect();
    let simon = time_calls(&n_i, budget, |x| {
        black_box(match_n_i_simon_with(&x.o1, &x.o2, cfg.simon_backend(), &mut rng).ok());
    });
    if !simon.is_empty() {
        v.set(
            "quantum.simon_us_p50",
            p(&simon, 0.5),
            format!("{} calls", simon.len()),
        );
    }

    // sat — cold miter check of the planted witness, and enumeration.
    let check = time_calls(&pairs, budget, |x| {
        let witness = &pool[x.item].planted.witness;
        black_box(check_witness_sat_with(&x.c1, &x.c2, witness, SolverBackend::Cdcl).ok());
    });
    v.set(
        "sat.check_ms_p50",
        p(&check, 0.5) / 1e3,
        format!("{} calls", check.len()),
    );
    let narrow: Vec<&&Pair> = n_i.iter().filter(|x| x.c1.width() <= 8).collect();
    let enumerate = time_calls(&narrow, budget, |x| {
        black_box(
            enumerate_witnesses_sat_with(
                &x.c1,
                &x.c2,
                WitnessFamily::InputNegation,
                SolverBackend::Cdcl,
                EnumerationStrategy::AssumptionSweep,
            )
            .ok(),
        );
    });
    if !enumerate.is_empty() {
        v.set(
            "sat.enumerate_ms_p50",
            p(&enumerate, 0.5) / 1e3,
            format!("{} calls", enumerate.len()),
        );
    }

    // core::wire — Submit and Report frames on in-memory buffers, one
    // of each per job, with the run's own reports.
    let reports: Vec<(usize, &JobReport)> = loops
        .iter()
        .flat_map(|run| run.answers.iter().map(|(i, r)| (*i as usize, r)))
        .collect();
    let frames: Vec<(ClientFrame, ServerFrame)> = reports
        .iter()
        .take(pool.len())
        .map(|&(i, r)| {
            (
                ClientFrame::Submit {
                    client_id: 1,
                    seed: Some(1),
                    job: pool[i].job.clone(),
                },
                ServerFrame::Report {
                    client_id: 1,
                    report: r.clone(),
                },
            )
        })
        .collect();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(s, r)| {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            write_client_frame(&mut a, s).expect("Vec write");
            write_server_frame(&mut b, r).expect("Vec write");
            (a, b)
        })
        .collect();
    let encode = time_calls(&frames, budget, |(s, r)| {
        let mut buf = Vec::new();
        write_client_frame(&mut buf, s).expect("Vec write");
        write_server_frame(&mut buf, r).expect("Vec write");
        black_box(buf);
    });
    let decode = time_calls(&encoded, budget, |(s, r)| {
        black_box(
            read_client_frame(&mut s.as_slice())
                .expect("own frame")
                .is_some(),
        );
        black_box(
            read_server_frame(&mut r.as_slice())
                .expect("own frame")
                .is_some(),
        );
    });
    v.set(
        "wire.encode_us_p50",
        p(&encode, 0.5),
        "Submit + Report frame per job",
    );
    v.set(
        "wire.decode_us_p50",
        p(&decode, 0.5),
        "Submit + Report frame per job",
    );
    let sizes = |f: fn(&(Vec<u8>, Vec<u8>)) -> usize| {
        stats::mean(&encoded.iter().map(|e| f(e) as f64).collect::<Vec<_>>())
    };
    v.set("wire.submit_bytes_mean", sizes(|e| e.0.len()), "");
    v.set("wire.report_bytes_mean", sizes(|e| e.1.len()), "");
}
