//! Differential service test for the `SatOptions`-gated solver upgrades
//! (LBD clause management, bounded inprocessing, the XOR/Gauss layer).
//!
//! The optimisations must be *invisible* at the API: the same seeded
//! workload of SAT-equivalence and enumeration jobs, pushed through
//! services configured with 1/2/4 shards and with the upgrades fully on
//! vs fully off, must report bit-identical verdicts, witnesses and
//! witness counts. Shard count and clause-management policy may change
//! *how fast* a verdict arrives, never *which* verdict — or which
//! witness bits — arrive.

use rand::SeedableRng;
use revmatch_circuit::{NegationMask, NpTransform};
use revmatch_sat::{random_ksat, AssumedSolve, CdclSolver, Lit, Solve, Var};

use revmatch::{
    job_seed, random_instance, random_wide_instance, sweep_family, Counterexamples, EnumerateJob,
    Equivalence, FamilyMiter, JobSpec, MatchError, MatchService, MatchWitness, MiterEncoding,
    MiterVerdict, PromiseInstance, SatEquivalenceJob, SatOptions, ServiceConfig, Side,
    WitnessFamily,
};

/// Conflicts between inprocessing passes after the first solve call
/// (the solver's cadence constant, mirrored for the cadence tests).
const INPROC_CONFLICTS: usize = 2_000;

/// Canonical, comparable digest of one job's report: the full verdict
/// surface a caller can observe, minus timings and queue accounting.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    witness: Result<MatchWitness, String>,
    miter: Option<MiterVerdict>,
    witness_count: Option<u64>,
}

/// The fixed differential workload: planted-equivalent miters (proven
/// `Equivalent`), deliberately broken witnesses (refuted by
/// counterexample), and family enumerations over negation families,
/// all from one seeded stream so every service run sees byte-identical
/// job specs.
fn workload(seed: u64) -> Vec<JobSpec> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    for width in [4usize, 5, 6] {
        // Planted NP-I pair with its true witness: the miter is UNSAT
        // and the service must prove the witness Equivalent.
        let inst = random_instance(Equivalence::new(Side::Np, Side::I), width, &mut rng);
        jobs.push(JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: inst.c1.clone(),
            c2: inst.c2.clone(),
            witness: Some(inst.witness.clone()),
        }));
        // Same pair under the identity witness: almost surely *not*
        // I-I equivalent, so the SAT check finds a counterexample.
        jobs.push(JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: inst.c1.clone(),
            c2: inst.c2.clone(),
            witness: None,
        }));
        // Family sweeps exercise the incremental-assumption path
        // (solve_under + analyze_final cores) inside one shared solver.
        // BothNegations is 4^n candidates — keep it to the narrow pair.
        let families: &[WitnessFamily] = if width == 4 {
            &[WitnessFamily::InputNegation, WitnessFamily::BothNegations]
        } else {
            &[WitnessFamily::InputNegation]
        };
        for &family in families {
            let planted = random_instance(family.equivalence(), width, &mut rng);
            jobs.push(JobSpec::Enumerate(EnumerateJob::new(
                planted.c1.clone(),
                planted.c2.clone(),
                family,
            )));
        }
    }
    for (planted, family) in low_fill_families(seed) {
        jobs.push(JobSpec::Enumerate(EnumerateJob::new(
            planted.c1, planted.c2, family,
        )));
    }
    jobs
}

/// Planted negation families whose miters keep the Gauss layer: the
/// synthesized uniform functions of `random_instance` eliminate into
/// wide rows (past the layer's fill-in cap) from width 5 on, while
/// short MCT cascades stay sparse. These keep the layer under the
/// differential test on the incremental (assumption) path.
fn low_fill_families(seed: u64) -> Vec<(PromiseInstance, WitnessFamily)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x10F1);
    let mut out = Vec::new();
    for width in [5usize, 6] {
        for family in [WitnessFamily::InputNegation, WitnessFamily::OutputNegation] {
            let planted = random_wide_instance(family.equivalence(), width, 3 * width, &mut rng);
            out.push((planted, family));
        }
    }
    out
}

/// A cached-solver stand-in: the family miter's CDCL solver under the
/// full option set, as the serving layer builds it.
fn family_solver(planted: &PromiseInstance, family: WitnessFamily) -> (FamilyMiter, CdclSolver) {
    let miter = FamilyMiter::build(&planted.c1, &planted.c2, family).expect("encodable width");
    let solver = CdclSolver::new(&miter.cnf)
        .with_options(SatOptions::ALL)
        .with_branch_hint(miter.layout.input_hint());
    (miter, solver)
}

/// Runs the workload on one service configuration and digests reports.
fn run(shards: usize, opts: SatOptions, jobs: &[JobSpec]) -> Vec<Outcome> {
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_sat_opts(opts),
    );
    let outcomes = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let report = service
                .submit_wait_seeded(job.clone(), job_seed(9, i as u64))
                .wait();
            Outcome {
                witness: report.witness.map_err(|e| e.to_string()),
                miter: report.miter,
                witness_count: report.witness_count,
            }
        })
        .collect();
    service.shutdown();
    outcomes
}

/// The solver upgrades and shard fan-out change throughput, never
/// verdicts: every (shards × options) cell reports bit-identical
/// witnesses, miter verdicts and enumeration counts.
#[test]
fn sat_options_and_sharding_are_verdict_invisible() {
    let jobs = workload(0x9A7_0915);
    let baseline = run(1, SatOptions::NONE, &jobs);

    // The workload actually exercises all three verdict shapes.
    assert!(baseline
        .iter()
        .any(|o| o.miter == Some(MiterVerdict::Equivalent)));
    assert!(baseline
        .iter()
        .any(|o| matches!(o.miter, Some(MiterVerdict::Counterexample { .. }))));
    assert!(baseline.iter().any(|o| o.witness_count.is_some()));
    // Planted enumerations must find at least the planted witness.
    for o in baseline.iter().filter(|o| o.witness_count.is_some()) {
        assert!(o.witness_count.unwrap() >= 1, "planted family lost: {o:?}");
    }

    // The low-fill families really run with the Gauss layer installed.
    for (planted, family) in low_fill_families(0x9A7_0915) {
        let (miter, mut solver) = family_solver(&planted, family);
        let (c1, c2) = (&planted.c1, &planted.c2);
        let mut replay = Counterexamples::new();
        sweep_family(&mut solver, &miter.layout, c1, c2, &mut replay, None)
            .expect("planted family sweeps");
        assert!(
            solver.xor_rows() > 0,
            "{family:?} w{}: layer not installed",
            planted.c1.width()
        );
    }

    // Every upgrade on at each shard fan-out, plus one mixed cell; the
    // all-off single-shard cell is the baseline itself.
    let cells = [
        (1usize, SatOptions::ALL),
        (2, SatOptions::ALL),
        (4, SatOptions::ALL),
        (
            2,
            SatOptions {
                lbd: true,
                inproc: false,
                xor: true,
            },
        ),
    ];
    for (shards, opts) in cells {
        let got = run(shards, opts, &jobs);
        assert_eq!(
            got, baseline,
            "verdict drift at shards={shards} opts={opts}",
        );
    }
}

/// Proven-equivalent reports carry the original witness back out of the
/// service bit-for-bit, and counterexample refutations stay honest
/// (`PromiseViolated`, never `Inconclusive`) under the full option set.
#[test]
fn proven_witnesses_round_trip_bit_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9A7_B17);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_sat_opts(SatOptions::ALL),
    );
    for i in 0..6u64 {
        let inst = random_instance(Equivalence::new(Side::Np, Side::I), 5, &mut rng);
        let report = service
            .submit_wait_seeded(
                JobSpec::SatEquivalence(SatEquivalenceJob {
                    c1: inst.c1.clone(),
                    c2: inst.c2.clone(),
                    witness: Some(inst.witness.clone()),
                }),
                job_seed(9, 100 + i),
            )
            .wait();
        assert_eq!(report.miter, Some(MiterVerdict::Equivalent));
        let witness = report.witness.expect("proven witness is returned");
        assert!(witness == inst.witness, "witness bits drifted in transit");

        // Corrupt the witness: flip one input-negation bit. The miter
        // must refute it with a concrete counterexample.
        let mut bad = inst.witness.clone();
        bad.input = NpTransform::new(
            NegationMask::new(bad.nu_x().mask() ^ 1, 5).unwrap(),
            bad.pi_x().clone(),
        )
        .unwrap();
        let report = service
            .submit_wait_seeded(
                JobSpec::SatEquivalence(SatEquivalenceJob {
                    c1: inst.c1.clone(),
                    c2: inst.c2.clone(),
                    witness: Some(bad),
                }),
                job_seed(9, 200 + i),
            )
            .wait();
        assert!(matches!(
            report.miter,
            Some(MiterVerdict::Counterexample { .. })
        ));
        assert!(matches!(report.witness, Err(MatchError::PromiseViolated)));
    }
    service.shutdown();
}

/// The Gauss layer's fill-in gate: the served N-I family miters (w6
/// synthesized functions) extract plenty of XORs but eliminate into
/// wide rows, so no rows are installed; the width-14 one-shot miter the
/// width-ceiling bench proves stays sparse and keeps its rows.
#[test]
fn gauss_layer_installs_only_where_elimination_stays_sparse() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let planted = random_instance(WitnessFamily::InputNegation.equivalence(), 6, &mut rng);
    let (miter, mut solver) = family_solver(&planted, WitnessFamily::InputNegation);
    let (c1, c2) = (&planted.c1, &planted.c2);
    let mut replay = Counterexamples::new();
    let found = sweep_family(&mut solver, &miter.layout, c1, c2, &mut replay, None)
        .expect("planted family sweeps");
    assert!(found.count() >= 1);
    assert!(
        solver.xors_extracted() > 0,
        "the miter's XORs were not extracted"
    );
    assert_eq!(solver.xor_rows(), 0, "a high-fill layer was installed");

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let inst = random_wide_instance(Equivalence::new(Side::N, Side::P), 14, 42, &mut rng);
    let miter = MiterEncoding::build(&inst.c1, &inst.c2, &inst.witness).expect("widths agree");
    let mut solver = CdclSolver::new(&miter.cnf)
        .with_options(SatOptions::ALL)
        .with_branch_hint(miter.input_hint());
    assert_eq!(solver.solve(), Solve::Unsat);
    assert!(
        solver.xor_rows() > 0,
        "the width-14 layer must stay installed"
    );
}

/// Inprocessing is conflict-driven: a warm re-sweep of a cached family
/// solver (answered by propagation) runs no pass at all.
#[test]
fn warm_family_sweeps_skip_inprocessing() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let planted = random_instance(WitnessFamily::InputNegation.equivalence(), 6, &mut rng);
    let (miter, mut solver) = family_solver(&planted, WitnessFamily::InputNegation);
    let (c1, c2) = (&planted.c1, &planted.c2);
    let mut replay = Counterexamples::new();
    let cold = sweep_family(&mut solver, &miter.layout, c1, c2, &mut replay, None)
        .expect("planted family sweeps");
    let runs = solver.inprocess_runs();
    assert!(runs >= 1, "the first solve call always inprocesses");
    let warm = sweep_family(&mut solver, &miter.layout, c1, c2, &mut replay, None)
        .expect("planted family sweeps");
    assert_eq!(warm.witnesses, cold.witnesses);
    assert_eq!(solver.inprocess_runs(), runs, "a warm sweep ran a pass");
}

/// Inprocessing still runs on solvers that keep learning: once
/// [`INPROC_CONFLICTS`] conflicts accumulate since the last pass, the
/// next solve call runs another one — and only then. A random 3-SAT
/// formula under shifting assumptions keeps one solver learning across
/// calls, as a cached solver serving hard candidates would.
#[test]
fn inprocessing_reruns_after_the_conflict_threshold() {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let formula = random_ksat(150, 600, 3, &mut rng);
    let mut solver = CdclSolver::new(&formula).with_options(SatOptions::ALL);
    let (mut expected_runs, mut since_pass, mut total) = (1, 0, 0);
    for _ in 0..30 {
        if since_pass >= INPROC_CONFLICTS {
            expected_runs += 1;
            since_pass = 0;
        }
        let assumptions: Vec<Lit> = (0..4)
            .map(|_| {
                let v = Var(rng.gen_range(0..150));
                if rng.gen_bool(0.5) {
                    Lit::positive(v)
                } else {
                    Lit::negative(v)
                }
            })
            .collect();
        if let AssumedSolve::Sat(model) = solver.solve_under(&assumptions) {
            assert!(formula.eval(&model), "bogus model");
        }
        assert_eq!(
            solver.inprocess_runs(),
            expected_runs,
            "after {total} conflicts"
        );
        since_pass += solver.conflicts();
        total += solver.conflicts();
    }
    assert!(
        expected_runs >= 2,
        "only {total} conflicts learned: the threshold was never crossed"
    );
}
