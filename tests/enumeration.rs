//! Cross-path agreement: the classical matcher, the SAT miter and
//! witness **enumeration** are three independent implementations of the
//! same ground truth. On any promised instance served through the
//! sharded service they must agree — the witness the classical path
//! recovers verifies, the SAT path proves the planted witness, and the
//! enumeration path counts at least one family witness (`count ≥ 1 ⇔ a
//! verified witness exists`). On broken pairs the negative verdicts must
//! line up too. Everything is checked across 1, 2 and
//! `available_parallelism` shards with bit-identical reports.

use proptest::prelude::*;
use rand::SeedableRng;
use revmatch::{
    check_witness, count_witnesses_sat, job_seed, random_instance, EngineJob, EnumerateJob,
    JobKind, JobReport, JobSpec, JobTicket, MatchService, MatcherConfig, MiterVerdict,
    SatEquivalenceJob, ServiceConfig, VerifyMode, WitnessFamily,
};
use revmatch_circuit::{random_function_circuit, Gate};

fn service(shards: usize) -> MatchService {
    MatchService::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_matcher(MatcherConfig::with_epsilon(1e-9)),
    )
}

fn run_jobs(jobs: &[JobSpec], shards: usize, seed: u64) -> Vec<JobReport> {
    let svc = service(shards);
    let reports = submit_all(&svc, jobs, seed);
    svc.shutdown();
    reports
}

fn submit_all(svc: &MatchService, jobs: &[JobSpec], seed: u64) -> Vec<JobReport> {
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| svc.submit_wait_seeded(job.clone(), job_seed(seed, i as u64)))
        .collect();
    tickets.into_iter().map(JobTicket::wait).collect()
}

/// The tractable families (N-N has no classical matcher to agree with).
const FAMILIES: [WitnessFamily; 4] = [
    WitnessFamily::InputNegation,
    WitnessFamily::OutputNegation,
    WitnessFamily::InputPermutation,
    WitnessFamily::OutputPermutation,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On random promise instances, all three paths agree through the
    /// service at every worker count.
    #[test]
    fn classical_sat_and_enumeration_agree_on_promises(
        seed in any::<u64>(),
        w in 3usize..=4,
        family_pick in 0usize..4,
    ) {
        let family = FAMILIES[family_pick];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inst = random_instance(family.equivalence(), w, &mut rng);
        let jobs = vec![
            JobSpec::Promise(EngineJob::from_instance(&inst, true)),
            JobSpec::SatEquivalence(SatEquivalenceJob {
                c1: inst.c1.clone(),
                c2: inst.c2.clone(),
                witness: Some(inst.witness.clone()),
            }),
            JobSpec::Enumerate(EnumerateJob::new(
                inst.c1.clone(),
                inst.c2.clone(),
                family,
            )),
        ];
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let baseline = run_jobs(&jobs, 1, seed ^ 0xC0FFEE);

        // Classical path: a verified witness in the promised class.
        let classical = baseline[0].witness.as_ref().expect("promised pair solves");
        let mut check_rng = rand::rngs::StdRng::seed_from_u64(1);
        prop_assert!(check_witness(
            &inst.c1, &inst.c2, classical, VerifyMode::Exhaustive, &mut check_rng
        ).unwrap(), "{family}: classical witness does not verify");

        // SAT path: the planted witness is proven on every input.
        prop_assert!(
            matches!(baseline[1].miter, Some(MiterVerdict::Equivalent)),
            "{family}: SAT path refuted the planted witness"
        );

        // Enumeration path: count ≥ 1 ⇔ a witness exists, the planted
        // witness is counted, and the reported first witness verifies.
        let count = baseline[2].witness_count.expect("enumeration reports a count");
        prop_assert!(count >= 1, "{family}: planted witness not counted");
        let first = baseline[2].witness.as_ref().expect("count ≥ 1 yields a witness");
        prop_assert!(first.conforms_to(family.equivalence()));
        prop_assert!(check_witness(
            &inst.c1, &inst.c2, first, VerifyMode::Exhaustive, &mut check_rng
        ).unwrap(), "{family}: enumerated witness does not verify");

        // Bit-identical reports across worker counts.
        for shards in [2usize, parallelism] {
            let other = run_jobs(&jobs, shards, seed ^ 0xC0FFEE);
            for (i, (a, b)) in baseline.iter().zip(&other).enumerate() {
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(
                    a.witness.as_ref().ok(), b.witness.as_ref().ok(),
                    "job {} witness under {} shards", i, shards
                );
                prop_assert_eq!(a.witness_count, b.witness_count,
                    "job {} count under {} shards", i, shards);
                prop_assert_eq!(a.rounds, b.rounds, "job {} rounds under {} shards", i, shards);
                prop_assert_eq!(&a.miter, &b.miter, "job {} verdict under {} shards", i, shards);
            }
        }
    }

    /// On pairs broken outside every family class, the negative verdicts
    /// line up: enumeration counts zero ⇔ no verified classical witness,
    /// and the SAT path refutes the stale witness with a real
    /// counterexample.
    #[test]
    fn negative_verdicts_agree_on_broken_pairs(
        seed in any::<u64>(),
        family_pick in 0usize..4,
    ) {
        let family = FAMILIES[family_pick];
        let w = 4usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inst = random_instance(family.equivalence(), w, &mut rng);
        // A CNOT appended on the output side is linear but is neither a
        // negation nor a wire permutation, so the pair falls out of every
        // family class (the count may only survive by a genuine symmetry,
        // which the agreement check below handles either way).
        let broken = inst.c1.then(
            &revmatch_circuit::Circuit::from_gates(w, [Gate::cnot(0, 1)]).unwrap()
        ).unwrap();

        let jobs = vec![
            JobSpec::Promise(EngineJob {
                equivalence: family.equivalence(),
                c1: broken.clone(),
                c2: inst.c2.clone(),
                with_inverses: true,
                sat_verify: false,
            }),
            JobSpec::SatEquivalence(SatEquivalenceJob {
                c1: broken.clone(),
                c2: inst.c2.clone(),
                witness: Some(inst.witness.clone()),
            }),
            JobSpec::Enumerate(EnumerateJob::new(broken.clone(), inst.c2.clone(), family)),
        ];
        let reports = run_jobs(&jobs, 2, seed ^ 0xBAD);

        let count = reports[2].witness_count.expect("enumeration completes");
        let mut check_rng = rand::rngs::StdRng::seed_from_u64(2);
        let classical_found = reports[0]
            .witness
            .as_ref()
            .ok()
            .is_some_and(|wit| {
                check_witness(&broken, &inst.c2, wit, VerifyMode::Exhaustive, &mut check_rng)
                    .unwrap()
            });
        prop_assert_eq!(
            count >= 1,
            classical_found,
            "{}: enumeration count {} disagrees with the classical path",
            family, count
        );
        // The stale planted witness no longer explains the pair.
        match reports[1].miter {
            Some(MiterVerdict::Counterexample { input }) => {
                prop_assert_ne!(
                    broken.apply(input),
                    inst.witness.predict(input, |v| inst.c2.apply(v)),
                    "counterexample must be real"
                );
            }
            Some(MiterVerdict::Equivalent) => {
                // Only acceptable if the transform really still works.
                let mut rng2 = rand::rngs::StdRng::seed_from_u64(3);
                prop_assert!(check_witness(
                    &broken, &inst.c2, &inst.witness, VerifyMode::Exhaustive, &mut rng2
                ).unwrap());
            }
            ref other => prop_assert!(false, "unexpected verdict {:?}", other),
        }
        // The library-level count agrees with the served one.
        prop_assert_eq!(
            count_witnesses_sat(&broken, &inst.c2, family).unwrap(),
            count
        );
    }
}

/// Whether two reports carry the same answer: every field but timing.
fn same_answer(a: &JobReport, b: &JobReport) -> bool {
    a.kind == b.kind
        && a.witness == b.witness
        && a.queries == b.queries
        && a.charged_queries == b.charged_queries
        && a.rounds == b.rounds
        && a.identified == b.identified
        && a.witness_count == b.witness_count
        && a.miter == b.miter
}

/// Counterexample replay and input-keyed miter caching are invisible in
/// reports: the same enumerate and sat jobs answer identically cold, warm
/// (a second pass on the same single worker, whose cached miters then
/// hold learned clauses and stored counterexamples) and on two shards.
/// Enumeration `rounds` is the candidate count however few solves the
/// warm pass paid.
#[test]
fn reports_do_not_depend_on_cache_warmth() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3A12);
    let mut jobs = Vec::new();
    for family in WitnessFamily::ALL {
        for w in [3usize, 4] {
            let inst = random_instance(family.equivalence(), w, &mut rng);
            let unrelated = random_function_circuit(w, &mut rng);
            for c1 in [&inst.c1, &unrelated] {
                jobs.push(JobSpec::Enumerate(EnumerateJob::new(
                    c1.clone(),
                    inst.c2.clone(),
                    family,
                )));
                // Equivalent on the planted pair; almost surely a
                // counterexample on the unrelated one.
                jobs.push(JobSpec::SatEquivalence(SatEquivalenceJob {
                    c1: c1.clone(),
                    c2: inst.c2.clone(),
                    witness: Some(inst.witness.clone()),
                }));
            }
        }
    }
    let svc = service(1);
    let cold = submit_all(&svc, &jobs, 7);
    let metrics = svc.metrics();
    let cold_solves = metrics.enumerate_sat_solves();
    let warm = submit_all(&svc, &jobs, 7);
    let warm_solves = metrics.enumerate_sat_solves() - cold_solves;
    assert_eq!(
        metrics.solver_cache_hits(),
        jobs.len() as u64,
        "every second-pass job re-entered its cached miter"
    );
    let decided: u64 = cold.iter().chain(&warm).map(|r| r.rounds).sum();
    assert_eq!(
        metrics.enumerate_sat_solves() + metrics.enumerate_replay_refutations(),
        decided,
        "solves plus refutations add up to the reported rounds"
    );
    assert!(
        warm_solves < cold_solves,
        "the warm pass replays instead of solving ({warm_solves} vs {cold_solves})"
    );
    svc.shutdown();
    let sharded = run_jobs(&jobs, 2, 7);

    assert!(cold
        .iter()
        .any(|r| matches!(r.miter, Some(MiterVerdict::Counterexample { .. }))));
    assert!(cold.iter().any(|r| r.witness_count == Some(0)));
    for (i, job) in jobs.iter().enumerate() {
        assert!(
            same_answer(&cold[i], &warm[i]),
            "job {i}: cold {:?} vs warm {:?}",
            cold[i],
            warm[i]
        );
        assert!(
            same_answer(&cold[i], &sharded[i]),
            "job {i}: one shard {:?} vs two {:?}",
            cold[i],
            sharded[i]
        );
        if let JobSpec::Enumerate(e) = job {
            assert_eq!(cold[i].kind, JobKind::Enumerate);
            assert_eq!(
                cold[i].rounds,
                e.family.candidate_count(e.c1.width()),
                "job {i}: rounds must be the candidate count"
            );
        }
    }
}
