//! The four workloads: their job pools, offered rates and the planted
//! facts each answer is checked against.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use revmatch::{
    random_instance, random_wide_instance, EngineJob, EnumerateJob, Equivalence, IdentifyJob,
    JobKind, JobSpec, MatchWitness, QuantumAlgorithm, QuantumPathJob, SatEquivalenceJob, Side,
    WitnessFamily,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatchSmall,
    SatServed,
    OracleWide,
    WireSmall,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MatchSmall,
        Workload::SatServed,
        Workload::OracleWide,
        Workload::WireSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatchSmall => "match-small",
            Workload::SatServed => "sat-served",
            Workload::OracleWide => "oracle-wide",
            Workload::WireSmall => "wire-small",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the jobs travel to a spawned `revmatch-server`.
    pub fn over_wire(self) -> bool {
        self == Workload::WireSmall
    }

    /// The open-loop offered rate, jobs/s. Fixed here and never derived
    /// from the run under test: set once from the closed-loop
    /// `throughput_jps` of the unmodified tree (2-CPU Xeon, 2 shards), at
    /// about half of it, except `match-small` at about a fifth — at half,
    /// scheduler stalls on 2 CPUs made the intake refuse jobs.
    pub fn offered_rate(self) -> f64 {
        match self {
            Workload::MatchSmall => 6000.0,
            Workload::SatServed => 100.0,
            Workload::OracleWide => 85.0,
            Workload::WireSmall => 8000.0,
        }
    }
}

/// What the generator planted in a job, for checking its answer.
#[derive(Debug, Clone)]
pub struct Planted {
    pub kind: JobKind,
    pub equivalence: Equivalence,
    pub witness: MatchWitness,
}

/// One pool entry: the job as submitted plus its planted facts.
#[derive(Debug, Clone)]
pub struct Item {
    pub job: JobSpec,
    pub planted: Planted,
}

impl Item {
    pub fn circuits(&self) -> (&revmatch_circuit::Circuit, &revmatch_circuit::Circuit) {
        match &self.job {
            JobSpec::Promise(j) => (&j.c1, &j.c2),
            JobSpec::Identify(j) => (&j.c1, &j.c2),
            JobSpec::QuantumPath(j) => (&j.c1, &j.c2),
            JobSpec::SatEquivalence(j) => (&j.c1, &j.c2),
            JobSpec::Enumerate(j) => (&j.c1, &j.c2),
        }
    }
}

/// Enumerate jobs per width in `sat-served`: with 3 sat jobs per width
/// they make 80% of the jobs, so the latency median falls inside the
/// enumerate mode rather than between the two kinds' modes.
const ENUMERATE_PER_WIDTH: usize = 12;

const CLASSES: [(Side, Side); 3] = [(Side::Np, Side::I), (Side::I, Side::P), (Side::P, Side::N)];

fn n_i() -> Equivalence {
    Equivalence::new(Side::N, Side::I)
}

fn item(job: JobSpec, kind: JobKind, inst: &revmatch::PromiseInstance) -> Item {
    Item {
        job,
        planted: Planted {
            kind,
            equivalence: inst.equivalence,
            witness: inst.witness.clone(),
        },
    }
}

/// The workload's job pool, generated from `seed` alone and shuffled
/// into the fixed cyclic order every loop of the run replays. `per_cell`
/// jobs are drawn for each (width, class, kind) cell.
pub fn build_pool(workload: Workload, seed: u64, per_cell: usize) -> Vec<Item> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pool = Vec::new();
    match workload {
        Workload::MatchSmall | Workload::WireSmall => {
            for width in [5, 6] {
                for (x, y) in CLASSES {
                    let e = Equivalence::new(x, y);
                    for _ in 0..per_cell {
                        let inst = random_instance(e, width, &mut rng);
                        let job = EngineJob::from_instance(&inst, true);
                        pool.push(item(job.into(), JobKind::Promise, &inst));
                        let inst = random_instance(e, width, &mut rng);
                        let job = IdentifyJob::new(inst.c1.clone(), inst.c2.clone())
                            .without_brute_force();
                        pool.push(item(job.into(), JobKind::Identify, &inst));
                    }
                }
                for _ in 0..per_cell {
                    let inst = random_instance(n_i(), width, &mut rng);
                    pool.push(quantum_item(&inst));
                }
            }
        }
        Workload::SatServed => {
            for width in [5, 6] {
                for (x, y) in CLASSES {
                    let e = Equivalence::new(x, y);
                    for _ in 0..per_cell {
                        let inst = random_instance(e, width, &mut rng);
                        let job = SatEquivalenceJob {
                            c1: inst.c1.clone(),
                            c2: inst.c2.clone(),
                            witness: Some(inst.witness.clone()),
                        };
                        pool.push(item(job.into(), JobKind::Sat, &inst));
                    }
                }
                for _ in 0..ENUMERATE_PER_WIDTH {
                    let inst = random_instance(n_i(), width, &mut rng);
                    let job = EnumerateJob::new(
                        inst.c1.clone(),
                        inst.c2.clone(),
                        WitnessFamily::InputNegation,
                    );
                    pool.push(item(job.into(), JobKind::Enumerate, &inst));
                }
            }
        }
        Workload::OracleWide => {
            for width in [18, 19, 20] {
                for (x, y) in CLASSES {
                    let e = Equivalence::new(x, y);
                    for _ in 0..per_cell {
                        let inst = random_wide_instance(e, width, 4 * width, &mut rng);
                        let job = EngineJob::from_instance(&inst, true);
                        pool.push(item(job.into(), JobKind::Promise, &inst));
                    }
                }
                for _ in 0..per_cell {
                    let inst = random_wide_instance(n_i(), width, 4 * width, &mut rng);
                    pool.push(quantum_item(&inst));
                }
            }
        }
    }
    pool.shuffle(&mut rng);
    pool
}

fn quantum_item(inst: &revmatch::PromiseInstance) -> Item {
    let job = QuantumPathJob {
        equivalence: inst.equivalence,
        c1: inst.c1.clone(),
        c2: inst.c2.clone(),
        algorithm: QuantumAlgorithm::Simon,
    };
    item(job.into(), JobKind::Quantum, inst)
}

/// Pool cells per workload: sized so the match-small pool fits the
/// worker table cache (every job hits after warm-up), the sat-served
/// pool re-enters cached solvers, and the oracle-wide pool (every
/// circuit distinct, 2–8 MiB tables) overflows the 16 MiB per-worker
/// cache, so every job compiles.
pub fn per_cell(workload: Workload) -> usize {
    match workload {
        Workload::MatchSmall | Workload::WireSmall => 4,
        // 6 sat + 24 enumerate = 30 miter families: within one
        // worker's 32-solver cache even when stealing sends it every
        // family.
        Workload::SatServed => 1,
        Workload::OracleWide => 3,
    }
}
