//! Worker-local memoization: dense-table and miter-solver caches.
//!
//! The `(width, equivalence)` shard routing in [`super::MatchService`]
//! means a lane keeps seeing the same circuits — the loadgen pool, a
//! regression replay, or a client re-checking one miter family. Each
//! worker therefore carries a [`ShardCaches`]:
//!
//! * a **dense-table LRU** keyed by the exact circuit, so a repeated
//!   circuit reuses its `2^width` lookup table instead of re-running the
//!   compile sweep (the PR-2 ROADMAP follow-up);
//! * two **miter LRUs** keyed by the miter's *inputs*, not its formula:
//!   `(kind, C1, C2, family)` for enumeration sweeps and
//!   `(kind, C1, C2, witness)` for sat jobs and witness verification.
//!   Each [`MiterEntry`] holds the CDCL solver (which owns the clauses),
//!   the variable layout that drives it and the [`Counterexamples`]
//!   replayed before each solve. The encoded formula is not retained: a
//!   warm hit skips the encoding entirely, and the clauses live only in
//!   the solver that already holds the learned refutations.
//!
//! Keys are compared by full equality (not hash), so a collision can
//! never hand back the wrong table or solver. Table reuse is purely a
//! speed layer — oracle answers are bit-identical with or without it.
//! Miter reuse never changes a *completed* verdict either: a replayed
//! counterexample is the one the entry's first solve found, and a
//! witness is only ever accepted on UNSAT. Under a per-verification
//! budget a warm solver may **resolve** a formula the cold solver had to
//! leave `Unknown`: its retained learned clauses amount to a head start,
//! so budget-limited outcomes can improve (never degrade, never flip
//! between definitive answers) with cache warmth. Caches are
//! worker-local (no sharing, no locks): shard affinity is what makes
//! them hit.

use std::sync::Arc;
use std::time::Duration;

use revmatch_circuit::{Circuit, DenseTable, DENSE_MAX_WIDTH};
use revmatch_sat::{CdclSolver, Cnf, SatOptions};

use crate::engine::JobKind;
use crate::enumerate::{Counterexamples, FamilyLayout, FamilyMiter, WitnessFamily};
use crate::error::MatchError;
use crate::miter::MiterEncoding;
use crate::oracle::Oracle;
use crate::witness::MatchWitness;

/// Resident cost of one cached dense table (`2^width` entries of 8 B).
fn table_cost(table: &Arc<DenseTable>) -> usize {
    (1usize << table.width()) * std::mem::size_of::<u64>()
}

/// Outcome of one dense-table cache probe ([`ShardCaches::oracle_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableProbe {
    /// Whether the table was served from this worker's cache.
    pub hit: bool,
    /// Wall-clock of the cold compile sweep, when the probe missed and
    /// actually built a table (`None` on hits and on wide circuits that
    /// bypass the cache).
    pub compile: Option<Duration>,
}

impl TableProbe {
    /// A probe that never touched the cache (width past the dense cap).
    pub const BYPASS: TableProbe = TableProbe {
        hit: false,
        compile: None,
    };
}

/// A tiny move-to-front LRU with exact-equality keys and a per-entry
/// cost hook: eviction keeps the total cost within `budget` (a plain
/// count cap is `cost = |_| 1`).
#[derive(Debug)]
struct Lru<K, V> {
    budget: usize,
    cost: fn(&V) -> usize,
    total: usize,
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V> Lru<K, V> {
    fn new(budget: usize, cost: fn(&V) -> usize) -> Self {
        Self {
            budget: budget.max(1),
            cost,
            total: 0,
            entries: Vec::new(),
        }
    }

    /// Returns the cached value whose key satisfies `probe` (moved to
    /// front), or builds the `(key, value)` entry, inserts and returns
    /// it, evicting from the cold end until the total cost fits the
    /// budget (the newest entry always stays). The flag reports a hit; a
    /// failed build inserts nothing. Taking a predicate instead of an
    /// owned key keeps the hit path allocation-free for expensive keys
    /// (circuits).
    fn get_or_try_insert_with<E>(
        &mut self,
        probe: impl Fn(&K) -> bool,
        make: impl FnOnce() -> Result<(K, V), E>,
    ) -> Result<(&mut V, bool), E> {
        if let Some(i) = self.entries.iter().position(|(k, _)| probe(k)) {
            self.entries[..=i].rotate_right(1);
            return Ok((&mut self.entries[0].1, true));
        }
        let (key, value) = make()?;
        self.total += (self.cost)(&value);
        self.entries.insert(0, (key, value));
        while self.total > self.budget && self.entries.len() > 1 {
            let (_, evicted) = self.entries.pop().expect("len > 1");
            self.total -= (self.cost)(&evicted);
        }
        Ok((&mut self.entries[0].1, false))
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One cached miter — see the [module docs](self). `L` is the layout
/// that drives the solver: a [`FamilyLayout`] for enumeration sweeps,
/// the shared input count for witness miters.
#[derive(Debug)]
pub(crate) struct MiterEntry<L> {
    /// The solver owning the miter's clauses and everything it learned.
    pub solver: CdclSolver,
    /// Where the miter's inputs (and selectors) sit among its variables.
    pub layout: L,
    /// Distinguishing inputs found by earlier solves of this miter.
    pub replay: Counterexamples,
}

/// A miter-cache key: the job kind and what the miter encodes.
type MiterKey<S> = (JobKind, Circuit, Circuit, S);

/// Per-worker memoization state — see the [module docs](self).
#[derive(Debug)]
pub(crate) struct ShardCaches {
    /// Dense tables, evicted by total size: a `2^w` table costs
    /// `8·2^w` bytes, so narrow mixes keep hundreds of tables while a
    /// single width-16 job (512 KiB) still fits comfortably. Keys
    /// include the [`JobKind`] so the per-kind hit metrics stay honest
    /// and one kind's churn cannot evict another kind's working set
    /// through shard-stolen work.
    tables: Lru<(JobKind, Circuit), Arc<DenseTable>>,
    family_miters: Lru<MiterKey<WitnessFamily>, MiterEntry<FamilyLayout>>,
    witness_miters: Lru<MiterKey<MatchWitness>, MiterEntry<usize>>,
    /// CDCL feature set stamped onto every solver this worker builds
    /// (the service's [`revmatch_sat::SatOptions`] selection).
    sat_opts: SatOptions,
}

/// Byte budget for the per-worker dense-table cache (~16 MiB: 32
/// width-16 tables, or thousands of narrow ones). A count-based cap
/// would thrash on cyclic pools of small circuits — the loadgen's exact
/// access pattern.
const TABLE_CACHE_BYTES: usize = 16 << 20;
/// Miter entries kept per worker in each miter LRU (each owns its clause
/// database). Sized above the loadgen pool's per-shard miter-family
/// count: a cyclic workload over more families than the capacity would
/// never hit (sequential scans are LRU's worst case).
const SOLVER_CACHE_CAP: usize = 32;

impl ShardCaches {
    pub fn new(sat_opts: SatOptions) -> Self {
        Self {
            tables: Lru::new(TABLE_CACHE_BYTES, table_cost),
            family_miters: Lru::new(SOLVER_CACHE_CAP, |_| 1),
            witness_miters: Lru::new(SOLVER_CACHE_CAP, |_| 1),
            sat_opts,
        }
    }

    /// A precompiled oracle for `circuit` on behalf of a `kind` job,
    /// reusing the cached dense table when this worker has compiled the
    /// same `(kind, circuit)` before. Falls back to the bit-sliced
    /// oracle beyond [`DENSE_MAX_WIDTH`], exactly like
    /// [`Oracle::precompiled`]. The probe reports a hit vs the measured
    /// cold-compile cost, so the caller can attribute the table sweep
    /// separately from the lookup around it.
    pub fn oracle_for(&mut self, kind: JobKind, circuit: Circuit) -> (Oracle, TableProbe) {
        if circuit.width() > DENSE_MAX_WIDTH {
            return (Oracle::new(circuit), TableProbe::BYPASS);
        }
        let mut compile = None;
        let Ok((table, hit)) = self.tables.get_or_try_insert_with(
            |(k, c)| *k == kind && *c == circuit,
            || {
                let (table, took) = DenseTable::compile_timed(&circuit)
                    .expect("width checked against DENSE_MAX_WIDTH");
                compile = Some(took);
                Ok::<_, std::convert::Infallible>(((kind, circuit.clone()), Arc::new(table)))
            },
        );
        let table = Arc::clone(table);
        (
            Oracle::with_shared_table(circuit, table),
            TableProbe { hit, compile },
        )
    }

    /// The cached family miter of `(c1, c2, family)` for a `kind` job —
    /// its input-hinted solver, layout and replay store — encoding it
    /// only on a miss. The flag reports a hit.
    ///
    /// # Errors
    ///
    /// [`FamilyMiter::build`]'s errors on a miss; nothing is cached.
    pub fn family_miter(
        &mut self,
        kind: JobKind,
        c1: &Circuit,
        c2: &Circuit,
        family: WitnessFamily,
    ) -> Result<(&mut MiterEntry<FamilyLayout>, bool), MatchError> {
        let opts = self.sat_opts;
        self.family_miters.get_or_try_insert_with(
            |(k, a, b, f)| *k == kind && *f == family && a == c1 && b == c2,
            || {
                let FamilyMiter { cnf, layout } = FamilyMiter::build(c1, c2, family)?;
                let entry = MiterEntry::new(&cnf, opts, layout, layout.input_hint());
                Ok(((kind, c1.clone(), c2.clone(), family), entry))
            },
        )
    }

    /// The cached miter of `c1` against `witness ∘ c2 ∘ witness` for a
    /// `kind` job (sat jobs and witness verification), encoding it only
    /// on a miss. The flag reports a hit.
    ///
    /// # Errors
    ///
    /// [`MiterEncoding::build`]'s errors on a miss; nothing is cached.
    pub fn witness_miter(
        &mut self,
        kind: JobKind,
        c1: &Circuit,
        c2: &Circuit,
        witness: &MatchWitness,
    ) -> Result<(&mut MiterEntry<usize>, bool), MatchError> {
        let opts = self.sat_opts;
        self.witness_miters.get_or_try_insert_with(
            |(k, a, b, w)| *k == kind && a == c1 && b == c2 && w == witness,
            || {
                let miter = MiterEncoding::build(c1, c2, witness)?;
                let entry = MiterEntry::new(&miter.cnf, opts, miter.inputs, miter.input_hint());
                Ok(((kind, c1.clone(), c2.clone(), witness.clone()), entry))
            },
        )
    }
}

impl<L> MiterEntry<L> {
    /// A cold entry: a fresh solver on `cnf` (which the caller then
    /// drops) and an empty replay store.
    fn new(cnf: &Cnf, opts: SatOptions, layout: L, hint: Vec<usize>) -> Self {
        Self {
            solver: CdclSolver::new(cnf)
                .with_options(opts)
                .with_branch_hint(hint),
            layout,
            replay: Counterexamples::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ClassicalOracle;
    use rand::SeedableRng;
    use revmatch_circuit::{random_circuit, RandomCircuitSpec};

    /// Probe/insert shorthand for the integer-keyed Lru tests.
    fn probe(lru: &mut Lru<u32, usize>, key: u32, value: usize) -> bool {
        lru.get_or_try_insert_with(|k| *k == key, || Ok::<_, ()>((key, value)))
            .unwrap()
            .1
    }

    #[test]
    fn lru_hits_evicts_and_moves_to_front() {
        let mut lru: Lru<u32, usize> = Lru::new(2, |_| 1);
        assert!(!probe(&mut lru, 1, 10));
        assert!(!probe(&mut lru, 2, 20));
        // Hit 1 (moves to front), insert 3 → 2 is evicted.
        assert!(probe(&mut lru, 1, 99));
        assert!(!probe(&mut lru, 3, 30));
        assert_eq!(lru.len(), 2);
        assert!(!probe(&mut lru, 2, 21), "2 was evicted");
    }

    #[test]
    fn lru_cost_budget_evicts_by_total_and_keeps_newest() {
        // Cost = the value itself; budget 10.
        let mut lru: Lru<u32, usize> = Lru::new(10, |v| *v);
        assert!(!probe(&mut lru, 1, 4));
        assert!(!probe(&mut lru, 2, 4)); // total 8
        assert!(!probe(&mut lru, 3, 4)); // 12 → evict 1
        assert_eq!(lru.len(), 2);
        assert!(probe(&mut lru, 2, 99), "2 survived");
        assert!(!probe(&mut lru, 1, 4), "1 was evicted");
        // An over-budget single entry is still admitted (newest stays).
        assert!(!probe(&mut lru, 9, 50));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn cached_oracle_answers_match_fresh_compiles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c = random_circuit(&RandomCircuitSpec::for_width(6), &mut rng);
        let mut caches = ShardCaches::new(SatOptions::default());
        let (cold, probe_cold) = caches.oracle_for(JobKind::Promise, c.clone());
        assert!(!probe_cold.hit);
        assert!(
            probe_cold.compile.is_some(),
            "a cold miss measures its compile"
        );
        let (warm, probe_warm) = caches.oracle_for(JobKind::Promise, c.clone());
        assert!(probe_warm.hit);
        assert_eq!(probe_warm.compile, None, "a hit never compiles");
        // A different kind re-compiles: the key includes the kind.
        let (_, cross_kind) = caches.oracle_for(JobKind::Identify, c.clone());
        assert!(!cross_kind.hit);
        for x in 0..64u64 {
            assert_eq!(cold.query(x), c.apply(x));
            assert_eq!(warm.query(x), c.apply(x));
        }
    }

    #[test]
    fn distinct_circuits_never_share_a_table() {
        // Equal widths, different functions: the exact-equality key must
        // separate them.
        let a = Circuit::from_gates(3, [revmatch_circuit::Gate::not(0)]).unwrap();
        let b = Circuit::from_gates(3, [revmatch_circuit::Gate::not(1)]).unwrap();
        let mut caches = ShardCaches::new(SatOptions::default());
        let (oa, _) = caches.oracle_for(JobKind::Promise, a.clone());
        let (ob, probe) = caches.oracle_for(JobKind::Promise, b.clone());
        assert!(!probe.hit);
        assert_eq!(oa.query(0), 1);
        assert_eq!(ob.query(0), 2);
    }

    #[test]
    fn wide_circuits_bypass_the_table_cache() {
        let c = Circuit::new(DENSE_MAX_WIDTH + 1);
        let mut caches = ShardCaches::new(SatOptions::default());
        let (_, probe1) = caches.oracle_for(JobKind::Promise, c.clone());
        let (_, probe2) = caches.oracle_for(JobKind::Promise, c);
        assert_eq!(probe1, TableProbe::BYPASS);
        assert_eq!(probe2, TableProbe::BYPASS);
    }

    #[test]
    fn solver_cache_reuses_learned_state() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let c = random_circuit(&RandomCircuitSpec::for_width(5), &mut rng);
        let resynth = revmatch_circuit::synthesize(
            &c.truth_table().unwrap(),
            revmatch_circuit::SynthesisStrategy::Basic,
        )
        .unwrap();
        let id = MatchWitness::identity(c.width());
        let mut caches = ShardCaches::new(SatOptions::default());
        let (entry, hit) = caches
            .witness_miter(JobKind::Promise, &c, &resynth, &id)
            .unwrap();
        assert!(!hit);
        assert_eq!(entry.layout, c.width());
        assert_eq!(entry.solver.solve(), revmatch_sat::Solve::Unsat);
        let (entry, hit) = caches
            .witness_miter(JobKind::Promise, &c, &resynth, &id)
            .unwrap();
        assert!(hit);
        assert_eq!(entry.solver.solve(), revmatch_sat::Solve::Unsat);
        assert_eq!(entry.solver.conflicts(), 0, "warm verdict must be cached");
        // The key is the miter's inputs: another kind, witness or
        // circuit order is another entry.
        let neg = MatchWitness::input_negation(revmatch_circuit::NegationMask::new(1, 5).unwrap());
        for (kind, a, b, w) in [
            (JobKind::Sat, &c, &resynth, &id),
            (JobKind::Promise, &resynth, &c, &id),
            (JobKind::Promise, &c, &resynth, &neg),
        ] {
            assert!(!caches.witness_miter(kind, a, b, w).unwrap().1);
        }
    }

    #[test]
    fn family_entries_are_keyed_by_family_and_skip_failed_builds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let inst = crate::promise::random_instance(
            WitnessFamily::InputNegation.equivalence(),
            4,
            &mut rng,
        );
        let (c1, c2) = (&inst.c1, &inst.c2);
        let mut caches = ShardCaches::new(SatOptions::default());
        let kind = JobKind::Enumerate;
        let (entry, hit) = caches
            .family_miter(kind, c1, c2, WitnessFamily::InputNegation)
            .unwrap();
        assert!(!hit);
        assert_eq!(entry.layout.family(), WitnessFamily::InputNegation);
        let (_, hit) = caches
            .family_miter(kind, c1, c2, WitnessFamily::InputNegation)
            .unwrap();
        assert!(hit);
        let (entry, hit) = caches
            .family_miter(kind, c1, c2, WitnessFamily::OutputNegation)
            .unwrap();
        assert!(!hit, "another family is another miter");
        assert_eq!(entry.layout.family(), WitnessFamily::OutputNegation);
        // A width mismatch fails to encode and leaves no entry behind.
        let narrow = Circuit::new(3);
        for _ in 0..2 {
            assert!(matches!(
                caches.family_miter(kind, c1, &narrow, WitnessFamily::InputNegation),
                Err(MatchError::WidthMismatch { .. })
            ));
        }
        assert_eq!(caches.family_miters.len(), 2);
    }
}
