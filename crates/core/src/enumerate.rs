//! Witness **enumeration**: find every transform explaining a pair.
//!
//! The matchers in [`crate::matchers`] recover *one* witness of a
//! promised pair; this module answers the stronger question — how many
//! witnesses does a family admit, and which are they? A circuit with
//! symmetries has several (the reason matchers may legitimately return a
//! witness different from a planted one), and a count of zero is a
//! complete proof of non-equivalence within the family.
//!
//! The engine is one **family miter** ([`FamilyMiter`]): the miter of
//! `C1` against `T ∘ C2 ∘ T'` where the candidate transform is *not*
//! baked into the clauses but selected by fresh **selector variables** —
//! a negation-mask bit per line, or a permutation one-hot matrix. Fixing
//! a candidate is then a set of assumption literals over the selectors:
//!
//! * `solve_under(candidate)` UNSAT ⇒ no distinguishing input exists ⇒
//!   the candidate **is** a witness;
//! * SAT ⇒ the model is a concrete counterexample for that candidate.
//!
//! Because candidates differ only in assumptions, one incremental
//! [`CdclSolver`] serves the whole family: clauses learned refuting (or
//! satisfying) one candidate prune the search for the next, instead of
//! paying a cold miter per candidate ([`EnumerationStrategy::AssumptionSweep`]).
//!
//! **Counterexample replay.** Most candidates are not witnesses, and a
//! distinguishing input found for one usually distinguishes the others
//! too. The sweep keeps every input decoded from a SAT model as
//! `(x, C1(x))` in a bounded [`Counterexamples`] store and, before
//! solving a candidate `T`, simulates `T ∘ C2` on the stored inputs: a
//! mismatch is a concrete counterexample and refutes `T` with no solver
//! call. Replay only refutes — a witness is accepted only on an UNSAT
//! `solve_under`, so every reported witness keeps its SAT proof. A
//! sweep's [`WitnessEnumeration::solves`] therefore depends on how warm
//! the store was, while [`WitnessEnumeration::decided`] (solves plus
//! replay refutations) is always the candidate count; the serving layer
//! reports the latter as `rounds`, and keys its cached solver and store
//! by the miter's inputs `(kind, C1, C2, family)`.
//!
//! The dual mode ([`EnumerationStrategy::BlockingClauses`]) leaves the
//! selectors free and repeatedly solves the family formula, **blocking**
//! each discovered non-witness selector assignment with a clause until
//! the formula is exhausted — the final UNSAT proves every unblocked
//! candidate is a witness in a single stroke. Both strategies return the
//! same witness set (differentially tested); the sweep is what the
//! serving layer runs, because assumptions leave a cached solver clean
//! for the next job while blocking clauses would poison it.
//!
//! The DPLL backend gets a semantics-compatible fallback (fresh
//! per-candidate solves under assumptions, with the same replay), keeping
//! [`SolverBackend`] interchangeable for differential testing.

use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

use revmatch_circuit::{Circuit, LinePermutation, NegationMask, NpTransform};
use revmatch_sat::{CdclSolver, Clause, Cnf, Lit, Solver, SolverBackend, Var};

use crate::equivalence::{Equivalence, Side};
use crate::error::MatchError;
use crate::miter::{encode_circuit, encode_xor};
use crate::witness::MatchWitness;

/// The candidate spaces a [`FamilyMiter`] can select over.
///
/// Each family corresponds to one equivalence class whose witnesses are
/// a pure negation mask or a pure wire permutation on one (or both)
/// sides; [`WitnessFamily::of`] maps the class to its family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WitnessFamily {
    /// Input negation masks (`N-I`): `2^n` candidates.
    InputNegation,
    /// Output negation masks (`I-N`): `2^n` candidates.
    OutputNegation,
    /// Independent input *and* output masks (`N-N`, a UNIQUE-SAT-hard
    /// class — exactly where a complete white-box sweep earns its keep):
    /// `4^n` candidates.
    BothNegations,
    /// Input wire permutations (`P-I`): `n!` candidates.
    InputPermutation,
    /// Output wire permutations (`I-P`): `n!` candidates.
    OutputPermutation,
}

impl WitnessFamily {
    /// Every family, in declaration order.
    pub const ALL: [WitnessFamily; 5] = [
        WitnessFamily::InputNegation,
        WitnessFamily::OutputNegation,
        WitnessFamily::BothNegations,
        WitnessFamily::InputPermutation,
        WitnessFamily::OutputPermutation,
    ];

    /// The equivalence class this family enumerates.
    pub fn equivalence(self) -> Equivalence {
        match self {
            Self::InputNegation => Equivalence::new(Side::N, Side::I),
            Self::OutputNegation => Equivalence::new(Side::I, Side::N),
            Self::BothNegations => Equivalence::new(Side::N, Side::N),
            Self::InputPermutation => Equivalence::new(Side::P, Side::I),
            Self::OutputPermutation => Equivalence::new(Side::I, Side::P),
        }
    }

    /// The family enumerating `e`, when one exists.
    pub fn of(e: Equivalence) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.equivalence() == e)
    }

    /// Maximum width for **full-space enumeration**: the candidate space
    /// must stay enumerable (`2^n`, `4^n` or `n!` solver calls in a
    /// sweep).
    pub fn max_width(self) -> usize {
        match self {
            Self::InputNegation | Self::OutputNegation => 14,
            Self::BothNegations => 7,
            Self::InputPermutation | Self::OutputPermutation => 7,
        }
    }

    /// Maximum width for **encoding** a [`FamilyMiter`] — wider than the
    /// enumeration cap, because callers sweeping an explicit candidate
    /// list (a bench family, a client-supplied shortlist) only pay per
    /// candidate, not for the whole space. Bounded by the selector-code
    /// packing (`u128`) and the `u64` masks.
    pub fn max_encode_width(self) -> usize {
        match self {
            Self::InputNegation | Self::OutputNegation => 24,
            Self::BothNegations => 24,
            Self::InputPermutation | Self::OutputPermutation => 11,
        }
    }

    /// Number of candidate witnesses at `width`.
    ///
    /// Only the selected family's count is computed — the factorial is
    /// never evaluated for negation families, whose widths may exceed
    /// where `n!` fits a `u64`.
    pub fn candidate_count(self, width: usize) -> u64 {
        match self {
            Self::InputNegation | Self::OutputNegation => 1u64 << width,
            Self::BothNegations => 1u64 << (2 * width),
            Self::InputPermutation | Self::OutputPermutation => (1..=width as u64).product(),
        }
    }

    /// Every candidate witness at `width`, in a deterministic order
    /// (ascending masks; lexicographic permutations).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::EnumerationTooWide`] beyond
    /// [`WitnessFamily::max_width`].
    pub fn candidates(self, width: usize) -> Result<Vec<MatchWitness>, MatchError> {
        if width > self.max_width() {
            return Err(MatchError::EnumerationTooWide {
                width,
                max: self.max_width(),
            });
        }
        let mask_witness = |mask: u64| NegationMask::new(mask, width).expect("mask in range");
        let out = match self {
            Self::InputNegation => (0..1u64 << width)
                .map(|m| MatchWitness::input_negation(mask_witness(m)))
                .collect(),
            Self::OutputNegation => (0..1u64 << width)
                .map(|m| MatchWitness::output_negation(mask_witness(m)))
                .collect(),
            Self::BothNegations => {
                let id = LinePermutation::identity(width);
                let mut all = Vec::with_capacity(1 << (2 * width));
                for min in 0..1u64 << width {
                    for mout in 0..1u64 << width {
                        all.push(
                            MatchWitness::new(
                                NpTransform::new(mask_witness(min), id.clone())
                                    .expect("same width"),
                                NpTransform::new(mask_witness(mout), id.clone())
                                    .expect("same width"),
                            )
                            .expect("same width"),
                        );
                    }
                }
                all
            }
            Self::InputPermutation => permutations(width)
                .into_iter()
                .map(|map| {
                    MatchWitness::input_permutation(
                        LinePermutation::new(map).expect("valid permutation"),
                    )
                })
                .collect(),
            Self::OutputPermutation => permutations(width)
                .into_iter()
                .map(|map| {
                    MatchWitness::output_permutation(
                        LinePermutation::new(map).expect("valid permutation"),
                    )
                })
                .collect(),
        };
        Ok(out)
    }

    /// The stable lowercase label used in flags and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::InputNegation => "input-negation",
            Self::OutputNegation => "output-negation",
            Self::BothNegations => "both-negations",
            Self::InputPermutation => "input-permutation",
            Self::OutputPermutation => "output-permutation",
        }
    }
}

impl fmt::Display for WitnessFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for WitnessFamily {
    type Err = MatchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|f| f.as_str() == s)
            .ok_or_else(|| MatchError::Parse {
                reason: format!("unknown witness family {s:?}"),
            })
    }
}

/// Every permutation of `0..n`, lexicographic.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut all = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    loop {
        all.push(items.clone());
        // Next lexicographic permutation (Knuth's algorithm L).
        let Some(i) = items.windows(2).rposition(|w| w[0] < w[1]) else {
            return all;
        };
        let j = items
            .iter()
            .rposition(|&x| x > items[i])
            .expect("successor exists");
        items.swap(i, j);
        items[i + 1..].reverse();
    }
}

/// A miter over a whole witness family: the shared-input equivalence
/// check of `C1` against `selector(C2)` where the candidate transform is
/// chosen by assumption literals over selector variables — see the
/// [module docs](self).
///
/// The variable layout lives in [`FamilyMiter::layout`]; a solver built
/// on [`FamilyMiter::cnf`] owns the clauses, so a caller that keeps the
/// solver needs only the layout to drive it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyMiter {
    /// The family formula: satisfiable under a candidate's assumptions
    /// exactly on that candidate's distinguishing inputs.
    pub cnf: Cnf,
    /// Where the inputs and selectors sit among the formula's variables.
    pub layout: FamilyLayout,
}

/// The variable layout of a [`FamilyMiter`]: shared inputs `0..n`,
/// selectors `n..n + selector_count`, then Tseitin gate variables. The
/// layout is stable, so a solver built once keeps serving candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyLayout {
    family: WitnessFamily,
    width: usize,
    sel_base: usize,
    sel_count: usize,
}

impl FamilyMiter {
    /// Encodes the family miter of `c1` against `family(C2)`.
    ///
    /// # Errors
    ///
    /// [`MatchError::WidthMismatch`] on width disagreement,
    /// [`MatchError::EnumerationTooWide`] beyond the family's width cap.
    pub fn build(c1: &Circuit, c2: &Circuit, family: WitnessFamily) -> Result<Self, MatchError> {
        let n = c1.width();
        if n != c2.width() {
            return Err(MatchError::WidthMismatch {
                left: n,
                right: c2.width(),
            });
        }
        if n > family.max_encode_width() {
            return Err(MatchError::EnumerationTooWide {
                width: n,
                max: family.max_encode_width(),
            });
        }
        let sel_count = match family {
            WitnessFamily::InputNegation | WitnessFamily::OutputNegation => n,
            WitnessFamily::BothNegations => 2 * n,
            WitnessFamily::InputPermutation | WitnessFamily::OutputPermutation => n * n,
        };
        let sel_base = n;
        let mut cnf = Cnf::new(n + sel_count);
        let mut next_var = n + sel_count;
        let inputs: Vec<Lit> = (0..n).map(|i| Lit::positive(Var(i))).collect();

        // C1 runs on the raw shared inputs.
        let mut state1 = inputs.clone();
        encode_circuit(c1, &mut cnf, &mut state1, &mut next_var);

        // C2 runs on the selector-transformed inputs.
        let mut state2: Vec<Lit> = match family {
            WitnessFamily::InputNegation | WitnessFamily::BothNegations => (0..n)
                .map(|j| {
                    let s = Lit::positive(Var(sel_base + j));
                    encode_xor(&mut cnf, inputs[j], s, &mut next_var)
                })
                .collect(),
            WitnessFamily::InputPermutation => {
                encode_one_hot_rows(&mut cnf, sel_base, n);
                (0..n)
                    .map(|j| encode_mux(&mut cnf, &inputs, sel_base + j * n, &mut next_var))
                    .collect()
            }
            WitnessFamily::OutputNegation | WitnessFamily::OutputPermutation => inputs.clone(),
        };
        encode_circuit(c2, &mut cnf, &mut state2, &mut next_var);

        // Predicted C1 output i from C2's outputs and the output-side
        // selectors, then diff_i ↔ out1_i ⊕ predicted_i; assert OR(diff).
        let out_sel_base = match family {
            WitnessFamily::OutputNegation | WitnessFamily::OutputPermutation => sel_base,
            WitnessFamily::BothNegations => sel_base + n,
            _ => 0,
        };
        if family == WitnessFamily::OutputPermutation {
            encode_one_hot_rows(&mut cnf, out_sel_base, n);
        }
        let mut diff_lits = Vec::with_capacity(n);
        for (i, &a) in state1.iter().enumerate().take(n) {
            let b = match family {
                WitnessFamily::OutputNegation | WitnessFamily::BothNegations => {
                    let s = Lit::positive(Var(out_sel_base + i));
                    encode_xor(&mut cnf, state2[i], s, &mut next_var)
                }
                WitnessFamily::OutputPermutation => {
                    encode_mux(&mut cnf, &state2[..n], out_sel_base + i * n, &mut next_var)
                }
                _ => state2[i],
            };
            diff_lits.push(encode_xor(&mut cnf, a, b, &mut next_var));
        }
        cnf.add_clause(Clause::new(diff_lits));
        Ok(Self {
            cnf,
            layout: FamilyLayout {
                family,
                width: n,
                sel_base,
                sel_count,
            },
        })
    }
}

impl FamilyLayout {
    /// The enumerated family.
    pub fn family(&self) -> WitnessFamily {
        self.family
    }

    /// Circuit width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of selector variables.
    pub fn selector_count(&self) -> usize {
        self.sel_count
    }

    /// The branch hint: shared input variables first (selectors are
    /// assumed, never decided, in sweep mode).
    pub fn input_hint(&self) -> Vec<usize> {
        (0..self.width).collect()
    }

    /// Decodes the shared input pattern (a counterexample) from a model.
    pub fn decode_input(&self, model: &[bool]) -> u64 {
        crate::miter::decode_input(model, self.width)
    }

    /// The assumption literals fixing `candidate` — one polarity per
    /// selector variable, so the selected transform is fully determined
    /// by propagation alone.
    ///
    /// # Errors
    ///
    /// [`MatchError::WidthMismatch`] on width disagreement,
    /// [`MatchError::FamilyMismatch`] when the candidate uses transforms
    /// outside the family's class.
    pub fn assumptions(&self, candidate: &MatchWitness) -> Result<Vec<Lit>, MatchError> {
        if candidate.width() != self.width {
            return Err(MatchError::WidthMismatch {
                left: self.width,
                right: candidate.width(),
            });
        }
        if !candidate.conforms_to(self.family.equivalence()) {
            return Err(MatchError::FamilyMismatch);
        }
        let n = self.width;
        let mask_lits = |base: usize, mask: NegationMask, out: &mut Vec<Lit>| {
            for j in 0..n {
                let var = Var(base + j);
                out.push(if mask.bit(j) {
                    Lit::positive(var)
                } else {
                    Lit::negative(var)
                });
            }
        };
        let perm_lits = |base: usize, pi: &LinePermutation, out: &mut Vec<Lit>| {
            let inv = pi.inverse();
            for j in 0..n {
                let src = inv.apply_index(j);
                for k in 0..n {
                    let var = Var(base + j * n + k);
                    out.push(if k == src {
                        Lit::positive(var)
                    } else {
                        Lit::negative(var)
                    });
                }
            }
        };
        let mut lits = Vec::with_capacity(self.sel_count);
        match self.family {
            WitnessFamily::InputNegation => mask_lits(self.sel_base, candidate.nu_x(), &mut lits),
            WitnessFamily::OutputNegation => mask_lits(self.sel_base, candidate.nu_y(), &mut lits),
            WitnessFamily::BothNegations => {
                mask_lits(self.sel_base, candidate.nu_x(), &mut lits);
                mask_lits(self.sel_base + n, candidate.nu_y(), &mut lits);
            }
            WitnessFamily::InputPermutation => {
                perm_lits(self.sel_base, candidate.pi_x(), &mut lits);
            }
            WitnessFamily::OutputPermutation => {
                perm_lits(self.sel_base, candidate.pi_y(), &mut lits);
            }
        }
        Ok(lits)
    }

    /// Packs a candidate's selector assignment into a set-membership key
    /// (selector count ≤ 2n or n² ≤ 49 bits, well within `u128`).
    fn selector_code_of(&self, candidate: &MatchWitness) -> Result<u128, MatchError> {
        let lits = self.assumptions(candidate)?;
        let mut code = 0u128;
        for l in lits {
            if !l.negative {
                code |= 1 << (l.var.0 - self.sel_base);
            }
        }
        Ok(code)
    }

    /// Packs a model's selector assignment into the same key space.
    fn selector_code_of_model(&self, model: &[bool]) -> u128 {
        let mut code = 0u128;
        for i in 0..self.sel_count {
            if model[self.sel_base + i] {
                code |= 1 << i;
            }
        }
        code
    }

    /// The blocking clause excluding a model's selector assignment.
    fn blocking_clause(&self, model: &[bool]) -> Vec<Lit> {
        (0..self.sel_count)
            .map(|i| {
                let var = Var(self.sel_base + i);
                if model[self.sel_base + i] {
                    Lit::negative(var)
                } else {
                    Lit::positive(var)
                }
            })
            .collect()
    }
}

/// Selector-controlled multiplexer: fresh `out` with
/// `s_k → (out ↔ sources[k])` for the `n` selector variables starting at
/// `row_base`; returns `out`. Under a one-hot selector row the output is
/// fully propagation-determined.
fn encode_mux(cnf: &mut Cnf, sources: &[Lit], row_base: usize, next_var: &mut usize) -> Lit {
    let out = Lit::positive(Var(*next_var));
    *next_var += 1;
    for (k, &src) in sources.iter().enumerate() {
        let s = Lit::positive(Var(row_base + k));
        cnf.add_clause(Clause::new(vec![s.negated(), src.negated(), out]));
        cnf.add_clause(Clause::new(vec![s.negated(), src, out.negated()]));
    }
    out
}

/// Permutation-matrix constraints over an `n × n` selector block at
/// `base`: each row has at least one true selector, and both rows and
/// columns are pairwise at-most-one. Needed so free-selector models
/// (blocking-clause mode) decode to genuine permutations; harmless under
/// full assumptions.
fn encode_one_hot_rows(cnf: &mut Cnf, base: usize, n: usize) {
    let s = |j: usize, k: usize| Lit::positive(Var(base + j * n + k));
    for j in 0..n {
        cnf.add_clause((0..n).map(|k| s(j, k)).collect());
        for k1 in 0..n {
            for k2 in k1 + 1..n {
                cnf.add_clause(Clause::new(vec![s(j, k1).negated(), s(j, k2).negated()]));
            }
        }
    }
    for k in 0..n {
        for j1 in 0..n {
            for j2 in j1 + 1..n {
                cnf.add_clause(Clause::new(vec![s(j1, k).negated(), s(j2, k).negated()]));
            }
        }
    }
}

/// How [`enumerate_witnesses_sat_with`] walks the candidate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumerationStrategy {
    /// One incremental solver, one `solve_under` per candidate: UNSAT ⇒
    /// witness. Learned clauses persist across candidates; this is the
    /// serving layer's mode (assumptions leave a cached solver clean).
    AssumptionSweep,
    /// Selectors left free: repeatedly solve, **block** the selector
    /// assignment of each model (a non-witness with its counterexample),
    /// and stop at UNSAT — every unblocked candidate is then a witness.
    /// Solve count is `#non-witnesses + 1` instead of `#candidates`.
    BlockingClauses,
}

/// Result of a family enumeration.
#[derive(Debug, Clone)]
pub struct WitnessEnumeration {
    /// Every witness in the family, in the deterministic candidate order
    /// of [`WitnessFamily::candidates`].
    pub witnesses: Vec<MatchWitness>,
    /// Size of the candidate space swept.
    pub candidates: u64,
    /// Solver calls spent.
    pub solves: u64,
    /// Candidates refuted by replaying a stored counterexample, with no
    /// solver call (always 0 in blocking-clause mode).
    pub refuted: u64,
}

impl WitnessEnumeration {
    /// Number of witnesses found.
    pub fn count(&self) -> u64 {
        self.witnesses.len() as u64
    }

    /// Candidates a sweep decided: solver calls plus replay refutations.
    /// A completed sweep decides every candidate, so this equals
    /// [`WitnessEnumeration::candidates`] however warm the replay store
    /// was — the value the serving layer reports as `rounds`.
    pub fn decided(&self) -> u64 {
        self.solves + self.refuted
    }
}

/// Stored distinguishing inputs kept per replay store; an internal bound,
/// not an option. One input typically refutes every non-witness of a
/// served family, so the bound only caps pathological pairs.
const REPLAY_CAPACITY: usize = 32;

/// Counterexample replay: distinguishing inputs decoded from earlier SAT
/// models, kept as `(x, C1(x))` pairs, most recently useful first.
///
/// Before a sweep pays a solver call for a candidate `T`, it simulates
/// `T ∘ C2` on the stored inputs; a disagreement with the stored
/// `C1(x)` is a concrete counterexample, so the candidate is refuted
/// without SAT. A stored input only ever **refutes** — a witness is
/// still accepted only on an UNSAT solve. The serving layer keeps one
/// store per cached miter, so a warm job re-refutes its non-witnesses
/// by simulation.
#[derive(Debug, Clone, Default)]
pub struct Counterexamples {
    inputs: Vec<(u64, u64)>,
}

impl Counterexamples {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored inputs.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inputs.len()
    }

    /// The first stored input on which `candidate ∘ c2` disagrees with
    /// `C1`, moved to the front; `None` when every stored input agrees.
    pub(crate) fn refute(&mut self, candidate: &MatchWitness, c2: &Circuit) -> Option<u64> {
        let i = self
            .inputs
            .iter()
            .position(|&(x, y)| candidate.predict(x, |z| c2.apply(z)) != y)?;
        self.inputs[..=i].rotate_right(1);
        Some(self.inputs[0].0)
    }

    /// Stores a distinguishing input at the front, evicting the least
    /// recently useful one past the capacity.
    pub(crate) fn record(&mut self, x: u64, c1: &Circuit) {
        self.inputs.truncate(REPLAY_CAPACITY - 1);
        self.inputs.insert(0, (x, c1.apply(x)));
    }
}

/// Enumerates every witness of `family` explaining `(c1, c2)` on the
/// default backend and strategy (CDCL assumption sweep).
///
/// # Errors
///
/// [`MatchError::WidthMismatch`] / [`MatchError::EnumerationTooWide`]
/// from the encoding.
pub fn enumerate_witnesses_sat(
    c1: &Circuit,
    c2: &Circuit,
    family: WitnessFamily,
) -> Result<WitnessEnumeration, MatchError> {
    enumerate_witnesses_sat_with(
        c1,
        c2,
        family,
        SolverBackend::default(),
        EnumerationStrategy::AssumptionSweep,
    )
}

/// [`enumerate_witnesses_sat`] on an explicit backend and strategy. The
/// assumption sweep replays counterexamples within the call.
///
/// # Errors
///
/// Same as [`enumerate_witnesses_sat`].
pub fn enumerate_witnesses_sat_with(
    c1: &Circuit,
    c2: &Circuit,
    family: WitnessFamily,
    backend: SolverBackend,
    strategy: EnumerationStrategy,
) -> Result<WitnessEnumeration, MatchError> {
    let miter = FamilyMiter::build(c1, c2, family)?;
    let layout = miter.layout;
    match strategy {
        EnumerationStrategy::AssumptionSweep => {
            let mut replay = Counterexamples::new();
            match backend {
                SolverBackend::Cdcl => {
                    let mut solver =
                        CdclSolver::new(&miter.cnf).with_branch_hint(layout.input_hint());
                    sweep_family(&mut solver, &layout, c1, c2, &mut replay, None)
                }
                SolverBackend::Dpll => sweep_family_dpll(&miter, c1, c2, &mut replay, None),
            }
        }
        EnumerationStrategy::BlockingClauses => {
            enumerate_blocking(&miter, backend, family.candidates(layout.width)?)
        }
    }
}

/// Counts the witnesses of `family` explaining `(c1, c2)` — zero proves
/// the pair is not `family`-equivalent.
///
/// # Errors
///
/// Same as [`enumerate_witnesses_sat`].
pub fn count_witnesses_sat(
    c1: &Circuit,
    c2: &Circuit,
    family: WitnessFamily,
) -> Result<u64, MatchError> {
    Ok(enumerate_witnesses_sat(c1, c2, family)?.count())
}

/// The incremental assumption sweep over every candidate of the family,
/// on a caller-owned solver already holding the family formula of
/// `(c1, c2)` laid out as `layout` — the serving layer passes its
/// per-shard cached solver and replay store here, so learned clauses and
/// counterexamples persist *across jobs*, not just across candidates.
/// `budget` bounds each per-candidate solve (decisions + conflicts);
/// exhausting it aborts the enumeration with [`MatchError::Inconclusive`]
/// rather than returning a wrong count.
///
/// # Errors
///
/// [`MatchError::Inconclusive`] on budget exhaustion, plus candidate
/// encoding errors.
pub fn sweep_family(
    solver: &mut CdclSolver,
    layout: &FamilyLayout,
    c1: &Circuit,
    c2: &Circuit,
    replay: &mut Counterexamples,
    budget: Option<usize>,
) -> Result<WitnessEnumeration, MatchError> {
    solver.set_budget(budget);
    sweep_candidates(
        layout,
        c1,
        c2,
        replay,
        |assumptions| solver.solve_under_budgeted(assumptions),
        |_, _| {},
    )
}

/// The DPLL counterpart of [`sweep_family`]: a stateless per-candidate
/// sweep under assumptions with the same replay and per-solve `budget`
/// semantics (exhaustion aborts with [`MatchError::Inconclusive`] rather
/// than returning a wrong count) — the semantics-compatible fallback
/// keeping [`SolverBackend`] interchangeable in the serving layer.
///
/// # Errors
///
/// [`MatchError::Inconclusive`] on budget exhaustion, plus candidate
/// encoding errors.
pub fn sweep_family_dpll(
    miter: &FamilyMiter,
    c1: &Circuit,
    c2: &Circuit,
    replay: &mut Counterexamples,
    budget: Option<usize>,
) -> Result<WitnessEnumeration, MatchError> {
    let mut solver = Solver::new(&miter.cnf).with_branch_hint(miter.layout.input_hint());
    if let Some(b) = budget {
        solver = solver.with_budget(b);
    }
    sweep_candidates(
        &miter.layout,
        c1,
        c2,
        replay,
        |assumptions| solver.solve_under_budgeted(assumptions),
        |_, _| {},
    )
}

/// The shared sweep loop, whichever engine answers. Each candidate is
/// first replayed against the stored counterexamples (`refuted` sees
/// each refutation with its input); only the survivors cost a budgeted
/// solve-under-assumptions. UNSAT collects the candidate as a witness,
/// SAT stores the model's input for replay, and `Unknown` aborts the
/// enumeration (a partial count would be wrong, not merely incomplete).
fn sweep_candidates(
    layout: &FamilyLayout,
    c1: &Circuit,
    c2: &Circuit,
    replay: &mut Counterexamples,
    mut solve: impl FnMut(&[Lit]) -> revmatch_sat::BudgetedAssumedSolve,
    mut refuted_by: impl FnMut(&MatchWitness, u64),
) -> Result<WitnessEnumeration, MatchError> {
    let candidates = layout.family.candidates(layout.width)?;
    let mut witnesses = Vec::new();
    let (mut solves, mut refuted) = (0u64, 0u64);
    for candidate in &candidates {
        if let Some(x) = replay.refute(candidate, c2) {
            refuted += 1;
            refuted_by(candidate, x);
            continue;
        }
        let assumptions = layout.assumptions(candidate)?;
        solves += 1;
        match solve(&assumptions) {
            revmatch_sat::BudgetedAssumedSolve::Unsat { .. } => witnesses.push(candidate.clone()),
            revmatch_sat::BudgetedAssumedSolve::Sat(model) => {
                replay.record(layout.decode_input(&model), c1);
            }
            revmatch_sat::BudgetedAssumedSolve::Unknown => return Err(MatchError::Inconclusive),
        }
    }
    Ok(WitnessEnumeration {
        witnesses,
        candidates: candidates.len() as u64,
        solves,
        refuted,
    })
}

/// Blocking-clause enumeration: solve with free selectors, block each
/// model's selector assignment, finish on UNSAT.
fn enumerate_blocking(
    miter: &FamilyMiter,
    backend: SolverBackend,
    candidates: Vec<MatchWitness>,
) -> Result<WitnessEnumeration, MatchError> {
    let layout = &miter.layout;
    let mut blocked: HashSet<u128> = HashSet::new();
    let mut solves = 0u64;
    match backend {
        SolverBackend::Cdcl => {
            let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(layout.input_hint());
            loop {
                solves += 1;
                match solver.solve() {
                    revmatch_sat::Solve::Sat(model) => {
                        blocked.insert(layout.selector_code_of_model(&model));
                        solver.add_clause(&layout.blocking_clause(&model));
                    }
                    revmatch_sat::Solve::Unsat => break,
                }
            }
        }
        SolverBackend::Dpll => {
            let mut cnf = miter.cnf.clone();
            loop {
                solves += 1;
                match Solver::new(&cnf)
                    .with_branch_hint(layout.input_hint())
                    .solve()
                {
                    revmatch_sat::Solve::Sat(model) => {
                        blocked.insert(layout.selector_code_of_model(&model));
                        cnf.add_clause(Clause::new(layout.blocking_clause(&model)));
                    }
                    revmatch_sat::Solve::Unsat => break,
                }
            }
        }
    }
    let total = candidates.len() as u64;
    let witnesses = candidates
        .into_iter()
        .filter(|c| {
            let code = layout
                .selector_code_of(c)
                .expect("candidates come from the family");
            !blocked.contains(&code)
        })
        .collect();
    Ok(WitnessEnumeration {
        witnesses,
        candidates: total,
        solves,
        refuted: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promise::random_instance;
    use crate::verify::{check_witness, VerifyMode};
    use rand::SeedableRng;
    use revmatch_circuit::DenseTable;

    /// Reference enumeration: a dense-table truth-table sweep over every
    /// candidate witness — `2^n` table lookups per candidate, no SAT.
    fn dense_table_witnesses(
        c1: &Circuit,
        c2: &Circuit,
        family: WitnessFamily,
    ) -> Vec<MatchWitness> {
        let t1 = DenseTable::compile(c1).expect("width under the dense cap");
        let t2 = DenseTable::compile(c2).expect("width under the dense cap");
        let n = c1.width();
        family
            .candidates(n)
            .expect("test widths under the cap")
            .into_iter()
            .filter(|w| (0..1u64 << n).all(|x| t1.apply(x) == w.predict(x, |v| t2.apply(v))))
            .collect()
    }

    fn dense_table_count(c1: &Circuit, c2: &Circuit, family: WitnessFamily) -> u64 {
        dense_table_witnesses(c1, c2, family).len() as u64
    }

    /// A cold replayed sweep on `backend` through the shared loop, with
    /// the final replay store and every refutation `(candidate, input)`.
    fn logged_sweep(
        c1: &Circuit,
        c2: &Circuit,
        family: WitnessFamily,
        backend: SolverBackend,
    ) -> (
        WitnessEnumeration,
        Counterexamples,
        Vec<(MatchWitness, u64)>,
    ) {
        let miter = FamilyMiter::build(c1, c2, family).unwrap();
        let hint = miter.layout.input_hint();
        let mut replay = Counterexamples::new();
        let mut log = Vec::new();
        let note = |w: &MatchWitness, x: u64| log.push((w.clone(), x));
        let found = match backend {
            SolverBackend::Cdcl => {
                let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(hint);
                sweep_candidates(
                    &miter.layout,
                    c1,
                    c2,
                    &mut replay,
                    |a| solver.solve_under_budgeted(a),
                    note,
                )
            }
            SolverBackend::Dpll => {
                let mut solver = Solver::new(&miter.cnf).with_branch_hint(hint);
                sweep_candidates(
                    &miter.layout,
                    c1,
                    c2,
                    &mut replay,
                    |a| solver.solve_under_budgeted(a),
                    note,
                )
            }
        }
        .unwrap();
        (found, replay, log)
    }

    #[test]
    fn family_maps_cover_their_classes() {
        for family in WitnessFamily::ALL {
            assert_eq!(WitnessFamily::of(family.equivalence()), Some(family));
            let parsed: WitnessFamily = family.as_str().parse().unwrap();
            assert_eq!(parsed, family);
        }
        assert_eq!(WitnessFamily::of(Equivalence::new(Side::Np, Side::I)), None);
        assert!("negation".parse::<WitnessFamily>().is_err());
    }

    #[test]
    fn candidate_counts_match_generated_lists() {
        for family in WitnessFamily::ALL {
            for width in 1..=3 {
                let listed = family.candidates(width).unwrap().len() as u64;
                assert_eq!(listed, family.candidate_count(width), "{family} w{width}");
            }
        }
        assert!(matches!(
            WitnessFamily::BothNegations.candidates(12),
            Err(MatchError::EnumerationTooWide { .. })
        ));
    }

    #[test]
    fn planted_witness_is_always_enumerated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for family in WitnessFamily::ALL {
            let inst = random_instance(family.equivalence(), 4, &mut rng);
            let found = enumerate_witnesses_sat(&inst.c1, &inst.c2, family).unwrap();
            assert!(found.count() >= 1, "{family}: planted witness missed");
            assert!(
                found.witnesses.contains(&inst.witness),
                "{family}: planted witness not in the enumerated set"
            );
            // Every enumerated witness verifies functionally.
            for w in &found.witnesses {
                assert!(
                    check_witness(&inst.c1, &inst.c2, w, VerifyMode::Exhaustive, &mut rng).unwrap(),
                    "{family}: bogus enumerated witness {w}"
                );
            }
        }
    }

    /// The brute-force cross-check satellite: enumeration counts at
    /// widths ≤ 6 match a `DenseTable` truth-table sweep over all
    /// candidate witnesses, for each supported equivalence class.
    #[test]
    fn counts_match_dense_table_sweep() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for family in WitnessFamily::ALL {
            // Keep the 4^n/n! families at moderate width; push the
            // single-mask families to 6.
            let widths: &[usize] = match family {
                WitnessFamily::InputNegation | WitnessFamily::OutputNegation => &[3, 6],
                _ => &[3, 4],
            };
            for &w in widths {
                // A planted pair (count ≥ 1) and an unrelated pair
                // (usually count 0).
                let planted = random_instance(family.equivalence(), w, &mut rng);
                let unrelated = (
                    revmatch_circuit::random_function_circuit(w, &mut rng),
                    revmatch_circuit::random_function_circuit(w, &mut rng),
                );
                for (c1, c2) in [(&planted.c1, &planted.c2), (&unrelated.0, &unrelated.1)] {
                    let reference = dense_table_count(c1, c2, family);
                    let sat = count_witnesses_sat(c1, c2, family).unwrap();
                    assert_eq!(sat, reference, "{family} w{w}: SAT vs dense-table count");
                }
            }
        }
    }

    /// Both strategies and both backends enumerate the same witness set.
    #[test]
    fn strategies_and_backends_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for family in [
            WitnessFamily::InputNegation,
            WitnessFamily::OutputNegation,
            WitnessFamily::BothNegations,
            WitnessFamily::InputPermutation,
        ] {
            let inst = random_instance(family.equivalence(), 3, &mut rng);
            let mut outcomes = Vec::new();
            for backend in SolverBackend::ALL {
                for strategy in [
                    EnumerationStrategy::AssumptionSweep,
                    EnumerationStrategy::BlockingClauses,
                ] {
                    let found =
                        enumerate_witnesses_sat_with(&inst.c1, &inst.c2, family, backend, strategy)
                            .unwrap();
                    outcomes.push((backend, strategy, found));
                }
            }
            let reference = &outcomes[0].2;
            for (backend, strategy, found) in &outcomes[1..] {
                assert_eq!(
                    found.witnesses, reference.witnesses,
                    "{family}: {backend}/{strategy:?} disagrees"
                );
                assert_eq!(found.candidates, reference.candidates);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// Replay soundness: on planted pairs and on broken pairs with no
        /// witness, for every family at widths 2–6 and on both engines,
        /// the replayed sweep finds exactly the dense-table witness set,
        /// decides every candidate once, and every refutation is a real
        /// counterexample.
        #[test]
        fn replayed_sweep_matches_dense_tables(seed in proptest::prelude::any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for family in WitnessFamily::ALL {
                for w in 2..=6 {
                    let planted = random_instance(family.equivalence(), w, &mut rng);
                    let broken = (0..256)
                        .map(|_| revmatch_circuit::random_function_circuit(w, &mut rng))
                        .find(|c1| dense_table_count(c1, &planted.c2, family) == 0)
                        .expect("a random function outside the family orbit");
                    for c1 in [&planted.c1, &broken] {
                        let c2 = &planted.c2;
                        let reference = dense_table_witnesses(c1, c2, family);
                        for backend in SolverBackend::ALL {
                            let (found, replay, log) = logged_sweep(c1, c2, family, backend);
                            proptest::prop_assert_eq!(
                                &found.witnesses, &reference, "{} w{} {}", family, w, backend
                            );
                            proptest::prop_assert_eq!(found.decided(), found.candidates);
                            proptest::prop_assert_eq!(found.refuted, log.len() as u64);
                            proptest::prop_assert!(replay.len() <= REPLAY_CAPACITY);
                            for (candidate, x) in &log {
                                proptest::prop_assert_ne!(
                                    c1.apply(*x),
                                    candidate.predict(*x, |z| c2.apply(z)),
                                    "{} refuted by a non-distinguishing input", candidate
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn replay_store_is_bounded_and_moves_hits_to_front() {
        // C1 = CNOT(0 → 1) against the identity: the identity candidate
        // differs from C1 exactly on the inputs with bit 0 set.
        let c1 = Circuit::from_gates(2, [revmatch_circuit::Gate::cnot(0, 1)]).unwrap();
        let c2 = Circuit::new(2);
        let identity = MatchWitness::identity(2);
        let mut replay = Counterexamples::new();
        replay.record(1, &c1);
        for _ in 1..REPLAY_CAPACITY {
            replay.record(2, &c1);
        }
        assert_eq!(replay.len(), REPLAY_CAPACITY);
        assert_eq!(replay.refute(&identity, &c2), Some(1));
        // The refuting input moved to the front, so the next insert
        // evicts an input that refuted nothing.
        replay.record(2, &c1);
        assert_eq!(replay.len(), REPLAY_CAPACITY);
        assert_eq!(replay.inputs[0].0, 2);
        assert_eq!(replay.refute(&identity, &c2), Some(1));
        // Against C2 = C1 the identity is a witness: never refuted.
        assert_eq!(replay.refute(&identity, &c1), None);
    }

    #[test]
    fn blocking_mode_solves_less_when_witnesses_dominate() {
        // C(x) = x ⊕ 01 against itself under N-N: every input mask is
        // undone by the matching output mask, so 4 of the 16 candidates
        // are witnesses. Blocking mode proves the lot in fewer solves than
        // there are candidates; the replayed sweep pays one UNSAT per
        // witness plus one SAT per distinguishing input it had to find,
        // and refutes every other non-witness by simulation.
        let c = NegationMask::new(0b01, 2).unwrap().to_circuit();
        let miter = FamilyMiter::build(&c, &c, WitnessFamily::BothNegations).unwrap();
        let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(miter.layout.input_hint());
        let mut replay = Counterexamples::new();
        let sweep = sweep_family(&mut solver, &miter.layout, &c, &c, &mut replay, None).unwrap();
        let blocking = enumerate_witnesses_sat_with(
            &c,
            &c,
            WitnessFamily::BothNegations,
            SolverBackend::Cdcl,
            EnumerationStrategy::BlockingClauses,
        )
        .unwrap();
        assert_eq!(sweep.count(), 4, "one valid output mask per input mask");
        assert_eq!(blocking.witnesses, sweep.witnesses);
        assert!(
            blocking.solves < blocking.candidates,
            "blocking ({}) must beat one solve per candidate ({})",
            blocking.solves,
            blocking.candidates
        );
        assert_eq!(
            sweep.solves,
            sweep.count() + replay.len() as u64,
            "every sweep solve is a witness proof or a new distinguishing input"
        );
        assert_eq!(sweep.decided(), sweep.candidates);
        // And the count agrees with the existing truth-table counter.
        let brute =
            crate::matchers::count_witnesses(&c, &c, Equivalence::new(Side::N, Side::N)).unwrap();
        assert_eq!(sweep.count(), brute);
    }

    #[test]
    fn family_miter_rejects_bad_inputs() {
        let a = Circuit::new(3);
        let b = Circuit::new(4);
        assert!(matches!(
            FamilyMiter::build(&a, &b, WitnessFamily::InputNegation),
            Err(MatchError::WidthMismatch { .. })
        ));
        // Encoding caps are wider than enumeration caps: a width-9
        // BothNegations miter encodes (explicit candidate sweeps work)…
        let wide = Circuit::new(9);
        assert!(FamilyMiter::build(&wide, &wide, WitnessFamily::BothNegations).is_ok());
        // …but full-space enumeration at that width is rejected, and the
        // permutation encoding caps at the selector-code packing limit.
        assert!(matches!(
            enumerate_witnesses_sat(&wide, &wide, WitnessFamily::BothNegations),
            Err(MatchError::EnumerationTooWide { .. })
        ));
        let very_wide = Circuit::new(12);
        assert!(matches!(
            FamilyMiter::build(&very_wide, &very_wide, WitnessFamily::InputPermutation),
            Err(MatchError::EnumerationTooWide { .. })
        ));
        let miter = FamilyMiter::build(&a, &a, WitnessFamily::InputNegation)
            .unwrap()
            .layout;
        let perm_candidate =
            MatchWitness::input_permutation(LinePermutation::new(vec![1, 0, 2]).unwrap());
        assert!(matches!(
            miter.assumptions(&perm_candidate),
            Err(MatchError::FamilyMismatch)
        ));
        let narrow = MatchWitness::identity(2);
        assert!(matches!(
            miter.assumptions(&narrow),
            Err(MatchError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn shared_solver_sweep_is_reusable_across_calls() {
        // The serving pattern: one solver, repeated sweeps of the same
        // family — the second sweep must answer identically (and not
        // spend more conflicts than the first).
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let inst = random_instance(Equivalence::new(Side::N, Side::I), 5, &mut rng);
        let miter = FamilyMiter::build(&inst.c1, &inst.c2, WitnessFamily::InputNegation).unwrap();
        let layout = miter.layout;
        let (c1, c2) = (&inst.c1, &inst.c2);
        let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(layout.input_hint());
        let mut replay = Counterexamples::new();
        let cold = sweep_family(&mut solver, &layout, c1, c2, &mut replay, None).unwrap();
        assert!(cold.witnesses.contains(&inst.witness));
        let warm = sweep_family(&mut solver, &layout, c1, c2, &mut replay, None).unwrap();
        assert_eq!(warm.witnesses, cold.witnesses);
        assert_eq!(warm.decided(), cold.decided(), "rounds ignore warmth");
        assert!(
            warm.solves <= cold.solves,
            "a warm replay store never adds solves"
        );
        // A zero budget aborts with Inconclusive instead of guessing —
        // unless the learned state answers every candidate by propagation.
        let mut fresh = CdclSolver::new(&miter.cnf).with_branch_hint(layout.input_hint());
        let mut empty = Counterexamples::new();
        match sweep_family(&mut fresh, &layout, c1, c2, &mut empty, Some(0)) {
            Err(MatchError::Inconclusive) => {}
            Ok(out) => assert_eq!(out.witnesses, cold.witnesses),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
