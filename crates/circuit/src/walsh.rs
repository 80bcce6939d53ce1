//! Walsh–Hadamard spectra and matching-invariant signatures.
//!
//! Classic Boolean-matching flows (paper refs \[1, 6, 8\]) prune candidate
//! pairs with *signatures*: cheap function invariants that any equivalent
//! pair must share. For reversible circuits the right invariant family
//! comes from the Walsh spectrum of each output bit:
//!
//! * input negation `ν_x` multiplies coefficients by `(−1)^{ω·ν}` —
//!   absolute values are untouched;
//! * input permutation `π_x` permutes the frequency index `ω` — the
//!   coefficient *multiset* is untouched;
//! * output negation flips the sign of a whole spectrum;
//! * output permutation permutes whole spectra.
//!
//! Hence the multiset of sorted absolute spectra (one per output bit) is
//! invariant under **all sixteen** X-Y equivalences: a mismatch proves
//! non-equivalence before any oracle query or search is spent.

use std::hash::{DefaultHasher, Hash, Hasher};

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::truth_table::TruthTable;

/// The Walsh spectrum of output bit `bit`: `W(ω) = Σ_x (−1)^{f_bit(x) ⊕ ω·x}`
/// computed with the fast Walsh–Hadamard transform in `O(n·2^n)`.
///
/// # Panics
///
/// Panics if `bit >= table.width()`.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{walsh_spectrum, TruthTable};
///
/// // f(x) = x0 on one line: perfectly correlated with ω = 1.
/// let tt = TruthTable::identity(1);
/// assert_eq!(walsh_spectrum(&tt, 0), vec![0, 2]);
/// ```
pub fn walsh_spectrum(table: &TruthTable, bit: usize) -> Vec<i64> {
    assert!(bit < table.width());
    let mut spec = Vec::new();
    spectrum_into(table.entries(), bit, &mut spec);
    spec
}

/// Fills `spec` with the Walsh spectrum of output bit `bit` of the raw
/// table `entries`, reusing its allocation.
fn spectrum_into(entries: &[u64], bit: usize, spec: &mut Vec<i64>) {
    spec.clear();
    spec.extend(
        entries
            .iter()
            .map(|&y| if (y >> bit) & 1 == 1 { -1 } else { 1 }),
    );
    // In-place fast Walsh–Hadamard transform.
    let size = spec.len();
    let mut h = 1;
    while h < size {
        let mut i = 0;
        while i < size {
            for j in i..i + h {
                let (a, b) = (spec[j], spec[j + h]);
                spec[j] = a + b;
                spec[j + h] = a - b;
            }
            i += 2 * h;
        }
        h *= 2;
    }
}

/// Fills `spec` with the sorted absolute Walsh spectrum of output bit
/// `bit` of `entries`: one entry of a [`MatchSignature`].
fn sorted_abs_spectrum_into(entries: &[u64], bit: usize, spec: &mut Vec<i64>) {
    spectrum_into(entries, bit, spec);
    for w in spec.iter_mut() {
        *w = w.abs();
    }
    spec.sort_unstable();
}

/// A 64-bit digest of the [`MatchSignature`] of the table `entries`
/// (`entries[x] = f(x)` over all `2^n` inputs), streamed one output bit
/// at a time: only one spectrum (`8·2^n` bytes) is live, where the full
/// signature holds `n` of them.
///
/// Equal signatures give equal digests, so unequal digests prove the
/// tables are not X-Y equivalent under any class. A 64-bit collision
/// can let a non-equivalent pair through; callers that act on equal
/// digests must still validate what they find.
///
/// # Panics
///
/// Panics if `entries.len()` is not a power of two.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{signature_digest, Circuit, Gate};
///
/// let toffoli = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let id = Circuit::new(3).truth_table()?;
/// assert_ne!(signature_digest(toffoli.truth_table()?.entries()), signature_digest(id.entries()));
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
pub fn signature_digest(entries: &[u64]) -> u64 {
    assert!(entries.len().is_power_of_two(), "a table covers 2^n inputs");
    let width = entries.len().trailing_zeros() as usize;
    let mut spec = Vec::with_capacity(entries.len());
    let mut hashes: Vec<u64> = (0..width)
        .map(|bit| {
            sorted_abs_spectrum_into(entries, bit, &mut spec);
            let mut hasher = DefaultHasher::new();
            spec.hash(&mut hasher);
            hasher.finish()
        })
        .collect();
    // Sorted, like the signature's spectra: output-bit order drops out.
    hashes.sort_unstable();
    let mut hasher = DefaultHasher::new();
    hashes.hash(&mut hasher);
    hasher.finish()
}

/// A matching-invariant signature: per output bit, the sorted absolute
/// Walsh spectrum; the per-bit signatures themselves sorted.
///
/// Two circuits equivalent under **any** X-Y condition have equal
/// signatures, so unequal signatures refute every class at once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatchSignature {
    spectra: Vec<Vec<u64>>,
}

impl MatchSignature {
    /// Computes the signature of a truth table.
    pub fn of_table(table: &TruthTable) -> Self {
        let mut spectra: Vec<Vec<u64>> = (0..table.width())
            .map(|bit| {
                let mut abs = Vec::new();
                sorted_abs_spectrum_into(table.entries(), bit, &mut abs);
                abs.into_iter().map(i64::unsigned_abs).collect()
            })
            .collect();
        spectra.sort();
        Self { spectra }
    }

    /// Computes the signature of a circuit (extracts the truth table).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthTooLarge`] past
    /// [`TruthTable::MAX_WIDTH`].
    pub fn of_circuit(circuit: &Circuit) -> Result<Self, CircuitError> {
        Ok(Self::of_table(&circuit.truth_table()?))
    }

    /// The sorted per-output absolute spectra.
    pub fn spectra(&self) -> &[Vec<u64>] {
        &self.spectra
    }
}

/// Quick necessary condition for X-Y matchability (any class): equal
/// signatures. `false` **proves** the circuits are not equivalent under
/// any negation/permutation condition; `true` is inconclusive.
///
/// # Errors
///
/// Returns [`CircuitError::WidthMismatch`] on width disagreement or
/// [`CircuitError::WidthTooLarge`] for tables that cannot materialize.
///
/// Note the filter cannot separate *linear* circuits (CNOT networks):
/// every XOR-of-inputs output bit has the same flat spectrum as a wire,
/// so all linear reversible functions share the identity's signature.
/// Nonlinear gates (Toffoli and up) do get separated.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{signatures_compatible, Circuit, Gate};
///
/// let toffoli = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let id = Circuit::new(3);
/// // A Toffoli is not any relabeling of the identity…
/// assert!(!signatures_compatible(&toffoli, &id)?);
/// // …but a (linear) CNOT is spectrally indistinguishable from it.
/// let cnot = Circuit::from_gates(3, [Gate::cnot(0, 1)])?;
/// assert!(signatures_compatible(&cnot, &id)?);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
pub fn signatures_compatible(c1: &Circuit, c2: &Circuit) -> Result<bool, CircuitError> {
    if c1.width() != c2.width() {
        return Err(CircuitError::WidthMismatch {
            left: c1.width(),
            right: c2.width(),
        });
    }
    Ok(MatchSignature::of_circuit(c1)? == MatchSignature::of_circuit(c2)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::transform::{LinePermutation, NegationMask, NpTransform};
    use rand::SeedableRng;

    #[test]
    fn spectrum_of_constant_like_bits() {
        // On the 2-line identity, bit b = x_b correlates only with ω = e_b,
        // and Parseval holds: Σ W² = 2^{2n}.
        let tt = TruthTable::identity(2);
        assert_eq!(walsh_spectrum(&tt, 0), vec![0, 4, 0, 0]);
        assert_eq!(walsh_spectrum(&tt, 1), vec![0, 0, 4, 0]);
        for bit in 0..2 {
            let spec = walsh_spectrum(&tt, bit);
            let energy: i64 = spec.iter().map(|w| w * w).sum();
            assert_eq!(energy, 16, "Parseval for bit {bit}");
        }
    }

    #[test]
    fn parseval_holds_for_random_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for w in 1..=6 {
            let tt = TruthTable::random(w, &mut rng);
            for bit in 0..w {
                let spec = walsh_spectrum(&tt, bit);
                let energy: i64 = spec.iter().map(|x| x * x).sum();
                assert_eq!(energy, 1i64 << (2 * w), "width {w} bit {bit}");
            }
        }
    }

    #[test]
    fn spectrum_matches_definition_on_small_cases() {
        // Brute-force definition cross-check at width 3.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let tt = TruthTable::random(3, &mut rng);
        for bit in 0..3 {
            let fast = walsh_spectrum(&tt, bit);
            for omega in 0..8u64 {
                let slow: i64 = (0..8u64)
                    .map(|x| {
                        let f = (tt.apply(x) >> bit) & 1;
                        let dot = (omega & x).count_ones() as u64 & 1;
                        if (f ^ dot) & 1 == 1 {
                            -1
                        } else {
                            1
                        }
                    })
                    .sum();
                assert_eq!(fast[omega as usize], slow, "bit {bit} omega {omega}");
            }
        }
    }

    #[test]
    fn signature_invariant_under_all_transforms() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let base = crate::random::random_function_circuit(4, &mut rng);
            let sig = MatchSignature::of_circuit(&base).unwrap();
            // Wrap with random input and output NP transforms.
            let t_in = NpTransform::random(4, &mut rng);
            let t_out = NpTransform::random(4, &mut rng);
            let wrapped = t_in
                .to_circuit()
                .then(&base)
                .unwrap()
                .then(&t_out.to_circuit())
                .unwrap();
            assert_eq!(
                MatchSignature::of_circuit(&wrapped).unwrap(),
                sig,
                "signature changed under ({t_in}, {t_out})"
            );
        }
    }

    #[test]
    fn signature_separates_most_random_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut separated = 0;
        let trials = 20;
        for _ in 0..trials {
            let a = crate::random::random_function_circuit(4, &mut rng);
            let b = crate::random::random_function_circuit(4, &mut rng);
            if !signatures_compatible(&a, &b).unwrap() {
                separated += 1;
            }
        }
        assert!(
            separated > trials / 2,
            "filter separated only {separated}/{trials} random pairs"
        );
    }

    /// Digest of a circuit's signature, streamed from its truth table.
    fn digest(c: &Circuit) -> u64 {
        signature_digest(c.truth_table().unwrap().entries())
    }

    #[test]
    fn digest_equality_agrees_with_signatures_compatible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut equal = 0;
        let mut unequal = 0;
        for w in 1..=6 {
            for _ in 0..20 {
                let a = crate::random::random_function_circuit(w, &mut rng);
                // An unrelated pair, and a transformed copy of `a`.
                let b = crate::random::random_function_circuit(w, &mut rng);
                let copy = NpTransform::random(w, &mut rng)
                    .to_circuit()
                    .then(&a)
                    .unwrap()
                    .then(&NpTransform::random(w, &mut rng).to_circuit())
                    .unwrap();
                for other in [&b, &copy] {
                    let compatible = signatures_compatible(&a, other).unwrap();
                    assert_eq!(digest(&a) == digest(other), compatible, "width {w}");
                    if compatible {
                        equal += 1;
                    } else {
                        unequal += 1;
                    }
                }
                assert_eq!(digest(&a), digest(&copy), "transformed copy, width {w}");
            }
        }
        assert!(equal > 0 && unequal > 0, "{equal} equal, {unequal} unequal");
        let toffoli = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)]).unwrap();
        assert_ne!(digest(&toffoli), digest(&Circuit::new(3)));
    }

    #[test]
    fn compatible_requires_same_width() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(signatures_compatible(&a, &b).is_err());
    }

    #[test]
    fn pure_transform_circuits_all_share_a_signature() {
        // All ν/π-only circuits are relabelings of the identity.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let id_sig = MatchSignature::of_circuit(&Circuit::new(3)).unwrap();
        for _ in 0..10 {
            let t = NpTransform::new(
                NegationMask::random(3, &mut rng),
                LinePermutation::random(3, &mut rng),
            )
            .unwrap();
            assert_eq!(MatchSignature::of_circuit(&t.to_circuit()).unwrap(), id_sig);
        }
        // But a Toffoli is not.
        let toffoli = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)]).unwrap();
        assert_ne!(MatchSignature::of_circuit(&toffoli).unwrap(), id_sig);
    }
}
