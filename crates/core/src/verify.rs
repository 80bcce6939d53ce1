//! Witness verification: the single-round equivalence check.
//!
//! The paper's §3 observes that solving the *promise* problem suffices for
//! the general one: with candidate conditions in hand, one round of
//! equivalence checking validates them. This module is that round.

use rand::Rng;
use revmatch_circuit::{width_mask, Circuit};

use crate::error::MatchError;
use crate::witness::MatchWitness;

/// How thoroughly to check a witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Check all `2^n` inputs (exact; `n <= 24`).
    Exhaustive,
    /// Check this many uniformly random inputs (Monte-Carlo; no false
    /// rejections, false acceptance probability `(1 - d)^k` for functions
    /// differing on a fraction `d` of inputs).
    Sampled(usize),
}

/// Checks whether `C1 = output ∘ C2 ∘ input` for the witness.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] if widths are inconsistent.
///
/// # Examples
///
/// ```
/// use revmatch::{check_witness, MatchWitness, VerifyMode};
/// use revmatch_circuit::{Circuit, Gate};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let c = Circuit::from_gates(2, [Gate::cnot(0, 1)])?;
/// let w = MatchWitness::identity(2);
/// assert!(check_witness(&c, &c, &w, VerifyMode::Exhaustive, &mut rng)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_witness(
    c1: &Circuit,
    c2: &Circuit,
    witness: &MatchWitness,
    mode: VerifyMode,
    rng: &mut impl Rng,
) -> Result<bool, MatchError> {
    if c1.width() != c2.width() {
        return Err(MatchError::WidthMismatch {
            left: c1.width(),
            right: c2.width(),
        });
    }
    if c1.width() != witness.width() {
        return Err(MatchError::WidthMismatch {
            left: c1.width(),
            right: witness.width(),
        });
    }
    let n = c1.width();
    let inputs: Vec<u64> = match mode {
        VerifyMode::Exhaustive => {
            assert!(n <= 24, "exhaustive verification limited to 24 lines");
            (0..1u64 << n).collect()
        }
        VerifyMode::Sampled(k) => {
            let mask = width_mask(n);
            (0..k).map(|_| rng.gen::<u64>() & mask).collect()
        }
    };
    // Both sides run through the bit-sliced batch evaluator: C1 directly,
    // C2 inside the witness sandwich (input transform, C2, output
    // transform are each cheap table/mask operations around the batch).
    let lhs = c1.apply_batch(&inputs);
    let transformed: Vec<u64> = inputs.iter().map(|&x| witness.input.apply(x)).collect();
    let mid = c2.apply_batch(&transformed);
    Ok(lhs
        .iter()
        .zip(&mid)
        .all(|(&l, &m)| l == witness.output.apply(m)))
}

/// [`check_witness`] over the pair's truth tables (`t1[x] = C1(x)`,
/// `t2[x] = C2(x)`): each input is one lookup per side, and the scan
/// stops at the first disagreement. Verdicts equal [`check_witness`]'s,
/// and `Sampled(k)` draws the same `k` values from `rng` even after a
/// mismatch, so callers see the same RNG stream either way.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] if the witness width disagrees
/// with the tables.
///
/// # Panics
///
/// Panics if the tables differ in length or their length is not a
/// power of two.
pub(crate) fn check_witness_tables(
    t1: &[u64],
    t2: &[u64],
    witness: &MatchWitness,
    mode: VerifyMode,
    rng: &mut impl Rng,
) -> Result<bool, MatchError> {
    let n = t1.len().trailing_zeros() as usize;
    assert!(
        t1.len().is_power_of_two() && t1.len() == t2.len(),
        "tables must cover 2^n inputs"
    );
    if witness.width() != n {
        return Err(MatchError::WidthMismatch {
            left: n,
            right: witness.width(),
        });
    }
    let holds =
        |x: u64| t1[x as usize] == witness.output.apply(t2[witness.input.apply(x) as usize]);
    Ok(match mode {
        VerifyMode::Exhaustive => (0..1u64 << n).all(holds),
        VerifyMode::Sampled(k) => {
            let mask = width_mask(n);
            let mut ok = true;
            for _ in 0..k {
                let x = rng.gen::<u64>() & mask;
                ok = ok && holds(x);
            }
            ok
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{Equivalence, Side};
    use crate::promise::random_instance;
    use rand::SeedableRng;
    use revmatch_circuit::{Gate, NegationMask, NpTransform};

    #[test]
    fn accepts_planted_witnesses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for e in Equivalence::all() {
            let inst = random_instance(e, 4, &mut rng);
            assert!(
                check_witness(
                    &inst.c1,
                    &inst.c2,
                    &inst.witness,
                    VerifyMode::Exhaustive,
                    &mut rng
                )
                .unwrap(),
                "planted witness rejected for {e}"
            );
        }
    }

    #[test]
    fn rejects_wrong_witness() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let c1 = Circuit::from_gates(3, [Gate::not(0)]).unwrap();
        let c2 = Circuit::new(3);
        // The correct witness negates line 0; the identity one is wrong.
        let w = MatchWitness::identity(3);
        assert!(!check_witness(&c1, &c2, &w, VerifyMode::Exhaustive, &mut rng).unwrap());
        // The correct one passes.
        let right = MatchWitness::output_only(
            NpTransform::new(
                NegationMask::new(0b1, 3).unwrap(),
                revmatch_circuit::LinePermutation::identity(3),
            )
            .unwrap(),
        );
        assert!(check_witness(&c1, &c2, &right, VerifyMode::Exhaustive, &mut rng).unwrap());
    }

    #[test]
    fn sampled_mode_accepts_and_rejects() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let inst = random_instance(Equivalence::new(Side::Np, Side::Np), 6, &mut rng);
        assert!(check_witness(
            &inst.c1,
            &inst.c2,
            &inst.witness,
            VerifyMode::Sampled(64),
            &mut rng
        )
        .unwrap());
        // A fresh random witness almost surely fails on 64 samples.
        let wrong = MatchWitness {
            input: NpTransform::random(6, &mut rng),
            output: NpTransform::random(6, &mut rng),
        };
        let ok = check_witness(
            &inst.c1,
            &inst.c2,
            &wrong,
            VerifyMode::Sampled(64),
            &mut rng,
        )
        .unwrap();
        assert!(!ok, "random witness accepted (astronomically unlikely)");
    }

    /// `t` with negation bit `line` flipped.
    fn flip_negation(t: &NpTransform, line: usize) -> NpTransform {
        let nu = NegationMask::new(t.negation().mask() ^ (1 << line), t.width()).unwrap();
        NpTransform::new(nu, t.permutation().clone()).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Table validation is pinned to `check_witness`: planted
        /// witnesses and one-bit corruptions of them get the same
        /// verdict in both modes, and the RNG ends in the same state.
        #[test]
        fn table_validation_matches_check_witness(
            seed in proptest::prelude::any::<u64>(),
            w in 1usize..=8,
            samples in 1usize..=64,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let classes: Vec<Equivalence> = Equivalence::all().collect();
            let e = classes[(seed % classes.len() as u64) as usize];
            let inst = random_instance(e, w, &mut rng);
            let t1 = inst.c1.truth_table().unwrap();
            let t2 = inst.c2.truth_table().unwrap();
            let line = rng.gen_range(0..w);
            let planted = inst.witness.clone();
            let input_flipped = MatchWitness {
                input: flip_negation(&planted.input, line),
                output: planted.output.clone(),
            };
            let output_flipped = MatchWitness {
                input: planted.input.clone(),
                output: flip_negation(&planted.output, line),
            };
            for witness in [&planted, &input_flipped, &output_flipped] {
                for mode in [VerifyMode::Exhaustive, VerifyMode::Sampled(samples)] {
                    let mut gate_rng = rand::rngs::StdRng::seed_from_u64(!seed);
                    let mut table_rng = rand::rngs::StdRng::seed_from_u64(!seed);
                    let gate =
                        check_witness(&inst.c1, &inst.c2, witness, mode, &mut gate_rng).unwrap();
                    let table = check_witness_tables(
                        t1.entries(), t2.entries(), witness, mode, &mut table_rng,
                    ).unwrap();
                    proptest::prop_assert_eq!(gate, table, "{} {:?}", e, mode);
                    proptest::prop_assert_eq!(gate_rng.gen::<u64>(), table_rng.gen::<u64>());
                }
            }
            // A flipped output negation changes C1's prediction on every
            // input, so the corrupted witness must be rejected outright.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            proptest::prop_assert!(!check_witness_tables(
                t1.entries(), t2.entries(), &output_flipped, VerifyMode::Exhaustive, &mut rng,
            ).unwrap());
        }
    }

    #[test]
    fn width_mismatch_is_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let c2 = Circuit::new(2);
        let c3 = Circuit::new(3);
        let w = MatchWitness::identity(2);
        assert!(check_witness(&c3, &c2, &w, VerifyMode::Exhaustive, &mut rng).is_err());
        assert!(check_witness(
            &c2,
            &c2,
            &MatchWitness::identity(3),
            VerifyMode::Exhaustive,
            &mut rng
        )
        .is_err());
        let table = c2.truth_table().unwrap();
        assert!(check_witness_tables(
            table.entries(),
            table.entries(),
            &MatchWitness::identity(3),
            VerifyMode::Exhaustive,
            &mut rng
        )
        .is_err());
    }
}
