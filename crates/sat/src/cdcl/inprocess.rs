//! Bounded inprocessing: occurrence-list subsumption and self-subsuming
//! resolution between solve calls.
//!
//! Long-lived solvers (the serving layer's per-shard cache, family
//! sweeps) accumulate thousands of learned clauses across calls; many
//! are supersets of later, sharper lemmas and only slow propagation
//! down. Between calls — at level 0, where every assignment is a
//! permanent fact and no clause is a reason — this pass walks the
//! database with literal occurrence lists and:
//!
//! * **subsumption**: deletes any clause `D ⊇ C` (the subset `C` alone
//!   already forbids everything `D` forbids);
//! * **self-subsuming resolution**: when `C \ {l} ⊆ D` and `¬l ∈ D`,
//!   removes `¬l` from `D` — the strengthened `D` is the resolvent of
//!   `C` and `D` on `l`, so it is implied *and* reverse-unit-propagation
//!   derivable, which keeps DRAT logs valid (add the strengthened
//!   clause, then delete the original).
//!
//! The pass is budgeted in literal visits ([`INPROC_BUDGET`]) so a call
//! never stalls the serving path: occurrence-list construction is one
//! linear sweep, and the quadratic candidate scans stop when the budget
//! runs dry.
//!
//! The cadence is conflict-driven: the first solve call always runs a
//! pass (catching cold one-shot solves), and later calls run one only
//! once [`INPROC_CONFLICTS`] conflicts have been learned since the last
//! pass. Learned clauses are what the pass simplifies, so a warm solver
//! answering by propagation alone has nothing new to offer it — and a
//! pass would cost it an occurrence-list rebuild plus the backtrack to
//! level 0 that discards the reusable assumption prefix.
//!
//! Because clause deletion and strengthening both preserve
//! logical equivalence, incremental assumption semantics, later
//! [`CdclSolver::analyze_final`] cores, and the XOR layer's rows (linear
//! combinations of implied parities) all stay sound.

use std::time::Instant;

use super::{CdclSolver, GLUE_LBD, VAL_FALSE, VAL_TRUE};

/// Conflicts learned since the last pass before another one runs (the
/// first solve call always simplifies, catching cold one-shot solves).
const INPROC_CONFLICTS: usize = 2_000;
/// Literal visits allowed per pass across all candidate scans.
const INPROC_BUDGET: i64 = 200_000;

impl CdclSolver {
    /// Whether the cadence calls for a pass before the current solve
    /// call: on the first call, then after [`INPROC_CONFLICTS`]
    /// conflicts since the last pass.
    pub(super) fn inprocess_due(&self) -> bool {
        self.opts.inproc && (self.solves == 1 || self.inproc_conflicts >= INPROC_CONFLICTS)
    }

    /// One subsumption + self-subsuming-resolution pass — see the
    /// [module docs](self).
    pub(super) fn inprocess(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let t0 = Instant::now();
        self.inproc_runs += 1;
        self.inproc_conflicts = 0;
        // Settle level-0 propagation first; a conflict here refutes the
        // formula outright.
        if self.propagate().is_some() {
            self.ok = false;
            self.inproc_micros += t0.elapsed().as_micros() as u64;
            return;
        }
        // Level-0 facts need no reasons, and clearing them frees every
        // clause for deletion (reduce_db does the same).
        for i in 0..self.trail.len() {
            let v = self.trail[i].var();
            self.reason[v] = None;
        }

        // Occurrence lists over live, not-yet-satisfied clauses. Clauses
        // satisfied at level 0 are inert: they neither subsume (their
        // true literal never matches) nor need strengthening.
        let n_clauses = self.clauses.len();
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); 2 * self.num_vars];
        let mut indexed = vec![false; n_clauses];
        let mut alive = vec![true; n_clauses];
        for (ci, idx) in indexed.iter_mut().enumerate() {
            let (start, len) = {
                let m = &self.clauses[ci];
                (m.start as usize, m.len as usize)
            };
            let satisfied = self.arena[start..start + len]
                .iter()
                .any(|&l| self.lit_value(l) == VAL_TRUE);
            if satisfied {
                continue;
            }
            *idx = true;
            for k in 0..len {
                occ[self.arena[start + k].idx()].push(ci as u32);
            }
        }

        // Short clauses first: they are the strongest subsumers and the
        // budget should go to them.
        let mut order: Vec<usize> = (0..n_clauses).filter(|&ci| indexed[ci]).collect();
        order.sort_by_key(|&ci| self.clauses[ci].len);

        let mut marked = vec![false; 2 * self.num_vars];
        let mut budget = INPROC_BUDGET;
        let mut changed = false;
        'clauses: for &ci in &order {
            if budget <= 0 || !self.ok {
                break;
            }
            if !alive[ci] {
                continue;
            }
            let (c_start, c_len) = {
                let m = &self.clauses[ci];
                (m.start as usize, m.len as usize)
            };
            for k in 0..c_len {
                marked[self.arena[c_start + k].idx()] = true;
            }

            // Subsumption through the cheapest occurrence list of C.
            let pivot = (0..c_len)
                .map(|k| self.arena[c_start + k])
                .min_by_key(|l| occ[l.idx()].len())
                .expect("clause records are never empty");
            for &dref in &occ[pivot.idx()] {
                if budget <= 0 {
                    break;
                }
                let d = dref as usize;
                if d == ci || !alive[d] {
                    continue;
                }
                let (d_start, d_len) = {
                    let m = &self.clauses[d];
                    (m.start as usize, m.len as usize)
                };
                if d_len < c_len {
                    continue;
                }
                budget -= d_len as i64;
                let matched = self.arena[d_start..d_start + d_len]
                    .iter()
                    .filter(|l| marked[l.idx()])
                    .count();
                if matched == c_len {
                    // C ⊆ D: D is redundant.
                    let lits = self.arena[d_start..d_start + d_len].to_vec();
                    self.proof_delete(&lits);
                    alive[d] = false;
                    changed = true;
                    self.inproc_subsumed += 1;
                    if self.clauses[d].learned {
                        self.learned_clauses -= 1;
                        if self.opts.lbd && self.clauses[d].lbd <= GLUE_LBD {
                            self.glue_clauses -= 1;
                        }
                    }
                }
            }

            // Self-subsuming resolution on each literal of C.
            for k in 0..c_len {
                if budget <= 0 {
                    break;
                }
                let l = self.arena[c_start + k];
                let neg = l.negated();
                for &dref in &occ[neg.idx()] {
                    if budget <= 0 {
                        break;
                    }
                    let d = dref as usize;
                    if d == ci || !alive[d] {
                        continue;
                    }
                    let (d_start, d_len) = {
                        let m = &self.clauses[d];
                        (m.start as usize, m.len as usize)
                    };
                    if d_len < c_len {
                        continue;
                    }
                    budget -= d_len as i64;
                    // C \ {l} ⊆ D and ¬l ∈ D ⇒ drop ¬l from D. The ¬l
                    // membership is re-verified because occurrence lists
                    // go stale as clauses shrink.
                    let mut matched = 0;
                    let mut neg_at = None;
                    for j in 0..d_len {
                        let q = self.arena[d_start + j];
                        if q == neg {
                            neg_at = Some(j);
                        } else if marked[q.idx()] && q != l {
                            matched += 1;
                        }
                    }
                    let Some(neg_at) = neg_at else { continue };
                    if matched < c_len - 1 {
                        continue;
                    }
                    // Emit the strengthened clause before mutating.
                    let mut new_lits = self.arena[d_start..d_start + d_len].to_vec();
                    new_lits.swap_remove(neg_at);
                    self.proof_add(&new_lits);
                    let old_lits = self.arena[d_start..d_start + d_len].to_vec();
                    self.proof_delete(&old_lits);
                    self.arena.swap(d_start + neg_at, d_start + d_len - 1);
                    self.clauses[d].len -= 1;
                    self.inproc_strengthened += 1;
                    changed = true;
                    if d_len - 1 == 1 {
                        // Strengthened to a unit: move it to the trail
                        // and drop the record.
                        let u = self.arena[d_start];
                        alive[d] = false;
                        if self.clauses[d].learned {
                            self.learned_clauses -= 1;
                            if self.opts.lbd && self.clauses[d].lbd <= GLUE_LBD {
                                self.glue_clauses -= 1;
                            }
                        }
                        match self.lit_value(u) {
                            VAL_TRUE => {}
                            VAL_FALSE => {
                                self.ok = false;
                                break 'clauses;
                            }
                            _ => self.enqueue(u, None),
                        }
                    }
                }
            }

            for k in 0..c_len {
                marked[self.arena[c_start + k].idx()] = false;
            }
        }

        if changed {
            let drop_flag: Vec<bool> = alive.iter().map(|&a| !a).collect();
            self.compact(&drop_flag);
            self.rebuild_watches();
        }
        self.inproc_micros += t0.elapsed().as_micros() as u64;
    }
}

#[cfg(test)]
mod tests {
    use crate::cnf::{Clause, Cnf, Lit, Var};
    use crate::options::SatOptions;
    use crate::solver::Solve;
    use crate::CdclSolver;

    fn lit(v: i64) -> Lit {
        let var = Var((v.unsigned_abs() as usize) - 1);
        if v < 0 {
            Lit::negative(var)
        } else {
            Lit::positive(var)
        }
    }

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut f = Cnf::new(0);
        for c in clauses {
            f.add_clause(Clause::new(c.iter().map(|&v| lit(v)).collect()));
        }
        f
    }

    #[test]
    fn subsumption_deletes_supersets() {
        // (x1 ∨ x2) subsumes (x1 ∨ x2 ∨ x3) and (x1 ∨ x2 ∨ ¬x4).
        let f = cnf(&[&[1, 2], &[1, 2, 3], &[1, 2, -4], &[3, 4]]);
        let mut s = CdclSolver::new(&f).with_options(SatOptions {
            lbd: false,
            inproc: true,
            xor: false,
        });
        let solve = s.solve();
        assert!(solve.is_sat() && f.eval(solve.witness().unwrap()));
        assert_eq!(s.subsumed_clauses(), 2);
        assert_eq!(s.inprocess_runs(), 1);
    }

    #[test]
    fn self_subsumption_strengthens_in_place() {
        // (x1 ∨ x2) with (¬x1 ∨ x2 ∨ x3): resolving on x1 gives
        // (x2 ∨ x3) ⊂ the second clause, so its ¬x1 is removed.
        let f = cnf(&[&[1, 2], &[-1, 2, 3], &[-2, -3]]);
        let mut s = CdclSolver::new(&f).with_options(SatOptions {
            lbd: false,
            inproc: true,
            xor: false,
        });
        let solve = s.solve();
        assert!(solve.is_sat() && f.eval(solve.witness().unwrap()));
        assert!(s.strengthened_clauses() >= 1, "no strengthening happened");
    }

    #[test]
    fn strengthening_to_a_unit_refutes_or_propagates() {
        // (x1 ∨ x2) and (¬x1 ∨ x2) strengthen to the unit x2; with ¬x2
        // the formula is UNSAT and inprocessing alone finds it.
        let f = cnf(&[&[1, 2], &[-1, 2], &[-2]]);
        let mut s = CdclSolver::new(&f).with_options(SatOptions {
            lbd: false,
            inproc: true,
            xor: false,
        });
        assert_eq!(s.solve(), Solve::Unsat);
    }

    #[test]
    fn verdicts_match_the_plain_core_with_inprocessing_on() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for round in 0..60 {
            let n = rng.gen_range(2..=8);
            let m = rng.gen_range(1..=30);
            let mut f = Cnf::new(n);
            for _ in 0..m {
                let k = rng.gen_range(1..=3);
                let lits = (0..k)
                    .map(|_| {
                        let v = Var(rng.gen_range(0..n));
                        if rng.gen_bool(0.5) {
                            Lit::positive(v)
                        } else {
                            Lit::negative(v)
                        }
                    })
                    .collect();
                f.add_clause(Clause::new(lits));
            }
            let plain = CdclSolver::new(&f).with_options(SatOptions::NONE).solve();
            let inproc = CdclSolver::new(&f)
                .with_options(SatOptions {
                    lbd: false,
                    inproc: true,
                    xor: false,
                })
                .solve();
            assert_eq!(plain.is_sat(), inproc.is_sat(), "round {round}: {f}");
            if let Some(w) = inproc.witness() {
                assert!(f.eval(w), "round {round}: bogus model for {f}");
            }
        }
    }
}
