//! Answer and accounting checks, run outside every timed region.

use std::collections::HashMap;

use rand::SeedableRng;
use revmatch::{
    check_witness, count_witnesses, write_server_frame, JobKind, JobReport, MiterVerdict,
    ServerFrame, VerifyMode,
};

use crate::client::{LoopRun, Refusal, Status};
use crate::workload::Item;

/// Witnesses of circuits up to this width are checked on every input;
/// wider ones on a fixed sample.
const EXHAUSTIVE_MAX_WIDTH: usize = 12;
const SAMPLED_INPUTS: usize = 4096;
/// Enumerate counts are compared with the brute-force count on this
/// many distinct pool items per run.
const COUNTED_ITEMS: usize = 8;

/// Client-side accounting over a set of loops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub offered: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub lost: u64,
}

impl Tally {
    pub fn of<'a>(runs: impl IntoIterator<Item = &'a LoopRun>) -> Self {
        let mut t = Tally::default();
        for run in runs {
            for r in &run.records {
                t.offered += 1;
                match r.status {
                    Status::Refused(Refusal::QueueFull) => t.rejected += 1,
                    Status::Refused(Refusal::Shed) => t.shed += 1,
                    Status::Pending => t.lost += 1,
                    Status::Answered => t.completed += 1,
                    Status::Failed => t.failed += 1,
                }
            }
        }
        t
    }

    /// Jobs not answered: failed, refused or lost.
    pub fn unanswered(&self) -> u64 {
        self.failed + self.rejected + self.shed + self.lost
    }
}

/// Checks every distinct answer the loops received against its pool
/// item's planted facts (a repeated answer is the same bytes, so one
/// check covers every job that returned it). Returns one message per
/// wrong answer (empty when all are right).
pub fn check_answers<'a>(
    pool: &[Item],
    runs: impl IntoIterator<Item = &'a LoopRun>,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4EC);
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for run in runs {
        for (index, report) in &run.answers {
            let item = &pool[*index as usize];
            if let Err(e) = check_report(item, report, &mut rng, &mut counts) {
                errors.push(format!("pool item {index}: {e}"));
            }
        }
    }
    errors
}

/// Checks one answer on its own.
pub fn check_answer(pool: &[Item], index: usize, report: &JobReport) -> Result<(), String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4EC);
    check_report(&pool[index], report, &mut rng, &mut HashMap::new())
}

fn check_report(
    item: &Item,
    report: &JobReport,
    rng: &mut rand::rngs::StdRng,
    counts: &mut HashMap<usize, u64>,
) -> Result<(), String> {
    let planted = &item.planted;
    if report.kind != planted.kind {
        return Err(format!("kind {} for a {} job", report.kind, planted.kind));
    }
    let witness = report
        .witness
        .as_ref()
        .map_err(|e| format!("no witness: {e}"))?;
    let (c1, c2) = item.circuits();
    let mode = if c1.width() <= EXHAUSTIVE_MAX_WIDTH {
        VerifyMode::Exhaustive
    } else {
        VerifyMode::Sampled(SAMPLED_INPUTS)
    };
    if !check_witness(c1, c2, witness, mode, rng).map_err(|e| e.to_string())? {
        return Err("witness fails check_witness".into());
    }
    match planted.kind {
        JobKind::Promise | JobKind::Identify if report.queries != report.charged_queries => {
            return Err(format!(
                "queries {} != charged {}",
                report.queries, report.charged_queries
            ));
        }
        JobKind::Identify => match report.identified {
            Some(found) if planted.equivalence.subsumes(found) => {}
            other => {
                return Err(format!(
                    "identified {other:?}, coarser than planted {}",
                    planted.equivalence
                ))
            }
        },
        JobKind::Sat if !matches!(report.miter, Some(MiterVerdict::Equivalent)) => {
            return Err(format!(
                "sat verdict {:?} on the planted witness",
                report.miter
            ));
        }
        JobKind::Enumerate => {
            let found = report.witness_count.unwrap_or(0);
            if found < 1 {
                return Err("enumeration found no witness".into());
            }
            let key = std::ptr::from_ref(item) as usize;
            if counts.len() < COUNTED_ITEMS || counts.contains_key(&key) {
                let expected = match counts.get(&key) {
                    Some(&n) => n,
                    None => {
                        let n = count_witnesses(c1, c2, planted.equivalence)
                            .map_err(|e| e.to_string())?;
                        counts.insert(key, n);
                        n
                    }
                };
                if found != expected {
                    return Err(format!("enumerated {found}, brute force counts {expected}"));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// The report's wire encoding with its timing zeroed: two reports of
/// the same `(job, seed)` must encode to the same bytes.
pub fn answer_bytes(report: &JobReport) -> Vec<u8> {
    let mut report = report.clone();
    report.timing = Default::default();
    let mut out = Vec::new();
    write_server_frame(
        &mut out,
        &ServerFrame::Report {
            client_id: 0,
            report,
        },
    )
    .expect("writing to a Vec cannot fail");
    out
}

/// Accounting invariants for a transport's loops: every offered job is
/// completed, failed, refused or shed — none lost.
pub fn check_accounting(t: &Tally) -> Vec<String> {
    let mut errors = Vec::new();
    if t.offered != t.completed + t.failed + t.rejected + t.shed {
        errors.push(format!(
            "offered {} != completed {} + failed {} + rejected {} + shed {} ({} lost)",
            t.offered, t.completed, t.failed, t.rejected, t.shed, t.lost
        ));
    }
    errors
}

/// Corrupts an answer the way a wrong result would look: one flipped
/// output-negation bit in the witness, or one extra enumerated witness.
pub fn corrupt(report: &mut JobReport) {
    if report.kind == JobKind::Enumerate {
        report.witness_count = report.witness_count.map(|n| n + 1);
        return;
    }
    if let Ok(w) = &mut report.witness {
        let nu = w.output.negation();
        let flipped =
            revmatch_circuit::NegationMask::new(nu.mask() ^ 1, nu.width()).expect("same width");
        w.output = revmatch_circuit::NpTransform::new(flipped, w.output.permutation().clone())
            .expect("same width");
    }
}
