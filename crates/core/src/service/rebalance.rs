//! The adaptive shard rebalancer.
//!
//! Jobs route to shards by a static hash of `(width, kind, equivalence)`
//! so same-shaped work shares warm caches — but a skewed mix can hash
//! several hot lanes onto one shard. Work stealing keeps the other
//! workers busy, yet every steal executes on a shard whose dense-table
//! and solver caches are cold for that shape, so sustained stealing is
//! both a load-imbalance signal *and* a throughput leak.
//!
//! [`super::MatchService::rebalance`] closes the loop using only
//! counters the metrics registry already keeps:
//!
//! 1. each call snapshots the per-shard `stolen_from` / `busy` / `idle`
//!    counters and computes the deltas since the previous call (one call
//!    = one observation window);
//! 2. the **victim** is the shard others stole from most this window,
//!    among shards that own a lane with heat (a lane holding only jobs
//!    spilled from a full lane has nothing to move); it
//!    must have lost at least [`RebalanceConfig::min_steals`] jobs, for
//!    [`RebalanceConfig::sustain`] consecutive windows, to count as a
//!    sustained imbalance rather than a burst;
//! 3. the **beneficiary** is the shard that idled most this window;
//! 4. the victim's hottest routing key (most execute-µs since the last
//!    move, from the per-key heat table) is remapped to the beneficiary
//!    inside a [`super::MatchService::pause`]/`resume` window, so the
//!    route table flips while no worker is mid-pop.
//!
//! A move only redirects *future* submits — queued jobs drain where they
//! are — and never changes results: routing is a placement hint, and
//! job seeds are placement-independent by construction.

use crate::engine::JobKind;
use crate::equivalence::Equivalence;

/// Tuning for [`super::MatchService::rebalance`].
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Minimum jobs stolen *from* a shard within one observation window
    /// for it to qualify as the imbalance victim.
    pub min_steals: u64,
    /// Consecutive windows the same shard must qualify before a lane
    /// actually moves (hysteresis against bursts).
    pub sustain: u32,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            min_steals: 8,
            sustain: 2,
        }
    }
}

impl RebalanceConfig {
    /// Overrides the per-window steal threshold (clamped to ≥ 1).
    #[must_use]
    pub fn with_min_steals(mut self, min_steals: u64) -> Self {
        self.min_steals = min_steals.max(1);
        self
    }

    /// Overrides the sustained-window requirement (clamped to ≥ 1).
    #[must_use]
    pub fn with_sustain(mut self, sustain: u32) -> Self {
        self.sustain = sustain.max(1);
        self
    }
}

/// One lane move performed by the rebalancer: the `(width, kind,
/// equivalence)` routing key now prefers shard `to` instead of `from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceMove {
    /// Circuit width of the moved lane.
    pub width: usize,
    /// Job kind of the moved lane.
    pub kind: JobKind,
    /// Equivalence of the moved lane (`None` for kinds that route
    /// without one).
    pub equivalence: Option<Equivalence>,
    /// The overloaded shard the lane was hashed to.
    pub from: usize,
    /// The under-utilized shard now preferred.
    pub to: usize,
}

/// Accumulated execution heat for one routing key since the last move.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LaneHeat {
    /// Jobs executed for this key.
    pub(crate) jobs: u64,
    /// Summed execute-stage µs for this key.
    pub(crate) exec_us: u64,
}

/// Window-to-window snapshot state for the rebalancer, owned by the
/// service behind a mutex (rebalancing is a single-caller control loop).
#[derive(Debug)]
pub(crate) struct RebalanceState {
    /// Per-shard `stolen_from` counter values at the last window edge.
    pub(crate) last_stolen_from: Vec<u64>,
    /// Per-shard idle-µs counter values at the last window edge.
    pub(crate) last_idle_us: Vec<u64>,
    /// The shard that qualified as victim last window, if any.
    pub(crate) streak_shard: Option<usize>,
    /// Consecutive windows that shard has qualified.
    pub(crate) streak: u32,
}

impl RebalanceState {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            last_stolen_from: vec![0; shards],
            last_idle_us: vec![0; shards],
            streak_shard: None,
            streak: 0,
        }
    }
}
