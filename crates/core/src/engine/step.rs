//! The per-iteration RAII scope guard.

use crate::region::RegionStatus;
use crate::telemetry::Stage;

use super::{Engine, RegionId};

/// RAII guard for one simulation iteration, replacing the paired
/// `td_region_begin` / `td_region_end` calls of the paper's C API.
///
/// Obtained from [`Engine::step`] at the top of the iteration (the `begin`
/// half). After the main computation has produced the iteration's values,
/// call [`StepScope::complete`] with the domain to run the engine's
/// **sample → assemble → train → extract** pipeline (the `end` half) and get
/// back a [`StepReport`].
///
/// Dropping the scope without completing it is the equivalent of a `begin`
/// with no matching `end`: the iteration counter advances but nothing is
/// sampled — useful for iterations the caller wants to skip entirely.
#[must_use = "complete the step with `.complete(&domain)` or it only stamps the iteration"]
pub struct StepScope<'e, D: ?Sized> {
    engine: &'e mut Engine<D>,
    iteration: u64,
    completed: bool,
}

impl<'e, D: ?Sized> StepScope<'e, D> {
    pub(super) fn new(engine: &'e mut Engine<D>, iteration: u64) -> Self {
        Self {
            engine,
            iteration,
            completed: false,
        }
    }

    /// The iteration this scope covers.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Runs the pipeline over every region and analysis of the engine and
    /// returns the per-region statuses.
    pub fn complete(mut self, domain: &D) -> StepReport {
        self.completed = true;
        self.engine.run_pipeline(self.iteration, domain)
    }

    /// Explicitly skips the iteration (identical to dropping the scope).
    pub fn skip(self) {}
}

impl<D: ?Sized> Drop for StepScope<'_, D> {
    fn drop(&mut self) {
        if !self.completed {
            self.engine.stamp_iteration(self.iteration);
        }
    }
}

/// What one completed step produced: a snapshot of every region's status,
/// plus — when telemetry is enabled — this step's per-stage timing and the
/// engine's cumulative budget accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepReport {
    pub(super) statuses: Vec<RegionStatus>,
    /// Simulation-thread nanoseconds spent in each stage this step,
    /// indexed by [`Stage`]. All zeros when telemetry is off.
    pub(super) stage_ns: [u64; Stage::COUNT],
    /// Cumulative measured cost (ns) across all steps so far.
    pub(super) budget_used: u64,
    /// The configured per-step budget limit in ns, if any.
    pub(super) budget_limit: Option<u64>,
    /// The engine's per-step cost EWMA after this step (0 when no budget).
    pub(super) ewma_cost_ns: u64,
    /// Whether this step shed work under the overload policy.
    pub(super) shed: bool,
}

impl StepReport {
    /// Simulation-thread nanoseconds this step spent in `stage`, summed
    /// across every analysis. Always 0 when telemetry is disabled (see
    /// [`EngineConfig::telemetry_enabled`](super::EngineConfig::telemetry_enabled)).
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_ns[stage as usize]
    }

    /// Cumulative measured pipeline cost in nanoseconds across every step
    /// completed so far (the engine's budget ledger).
    pub fn budget_used(&self) -> u64 {
        self.budget_used
    }

    /// The configured per-step budget limit in nanoseconds, or `None` when
    /// the engine runs without a [`StepBudget`](crate::telemetry::StepBudget).
    pub fn budget_limit(&self) -> Option<u64> {
        self.budget_limit
    }

    /// The exponentially weighted moving average of per-step cost (ns)
    /// after folding in this step. 0 when no budget is configured.
    pub fn ewma_cost_ns(&self) -> u64 {
        self.ewma_cost_ns
    }

    /// Whether the overload policy shed work this step (deferred
    /// extraction).
    pub fn shed(&self) -> bool {
        self.shed
    }
    /// The status of one region.
    pub fn region(&self, id: RegionId) -> Option<&RegionStatus> {
        self.statuses.get(id.index())
    }

    /// Statuses of all regions, in registration order.
    pub fn regions(&self) -> &[RegionStatus] {
        &self.statuses
    }

    /// Whether any region requests early termination of the simulation.
    pub fn should_terminate(&self) -> bool {
        self.statuses.iter().any(|s| s.should_terminate)
    }

    /// Whether every region (with at least one analysis) has converged.
    pub fn all_converged(&self) -> bool {
        !self.statuses.is_empty() && self.statuses.iter().all(|s| s.converged)
    }
}
