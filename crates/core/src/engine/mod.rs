//! The in-situ engine: handle-based multi-region sessions with staged
//! sampling, training and extraction.
//!
//! [`Engine`] is the library's entry point. An engine owns one or more
//! regions and their analyses behind copyable integer handles
//! ([`RegionId`], [`AnalysisId`]) — mirroring the paper's C API, which also
//! hands out ids — and splits every iteration into four explicit stages:
//!
//! 1. **sample** — batch-query each analysis' provider over its spatial
//!    characteristic ([`VarProvider::fill`](crate::provider::VarProvider::fill)),
//! 2. **assemble** — write fresh samples into a columnar
//!    [`MiniBatch`](crate::collect::MiniBatch) (contiguous predictors,
//!    stride = AR order; buffers recycled through a pool so the steady
//!    state allocates nothing per row),
//! 3. **train** — run gradient descent on full batches, either
//!    [`TrainingMode::Inline`] on the simulation thread or
//!    [`TrainingMode::Background`] on a `parsim` worker,
//! 4. **extract** — derive the requested features once an analysis is done.
//!
//! The paired `begin`/`end` calls of the paper's API are replaced by the
//! RAII [`StepScope`] returned from [`Engine::step`].
//!
//! # Example
//!
//! ```
//! use insitu::engine::{Engine, EngineConfig, TrainingMode};
//! use insitu::extract::FeatureKind;
//! use insitu::region::AnalysisSpec;
//! use insitu::IterParam;
//!
//! let mut engine: Engine<Vec<f64>> = Engine::new();
//! let region = engine.add_region("demo").unwrap();
//! let analysis = engine
//!     .add_analysis(
//!         region,
//!         AnalysisSpec::builder()
//!             .name("velocity")
//!             .provider(|d: &Vec<f64>, loc: usize| d.get(loc).copied().unwrap_or(0.0))
//!             .spatial(IterParam::new(1, 10, 1).unwrap())
//!             .temporal(IterParam::new(0, 100, 1).unwrap())
//!             .feature(FeatureKind::Breakpoint { threshold: 0.05 })
//!             .lag(5)
//!             .build()
//!             .unwrap(),
//!     )
//!     .unwrap();
//!
//! let mut domain = vec![0.0_f64; 32];
//! for iteration in 0..100u64 {
//!     let step = engine.step(iteration);
//!     // ... main computation updates `domain` ...
//!     for (loc, v) in domain.iter_mut().enumerate() {
//!         let front = iteration as f64 * 0.2;
//!         let x = loc as f64;
//!         *v = 5.0 / (1.0 + x) * (-(x - front) * (x - front) / 8.0).exp();
//!     }
//!     let report = step.complete(&domain);
//!     if report.should_terminate() {
//!         break;
//!     }
//! }
//! engine.drain();
//! assert!(engine.status(region).unwrap().samples_collected > 0);
//! assert!(engine.history(analysis).is_some());
//! ```

mod analysis;
mod background;
mod step;

pub use step::{StepReport, StepScope};

use parsim::ThreadPool;

use crate::collect::SampleHistory;
use crate::error::{Error, Result};
use crate::model::IncrementalTrainer;
use crate::region::{AnalysisSpec, ExitAction, NullBroadcaster, RegionStatus, StatusBroadcaster};
use crate::snapshot::{
    corrupt, parse_container, Container, Dec, Enc, SECTION_ENGINE, SECTION_REGION,
};
use crate::telemetry::{self, Recorder, Stage, StepBudget, TelemetryConfig};

use analysis::{put_feature, take_feature, Analysis, AnalysisState};

/// Starts a monotonic stage clock, or not — untimed engines skip the
/// `Instant::now()` syscall entirely so telemetry-off stays free.
#[inline]
fn stage_clock(timed: bool) -> Option<std::time::Instant> {
    timed.then(std::time::Instant::now)
}

/// Elapsed nanoseconds since [`stage_clock`], saturating to `u64`.
#[inline]
fn stage_elapsed(clock: Option<std::time::Instant>) -> u64 {
    clock.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// Where the gradient-descent training of full mini-batches runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainingMode {
    /// Train inside [`StepScope::complete`] on the simulation thread — the
    /// paper's original behaviour, lowest latency to convergence signals.
    #[default]
    Inline,
    /// Move the trainer onto a `parsim` worker whenever a batch fills, so
    /// the simulation thread only pays for sampling and assembly. Poll with
    /// [`Engine::poll`]; [`Engine::drain`] blocks until the background work
    /// has caught up, after which results are bit-identical to inline mode
    /// (same batches, same order).
    Background,
}

/// Engine construction parameters.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Inline or background training (default inline).
    pub training_mode: TrainingMode,
    /// Thread pool used for background training jobs (unused inline).
    pub pool: ThreadPool,
    /// Stage-timing telemetry (default: off unless the `INSITU_TELEMETRY`
    /// environment variable enables it, or [`EngineConfig::budget`] is
    /// set). See [`crate::telemetry`].
    pub telemetry: TelemetryConfig,
    /// Per-step cost budget (default: none). When the EWMA of measured
    /// step cost crosses the budget, the engine defers extraction instead
    /// of stalling the simulation step; shed decisions are recorded as
    /// [`Stage::Shed`] telemetry events.
    pub budget: Option<StepBudget>,
}

impl EngineConfig {
    /// Inline training on the simulation thread (the default).
    pub fn inline() -> Self {
        Self::default()
    }

    /// Background training on the given pool.
    pub fn background(pool: ThreadPool) -> Self {
        Self {
            training_mode: TrainingMode::Background,
            pool,
            ..Self::default()
        }
    }

    /// Whether the stage clocks run for engines built from this
    /// configuration: explicitly enabled, enabled by `INSITU_TELEMETRY`,
    /// or implied by a configured [`EngineConfig::budget`].
    pub fn telemetry_enabled(&self) -> bool {
        self.budget.is_some()
            || self
                .telemetry
                .enabled
                .unwrap_or_else(telemetry::env_enabled)
    }
}

/// Copyable handle to a region registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(usize);

impl RegionId {
    /// The raw registration index (stable for the engine's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Copyable handle to an analysis registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnalysisId {
    region: usize,
    index: usize,
}

impl AnalysisId {
    /// The handle of the region this analysis belongs to.
    pub fn region(self) -> RegionId {
        RegionId(self.region)
    }

    /// The analysis' registration index within its region.
    pub fn index(self) -> usize {
        self.index
    }
}

/// Non-blocking snapshot of the engine's background-training backlog,
/// returned by [`Engine::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainingProgress {
    /// Training jobs currently running on workers.
    pub in_flight: usize,
    /// Full batches queued behind an in-flight job.
    pub queued: usize,
}

impl TrainingProgress {
    /// Whether all training has caught up with collection.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.queued == 0
    }
}

/// One named region: a group of analyses sharing a status and broadcaster.
struct EngineRegion<D: ?Sized> {
    name: String,
    analyses: Vec<Analysis<D>>,
    broadcaster: Box<dyn StatusBroadcaster>,
    status: RegionStatus,
}

/// A multi-region in-situ session: the owner of every analysis' collector,
/// trainer and extracted features, addressed through copyable handles.
///
/// See the [module documentation](self) for the pipeline model and an
/// end-to-end example.
pub struct Engine<D: ?Sized> {
    config: EngineConfig,
    regions: Vec<EngineRegion<D>>,
    /// Whether the stage clocks run (resolved once at construction from
    /// config + environment; budget implies timing).
    timed: bool,
    /// Live overload-control state, when a budget is configured.
    budget: Option<BudgetState>,
    /// Cumulative measured pipeline nanoseconds across all steps (0 when
    /// telemetry is off).
    total_cost_ns: u64,
    /// Number of steps the overload policy degraded.
    shed_steps: u64,
}

/// Live overload-control state derived from [`EngineConfig::budget`].
struct BudgetState {
    limit_ns: u64,
    /// EWMA (α = 1/8) of measured step cost; 0 until the first step.
    ewma_ns: u64,
}

impl<D: ?Sized> std::fmt::Debug for Engine<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("training_mode", &self.config.training_mode)
            .field("regions", &self.regions.len())
            .finish_non_exhaustive()
    }
}

impl<D: ?Sized> Default for Engine<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: ?Sized> Drop for Engine<D> {
    /// Joins in-flight background training jobs so a dropped engine never
    /// leaves a pool worker running against freed analysis state. Queued
    /// batches are discarded untrained — use [`Engine::drain`] first when
    /// the remaining results matter.
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<D: ?Sized> Engine<D> {
    /// An engine with inline training (the paper's behaviour).
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let timed = config.telemetry_enabled();
        let budget = config.budget.map(|b| BudgetState {
            limit_ns: u64::try_from(b.limit.as_nanos()).unwrap_or(u64::MAX),
            ewma_ns: 0,
        });
        Self {
            config,
            regions: Vec::new(),
            timed,
            budget,
            total_cost_ns: 0,
            shed_steps: 0,
        }
    }

    /// The configured training mode.
    pub fn training_mode(&self) -> TrainingMode {
        self.config.training_mode
    }

    /// Borrows an analysis' telemetry recorder: the stage-event ring plus
    /// per-stage latency histograms. Cheap — no copies, no allocation.
    /// With telemetry disabled the recorder exists but stays empty (its
    /// ring has zero capacity and nothing records into it).
    pub fn telemetry(&self, analysis: AnalysisId) -> Option<&Recorder> {
        self.regions
            .get(analysis.region)?
            .analyses
            .get(analysis.index)
            .map(|a| &a.telemetry)
    }

    /// Cumulative measured pipeline cost in nanoseconds across all
    /// completed steps (0 when telemetry is disabled).
    pub fn budget_used(&self) -> u64 {
        self.total_cost_ns
    }

    /// The configured per-step budget limit in nanoseconds, if any.
    pub fn budget_limit(&self) -> Option<u64> {
        self.budget.as_ref().map(|b| b.limit_ns)
    }

    /// Number of completed steps on which the overload policy shed work.
    pub fn shed_steps(&self) -> u64 {
        self.shed_steps
    }

    /// Registers a new, empty region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateName`] if a region with this name already
    /// exists.
    pub fn add_region(&mut self, name: impl Into<String>) -> Result<RegionId> {
        let name = name.into();
        if self.regions.iter().any(|r| r.name == name) {
            return Err(Error::DuplicateName {
                what: "region",
                name,
            });
        }
        self.regions.push(EngineRegion {
            name,
            analyses: Vec::new(),
            broadcaster: Box::new(NullBroadcaster),
            status: RegionStatus::default(),
        });
        Ok(RegionId(self.regions.len() - 1))
    }

    /// Looks up a region handle by name.
    pub fn region_id(&self, name: &str) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|r| r.name == name)
            .map(RegionId)
    }

    /// The name a region was registered under.
    pub fn region_name(&self, region: RegionId) -> Option<&str> {
        self.regions.get(region.0).map(|r| r.name.as_str())
    }

    /// Number of registered regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Registers an analysis with a region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHandle`] if `region` does not refer to a
    /// region of this engine, and [`Error::DuplicateName`] if the region
    /// already has an analysis with the spec's name.
    pub fn add_analysis(&mut self, region: RegionId, spec: AnalysisSpec<D>) -> Result<AnalysisId> {
        let slot = self.regions.get_mut(region.0).ok_or(Error::UnknownHandle {
            what: "region",
            index: region.0,
        })?;
        if slot.analyses.iter().any(|a| a.spec.name() == spec.name()) {
            return Err(Error::DuplicateName {
                what: "analysis",
                name: spec.name().to_string(),
            });
        }
        // Disabled telemetry gets a zero-capacity ring: the accessors stay
        // valid, the memory cost is nil, and nothing records into it.
        let telemetry_capacity = if self.timed {
            TelemetryConfig::DEFAULT_RING_CAPACITY
        } else {
            0
        };
        slot.analyses.push(Analysis::new(spec, telemetry_capacity));
        Ok(AnalysisId {
            region: region.0,
            index: slot.analyses.len() - 1,
        })
    }

    /// Number of analyses registered with a region.
    pub fn analysis_count(&self, region: RegionId) -> Option<usize> {
        self.regions.get(region.0).map(|r| r.analyses.len())
    }

    /// Builds the handle for a region's `index`-th analysis (registration
    /// order), if it exists.
    pub fn analysis_id(&self, region: RegionId, index: usize) -> Option<AnalysisId> {
        let slot = self.regions.get(region.0)?;
        (index < slot.analyses.len()).then_some(AnalysisId {
            region: region.0,
            index,
        })
    }

    /// Replaces a region's status broadcaster (e.g. with one backed by a
    /// `parsim` world so broadcast costs are accounted like MPI broadcasts).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHandle`] for a stale region handle.
    pub fn set_broadcaster<B>(&mut self, region: RegionId, broadcaster: B) -> Result<()>
    where
        B: StatusBroadcaster + 'static,
    {
        let slot = self.regions.get_mut(region.0).ok_or(Error::UnknownHandle {
            what: "region",
            index: region.0,
        })?;
        slot.broadcaster = Box::new(broadcaster);
        Ok(())
    }

    /// Opens the RAII scope for one simulation iteration. Call at the top of
    /// the iteration; call [`StepScope::complete`] once the main computation
    /// has produced the iteration's values.
    pub fn step(&mut self, iteration: u64) -> StepScope<'_, D> {
        StepScope::new(self, iteration)
    }

    /// The most recent status of a region: the value carried by the last
    /// [`StepReport`], unless [`Engine::poll`] or [`Engine::drain`]
    /// refreshed it since.
    pub fn status(&self, region: RegionId) -> Option<&RegionStatus> {
        self.regions.get(region.0).map(|r| &r.status)
    }

    /// The sample history of one analysis (`None` for stale handles).
    pub fn history(&self, analysis: AnalysisId) -> Option<&SampleHistory> {
        self.regions
            .get(analysis.region)?
            .analyses
            .get(analysis.index)
            .map(|a| a.collector.history())
    }

    /// The trainer of one analysis, for inspecting the fitted model and loss
    /// history. Returns `None` for stale handles **and** while the trainer
    /// is off on a background worker — call [`Engine::drain`] first for a
    /// guaranteed-resident trainer.
    pub fn trainer(&self, analysis: AnalysisId) -> Option<&IncrementalTrainer> {
        self.regions
            .get(analysis.region)?
            .analyses
            .get(analysis.index)?
            .trainer()
    }

    /// Non-blocking background-training progress: reclaims finished jobs,
    /// launches queued batches, and reports what is still outstanding. Any
    /// region whose training advanced gets its status fully refreshed
    /// (extraction included) and broadcast, so polling to idle leaves the
    /// same coherent terminal state as [`Engine::drain`]. Always idle in
    /// inline mode.
    pub fn poll(&mut self) -> TrainingProgress {
        let mut progress = TrainingProgress::default();
        for region in &mut self.regions {
            let iteration = region.status.iteration;
            let mut advanced = false;
            for analysis in &mut region.analyses {
                if let Some(loss) = analysis.pump(&self.config.pool) {
                    region.status.last_loss = Some(loss);
                    advanced = true;
                }
                if analysis.training_in_flight() {
                    progress.in_flight += 1;
                }
                progress.queued += analysis.queued_batches();
            }
            if advanced {
                for analysis in &mut region.analyses {
                    if analysis.is_done(iteration) || analysis.collector.finished(iteration) {
                        analysis.try_extract();
                    }
                }
                Self::refresh_status(region, iteration);
                region.broadcaster.broadcast(&region.status);
            }
        }
        progress
    }

    /// Blocks until every queued mini-batch has been trained, then re-runs
    /// extraction, refreshes every region's status and broadcasts it (so
    /// rank-notification broadcasters observe the terminal status even when
    /// the deciding batch finished inside the drain). After `drain`,
    /// background-mode results are bit-identical to an inline run over the
    /// same iterations: the trainers consumed the same batches in the same
    /// order.
    pub fn drain(&mut self) {
        for region in &mut self.regions {
            let iteration = region.status.iteration;
            for analysis in &mut region.analyses {
                if let Some(loss) = analysis.drain(&self.config.pool) {
                    region.status.last_loss = Some(loss);
                }
                if analysis.is_done(iteration) || analysis.collector.finished(iteration) {
                    analysis.try_extract();
                }
            }
            Self::refresh_status(region, iteration);
            region.broadcaster.broadcast(&region.status);
        }
    }

    /// Winds the engine down **without** training the backlog: joins every
    /// in-flight background `TrainJob` (a job that
    /// has already left for a worker cannot be cancelled, so its loss is
    /// recorded) and recycles every still-queued batch untrained.
    ///
    /// This is the session-eviction half of the lifecycle: where
    /// [`Engine::drain`] finishes the work (bit-identical to inline),
    /// `shutdown` finishes only what is unavoidable and discards the rest —
    /// but never orphans a pool job and never leaks a recycled batch
    /// buffer. Dropping an engine calls `shutdown` implicitly, so evicting
    /// a long-running session mid-run (the `serve` crate's `CloseSession`)
    /// is safe by construction. Idempotent (a second call is a clean
    /// no-op) and panic-safe: if a background training job panicked on its
    /// worker, the panic is contained — the affected trainer slot is
    /// poisoned rather than re-thrown, so shutting down (or dropping,
    /// even during unwinding from the original panic) a poisoned engine
    /// never double-panics. A no-op for inline engines.
    pub fn shutdown(&mut self) {
        for region in &mut self.regions {
            for analysis in &mut region.analyses {
                if let Some(loss) = analysis.shutdown() {
                    region.status.last_loss = Some(loss);
                }
            }
        }
    }

    /// Serializes the engine's full mutable state into a self-describing
    /// binary snapshot (see [`crate::snapshot`] for the container format).
    ///
    /// The engine is [drained](Engine::drain) first, so the snapshot is
    /// taken at a quiescent point — no in-flight training job or queued
    /// batch ever needs serializing, and because draining is bit-identical
    /// to having trained inline, the snapshot is independent of *when*
    /// background work happened to be scheduled.
    ///
    /// The captured state covers, per analysis: the sample history
    /// (including incremental peak statistics and retention bookkeeping),
    /// the partially-filled assembly batch, the AR model coefficients,
    /// scaler moments, optimizer state and loss history, and the extracted
    /// feature — plus each region's status. Configuration (specs,
    /// providers, pools) is **not** serialized: [`Engine::restore`]
    /// overlays the snapshot onto an engine rebuilt with identical
    /// configuration.
    ///
    /// A restored engine continues bit-identically to one that never
    /// stopped: same losses, same features, same statuses.
    #[must_use]
    pub fn snapshot(&mut self) -> Vec<u8> {
        self.drain();
        let mut container = Container::new();
        let mut enc = Enc::default();
        enc.put_usize(self.regions.len());
        // Two retired diagnostic counters keep their slots so the layout
        // (and every committed snapshot) is unchanged; always written as 0.
        enc.put_u64(0);
        enc.put_u64(0);
        container.section(SECTION_ENGINE, enc);
        let timed = self.timed;
        let iteration = self.regions.first().map_or(0, |r| r.status.iteration);
        for region in &mut self.regions {
            let mut enc = Enc::default();
            enc.put_str(&region.name);
            encode_status(&mut enc, &region.status);
            enc.put_usize(region.analyses.len());
            for analysis in &mut region.analyses {
                enc.put_str(analysis.spec.name());
                let clock = stage_clock(timed);
                analysis.snapshot_encode(&mut enc);
                let snapshot_ns = stage_elapsed(clock);
                if timed {
                    analysis
                        .telemetry
                        .record(Stage::Snapshot, iteration, snapshot_ns);
                }
            }
            container.section(SECTION_REGION, enc);
        }
        container.finish()
    }

    /// Restores state captured by [`Engine::snapshot`] onto this engine,
    /// which must have been configured identically (same regions, analyses
    /// and specs, in the same order). After a
    /// successful restore the engine produces bit-identical losses,
    /// features and statuses to the engine the snapshot was taken from.
    ///
    /// Restore **fails closed**: the entire snapshot is parsed, checksummed
    /// and validated against this engine's configuration before any live
    /// state is touched, so on error the engine is exactly as it was.
    ///
    /// # Errors
    ///
    /// * [`Error::SnapshotCorrupt`] — truncated, tampered or malformed
    ///   bytes (every section payload is checksummed).
    /// * [`Error::SnapshotVersion`] — written by an incompatible format
    ///   version.
    /// * [`Error::SnapshotMismatch`] — a well-formed snapshot of a
    ///   *differently configured* engine (region/analysis names or counts,
    ///   store backend, retention or trainer shape differ).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let sections = parse_container(bytes)?;
        let Some(((first_id, engine_payload), region_sections)) = sections.split_first() else {
            return Err(corrupt("snapshot has no sections"));
        };
        if *first_id != SECTION_ENGINE {
            return Err(corrupt(format!(
                "first section id {first_id} is not the engine section"
            )));
        }
        let mut dec = Dec::new(engine_payload);
        let region_count = dec.take_usize()?;
        // The two retired counter slots (see `snapshot`); ignored.
        dec.take_u64()?;
        dec.take_u64()?;
        dec.finish()?;
        if region_count != region_sections.len() {
            return Err(corrupt(format!(
                "engine section declares {region_count} regions but snapshot has {} region \
                 sections",
                region_sections.len()
            )));
        }
        if region_count != self.regions.len() {
            return Err(Error::SnapshotMismatch {
                what: format!(
                    "snapshot has {region_count} regions, engine has {}",
                    self.regions.len()
                ),
            });
        }
        let mut decoded: Vec<(RegionStatus, Vec<AnalysisState>)> = Vec::with_capacity(region_count);
        for (region, (id, payload)) in self.regions.iter().zip(region_sections) {
            if *id != SECTION_REGION {
                return Err(corrupt(format!("unexpected section id {id}")));
            }
            let mut dec = Dec::new(payload);
            let name = dec.take_str()?;
            if name != region.name {
                return Err(Error::SnapshotMismatch {
                    what: format!("snapshot region {name:?}, engine region {:?}", region.name),
                });
            }
            let status = decode_status(&mut dec)?;
            let analysis_count = dec.take_usize()?;
            if analysis_count != region.analyses.len() {
                return Err(Error::SnapshotMismatch {
                    what: format!(
                        "region {name:?}: snapshot has {analysis_count} analyses, engine has {}",
                        region.analyses.len()
                    ),
                });
            }
            let mut states = Vec::with_capacity(analysis_count);
            for analysis in &region.analyses {
                let spec_name = dec.take_str()?;
                if spec_name != analysis.spec.name() {
                    return Err(Error::SnapshotMismatch {
                        what: format!(
                            "snapshot analysis {spec_name:?}, engine analysis {:?}",
                            analysis.spec.name()
                        ),
                    });
                }
                states.push(analysis.snapshot_decode(&mut dec)?);
            }
            dec.finish()?;
            decoded.push((status, states));
        }
        // Everything validated — commit. Apply quiesces each analysis
        // (joining any in-flight training) before overwriting its state.
        for (region, (status, states)) in self.regions.iter_mut().zip(decoded) {
            region.status = status;
            for (analysis, state) in region.analyses.iter_mut().zip(states) {
                analysis.snapshot_apply(state);
            }
        }
        Ok(())
    }

    /// Forces feature extraction for one region from whatever has been
    /// collected so far (normally extraction happens automatically once an
    /// analysis is done).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHandle`] for a stale region handle.
    pub fn extract_now(&mut self, region: RegionId) -> Result<()> {
        let slot = self.regions.get_mut(region.0).ok_or(Error::UnknownHandle {
            what: "region",
            index: region.0,
        })?;
        for analysis in &mut slot.analyses {
            analysis.try_extract();
        }
        slot.status.features = slot
            .analyses
            .iter()
            .filter_map(|a| a.feature().cloned().map(|f| (a.spec.name().to_string(), f)))
            .collect();
        Ok(())
    }

    /// Stamps the iteration on every region without sampling — the effect of
    /// a dropped (uncompleted) [`StepScope`].
    pub(crate) fn stamp_iteration(&mut self, iteration: u64) {
        for region in &mut self.regions {
            region.status.iteration = iteration;
        }
    }

    /// The full pipeline for one completed step, run as explicit stages
    /// over every analysis of every region:
    ///
    /// 1. **sample** + **assemble** each analysis, then
    /// 2. **train** the batch that filled, if any — on the simulation
    ///    thread inline, queued to a worker in background mode;
    /// 3. **extract**, refresh and broadcast each region's status.
    ///
    /// Spent batches return to their collectors' buffer pools, so the
    /// steady-state step performs zero per-row heap allocations.
    pub(crate) fn run_pipeline(&mut self, iteration: u64, domain: &D) -> StepReport {
        let background = self.config.training_mode == TrainingMode::Background;
        let timed = self.timed;

        // Overload decision, taken BEFORE this step's work from the
        // previous steps' cost EWMA: the degraded step does strictly less
        // work than a full one (shed, never stall), and the decision order
        // is deterministic with respect to the measurements that drove it.
        let shed = self.budget.as_ref().is_some_and(|b| b.ewma_ns > b.limit_ns);
        let mut stage_ns = [0u64; Stage::COUNT];

        // Stages 1–3 per analysis: sample, assemble, and train a filled
        // batch. Each trainer consumes only its own batches, in order, so
        // inline and background runs stay bit-identical.
        for region in &mut self.regions {
            let mut samples_this_iteration = 0;
            for analysis in &mut region.analyses {
                let clock = stage_clock(timed);
                let samples = analysis.sample(iteration, domain);
                let sample_ns = stage_elapsed(clock);
                samples_this_iteration += samples;
                let clock = stage_clock(timed);
                let assembled = analysis.assemble(iteration);
                let assemble_ns = stage_elapsed(clock);
                // The train clock charges the simulation thread's share:
                // the full fit inline, the queue/pump handoff in
                // background mode.
                let clock = stage_clock(timed && (background || assembled.is_some()));
                let (loss, trained) = match assembled {
                    Some(batch) if background => {
                        (analysis.queue_batch(batch, &self.config.pool), true)
                    }
                    Some(batch) => (analysis.train_inline(batch), true),
                    None if background => {
                        // Keep reclaiming finished jobs even on iterations
                        // that produced no batch.
                        let loss = analysis.pump(&self.config.pool);
                        (loss, loss.is_some())
                    }
                    None => (None, false),
                };
                let train_ns = stage_elapsed(clock);
                if let Some(loss) = loss {
                    region.status.last_loss = Some(loss);
                }
                if timed {
                    analysis
                        .telemetry
                        .record(Stage::Sample, iteration, sample_ns);
                    analysis
                        .telemetry
                        .record(Stage::Assemble, iteration, assemble_ns);
                    stage_ns[Stage::Sample as usize] += sample_ns;
                    stage_ns[Stage::Assemble as usize] += assemble_ns;
                    if trained {
                        analysis.telemetry.record(Stage::Train, iteration, train_ns);
                    }
                    stage_ns[Stage::Train as usize] += train_ns;
                }
            }
            region.status.samples_collected += samples_this_iteration;
        }

        // Stage 4: extract, refresh and broadcast. A deferring shed skips
        // extraction — a pure function of the collected state, so running
        // it later produces identical bits — but statuses still refresh and
        // broadcast so downstream ranks observe the step.
        if shed {
            self.shed_steps += 1;
            let ewma = self.budget.as_ref().map_or(0, |b| b.ewma_ns);
            for region in &mut self.regions {
                for analysis in &mut region.analyses {
                    analysis.telemetry.record(Stage::Shed, iteration, ewma);
                }
            }
        }
        let mut statuses = Vec::with_capacity(self.regions.len());
        for region in &mut self.regions {
            for analysis in &mut region.analyses {
                if !shed && (analysis.is_done(iteration) || analysis.collector.finished(iteration))
                {
                    let clock = stage_clock(timed);
                    analysis.try_extract();
                    let extract_ns = stage_elapsed(clock);
                    if timed {
                        analysis
                            .telemetry
                            .record(Stage::Extract, iteration, extract_ns);
                        stage_ns[Stage::Extract as usize] += extract_ns;
                    }
                }
            }
            Self::refresh_status(region, iteration);
            region.broadcaster.broadcast(&region.status);
            statuses.push(region.status.clone());
        }

        // Budget accounting: fold this step's measured cost into the EWMA
        // (α = 1/8) and the cumulative total. Untimed engines skip all of this — stage_ns
        // stays zero.
        let step_cost: u64 = stage_ns[Stage::Sample as usize]
            + stage_ns[Stage::Assemble as usize]
            + stage_ns[Stage::Train as usize]
            + stage_ns[Stage::Extract as usize];
        self.total_cost_ns += step_cost;
        if let Some(budget) = &mut self.budget {
            budget.ewma_ns = if budget.ewma_ns == 0 {
                step_cost.max(1)
            } else {
                (budget.ewma_ns - budget.ewma_ns / 8 + step_cost / 8).max(1)
            };
        }
        StepReport {
            statuses,
            stage_ns,
            budget_used: self.total_cost_ns,
            budget_limit: self.budget.as_ref().map(|b| b.limit_ns),
            ewma_cost_ns: self.budget.as_ref().map_or(0, |b| b.ewma_ns),
            shed,
        }
    }

    /// Recomputes the derived fields of a region's status from its analyses.
    fn refresh_status(region: &mut EngineRegion<D>, iteration: u64) {
        region.status.predicted_value = region
            .analyses
            .first_mut()
            .and_then(Analysis::latest_prediction);

        let analyses = &region.analyses;
        let all_done = !analyses.is_empty() && analyses.iter().all(|a| a.is_done(iteration));
        let wants_termination = analyses
            .iter()
            .any(|a| a.spec.exit() == ExitAction::TerminateSimulation);

        region.status.iteration = iteration;
        region.status.batches_trained = analyses.iter().map(|a| a.batches_trained).sum();
        region.status.converged = all_done;
        region.status.front_location = Self::front_location(analyses);
        region.status.features = analyses
            .iter()
            .filter_map(|a| a.feature().cloned().map(|f| (a.spec.name().to_string(), f)))
            .collect();
        region.status.should_terminate = all_done && wants_termination;
    }

    /// The location of the maximum most-recently-observed value across the
    /// first analysis' sampled locations — the "wave front" broadcast to
    /// other ranks in the LULESH case study.
    fn front_location(analyses: &[Analysis<D>]) -> Option<usize> {
        analyses.first()?.front_location()
    }
}

/// Appends a [`RegionStatus`] to a snapshot payload.
fn encode_status(enc: &mut Enc, status: &RegionStatus) {
    enc.put_u64(status.iteration);
    enc.put_usize(status.samples_collected);
    enc.put_usize(status.batches_trained);
    enc.put_opt_f64(status.last_loss);
    enc.put_bool(status.converged);
    enc.put_opt_f64(status.predicted_value);
    enc.put_opt_usize(status.front_location);
    enc.put_bool(status.should_terminate);
    enc.put_usize(status.features.len());
    for (name, feature) in &status.features {
        enc.put_str(name);
        put_feature(enc, feature);
    }
}

/// Decodes a [`RegionStatus`] written by [`encode_status`].
fn decode_status(dec: &mut Dec<'_>) -> Result<RegionStatus> {
    let iteration = dec.take_u64()?;
    let samples_collected = dec.take_usize()?;
    let batches_trained = dec.take_usize()?;
    let last_loss = dec.take_opt_f64()?;
    let converged = dec.take_bool()?;
    let predicted_value = dec.take_opt_f64()?;
    let front_location = dec.take_opt_usize()?;
    let should_terminate = dec.take_bool()?;
    let feature_count = dec.take_usize()?;
    dec.check_count(feature_count, 9)?;
    let mut features = Vec::with_capacity(feature_count);
    for _ in 0..feature_count {
        let name = dec.take_str()?;
        features.push((name, take_feature(dec)?));
    }
    Ok(RegionStatus {
        iteration,
        samples_collected,
        batches_trained,
        last_loss,
        converged,
        predicted_value,
        front_location,
        should_terminate,
        features,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::FeatureKind;
    use crate::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
    use crate::params::IterParam;
    use parsim::ParallelConfig;

    /// A toy domain: an outward-travelling decaying pulse.
    struct Pulse {
        values: Vec<f64>,
    }

    impl Pulse {
        fn new() -> Self {
            Self {
                values: vec![0.0; 40],
            }
        }

        fn advance(&mut self, iteration: u64) {
            let front = iteration as f64 * 0.2;
            for (loc, v) in self.values.iter_mut().enumerate() {
                let x = loc as f64;
                *v = 10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 8.0).exp();
            }
        }
    }

    fn pulse_spec(name: &str) -> AnalysisSpec<Pulse> {
        AnalysisSpec::builder()
            .name(name)
            .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
            .spatial(IterParam::new(1, 12, 1).unwrap())
            .temporal(IterParam::new(0, 300, 1).unwrap())
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(5)
            .batch_capacity(16)
            .trainer(TrainerConfig {
                order: 3,
                optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
                epochs_per_batch: 4,
                convergence: ConvergenceCriteria {
                    loss_threshold: 1e-2,
                    patience: 3,
                    max_batches: 60,
                },
            })
            .build()
            .unwrap()
    }

    fn run_engine(mut engine: Engine<Pulse>, iterations: u64) -> (Engine<Pulse>, RegionId) {
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..iterations {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        engine.drain();
        (engine, region)
    }

    #[test]
    fn background_training_is_bit_identical_to_inline_after_drain() {
        let (inline, inline_region) = run_engine(Engine::new(), 301);
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let (background, bg_region) =
            run_engine(Engine::with_config(EngineConfig::background(pool)), 301);

        let a = inline.status(inline_region).unwrap();
        let b = background.status(bg_region).unwrap();
        assert_eq!(a.samples_collected, b.samples_collected);
        assert_eq!(a.batches_trained, b.batches_trained);
        assert!(a.batches_trained > 0);
        assert_eq!(a.last_loss, b.last_loss, "loss sequence must be identical");
        assert_eq!(a.features, b.features, "features must be bit-identical");
        assert!(!a.features.is_empty());

        // The fitted models are bit-identical too: same batches, same order.
        let ia = inline.analysis_id(inline_region, 0).unwrap();
        let ib = background.analysis_id(bg_region, 0).unwrap();
        assert_eq!(
            inline.trainer(ia).unwrap().model().coefficients(),
            background.trainer(ib).unwrap().model().coefficients()
        );
    }

    #[test]
    fn poll_reports_progress_and_reaches_idle() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..200u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        // Eventually the background backlog clears without ever blocking.
        let mut progress = engine.poll();
        let mut spins = 0usize;
        while !progress.is_idle() {
            assert!(spins < 1_000_000, "background training never caught up");
            spins += 1;
            std::thread::yield_now();
            progress = engine.poll();
        }
        // Polling to idle leaves a coherent terminal status: every reclaimed
        // batch is counted and a subsequent drain() changes nothing.
        let polled = engine.status(region).unwrap().clone();
        assert!(polled.batches_trained > 0);
        let analysis = engine.analysis_id(region, 0).unwrap();
        assert_eq!(
            polled.batches_trained,
            engine.trainer(analysis).unwrap().loss_history().len()
        );
        engine.drain();
        assert_eq!(&polled, engine.status(region).unwrap());
    }

    #[test]
    fn shutdown_joins_in_flight_jobs_and_discards_the_queue() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..200u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        // Shut down mid-run: whatever was in flight joins, the queue is
        // discarded, and the engine is left fully idle with the trainer
        // resident again.
        engine.shutdown();
        assert!(engine.poll().is_idle());
        let analysis = engine.analysis_id(region, 0).unwrap();
        assert!(engine.trainer(analysis).is_some(), "trainer is resident");
        // Every batch the trainer consumed is accounted in the status (the
        // deciding property: no in-flight job was orphaned mid-count). The
        // queue was discarded, so the follow-up drain has nothing to train
        // and the two counts agree exactly.
        engine.drain();
        assert_eq!(
            engine.status(region).unwrap().batches_trained,
            engine.trainer(analysis).unwrap().loss_history().len()
        );
        // ...and shutdown is idempotent: a second call changes nothing.
        let before = engine.status(region).unwrap().clone();
        engine.shutdown();
        assert_eq!(&before, engine.status(region).unwrap());
    }

    #[test]
    fn shutdown_discards_queued_batches_untrained() {
        // A serial 1-worker pool with many same-cadence steps guarantees a
        // backlog: at most one job runs while the rest queue.
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let inline_reference = {
            let (engine, region) = run_engine(Engine::new(), 301);
            let status = engine.status(region).unwrap().clone();
            status
        };
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..301u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        let backlog = engine.poll().queued;
        engine.shutdown();
        let trained = engine.status(region).unwrap().batches_trained;
        // Shutdown never trains the backlog; with a queued backlog at the
        // moment of shutdown, strictly fewer batches were consumed than the
        // inline reference trained.
        assert!(trained <= inline_reference.batches_trained);
        if backlog > 0 {
            assert!(trained < inline_reference.batches_trained);
        }
    }

    #[test]
    fn dropping_a_background_engine_mid_run_is_safe() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool.clone()));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..120u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        // Drop with jobs potentially in flight: Drop runs shutdown, so the
        // pool workers must stay healthy for subsequent users.
        drop(engine);
        assert_eq!(pool.spawn_job(|| 21 * 2).join(), 42);
    }

    #[test]
    fn inline_engines_are_always_idle() {
        let (mut engine, _region) = run_engine(Engine::new(), 50);
        assert!(engine.poll().is_idle());
        assert_eq!(engine.training_mode(), TrainingMode::Inline);
    }

    #[test]
    fn unknown_region_handles_are_rejected() {
        // Forge a handle from a second engine with more regions than the
        // first: it is valid there, stale here.
        let mut other: Engine<Pulse> = Engine::new();
        other.add_region("a").unwrap();
        let stale = other.add_region("b").unwrap();

        let mut engine: Engine<Pulse> = Engine::new();
        engine.add_region("only").unwrap();
        assert!(matches!(
            engine.add_analysis(stale, pulse_spec("velocity")),
            Err(Error::UnknownHandle { what: "region", .. })
        ));
        assert!(matches!(
            engine.extract_now(stale),
            Err(Error::UnknownHandle { .. })
        ));
        assert!(engine.status(stale).is_none());
        assert!(engine.analysis_count(stale).is_none());
        assert!(engine.region_name(stale).is_none());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("pulse").unwrap();
        assert!(matches!(
            engine.add_region("pulse"),
            Err(Error::DuplicateName { what: "region", .. })
        ));
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        assert!(matches!(
            engine.add_analysis(region, pulse_spec("velocity")),
            Err(Error::DuplicateName {
                what: "analysis",
                ..
            })
        ));
    }

    #[test]
    fn analysis_handles_round_trip_and_bounds_check() {
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("pulse").unwrap();
        let analysis = engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        assert_eq!(analysis.region(), region);
        assert_eq!(analysis.index(), 0);
        assert_eq!(engine.analysis_id(region, 0), Some(analysis));
        assert_eq!(engine.analysis_id(region, 1), None);
        assert_eq!(engine.region_id("pulse"), Some(region));
        assert_eq!(engine.region_id("missing"), None);
        assert!(engine.history(analysis).is_some());
        assert!(engine.trainer(analysis).is_some());
    }

    #[test]
    fn dropped_step_scope_stamps_iteration_without_sampling() {
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        // begin-without-end: the scope is dropped (skipped) — the iteration
        // advances but nothing is sampled.
        engine.step(7).skip();
        let status = engine.status(region).unwrap();
        assert_eq!(status.iteration, 7);
        assert_eq!(status.samples_collected, 0);
        // And an unpolled drop behaves the same.
        {
            let _scope = engine.step(9);
        }
        let status = engine.status(region).unwrap();
        assert_eq!(status.iteration, 9);
        assert_eq!(status.samples_collected, 0);
    }

    #[test]
    fn broadcaster_fires_once_per_completed_step() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("bcast").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        engine
            .set_broadcaster(region, move |s: &RegionStatus| {
                sink.lock().unwrap().push(s.iteration);
            })
            .unwrap();
        let mut domain = Pulse::new();
        for it in 0..10u64 {
            // A skipped and a dropped scope before every completed one:
            // neither may broadcast.
            engine.step(it).skip();
            {
                let _scope = engine.step(it);
            }
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_region_reports_nothing() {
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("empty").unwrap();
        let report = engine.step(0).complete(&Pulse::new());
        let status = report.region(region).unwrap();
        assert_eq!(status.samples_collected, 0);
        assert!(!status.converged);
        assert!(!status.should_terminate);
        assert!(!report.should_terminate());
        assert!(!report.all_converged());
    }

    #[test]
    fn front_location_tracks_the_pulse() {
        let (engine, region) = run_engine(Engine::new(), 120);
        let front = engine.status(region).unwrap().front_location.unwrap();
        assert!((1..=12).contains(&front));
    }

    #[test]
    fn multi_region_sessions_progress_independently() {
        let mut engine: Engine<Pulse> = Engine::new();
        let dense = engine.add_region("dense").unwrap();
        let sparse = engine.add_region("sparse").unwrap();
        engine.add_analysis(dense, pulse_spec("velocity")).unwrap();
        let sparse_spec = AnalysisSpec::builder()
            .name("velocity")
            .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
            .spatial(IterParam::new(1, 12, 1).unwrap())
            .temporal(IterParam::new(0, 300, 10).unwrap())
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(10)
            .build()
            .unwrap();
        engine.add_analysis(sparse, sparse_spec).unwrap();

        let mut domain = Pulse::new();
        for it in 0..100u64 {
            let step = engine.step(it);
            domain.advance(it);
            let report = step.complete(&domain);
            assert_eq!(report.regions().len(), 2);
        }
        let dense_samples = engine.status(dense).unwrap().samples_collected;
        let sparse_samples = engine.status(sparse).unwrap().samples_collected;
        assert!(dense_samples > sparse_samples);
        assert!(sparse_samples > 0);
    }

    /// Builds the same engine shape as [`run_engine`] without running it.
    fn fresh_engine(config: EngineConfig) -> (Engine<Pulse>, RegionId) {
        let mut engine = Engine::with_config(config);
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        (engine, region)
    }

    fn drive(engine: &mut Engine<Pulse>, domain: &mut Pulse, range: std::ops::Range<u64>) {
        for it in range {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(domain);
        }
    }

    fn assert_same_terminal_state(
        a: &Engine<Pulse>,
        ra: RegionId,
        b: &Engine<Pulse>,
        rb: RegionId,
    ) {
        assert_eq!(a.status(ra).unwrap(), b.status(rb).unwrap());
        let ia = a.analysis_id(ra, 0).unwrap();
        let ib = b.analysis_id(rb, 0).unwrap();
        assert_eq!(
            a.trainer(ia).unwrap().loss_history(),
            b.trainer(ib).unwrap().loss_history(),
            "loss sequences must be bit-identical"
        );
        assert_eq!(
            a.trainer(ia).unwrap().model().coefficients(),
            b.trainer(ib).unwrap().model().coefficients()
        );
        assert_eq!(a.history(ia).unwrap(), b.history(ib).unwrap());
    }

    /// The tentpole invariant: snapshot mid-run, restore onto a freshly
    /// configured engine, continue — and end bit-identical to an engine
    /// that never stopped.
    #[test]
    fn restored_engine_continues_bit_identically() {
        // One step past a batch boundary and one mid-fill, to cover both
        // pending-batch shapes.
        for split in [100u64, 153] {
            let (mut reference, reference_region) = fresh_engine(EngineConfig::inline());
            let mut domain = Pulse::new();
            drive(&mut reference, &mut domain, 0..301);
            reference.drain();

            let (mut original, region) = fresh_engine(EngineConfig::inline());
            let mut domain = Pulse::new();
            drive(&mut original, &mut domain, 0..split);
            let bytes = original.snapshot();

            let (mut restored, restored_region) = fresh_engine(EngineConfig::inline());
            restored.restore(&bytes).unwrap();
            // The restore itself is faithful...
            assert_eq!(
                original.status(region).unwrap(),
                restored.status(restored_region).unwrap()
            );
            // ...and so is the continuation. The domain replays from its
            // own state (it is a pure function of the iteration).
            let mut domain = Pulse::new();
            drive(&mut restored, &mut domain, split..301);
            restored.drain();
            assert_same_terminal_state(&restored, restored_region, &reference, reference_region);
        }
    }

    /// Snapshots taken from a background engine restore bit-identically
    /// onto an inline engine and vice versa: draining before serializing
    /// erases the scheduling difference.
    #[test]
    fn snapshot_round_trips_across_training_modes() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let (mut background, _) = fresh_engine(EngineConfig::background(pool));
        let mut domain = Pulse::new();
        drive(&mut background, &mut domain, 0..153);
        let bytes = background.snapshot();

        let (mut restored, restored_region) = fresh_engine(EngineConfig::inline());
        restored.restore(&bytes).unwrap();
        let mut domain = Pulse::new();
        drive(&mut restored, &mut domain, 153..301);
        restored.drain();

        let (mut reference, reference_region) = fresh_engine(EngineConfig::inline());
        let mut domain = Pulse::new();
        drive(&mut reference, &mut domain, 0..301);
        reference.drain();
        assert_same_terminal_state(&restored, restored_region, &reference, reference_region);
    }

    /// A store section tagged `1` was written by the removed sharded
    /// collector. The container layout is unchanged, so such a snapshot
    /// still parses — and is rejected as a configuration mismatch before
    /// the target engine is touched.
    #[test]
    fn sharded_store_tag_is_rejected_as_mismatch() {
        let mut header = Enc::default();
        header.put_usize(1);
        header.put_u64(0);
        header.put_u64(0);
        let mut region = Enc::default();
        region.put_str("pulse");
        encode_status(&mut region, &RegionStatus::default());
        region.put_usize(1);
        region.put_str("velocity");
        region.put_u8(1);
        let mut container = Container::new();
        container.section(SECTION_ENGINE, header);
        container.section(SECTION_REGION, region);
        let bytes = container.finish();

        let (mut target, target_region) = fresh_engine(EngineConfig::inline());
        let mut domain = Pulse::new();
        drive(&mut target, &mut domain, 0..40);
        let before = target.status(target_region).unwrap().clone();
        assert!(matches!(
            target.restore(&bytes),
            Err(Error::SnapshotMismatch { .. })
        ));
        assert_eq!(&before, target.status(target_region).unwrap());
        drive(&mut target, &mut domain, 40..60);
        assert_eq!(target.status(target_region).unwrap().iteration, 59);
    }

    /// Restore fails closed: a mismatching or corrupt snapshot leaves the
    /// target engine exactly as it was.
    #[test]
    fn failed_restore_leaves_engine_untouched() {
        let (mut original, _) = fresh_engine(EngineConfig::inline());
        let mut domain = Pulse::new();
        drive(&mut original, &mut domain, 0..100);
        let bytes = original.snapshot();

        let (mut target, target_region) = fresh_engine(EngineConfig::inline());
        let mut domain = Pulse::new();
        drive(&mut target, &mut domain, 0..40);
        target.drain();
        let before = target.status(target_region).unwrap().clone();

        // Corrupt: flip a payload byte (fails the section checksum).
        let mut tampered = bytes.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x40;
        assert!(matches!(
            target.restore(&tampered),
            Err(Error::SnapshotCorrupt { .. })
        ));
        assert_eq!(&before, target.status(target_region).unwrap());

        // Mismatch: a snapshot of a differently named region.
        let mut renamed: Engine<Pulse> = Engine::new();
        let other = renamed.add_region("other").unwrap();
        renamed.add_analysis(other, pulse_spec("velocity")).unwrap();
        let other_bytes = renamed.snapshot();
        assert!(matches!(
            target.restore(&other_bytes),
            Err(Error::SnapshotMismatch { .. })
        ));
        assert_eq!(&before, target.status(target_region).unwrap());

        // And a valid restore still succeeds afterwards.
        target.restore(&bytes).unwrap();
    }

    /// `shutdown` twice (and then `drain`) is a clean no-op — the
    /// eviction path may run more than once (explicit shutdown followed by
    /// drop) and must never disturb already-settled state.
    #[test]
    fn shutdown_is_idempotent() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        drive(&mut engine, &mut domain, 0..153);
        engine.shutdown();
        let after_first = engine.status(region).unwrap().clone();
        let losses = engine
            .trainer(engine.analysis_id(region, 0).unwrap())
            .unwrap()
            .loss_history()
            .to_vec();
        engine.shutdown();
        assert_eq!(&after_first, engine.status(region).unwrap());
        assert_eq!(
            losses,
            engine
                .trainer(engine.analysis_id(region, 0).unwrap())
                .unwrap()
                .loss_history()
        );
        // The queue was discarded; draining afterwards has nothing to do.
        engine.drain();
        assert_eq!(
            losses,
            engine
                .trainer(engine.analysis_id(region, 0).unwrap())
                .unwrap()
                .loss_history()
        );
    }

    #[test]
    fn telemetry_records_stage_events_and_budget_ledger() {
        let config = EngineConfig {
            telemetry: TelemetryConfig::on(),
            ..EngineConfig::default()
        };
        let (mut engine, region) = fresh_engine(config);
        let mut domain = Pulse::new();
        let mut last = StepReport::default();
        for it in 0..120u64 {
            let step = engine.step(it);
            domain.advance(it);
            let report = step.complete(&domain);
            assert!(
                report.budget_used() >= last.budget_used(),
                "budget ledger is cumulative"
            );
            last = report;
        }
        // Sampling runs every step, so its stage clock must have ticked.
        assert!(last.stage_nanos(Stage::Sample) > 0);
        assert!(last.budget_used() > 0);
        assert_eq!(last.budget_limit(), None, "no budget configured");
        assert!(!last.shed());

        let analysis = engine.analysis_id(region, 0).unwrap();
        let recorder = engine.telemetry(analysis).unwrap();
        assert_eq!(recorder.capacity(), TelemetryConfig::DEFAULT_RING_CAPACITY);
        assert_eq!(recorder.histogram(Stage::Sample).count(), 120);
        assert_eq!(recorder.histogram(Stage::Assemble).count(), 120);
        assert!(recorder.histogram(Stage::Train).count() > 0);
        assert!(recorder.histogram(Stage::Extract).count() > 0);
        assert_eq!(recorder.sheds(), 0);
        assert!(!recorder.is_empty());

        // Snapshot serialization is timed as its own stage.
        let _ = engine.snapshot();
        assert_eq!(
            engine
                .telemetry(analysis)
                .unwrap()
                .histogram(Stage::Snapshot)
                .count(),
            1
        );
    }

    #[test]
    fn untimed_engine_reports_zero_stage_nanos_and_empty_recorder() {
        // Pin telemetry off explicitly: the suite must pass under an
        // INSITU_TELEMETRY=1 environment too, and Some(false) beats the
        // env fallback.
        let mut config = EngineConfig::inline();
        config.telemetry.enabled = Some(false);
        let (mut engine, region) = fresh_engine(config);
        let mut domain = Pulse::new();
        let mut last = StepReport::default();
        for it in 0..50u64 {
            let step = engine.step(it);
            domain.advance(it);
            last = step.complete(&domain);
        }
        for stage in Stage::ALL {
            assert_eq!(last.stage_nanos(stage), 0);
        }
        assert_eq!(last.budget_used(), 0);
        let analysis = engine.analysis_id(region, 0).unwrap();
        let recorder = engine.telemetry(analysis).unwrap();
        assert_eq!(recorder.capacity(), 0);
        assert!(recorder.is_empty());
        assert_eq!(recorder.histogram(Stage::Sample).count(), 0);
    }

    /// A budget so tight every step overloads it: the engine defers
    /// extraction continuously, yet
    /// after `drain` (which always extracts) the terminal state is
    /// bit-identical to an unbudgeted run — deferral never changes bits.
    #[test]
    fn defer_extraction_sheds_and_stays_bit_identical_after_drain() {
        let (reference, reference_region) = run_engine(Engine::new(), 301);

        let config = EngineConfig {
            budget: Some(StepBudget::new(std::time::Duration::from_nanos(1))),
            ..EngineConfig::default()
        };
        let mut engine = Engine::with_config(config);
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        let mut shed_reports = 0u64;
        for it in 0..301u64 {
            let step = engine.step(it);
            domain.advance(it);
            let report = step.complete(&domain);
            if report.shed() {
                shed_reports += 1;
            }
            assert_eq!(report.budget_limit(), Some(1));
        }
        engine.drain();

        // The EWMA arms after the first measured step; everything after
        // overloads a 1 ns budget.
        assert_eq!(shed_reports, 300);
        assert_eq!(engine.shed_steps(), 300);
        let analysis = engine.analysis_id(region, 0).unwrap();
        assert_eq!(engine.telemetry(analysis).unwrap().sheds(), 300);

        assert_same_terminal_state(&reference, reference_region, &engine, region);
    }
}
