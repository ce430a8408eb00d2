//! In-engine telemetry: allocation-free per-analysis stage timing, and
//! the per-step budget/overload types the engine's adaptive shedding is
//! configured with.
//!
//! The paper's core promise is that in-situ extraction stays cheap enough
//! to ride along with the simulation step. This module is how the engine
//! *sees* that cost: every pipeline stage (sample, assemble, train,
//! extract, snapshot) is timed with monotonic clock reads on the hot
//! path, and the measurements land in a fixed-capacity [`Recorder`] per
//! analysis — a ring of timestamped [`StageEvent`]s plus one fixed-bucket
//! latency [`Histogram`] per stage. Everything is pre-allocated when the
//! analysis is armed, so recording performs **zero steady-state heap
//! allocations** (the counting-allocator test `steady_state_alloc`
//! proves it with the recorder armed).
//!
//! Telemetry is off by default. Turn it on per engine via
//! [`TelemetryConfig::enabled`], or process-wide with the
//! `INSITU_TELEMETRY` environment variable (`1`, `on` or `true`).
//! Configuring a [`StepBudget`] implies telemetry: the overload control
//! needs the stage clocks, and its shed decisions are recorded as
//! [`Stage::Shed`] events.
//!
//! What the clocks measure is **simulation-thread time**: the cost the
//! in-situ layer charges to the solver step. Background training that
//! runs on a pool worker only shows up as the (cheap) queue/reclaim time
//! the step itself spent — exactly the number the paper's overhead
//! argument is about.
//!
//! # Example
//!
//! ```
//! use insitu::telemetry::{Histogram, Recorder, Stage};
//!
//! let mut recorder = Recorder::with_capacity(16);
//! recorder.record(Stage::Sample, 0, 1_200);
//! recorder.record(Stage::Train, 0, 48_000);
//! recorder.record(Stage::Sample, 1, 1_350);
//!
//! // The ring holds the most recent events, oldest first.
//! let stages: Vec<Stage> = recorder.events().map(|e| e.stage).collect();
//! assert_eq!(stages, [Stage::Sample, Stage::Train, Stage::Sample]);
//!
//! // Each stage has a power-of-two-bucket latency histogram.
//! let sample = recorder.histogram(Stage::Sample);
//! assert_eq!(sample.count(), 2);
//! assert!(sample.mean_ns() > 1_200.0 && sample.mean_ns() < 1_350.0);
//! // Both sample timings fall in the (1024, 2048] ns bucket.
//! assert_eq!(sample.buckets()[11], 2);
//! assert_eq!(Histogram::bucket_upper_bound_ns(11), 2_048);
//! ```

use std::sync::OnceLock;
use std::time::Duration;

/// One pipeline stage of the engine, as timed by the telemetry layer.
///
/// The first five are the engine's explicit stages; [`Stage::Shed`] marks
/// a step the overload policy degraded (see [`StepBudget`]) — its
/// "elapsed" value is the cost EWMA that triggered the shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum Stage {
    /// Provider query + store record over the spatial characteristic.
    #[default]
    Sample = 0,
    /// Columnar mini-batch assembly from freshly recorded samples.
    Assemble = 1,
    /// Gradient-descent training — simulation-thread time only (inline
    /// training, fan-out dispatch/join, or background queue/reclaim).
    Train = 2,
    /// Feature extraction from the history/model state.
    Extract = 3,
    /// Serializing this analysis' section of an engine snapshot.
    Snapshot = 4,
    /// An overload shed: the step deferred extraction or skipped
    /// collection instead of stalling the simulation.
    Shed = 5,
}

impl Stage {
    /// Number of stage kinds (the length of [`Stage::ALL`]).
    pub const COUNT: usize = 6;

    /// Every stage, in discriminant order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Sample,
        Stage::Assemble,
        Stage::Train,
        Stage::Extract,
        Stage::Snapshot,
        Stage::Shed,
    ];

    /// Short lower-case stage name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Sample => "sample",
            Stage::Assemble => "assemble",
            Stage::Train => "train",
            Stage::Extract => "extract",
            Stage::Snapshot => "snapshot",
            Stage::Shed => "shed",
        }
    }

    /// The stage with this discriminant, used by wire decoders.
    pub fn from_u8(value: u8) -> Option<Stage> {
        Stage::ALL.get(value as usize).copied()
    }
}

/// One timed stage execution: which stage, during which simulation
/// iteration, and how long the simulation thread spent in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageEvent {
    /// The stage that ran.
    pub stage: Stage,
    /// The simulation iteration it ran under.
    pub iteration: u64,
    /// Elapsed monotonic nanoseconds on the simulation thread. For
    /// [`Stage::Shed`] events this is the cost EWMA at the shed decision.
    pub elapsed_ns: u64,
}

/// A fixed-bucket latency histogram: bucket `i` counts events with
/// `elapsed_ns` in `(2^(i-1), 2^i]` (bucket 0 covers 0..=1 ns). 32
/// buckets span 1 ns to ~2.1 s, which is every latency an in-situ stage
/// can plausibly have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: [u64; Histogram::BUCKETS],
    total_ns: u64,
    max_ns: u64,
}

impl Histogram {
    /// Number of power-of-two latency buckets.
    pub const BUCKETS: usize = 32;

    /// The inclusive upper bound of bucket `index`, in nanoseconds.
    pub fn bucket_upper_bound_ns(index: usize) -> u64 {
        1u64 << index.min(Histogram::BUCKETS - 1)
    }

    fn bucket_of(elapsed_ns: u64) -> usize {
        if elapsed_ns <= 1 {
            0
        } else {
            // Smallest i with elapsed <= 2^i.
            (64 - (elapsed_ns - 1).leading_zeros() as usize).min(Histogram::BUCKETS - 1)
        }
    }

    fn add(&mut self, elapsed_ns: u64) {
        self.counts[Histogram::bucket_of(elapsed_ns)] += 1;
        self.total_ns += elapsed_ns;
        self.max_ns = self.max_ns.max(elapsed_ns);
    }

    /// The per-bucket event counts.
    pub fn buckets(&self) -> &[u64; Histogram::BUCKETS] {
        &self.counts
    }

    /// Number of recorded events.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded elapsed nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// The largest recorded elapsed nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean elapsed nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.total_ns as f64 / count as f64
        }
    }

    /// The bucket upper bound at or above quantile `q` (0.0..=1.0) — a
    /// conservative (rounded-up-to-bucket) latency quantile, clamped to
    /// [`Histogram::max_ns`] so no quantile exceeds the largest observed
    /// event. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper_bound_ns(index).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Folds another histogram into this one (used by fleet-wide
    /// aggregation in the serve layer's stats consumers).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A fixed-capacity, allocation-free per-analysis telemetry recorder: a
/// ring of the most recent [`StageEvent`]s plus one [`Histogram`] per
/// stage. Everything is allocated at construction; [`Recorder::record`]
/// is a few array writes.
#[derive(Debug, Clone)]
pub struct Recorder {
    ring: Box<[StageEvent]>,
    head: usize,
    len: usize,
    histograms: [Histogram; Stage::COUNT],
    sheds: u64,
}

impl Recorder {
    /// A recorder whose ring keeps the most recent `capacity` events.
    /// Capacity 0 is legal: histograms still accumulate, the ring stays
    /// empty (the engine uses this for disabled-telemetry analyses so the
    /// accessors never dangle).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: vec![StageEvent::default(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            histograms: [Histogram::default(); Stage::COUNT],
            sheds: 0,
        }
    }

    /// Records one stage execution. Never allocates: the ring overwrites
    /// its oldest event once full.
    pub fn record(&mut self, stage: Stage, iteration: u64, elapsed_ns: u64) {
        self.histograms[stage as usize].add(elapsed_ns);
        if stage == Stage::Shed {
            self.sheds += 1;
        }
        if self.ring.is_empty() {
            return;
        }
        self.ring[self.head] = StageEvent {
            stage,
            iteration,
            elapsed_ns,
        };
        self.head = (self.head + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &StageEvent> {
        let start = (self.head + self.ring.len() - self.len) % self.ring.len().max(1);
        (0..self.len).map(move |i| &self.ring[(start + i) % self.ring.len()])
    }

    /// The latency histogram of one stage — a cheap borrowed view.
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.histograms[stage as usize]
    }

    /// Number of [`Stage::Shed`] events recorded (shed decisions made by
    /// the overload policy while this analysis was live).
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Ring capacity (how many recent events are retained).
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Telemetry settings of one engine
/// ([`EngineConfig::telemetry`](crate::engine::EngineConfig::telemetry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// `Some(true)`/`Some(false)` force telemetry on/off for this engine;
    /// `None` (the default) defers to the `INSITU_TELEMETRY` environment
    /// variable. A configured [`StepBudget`] forces telemetry on either
    /// way — overload control needs the stage clocks.
    pub enabled: Option<bool>,
}

impl TelemetryConfig {
    /// Events retained per timed analysis: enough to cover the recent
    /// window of any realistic cadence without measurable memory cost
    /// (~6 KiB/analysis). The ring is allocated once when the analysis is
    /// armed.
    pub const DEFAULT_RING_CAPACITY: usize = 256;

    /// Telemetry forced on for this engine.
    pub fn on() -> Self {
        Self {
            enabled: Some(true),
        }
    }
}

/// Whether `INSITU_TELEMETRY` asks for telemetry (`1`, `on` or `true`,
/// case-insensitive). Read once per process.
pub fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("INSITU_TELEMETRY").is_ok_and(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "on" || v == "true"
        })
    })
}

/// A per-step cost budget, enforced against the exponentially-weighted
/// moving average of step cost
/// ([`EngineConfig::budget`](crate::engine::EngineConfig::budget)).
///
/// The engine never stalls the simulation to enforce the budget — it
/// **sheds**: the decision is taken at the *start* of a step from the
/// previous steps' EWMA (deterministic ordering), and every shed is
/// recorded as a [`Stage::Shed`] telemetry event. An overloaded step
/// skips the extract stage; extraction happens on the next
/// non-overloaded step (or [`drain`](crate::engine::Engine::drain) /
/// [`extract_now`](crate::engine::Engine::extract_now)). Extraction is a
/// pure function of the collected store and fitted model, so deferring
/// it **never changes the extracted bits** — once load subsides the
/// EWMA decays below the limit, the engine resumes the full pipeline on
/// its own, and the features are identical to a run that never shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBudget {
    /// The per-step cost the EWMA is compared against.
    pub limit: Duration,
}

impl StepBudget {
    /// A budget of `limit` per step.
    pub fn new(limit: Duration) -> Self {
        Self { limit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_reports_in_order() {
        let mut r = Recorder::with_capacity(3);
        assert!(r.is_empty());
        for it in 0..5u64 {
            r.record(Stage::Sample, it, 10 * (it + 1));
        }
        let events: Vec<u64> = r.events().map(|e| e.iteration).collect();
        assert_eq!(events, [2, 3, 4], "ring keeps the 3 newest, oldest first");
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.histogram(Stage::Sample).count(), 5);
    }

    #[test]
    fn zero_capacity_ring_still_accumulates_histograms() {
        let mut r = Recorder::with_capacity(0);
        r.record(Stage::Train, 7, 1000);
        assert_eq!(r.events().count(), 0);
        assert_eq!(r.histogram(Stage::Train).count(), 1);
        assert_eq!(r.histogram(Stage::Train).total_ns(), 1000);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for ns in [0u64, 1, 2, 1024, 1025, 2048] {
            h.add(ns);
        }
        assert_eq!(h.buckets()[0], 2, "0 and 1 ns land in bucket 0");
        assert_eq!(h.buckets()[1], 1, "2 ns lands in (1, 2]");
        assert_eq!(h.buckets()[10], 1, "1024 ns lands in (512, 1024]");
        assert_eq!(h.buckets()[11], 2, "1025 and 2048 land in (1024, 2048]");
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_ns(), 2048);
        assert_eq!(Histogram::bucket_upper_bound_ns(11), 2048);
    }

    #[test]
    fn histogram_quantiles_round_up_to_bucket_bounds() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0, "empty histogram");
        for _ in 0..99 {
            h.add(100); // bucket (64, 128]
        }
        h.add(1_000_000); // one outlier
        assert_eq!(h.quantile_ns(0.5), 128);
        assert_eq!(h.quantile_ns(0.99), 128);
        // The outlier's bucket bound is 2^20 ns; the quantile stops at the
        // observed maximum instead.
        assert_eq!(h.quantile_ns(1.0), 1_000_000);
        let mean = h.mean_ns();
        assert!(mean > 100.0 && mean < 11_000.0);
    }

    #[test]
    fn histogram_quantiles_never_exceed_the_max() {
        let mut h = Histogram::default();
        for ns in [20_000u64, 25_000, 28_380] {
            h.add(ns); // all in bucket (16384, 32768]
        }
        assert_eq!(h.max_ns(), 28_380);
        assert_eq!(h.quantile_ns(0.5), 28_380);
        assert!(h.quantile_ns(0.99) <= h.max_ns());
        assert_eq!(h.quantile_ns(0.99), 28_380);
    }

    #[test]
    fn histogram_merge_adds_counts_and_keeps_max() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.add(100);
        b.add(5000);
        b.add(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total_ns(), 5200);
        assert_eq!(a.max_ns(), 5000);
    }

    #[test]
    fn shed_events_are_counted() {
        let mut r = Recorder::with_capacity(4);
        r.record(Stage::Shed, 3, 500);
        r.record(Stage::Sample, 4, 10);
        r.record(Stage::Shed, 5, 400);
        assert_eq!(r.sheds(), 2);
        assert_eq!(r.histogram(Stage::Shed).count(), 2);
    }

    #[test]
    fn stage_round_trips_through_u8() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_u8(stage as u8), Some(stage));
            assert!(!stage.name().is_empty());
        }
        assert_eq!(Stage::from_u8(Stage::COUNT as u8), None);
    }
}
