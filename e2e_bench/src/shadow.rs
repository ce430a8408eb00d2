//! The shadow pipeline: the engine's four stages rebuilt from the library's
//! public parts (`Collector`, `IncrementalTrainer`, the extractors) and
//! stepped beside an engine on the same domain, so each stage can be timed
//! from outside. Its loss history and feature must match the engine's bit
//! for bit; if they do not, the stage times describe some other pipeline.

use std::marker::PhantomData;
use std::time::Instant;

use insitu::collect::{Collector, PredictorLayout, Retention};
use insitu::extract::{BreakpointExtractor, DelayTimeExtractor, FeatureKind};
use insitu::model::{IncrementalTrainer, TrainerConfig};
use insitu::region::{AnalysisSpec, ExitAction, FeatureValue};
use insitu::{IterParam, VarProvider};

use crate::trace::{Name, Spans};

/// Everything that shapes one analysis, shared by the engine spec and its
/// shadow so the two cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub spatial: IterParam,
    pub temporal: IterParam,
    pub layout: PredictorLayout,
    pub feature: FeatureKind,
    pub lag: u64,
    pub batch_capacity: usize,
    pub retention: Retention,
}

impl Plan {
    /// The engine's spec for this plan.
    pub fn spec<D: ?Sized, P>(&self, name: &str, provider: P, exit: ExitAction) -> AnalysisSpec<D>
    where
        P: VarProvider<D> + Send + Sync + 'static,
    {
        AnalysisSpec::builder()
            .name(name)
            .provider(provider)
            .spatial(self.spatial)
            .temporal(self.temporal)
            .layout(self.layout)
            .feature(self.feature)
            .lag(self.lag)
            .batch_capacity(self.batch_capacity)
            .retention(self.retention)
            .exit(exit)
            .build()
            .expect("benchmark analysis plans are valid")
    }
}

/// Work the shadow did, as exact counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub samples: u64,
    pub rows: u64,
    pub batches: u64,
    pub extract_calls: u64,
    /// Iteration at which the model first met its convergence criteria.
    pub converged_at: Option<u64>,
}

/// One analysis' shadow pipeline.
pub struct Shadow<D: ?Sized, P> {
    collector: Collector,
    trainer: IncrementalTrainer,
    provider: P,
    feature_kind: FeatureKind,
    feature: Option<FeatureValue>,
    pub counts: Counts,
    domain: PhantomData<fn(&D)>,
}

impl<D: ?Sized, P: VarProvider<D>> Shadow<D, P> {
    pub fn new(plan: &Plan, provider: P) -> Self {
        let config = TrainerConfig::default();
        Self {
            collector: Collector::with_retention(
                plan.spatial,
                plan.temporal,
                config.order,
                plan.lag,
                plan.layout,
                plan.batch_capacity,
                plan.retention,
            ),
            trainer: IncrementalTrainer::new(config).expect("default trainer config is valid"),
            provider,
            feature_kind: plan.feature,
            feature: None,
            counts: Counts::default(),
            domain: PhantomData,
        }
    }

    /// Runs the engine's per-step stages in the engine's order: sample,
    /// assemble, train a filled batch, then extract once the model has
    /// converged or collection has ended. Every call is a span under
    /// `parent`.
    pub fn step(&mut self, iteration: u64, domain: &D, spans: &mut Spans, parent: u32, step: u32) {
        let t0 = Instant::now();
        let samples = self.collector.sample(iteration, domain, &self.provider);
        let t1 = Instant::now();
        spans.push(Name::Sample, t0, t1, parent, step);
        self.counts.samples += samples as u64;

        let batch = self.collector.assemble(iteration);
        let t2 = Instant::now();
        spans.push(Name::Assemble, t1, t2, parent, step);
        if let Some(batch) = batch {
            let t3 = Instant::now();
            let trained = self.trainer.train_batch(&batch).is_ok();
            let t4 = Instant::now();
            spans.push(Name::Train, t3, t4, parent, step);
            self.counts.rows += batch.len() as u64;
            self.counts.batches += u64::from(trained);
            self.collector.recycle(batch);
        }
        let converged = self.trainer.is_converged();
        if converged && self.counts.converged_at.is_none() {
            self.counts.converged_at = Some(iteration);
        }
        if converged || self.collector.finished(iteration) {
            self.extract(spans, parent, step);
        }
    }

    /// The shadow of `Engine::extract_now`: extract from whatever has been
    /// collected.
    pub fn extract(&mut self, spans: &mut Spans, parent: u32, step: u32) {
        let history = self.collector.history();
        if history.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let extracted = match self.feature_kind {
            FeatureKind::Breakpoint { threshold } => {
                let peaks = history.peak_profile();
                let initial = peaks.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
                (initial > 0.0)
                    .then(|| BreakpointExtractor::new(threshold.clamp(1e-6, 1.0), initial).ok())
                    .flatten()
                    .and_then(|ex| ex.extract_from_profile(peaks).ok())
                    .map(FeatureValue::Breakpoint)
            }
            FeatureKind::DelayTime => {
                // The engine's representative series: the location with
                // the most samples, the last one on a tie.
                let location = history
                    .iter_locations()
                    .max_by_key(|&l| history.recorded_of(l))
                    .unwrap_or(0);
                history
                    .iterations_of(location)
                    .zip(history.values_of(location))
                    .and_then(|(its, values)| {
                        DelayTimeExtractor::new().extract_sampled(its, values).ok()
                    })
                    .map(FeatureValue::DelayTime)
            }
            FeatureKind::Outliers { .. } => unreachable!("no benchmark workload extracts outliers"),
        };
        let t1 = Instant::now();
        spans.push(Name::Extract, t0, t1, parent, step);
        self.counts.extract_calls += 1;
        if extracted.is_some() {
            self.feature = extracted;
        }
    }

    pub fn loss_history(&self) -> &[f64] {
        self.trainer.loss_history()
    }

    pub fn feature(&self) -> Option<&FeatureValue> {
        self.feature.as_ref()
    }
}

/// Bit-exact identity of two loss histories.
pub fn same_losses(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bit-exact identity of two features. `Debug` prints every `f64` in its
/// shortest round-trip form, so equal strings mean equal bits.
pub fn same_feature(a: Option<&FeatureValue>, b: Option<&FeatureValue>) -> bool {
    format!("{a:?}") == format!("{b:?}")
}
