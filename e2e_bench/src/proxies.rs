//! The two case-study workloads: seeded campaigns of LULESH Sedov blasts
//! and of white-dwarf mergers, each driven step by step through the
//! proxies' and the engine's public calls.
//!
//! Every step is timed as two intervals of the same loop iteration: the
//! solver's `step()` and the engine's `step(..).complete`. Host drift
//! (other tenants, frequency changes) stretches both alike, so their
//! ratio holds steady where either absolute time would not.

use std::collections::BTreeMap;
use std::time::Instant;

use insitu::collect::{PredictorLayout, Retention};
use insitu::engine::{AnalysisId, Engine, EngineConfig, RegionId};
use insitu::extract::FeatureKind;
use insitu::region::{ExitAction, FeatureValue};
use insitu::telemetry::Stage;
use insitu::IterParam;
use lulesh::{LuleshConfig, LuleshSim};
use wdmerger::{DiagnosticVariable, WdMergerConfig, WdMergerSim};

use crate::layers::Tracer;
use crate::metrics::{accuracy_pct, mean, median, Ledger};
use crate::shadow::{same_feature, same_losses, Plan, Shadow};
use crate::trace::{Name, ROOT};
use crate::{Ctx, Outcome, Rng};

/// A proxy application as the benchmark drives it.
trait Solver: Sized + 'static {
    type Config: Copy;
    fn create(config: Self::Config) -> Self;
    fn advance(&mut self);
    fn finished(&self) -> bool;
    fn iteration(&self) -> u64;
    /// The input's ground truth, from the proxy's own diagnostics.
    fn truth(&self, analysis: &Plan) -> Option<f64>;
}

impl Solver for LuleshSim {
    type Config = LuleshConfig;
    fn create(config: LuleshConfig) -> Self {
        LuleshSim::new(config)
    }
    fn advance(&mut self) {
        self.step();
    }
    fn finished(&self) -> bool {
        self.done()
    }
    fn iteration(&self) -> u64 {
        LuleshSim::iteration(self)
    }
    fn truth(&self, analysis: &Plan) -> Option<f64> {
        let FeatureKind::Breakpoint { threshold } = analysis.feature else {
            return None;
        };
        Some(self.diagnostics().breakpoint_radius(threshold) as f64)
    }
}

impl Solver for WdMergerSim {
    type Config = WdMergerConfig;
    fn create(config: WdMergerConfig) -> Self {
        WdMergerSim::new(config)
    }
    fn advance(&mut self) {
        self.step();
    }
    fn finished(&self) -> bool {
        self.done()
    }
    fn iteration(&self) -> u64 {
        self.step_count()
    }
    fn truth(&self, _: &Plan) -> Option<f64> {
        self.diagnostics().ground_truth_delay_time()
    }
}

fn velocity(sim: &LuleshSim, location: usize) -> f64 {
    sim.velocity_at(location)
}

fn diagnostic(sim: &WdMergerSim, location: usize) -> f64 {
    sim.diagnostic_at(location)
}

/// A proxy's diagnostic-variable provider.
type Provider<S> = fn(&S, usize) -> f64;

/// One workload: a campaign of inputs and the analyses each carries.
/// Every input runs twice: a non-stop arm (`ExitAction::Continue`), which
/// is timed, and an early-stop arm (`ExitAction::TerminateSimulation`).
struct Case<S: Solver> {
    inputs: Vec<S::Config>,
    analyses: Vec<(&'static str, Plan)>,
    provider: Provider<S>,
}

/// `lulesh_sedov`: Sedov blasts at 30 elements per edge whose energy the
/// seed perturbs by up to ±10 %; one velocity break-point analysis on the
/// 29-location radial edge.
pub fn lulesh_sedov(ctx: &Ctx) -> Outcome {
    let mut rng = Rng::new(ctx.seed);
    let inputs = (0..LULESH_BLASTS)
        .map(|_| {
            let base = LuleshConfig::with_edge_elems(30);
            LuleshConfig {
                initial_energy: base.initial_energy * rng.around(1.0, 0.10),
                ..base
            }
        })
        .collect();
    let plan = Plan {
        spatial: IterParam::new(1, 29, 1).expect("valid range"),
        temporal: IterParam::new(1, 1500, 1).expect("valid range"),
        layout: PredictorLayout::SpatioTemporal,
        feature: FeatureKind::Breakpoint { threshold: 0.05 },
        lag: 5,
        batch_capacity: 16,
        retention: Retention::Window(64),
    };
    run_case(
        ctx,
        &Case::<LuleshSim> {
            inputs,
            analyses: vec![("velocity", plan)],
            provider: velocity,
        },
    )
}

/// `wd_merger`: white-dwarf mergers at resolution 16, 110 steps each,
/// whose masses and initial separation the seed perturbs; four
/// single-channel delay-time analyses per merger.
pub fn wd_merger(ctx: &Ctx) -> Outcome {
    let mut rng = Rng::new(ctx.seed);
    let inputs = (0..WD_MERGERS)
        .map(|_| {
            let base = WdMergerConfig::with_resolution(16);
            WdMergerConfig {
                primary_mass: base.primary_mass * rng.around(1.0, 0.01),
                secondary_mass: base.secondary_mass * rng.around(1.0, 0.01),
                initial_separation: base.initial_separation * rng.around(1.0, 0.02),
                ..base
            }
        })
        .collect();
    let steps = WdMergerConfig::with_resolution(16).steps;
    let analyses = DiagnosticVariable::all()
        .into_iter()
        .map(|variable| {
            let plan = Plan {
                spatial: IterParam::single(variable.location() as u64),
                temporal: IterParam::new(1, steps, 1).expect("valid range"),
                layout: PredictorLayout::Temporal,
                feature: FeatureKind::DelayTime,
                lag: 1,
                batch_capacity: 8,
                retention: Retention::Full,
            };
            (variable.name(), plan)
        })
        .collect();
    run_case(
        ctx,
        &Case::<WdMergerSim> {
            inputs,
            analyses,
            provider: diagnostic,
        },
    )
}

/// Blasts per `lulesh_sedov` campaign.
const LULESH_BLASTS: usize = 4;
/// Mergers per `wd_merger` campaign.
const WD_MERGERS: usize = 128;

/// What one arm of one input produced.
struct Arm {
    iterations: u64,
    features: Vec<Option<FeatureValue>>,
    losses: Vec<Vec<f64>>,
}

/// What the first pass established for one input, which every later pass
/// must reproduce bit for bit.
struct Reference {
    truth: Vec<f64>,
    plain_iterations: u64,
    nonstop: Arm,
    early: Arm,
}

fn build<S: Solver>(
    case: &Case<S>,
    exit: ExitAction,
    traced: bool,
) -> (Engine<S>, RegionId, Vec<AnalysisId>) {
    let mut config = EngineConfig::default();
    if traced {
        config.telemetry.enabled = Some(true);
    }
    let mut engine = Engine::with_config(config);
    let region = engine.add_region("bench").expect("fresh engine");
    let ids = case
        .analyses
        .iter()
        .map(|(name, plan)| {
            engine
                .add_analysis(region, plan.spec(name, case.provider, exit))
                .expect("unique analysis names")
        })
        .collect();
    (engine, region, ids)
}

/// Runs one input's arm from set-up to extracted features. With a ledger
/// the arm's steps are timed; with a tracer its calls become spans and a
/// shadow pipeline runs beside the engine.
fn run_arm<S: Solver>(
    case: &Case<S>,
    input: S::Config,
    exit: ExitAction,
    ledger: Option<&mut Ledger>,
    mut tracer: Option<&mut Tracer>,
    step_id: &mut u32,
) -> Arm {
    let mut sim = S::create(input);
    let (mut engine, region, ids) = build(case, exit, tracer.is_some());

    let mut shadows: Vec<Shadow<S, Provider<S>>> = match tracer {
        Some(_) => case
            .analyses
            .iter()
            .map(|(_, plan)| Shadow::new(plan, case.provider))
            .collect(),
        None => Vec::new(),
    };
    let mut scratch = Ledger::default();
    let ledger = ledger.unwrap_or(&mut scratch);
    let mut locations: Vec<u64> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    while !sim.finished() {
        let t0 = Instant::now();
        sim.advance();
        let t1 = Instant::now();
        let iteration = sim.iteration();
        let report = engine.step(iteration).complete(&sim);
        let t2 = Instant::now();
        ledger.host.push((t1 - t0).as_nanos() as f64);
        ledger.extra.push((t2 - t1).as_nanos() as f64);
        let stop = report.should_terminate();
        if let Some(tracer) = tracer.as_deref_mut() {
            let id = *step_id;
            let step = tracer.spans.open(Name::Step, t0, id);
            tracer.spans.push(Name::Host, t0, t1, step, id);
            tracer.spans.push(Name::Analysis, t1, t2, step, id);
            for stage in Stage::ALL {
                tracer.add_stage(stage, report.stage_nanos(stage) as f64);
            }
            for shadow in &mut shadows {
                shadow.step(iteration, &sim, &mut tracer.spans, step, id);
            }
            // The codec cost of shipping this step's samples to the
            // analysis service, and of its acknowledgement.
            locations.clear();
            values.clear();
            for (_, plan) in &case.analyses {
                for location in plan.spatial.iter() {
                    locations.push(location);
                    values.push((case.provider)(&sim, location as usize));
                }
            }
            tracer.codec(1, iteration, &locations, &values, step, id);
            tracer.spans.close(step, Instant::now());
        }
        *step_id += 1;
        if stop {
            break;
        }
    }
    let t0 = Instant::now();
    engine.drain();
    engine.extract_now(region).expect("bench region");
    let t1 = Instant::now();
    ledger.finish += (t1 - t0).as_nanos() as f64;

    let status = engine.status(region).expect("bench region");
    let features: Vec<Option<FeatureValue>> = case
        .analyses
        .iter()
        .map(|(name, _)| status.feature(name).cloned())
        .collect();
    let losses: Vec<Vec<f64>> = ids
        .iter()
        .map(|&id| engine.trainer(id).expect("drained").loss_history().to_vec())
        .collect();
    if let Some(tracer) = tracer {
        let id = step_id.saturating_sub(1);
        tracer.spans.push(Name::Finish, t0, t1, ROOT, id);
        for (k, shadow) in shadows.iter_mut().enumerate() {
            shadow.extract(&mut tracer.spans, ROOT, id);
            let faithful = same_losses(shadow.loss_history(), &losses[k])
                && same_feature(shadow.feature(), features[k].as_ref());
            tracer.diverged += u64::from(!faithful);
            tracer.counts.absorb(&shadow.counts);
        }
    }
    Arm {
        iterations: sim.iteration(),
        features,
        losses,
    }
}

/// Rounds of the set-up measurement; the median is reported.
const SETUP_ROUNDS: usize = 21;

/// Median over [`SETUP_ROUNDS`] rounds of the wall time one campaign's
/// set-up calls take: proxy construction, `Engine::with_config`,
/// `add_region` and `add_analysis`, for every arm of every input. One
/// untimed round first lets the allocator reach its steady state.
fn setup_seconds<S: Solver>(case: &Case<S>) -> f64 {
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    for round in 0..=SETUP_ROUNDS {
        let start = Instant::now();
        for &input in &case.inputs {
            for exit in [ExitAction::Continue, ExitAction::TerminateSimulation] {
                let sim = S::create(input);
                let engine = build(case, exit, false);
                std::hint::black_box((&sim, &engine));
            }
        }
        if round > 0 {
            rounds.push(start.elapsed().as_secs_f64());
        }
    }
    median(&rounds)
}

fn same_arm(a: &Arm, b: &Arm) -> bool {
    a.iterations == b.iterations
        && a.features
            .iter()
            .zip(&b.features)
            .all(|(x, y)| same_feature(x.as_ref(), y.as_ref()))
        && a.losses
            .iter()
            .zip(&b.losses)
            .all(|(x, y)| same_losses(x, y))
}

fn run_case<S: Solver>(ctx: &Ctx, case: &Case<S>) -> Outcome {
    let started = Instant::now();
    let mut references: Vec<Reference> = Vec::with_capacity(case.inputs.len());
    let mut untraced = Ledger::default();
    let mut traced = Ledger::default();
    let mut tracer = ctx.trace.then(Tracer::new);
    let setup_s = setup_seconds(case);
    // Read after the first pass, which runs every input and arm once: the
    // passes after it repeat the same work and add only the benchmark's
    // own per-step ledger.
    let mut peak_rss_mb = 0.0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut step_id = 0u32;
    let mut spans_per_pass = 0usize;
    let min_passes = if ctx.trace { 3 } else { 1 };

    for pass in 0usize.. {
        let spans_before = tracer.as_ref().map_or(0, |t| t.spans.spans().len());
        // Traced and untraced passes alternate, so the trace overhead is
        // measured under the same host conditions as its baseline.
        let trace_pass = tracer
            .as_ref()
            .is_some_and(|t| pass % 2 == 1 && t.has_room(spans_per_pass));
        for (i, &input) in case.inputs.iter().enumerate() {
            attempted += case.analyses.len() as u64;
            let ledger = if trace_pass {
                &mut traced
            } else {
                &mut untraced
            };
            let pass_tracer = if trace_pass { tracer.as_mut() } else { None };
            let nonstop = run_arm(
                case,
                input,
                ExitAction::Continue,
                Some(ledger),
                pass_tracer,
                &mut step_id,
            );
            let early = run_arm(
                case,
                input,
                ExitAction::TerminateSimulation,
                None,
                None,
                &mut step_id,
            );
            let ok = if pass == 0 {
                let mut plain = S::create(input);
                while !plain.finished() {
                    plain.advance();
                }
                let truth: Vec<f64> = case
                    .analyses
                    .iter()
                    .map(|(_, plan)| plain.truth(plan).unwrap_or(f64::NAN))
                    .collect();
                let extracted = nonstop.features.iter().all(Option::is_some)
                    && early.features.iter().all(Option::is_some);
                let ok = extracted
                    && truth.iter().all(|t| t.is_finite() && *t > 0.0)
                    && plain.iteration() == nonstop.iterations;
                references.push(Reference {
                    truth,
                    plain_iterations: plain.iteration(),
                    nonstop,
                    early,
                });
                ok
            } else {
                let reference = &references[i];
                same_arm(&nonstop, &reference.nonstop) && same_arm(&early, &reference.early)
            };
            if !ok {
                failed += case.analyses.len() as u64;
            }
        }
        if pass == 0 {
            peak_rss_mb = crate::host::peak_rss_mb();
        }
        if let Some(t) = tracer.as_mut().filter(|_| trace_pass) {
            spans_per_pass = t.spans.spans().len() - spans_before;
            t.passes += 1;
        }
        if started.elapsed().as_secs_f64() >= ctx.seconds && pass + 1 >= min_passes {
            break;
        }
    }

    // Exact figures come from the first pass, which every later pass
    // reproduced (or was counted as failed).
    let mut accuracy = Vec::new();
    let mut saved = Vec::new();
    for reference in &references {
        let early = &reference.early;
        for (feature, truth) in early.features.iter().zip(&reference.truth) {
            if let Some(feature) = feature {
                accuracy.push(accuracy_pct(feature.scalar(), *truth));
            }
        }
        let share = early.iterations as f64 / reference.plain_iterations as f64;
        saved.push(100.0 * (1.0 - share));
    }

    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("overhead_pct", untraced.overhead_pct());
    m.insert("step.overhead_p50_pct", untraced.step_pct(0.50));
    m.insert("step_overhead_p99_pct", untraced.step_pct(0.99));
    m.insert("feature_accuracy_pct", mean(&accuracy));
    m.insert("early_stop_saved_pct", mean(&saved));
    m.insert("peak_rss_mb", peak_rss_mb);
    if let Some(tracer) = tracer.as_mut() {
        failed += crate::layers::report(
            &mut m,
            tracer,
            Name::Analysis,
            &traced,
            &untraced,
            &ctx.workload,
        );
    }
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
