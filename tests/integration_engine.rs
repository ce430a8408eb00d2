//! Acceptance test for the engine's training modes: the same LULESH-style
//! workload driven through an `Engine` with inline training and one with
//! background training must extract the same feature values — with the
//! background run bit-identical after a final `engine.drain()`.

use insitu_repro::prelude::*;

const EDGE_ELEMS: usize = 14;
const TEMPORAL_END: u64 = 10_000;

fn lulesh_spec() -> AnalysisSpec<LuleshSim> {
    AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, 8, 1).unwrap())
        .temporal(IterParam::new(1, TEMPORAL_END, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .build()
        .unwrap()
}

/// Extracted features as `(name, scalar)` rows for exact comparison.
fn feature_rows(status: &RegionStatus) -> Vec<(String, f64)> {
    status
        .features
        .iter()
        .map(|(name, value)| (name.clone(), value.scalar()))
        .collect()
}

fn run_engine(config: EngineConfig) -> (Engine<LuleshSim>, RegionId, RegionStatus) {
    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    let mut engine: Engine<LuleshSim> = Engine::with_config(config);
    let region = engine.add_region("compat").unwrap();
    engine.add_analysis(region, lulesh_spec()).unwrap();
    sim.run_with(|s, it| {
        let step = engine.step(it);
        step.complete(s);
        true
    });
    engine.drain();
    engine.extract_now(region).unwrap();
    let status = engine.status(region).unwrap().clone();
    (engine, region, status)
}

#[test]
fn inline_and_background_engines_extract_identical_features() {
    let (inline_engine, inline_region, inline) = run_engine(EngineConfig::inline());
    let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
    let (bg_engine, bg_region, background) = run_engine(EngineConfig::background(pool));

    // Both modes saw the same samples and produced features.
    assert!(inline.samples_collected > 0);
    assert_eq!(inline.samples_collected, background.samples_collected);
    assert!(
        !feature_rows(&inline).is_empty(),
        "inline engine extracted nothing"
    );

    // Background training consumed the same batches in the same order, so
    // after drain() the results are bit-identical to inline.
    assert_eq!(feature_rows(&inline), feature_rows(&background));
    assert_eq!(inline.batches_trained, background.batches_trained);
    assert_eq!(inline.last_loss, background.last_loss);
    let ia = inline_engine.analysis_id(inline_region, 0).unwrap();
    let ib = bg_engine.analysis_id(bg_region, 0).unwrap();
    assert_eq!(
        inline_engine.trainer(ia).unwrap().model().coefficients(),
        bg_engine.trainer(ib).unwrap().model().coefficients(),
        "fitted AR coefficients must be bit-identical"
    );
}

#[test]
fn background_engine_does_not_perturb_the_physics() {
    let mut plain = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    plain.run_to_completion();

    let mut instrumented = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
    let mut engine: Engine<LuleshSim> = Engine::with_config(EngineConfig::background(pool));
    let region = engine.add_region("physics").unwrap();
    engine.add_analysis(region, lulesh_spec()).unwrap();
    instrumented.run_with(|s, it| {
        engine.step(it).complete(s);
        true
    });
    engine.drain();

    assert_eq!(plain.iteration(), instrumented.iteration());
    for loc in 0..EDGE_ELEMS {
        let a = plain.state().velocity_at(loc);
        let b = instrumented.state().velocity_at(loc);
        assert!(
            (a - b).abs() < 1e-12,
            "velocity at {loc} differs: {a} vs {b}"
        );
    }
}
