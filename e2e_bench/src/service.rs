//! `serve_lockstep`: the analysis service on a Unix socket, driven by one
//! client in a closed loop.
//!
//! One connection carries 32 sessions of loadgen's travelling pulse. Each
//! step is sent only after the previous one was acknowledged, and the
//! identical step is also fed to an in-process `Session`, interleaved, so
//! the served round trip is always compared with the in-process step taken
//! under the same host conditions.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use insitu::prelude::{FrameProvider, SampleFrame};
use insitu::telemetry::Stage;
use serve::loadgen::{pulse_value, LoadgenConfig};
use serve::session::Session;
use serve::wire::{Frame, SessionSpec};
use serve::{Client, Server, ServerConfig};

use crate::layers::{self, Tracer};
use crate::metrics::{mean, median, Ledger};
use crate::shadow::{same_feature, Plan, Shadow};
use crate::trace::{Name, ROOT};
use crate::{Ctx, Outcome, Rng};

/// Sessions multiplexed on the one connection.
const SESSIONS: usize = 32;
/// Locations per step.
const LOCATIONS: u64 = 8;
/// Steps streamed into every session per round.
const STEPS: u64 = 240;

fn spec() -> SessionSpec {
    LoadgenConfig {
        sessions: SESSIONS,
        steps: STEPS,
        locations: LOCATIONS as usize,
        window: 64,
        ..LoadgenConfig::default()
    }
    .session_spec()
}

/// The shadow plan of a served session.
fn plan(spec: &SessionSpec) -> Plan {
    Plan {
        spatial: spec.spatial,
        temporal: spec.temporal,
        layout: spec.layout,
        feature: spec.feature,
        lag: spec.lag,
        batch_capacity: spec.batch_capacity,
        retention: spec.retention,
    }
}

/// What one round established for one session.
struct SessionResult {
    features: String,
    /// Served features equal the in-process session's, bit for bit.
    identical: bool,
    converged_at: Option<u64>,
}

pub fn serve_lockstep(ctx: &Ctx) -> Outcome {
    let mut rng = Rng::new(ctx.seed);
    // Consecutive pulse seeds: the pulse's shape repeats with period 35 in
    // its seed, so the sessions cover 32 of the 35 shapes whatever the
    // seed, and the seed only decides which three are left out.
    let base = rng.next_u64() >> 1;
    let pulses: Vec<u64> = (0..SESSIONS as u64).map(|s| base + s).collect();
    let spec = spec();
    let locations: Vec<u64> = (1..=LOCATIONS).collect();
    let dir = PathBuf::from("e2e_bench/out");
    std::fs::create_dir_all(&dir).expect("benchmark output directory");
    let socket = dir.join(format!("serve-{}.sock", std::process::id()));

    let started = Instant::now();
    let mut untraced = Ledger::default();
    let mut traced = Ledger::default();
    let mut tracer = ctx.trace.then(Tracer::new);
    let mut setup_rounds = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut reference: Vec<SessionResult> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut step_id = 0u32;
    let mut spans_per_round = 0usize;
    let min_rounds = if ctx.trace { 3 } else { 1 };
    let mut values = vec![0.0; locations.len()];

    for round in 0usize.. {
        let spans_before = tracer.as_ref().map_or(0, |t| t.spans.spans().len());
        let trace_round = tracer
            .as_ref()
            .is_some_and(|t| round % 2 == 1 && t.has_room(spans_per_round));
        let _ = std::fs::remove_file(&socket);

        let t0 = Instant::now();
        let config = ServerConfig {
            workers: 1,
            event_threads: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind_unix(&socket, config).expect("bind the benchmark socket");
        let mut client = Client::connect_unix(&socket).expect("connect to the benchmark server");
        let ids: Vec<u64> = (0..SESSIONS)
            .map(|_| {
                client
                    .open_session(spec.clone())
                    .expect("open a served session")
            })
            .collect();
        let mut sessions: Vec<Session> = (0..SESSIONS)
            .map(|_| Session::open(&spec).expect("open an in-process session"))
            .collect();
        setup_rounds.push(t0.elapsed().as_secs_f64());

        let mut shadows: Vec<(SampleFrame, Shadow<SampleFrame, FrameProvider>)> = if trace_round {
            (0..SESSIONS)
                .map(|_| (SampleFrame::new(), Shadow::new(&plan(&spec), FrameProvider)))
                .collect()
        } else {
            Vec::new()
        };
        let mut converged_at: Vec<Option<u64>> = vec![None; SESSIONS];
        let ledger = if trace_round {
            &mut traced
        } else {
            &mut untraced
        };

        for iteration in 0..STEPS {
            for s in 0..SESSIONS {
                for (value, &location) in values.iter_mut().zip(&locations) {
                    *value = pulse_value(pulses[s], iteration, location);
                }
                attempted += 1;
                let t0 = Instant::now();
                let local = sessions[s].step(iteration, &locations, &values);
                let t1 = Instant::now();
                let (served, busy) = if trace_round {
                    raw_step(&mut client, ids[s], iteration, &locations, &values)
                } else {
                    let step = client.step(ids[s], iteration, &locations, &values);
                    (step.is_ok(), 0)
                };
                let t2 = Instant::now();
                let (host, rtt) = ((t1 - t0).as_nanos() as f64, (t2 - t1).as_nanos() as f64);
                ledger.host.push(host);
                ledger.extra.push(rtt - host);
                if local.is_err() || !served {
                    failed += 1;
                }
                if round == 0 && converged_at[s].is_none() && sessions[s].poll().converged {
                    converged_at[s] = Some(iteration);
                }
                if let Some(tracer) = tracer.as_mut().filter(|_| trace_round) {
                    let id = step_id;
                    let step = tracer.spans.open(Name::Step, t0, id);
                    tracer.spans.push(Name::Host, t0, t1, step, id);
                    tracer.spans.push(Name::Analysis, t1, t2, step, id);
                    tracer.requests += 1;
                    tracer.busy += busy;
                    let (frame, shadow) = &mut shadows[s];
                    frame
                        .ingest(&locations, &values)
                        .expect("well-formed columns");
                    shadow.step(iteration, frame, &mut tracer.spans, step, id);
                    tracer.codec(ids[s], iteration, &locations, &values, step, id);
                    tracer.spans.close(step, Instant::now());
                }
                step_id += 1;
            }
        }

        // Served features must equal the in-process session's, bit for bit.
        let mut results = Vec::with_capacity(SESSIONS);
        for s in 0..SESSIONS {
            attempted += 1;
            let t0 = Instant::now();
            let local = sessions[s].extract();
            let t1 = Instant::now();
            let served = client.extract(ids[s]);
            let identical = served
                .as_ref()
                .is_ok_and(|f| format!("{f:?}") == format!("{local:?}"));
            if !identical || local.is_empty() {
                failed += 1;
            }
            results.push(SessionResult {
                features: format!("{local:?}"),
                identical,
                converged_at: converged_at[s],
            });
            if let Some(tracer) = tracer.as_mut().filter(|_| trace_round) {
                tracer.spans.push(Name::Finish, t0, t1, ROOT, step_id);
                let (_, shadow) = &mut shadows[s];
                shadow.extract(&mut tracer.spans, ROOT, step_id);
                let status = sessions[s].poll();
                let loss = shadow.loss_history().last().copied();
                let faithful = same_feature(shadow.feature(), local.first().map(|(_, f)| f))
                    && shadow.counts.batches == status.batches_trained
                    && loss.map(f64::to_bits) == status.last_loss.map(f64::to_bits);
                tracer.diverged += u64::from(!faithful);
                tracer.counts.absorb(&shadow.counts);
                for stats in sessions[s].stats().stages {
                    if let Some(stage) = Stage::from_u8(stats.stage) {
                        tracer.add_stage(stage, stats.total_ns as f64);
                    }
                }
            }
            let _ = client.close_session(ids[s]);
        }
        drop(client);
        server.shutdown();
        let _ = std::fs::remove_file(&socket);

        if round == 0 {
            // Read after the first round; later rounds repeat it and add
            // only the benchmark's own per-step ledger.
            peak_rss_mb = crate::host::peak_rss_mb();
            reference = results;
        } else if results
            .iter()
            .zip(&reference)
            .any(|(now, first)| now.features != first.features)
        {
            failed += 1;
        }
        if let Some(t) = tracer.as_mut().filter(|_| trace_round) {
            spans_per_round = t.spans.spans().len() - spans_before;
            t.passes += 1;
        }
        if started.elapsed().as_secs_f64() >= ctx.seconds && round + 1 >= min_rounds {
            break;
        }
    }

    let identical = reference.iter().filter(|r| r.identical).count();
    let saved: Vec<f64> = reference
        .iter()
        .map(|r| 100.0 * (1.0 - r.converged_at.map_or(STEPS, |at| at + 1) as f64 / STEPS as f64))
        .collect();
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&setup_rounds));
    m.insert("overhead_pct", untraced.overhead_pct());
    m.insert("step.overhead_p50_pct", untraced.step_pct(0.50));
    m.insert("step_overhead_p99_pct", untraced.step_pct(0.99));
    m.insert(
        "feature_accuracy_pct",
        100.0 * identical as f64 / SESSIONS as f64,
    );
    m.insert("early_stop_saved_pct", mean(&saved));
    m.insert("peak_rss_mb", peak_rss_mb);
    if let Some(tracer) = tracer.as_mut() {
        failed += layers::report(
            &mut m,
            tracer,
            Name::Host,
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

/// One lock-step request through `Client::send` and `Client::recv`, the
/// calls `Client::step` makes, so `Busy` replies can be counted. Returns
/// whether the step was acknowledged and how many `Busy` replies came
/// first.
fn raw_step(
    client: &mut Client,
    session: u64,
    iteration: u64,
    locations: &[u64],
    values: &[f64],
) -> (bool, u64) {
    let frame = Frame::StepSamples {
        session,
        iteration,
        locations: locations.to_vec(),
        values: values.to_vec(),
    };
    let mut busy = 0;
    loop {
        if client.send(&frame).is_err() {
            return (false, busy);
        }
        match client.recv() {
            Ok(Frame::StepAck { .. }) => return (true, busy),
            Ok(Frame::Busy { .. }) => busy += 1,
            _ => return (false, busy),
        }
    }
}
