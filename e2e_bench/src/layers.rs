//! Per-layer metrics of a traced run, computed from its spans.

use std::collections::BTreeMap;
use std::time::Instant;

use insitu::telemetry::Stage;
use serve::wire::Frame;

use crate::metrics::{mean, percentile, transport_ns, Ledger};
use crate::shadow::Counts;
use crate::trace::{Name, Spans, ROOT};

/// Counts of the shadow pipelines' work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub samples: u64,
    pub rows: u64,
    pub batches: u64,
    pub extract_calls: u64,
    converged_sum: u64,
    converged_n: u64,
}

impl Layers {
    pub fn absorb(&mut self, counts: &Counts) {
        self.samples += counts.samples;
        self.rows += counts.rows;
        self.batches += counts.batches;
        self.extract_calls += counts.extract_calls;
        if let Some(at) = counts.converged_at {
            self.converged_sum += at;
            self.converged_n += 1;
        }
    }
}

/// State of a traced run: its spans, the engine's own stage clocks, and
/// the exact counts of the shadow pipelines' work.
pub struct Tracer {
    pub spans: Spans,
    /// Σ of the engine's stage clocks over the traced steps, by stage.
    pub stage_ns: [f64; Stage::COUNT],
    /// Σ of every stage clock over the traced steps.
    pub attributed_ns: f64,
    /// Counts summed over the traced passes.
    pub counts: Layers,
    /// Traced passes. Every pass repeats the same inputs, so the counts of
    /// one pass are the sums divided by `passes`, exactly.
    pub passes: u64,
    /// Requests sent over the wire in traced passes (0 off the service).
    pub requests: u64,
    /// `Busy` replies among them.
    pub busy: u64,
    /// Shadow pipelines that did not reproduce their engine bit for bit.
    pub diverged: u64,
    /// Frame buffer for the codec measurement.
    wire: Vec<u8>,
}

/// Span buffer of a traced run (32 bytes a span).
pub const SPAN_CAPACITY: usize = 400_000;

impl Tracer {
    pub fn new() -> Self {
        Self {
            spans: Spans::with_capacity(SPAN_CAPACITY),
            stage_ns: [0.0; Stage::COUNT],
            attributed_ns: 0.0,
            counts: Layers::default(),
            passes: 0,
            requests: 0,
            busy: 0,
            diverged: 0,
            wire: Vec::new(),
        }
    }

    /// Whether another pass of `per_pass` spans still fits the buffer.
    pub fn has_room(&self, per_pass: usize) -> bool {
        SPAN_CAPACITY - self.spans.spans().len() > per_pass
    }

    /// Adds the engine's stage clocks for the stages the shadow mirrors.
    pub fn add_stage(&mut self, stage: Stage, ns: f64) {
        if matches!(
            stage,
            Stage::Sample | Stage::Assemble | Stage::Train | Stage::Extract
        ) {
            self.stage_ns[stage as usize] += ns;
            self.attributed_ns += ns;
        }
    }

    /// Times `Frame::encode` and `Frame::decode` of one step's
    /// `StepSamples` request and of its `StepAck`: the four codec calls a
    /// served round trip makes.
    pub fn codec(
        &mut self,
        session: u64,
        iteration: u64,
        locations: &[u64],
        values: &[f64],
        parent: u32,
        id: u32,
    ) {
        let request = Frame::StepSamples {
            session,
            iteration,
            locations: locations.to_vec(),
            values: values.to_vec(),
        };
        let ack = Frame::StepAck {
            session,
            iteration,
            samples: values.len() as u64,
            batches_trained: 0,
        };
        for frame in [&request, &ack] {
            self.wire.clear();
            let t0 = Instant::now();
            frame.encode(&mut self.wire);
            let t1 = Instant::now();
            let decoded = Frame::decode(&self.wire[4..]);
            let t2 = Instant::now();
            self.spans.push(Name::Encode, t0, t1, parent, id);
            self.spans.push(Name::Decode, t1, t2, parent, id);
            assert!(decoded.ok().as_ref() == Some(frame), "wire round trip");
        }
    }
}

/// Per-step sums of the spans that share a step id.
#[derive(Default, Clone, Copy)]
struct StepSums {
    host: f64,
    analysis: f64,
    shadow: f64,
    encode: f64,
    decode: f64,
}

fn per_unit(total_ns: f64, units: u64, scale: f64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total_ns / units as f64 / scale
    }
}

/// Adds every per-layer metric of the traced run to `m`.
///
/// `engine` names the span that covers the engine's own step: the
/// analysis call on the proxies, the in-process `Session::step` (the host
/// call) on the service.
fn insert(
    m: &mut BTreeMap<&'static str, f64>,
    t: &Tracer,
    engine: Name,
    traced: &Ledger,
    untraced: &Ledger,
) {
    let mut steps: BTreeMap<u32, StepSums> = BTreeMap::new();
    let mut totals = [0.0f64; Name::COUNT];
    let mut finish = Vec::new();
    for span in t.spans.spans() {
        let d = span.duration_ns();
        let sums = steps.entry(span.step).or_default();
        match span.name {
            Name::Host => sums.host += d,
            Name::Analysis => sums.analysis += d,
            Name::Sample | Name::Assemble | Name::Train if span.parent != ROOT => sums.shadow += d,
            Name::Extract if span.parent != ROOT => sums.shadow += d,
            Name::Encode => sums.encode += d,
            Name::Decode => sums.decode += d,
            Name::Finish => finish.push(d),
            _ => {}
        }
        totals[span.name as usize] += d;
    }
    let steps: Vec<StepSums> = steps.into_values().filter(|s| s.host > 0.0).collect();
    let column = |f: fn(&StepSums) -> f64| -> Vec<f64> { steps.iter().map(f).collect() };
    let host = column(|s| s.host);
    let analysis = column(|s| s.analysis);
    let engine = match engine {
        Name::Host => host.clone(),
        _ => analysis.clone(),
    };
    let engine_self: Vec<f64> = engine
        .iter()
        .zip(&steps)
        .map(|(e, s)| e - s.shadow)
        .collect();
    let us = |values: &[f64], q: f64| percentile(values, q).unwrap_or(f64::NAN) / 1e3;
    let engine_total: f64 = engine.iter().sum();

    m.insert("host.step_us_p50", us(&host, 0.5));
    m.insert("analysis.call_us_p50", us(&analysis, 0.5));
    m.insert("analysis.call_us_p99", us(&analysis, 0.99));
    m.insert("engine.complete_us_p50", us(&engine, 0.5));
    m.insert("engine.complete_us_p99", us(&engine, 0.99));
    m.insert("engine.self_us_p50", us(&engine_self, 0.5));
    m.insert("engine.finish_us", mean(&finish) / 1e3);
    m.insert(
        "engine.unattributed_pct",
        100.0 * (engine_total - t.attributed_ns) / engine_total,
    );
    let c = &t.counts;
    let stage = |s: Stage| t.stage_ns[s as usize];
    m.insert(
        "engine.clock_sample_ns_per_sample",
        per_unit(stage(Stage::Sample), c.samples, 1.0),
    );
    m.insert(
        "engine.clock_assemble_ns_per_row",
        per_unit(stage(Stage::Assemble), c.rows, 1.0),
    );
    m.insert(
        "engine.clock_train_us_per_batch",
        per_unit(stage(Stage::Train), c.batches, 1e3),
    );
    m.insert(
        "engine.clock_extract_us_per_call",
        per_unit(stage(Stage::Extract), c.extract_calls, 1e3),
    );

    m.insert(
        "collect.sample_ns_per_sample",
        per_unit(totals[Name::Sample as usize], c.samples, 1.0),
    );
    m.insert(
        "collect.assemble_ns_per_row",
        per_unit(totals[Name::Assemble as usize], c.rows, 1.0),
    );
    let exact = |n: u64| (n / t.passes.max(1)) as f64;
    m.insert("collect.samples", exact(c.samples));
    m.insert("collect.rows", exact(c.rows));
    m.insert(
        "model.train_us_per_batch",
        per_unit(totals[Name::Train as usize], c.batches, 1e3),
    );
    m.insert("model.batches", exact(c.batches));
    m.insert(
        "model.converged_iteration",
        if c.converged_n == 0 {
            0.0
        } else {
            c.converged_sum as f64 / c.converged_n as f64
        },
    );
    m.insert(
        "extract.us_per_call",
        per_unit(totals[Name::Extract as usize], c.extract_calls, 1e3),
    );
    m.insert("extract.calls", exact(c.extract_calls));
    m.insert("wire.encode_ns", mean(&column(|s| s.encode)));
    m.insert("wire.decode_ns", mean(&column(|s| s.decode)));
    let transport: f64 = if t.requests == 0 {
        0.0
    } else {
        steps
            .iter()
            .map(|s| transport_ns(s.analysis, s.host, s.encode, s.decode))
            .sum::<f64>()
    };
    m.insert(
        "serve.transport_pct",
        100.0 * transport / analysis.iter().sum::<f64>(),
    );
    m.insert("serve.requests", exact(t.requests));
    m.insert("serve.busy_replies", exact(t.busy));
    m.insert(
        "trace.overhead_pct",
        traced.overhead_pct() - untraced.overhead_pct(),
    );
    println!(
        "spans: {} recorded, {} dropped (buffer of {SPAN_CAPACITY})",
        t.spans.spans().len(),
        t.spans.dropped()
    );
}

/// Adds the traced run's per-layer metrics to `m` and writes its spans to
/// `e2e_bench/out/spans-<workload>.tsv`. Returns the number of shadow
/// pipelines that diverged from their engine: their stage times describe
/// some other pipeline, so then no per-layer metric is reported.
pub fn report(
    m: &mut BTreeMap<&'static str, f64>,
    t: &Tracer,
    engine: Name,
    traced: &Ledger,
    untraced: &Ledger,
    workload: &str,
) -> u64 {
    if t.diverged > 0 {
        println!(
            "per-layer metrics invalid: {} shadow pipelines diverged",
            t.diverged
        );
    } else {
        insert(m, t, engine, traced, untraced);
    }
    let path = format!("e2e_bench/out/spans-{workload}.tsv");
    if let Err(e) = t.spans.write_tsv(std::path::Path::new(&path)) {
        eprintln!("could not write {path}: {e}");
    }
    t.diverged
}
