//! End-to-end and per-layer benchmark of the in-situ engine.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <lulesh_sedov|wd_merger|serve_lockstep> --seed <n> \
//!     --seconds <s> --trace <0|1> [--cpus one|all]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any correctness
//! mismatch makes the exit code 1. See `e2e_bench/README.md`.

use std::collections::BTreeMap;

mod host;
mod layers;
mod metrics;
mod proxies;
mod service;
mod shadow;
mod trace;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("overhead_pct", "%"),
    ("step_overhead_p99_pct", "%"),
    ("feature_accuracy_pct", "%"),
    ("early_stop_saved_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 28] = [
    ("step.overhead_p50_pct", "%"),
    ("host.step_us_p50", "us"),
    ("analysis.call_us_p50", "us"),
    ("analysis.call_us_p99", "us"),
    ("engine.complete_us_p50", "us"),
    ("engine.complete_us_p99", "us"),
    ("engine.self_us_p50", "us"),
    ("engine.finish_us", "us"),
    ("engine.unattributed_pct", "%"),
    ("engine.clock_sample_ns_per_sample", "ns"),
    ("engine.clock_assemble_ns_per_row", "ns"),
    ("engine.clock_train_us_per_batch", "us"),
    ("engine.clock_extract_us_per_call", "us"),
    ("collect.sample_ns_per_sample", "ns"),
    ("collect.assemble_ns_per_row", "ns"),
    ("collect.samples", "count"),
    ("collect.rows", "count"),
    ("model.train_us_per_batch", "us"),
    ("model.batches", "count"),
    ("model.converged_iteration", "iteration"),
    ("extract.us_per_call", "us"),
    ("extract.calls", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("serve.transport_pct", "%"),
    ("serve.requests", "count"),
    ("serve.busy_replies", "count"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload reports back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// SplitMix64: the workloads' only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `center × [1 − spread, 1 + spread)`.
    pub fn around(&mut self, center: f64, spread: f64) -> f64 {
        center * (1.0 + spread * (2.0 * self.unit() - 1.0))
    }
}

/// The shadow pipeline's stage times beside the engine's own stage clocks
/// for the same stages.
fn print_stage_table(m: &BTreeMap<&'static str, f64>) {
    let rows = [
        (
            "sample",
            "ns/sample",
            "engine.clock_sample_ns_per_sample",
            "collect.sample_ns_per_sample",
        ),
        (
            "assemble",
            "ns/row",
            "engine.clock_assemble_ns_per_row",
            "collect.assemble_ns_per_row",
        ),
        (
            "train",
            "us/batch",
            "engine.clock_train_us_per_batch",
            "model.train_us_per_batch",
        ),
        (
            "extract",
            "us/call",
            "engine.clock_extract_us_per_call",
            "extract.us_per_call",
        ),
    ];
    println!(
        "{:<10} {:>14} {:>14}  unit",
        "stage", "engine clock", "shadow"
    );
    for (stage, unit, clock, shadow) in rows {
        let get = |k: &str| m.get(k).copied().unwrap_or(f64::NAN);
        println!(
            "{stage:<10} {:>14.3} {:>14.3}  {unit}",
            get(clock),
            get(shadow)
        );
    }
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: e2e_bench --workload <lulesh_sedov|wd_merger|serve_lockstep> \
         --seed <n> --seconds <s> --trace <0|1> [--cpus one|all]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut confine = true;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--cpus" => match value.as_str() {
                "one" => confine = true,
                "all" => confine = false,
                _ => usage("--cpus takes one or all"),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let ctx = Ctx {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed takes a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace takes 0 or 1")),
    };
    let run: fn(&Ctx) -> Outcome = match ctx.workload.as_str() {
        "lulesh_sedov" => proxies::lulesh_sedov,
        "wd_merger" => proxies::wd_merger,
        "serve_lockstep" => service::serve_lockstep,
        other => usage(&format!("unknown workload {other}")),
    };

    let allowed = host::allowed_cpus();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = if confine {
        host::confine_to_one_cpu()
    } else {
        None
    };
    println!(
        "host: nproc={} cpu=\"{}\" kernels={} allowed_cpus={} confined_to={}",
        nproc,
        host::cpu_model(),
        insitu::kernels::active(),
        host::cpu_list(&allowed),
        pinned.map_or("none".to_string(), |cpu| cpu.to_string()),
    );

    let outcome = run(&ctx);
    if ctx.trace {
        print_stage_table(&outcome.metrics);
    }
    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut failed = outcome.failed;
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match outcome.metrics.get(name).copied().filter(|v| v.is_finite()) {
            Some(value) => {
                println!("{name:<36} {value:>14.6} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ));
            }
            // A metric the run could not measure, or measured on a pipeline
            // that was not the engine's, fails the run instead of printing.
            None => {
                println!("{name:<36} {:>14} {unit}", "invalid");
                failed += 1;
            }
        }
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
