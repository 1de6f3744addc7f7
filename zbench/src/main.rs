//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path zbench/Cargo.toml -- \
//!     --workload step-zeppelin --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Three single-process, closed-loop workloads with one caller thread:
//!
//! - `step-zeppelin`: one op is one `simulate_step` of Zeppelin;
//! - `step-baselines`: TE CP, LLaMA CP and Ulysses take turns, one per op;
//! - `serve-plan`: plan requests over one loopback TCP connection to an
//!   in-process planning server.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the same
//! inputs through the layers' public functions under spans and prints the
//! per-layer metrics. Either way the outputs are checked and the last line
//! of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The exit code is 0 only when every check passed.

mod reference;
mod serve;
mod stats;
mod step;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics (`--trace 0`), with their units. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("sim_tokens_per_s", "tokens/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with their units. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("core.plan_ms", "ms"),
    ("exec.lower_ms", "ms"),
    ("exec.tasks", "count"),
    ("exec.lower_ns_per_task", "ns"),
    ("exec.report_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.rebalances", "count"),
    ("sim.components", "count"),
    ("sim.filled_flows", "count"),
    ("sim.ns_per_filled_flow", "ns"),
    ("sim.ns_per_event", "ns"),
    ("sim.tokens_per_s.zeppelin", "tokens/s"),
    ("sim.tokens_per_s.te", "tokens/s"),
    ("sim.tokens_per_s.llama", "tokens/s"),
    ("sim.tokens_per_s.ulysses", "tokens/s"),
    ("sim.zeppelin_speedup.te", "x"),
    ("sim.zeppelin_speedup.llama", "x"),
    ("sim.zeppelin_speedup.ulysses", "x"),
    ("core.plan_us", "us"),
    ("core.audit_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.ctx_us", "us"),
    ("serve.key_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.materialize_us", "us"),
    ("serve.insert_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.loop_wait_us", "us"),
    ("serve.client_p99_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.planner_runs", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.op_self_us", "us"),
];

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 31;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured duration of one run.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted in the measured loops.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Failed output checks, one message each.
    pub errors: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Checks `cond`, recording `msg` when it does not hold.
    pub fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.fail(msg());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    // The simulator reads its worker-pool width from the environment; the
    // benchmark measures the sequential simulator. No thread exists yet.
    std::env::remove_var("ZEPPELIN_SIM_WORKERS");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zbench: {e}");
            eprintln!(
                "usage: zbench --workload step-zeppelin|step-baselines|serve-plan \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "step-zeppelin" | "step-baselines" => step::run(&args),
        "serve-plan" => serve::run(&args),
        other => {
            eprintln!("zbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.fail("cannot read VmHWM from /proc/self/status"),
        }
    }
    out.check(out.attempted > 0, || "no op was attempted".to_string());
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            // Per-layer metrics of layers this workload never calls are 0;
            // an end-to-end metric must always be measured.
            None if args.trace => 0.0,
            None => {
                out.fail(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            out.fail(format!("metric {name} is not finite"));
        }
        let value = if value.is_finite() { value } else { f64::MAX };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            value
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    for e in &out.errors {
        eprintln!("zbench: CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
