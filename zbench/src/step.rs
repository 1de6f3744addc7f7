//! `step-zeppelin` and `step-baselines`: the host cost of simulating one
//! training step.
//!
//! One op is one `simulate_step` on cluster A × 4 nodes with LLaMA-3B and
//! a seeded `pretraining_mix()` batch. The op list is a fixed cycle of
//! (scheduler, batch) pairs; the loop walks it in order, so every op
//! repeats and each repeat must reproduce the first one's simulated step
//! time bit for bit. Host times are rescaled to reference-core time (see
//! `reference`) and reported per op as the median over its repeats, which
//! keeps a burst of host noise from moving the figures.
//!
//! The traced run replays the same ops as `Scheduler::plan` →
//! `lower_layer` (forward, backward) → `Simulator::run`, timing each call
//! from outside the crates.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zeppelin_core::plan::IterationPlan;
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::validate::{report as violation_report, validate_with_batch};
use zeppelin_data::batch::Batch;
use zeppelin_data::mixture::pretraining_mix;
use zeppelin_exec::step::{moe_linear_factor, simulate_step, StepConfig, StepReport};
use zeppelin_exec::{lower_layer, Direction};
use zeppelin_model::config::llama_3b;
use zeppelin_sim::engine::Simulator;
use zeppelin_sim::topology::cluster_a;

use crate::reference::{Reference, NOMINAL_MS};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Args, Outcome, SETUPS};

/// Cluster A nodes (8 GPUs each).
const NODES: usize = 4;
/// Zeppelin's batches: enough that the share of batches that ring across
/// nodes, and with it the percentiles, barely depends on the seed.
const ZEPPELIN_BATCHES: usize = 1024;
/// Tokens per Zeppelin batch. At 768Ki about two batches in three keep
/// every sequence inside one node and the rest ring across two, so the
/// host-time median and p90 fall inside the two modes, not between them
/// (at 512Ki the split is 52/48 and the median flips from seed to seed).
const ZEPPELIN_TOKENS: u64 = 768 * 1024;
/// Baseline batches per pass (each is run by every baseline).
const BASELINE_BATCHES: usize = 24;
/// Leading baseline batches the simulated scheduler comparison runs on.
const COMPARE_BATCHES: usize = 12;
/// Tokens per baseline batch.
const BASELINE_TOKENS: u64 = 512 * 1024;
/// The baselines, taking turns one per op. With three equal shares the
/// median op lands among TE/LLaMA (lowering-bound) and p90 among Ulysses
/// (fill-kernel-bound).
const BASELINES: [&str; 3] = ["te", "llama", "ulysses"];
/// Seed of the fixed warm-up batches (independent of `--seed`, so set-up
/// does the same work on every seed).
const WARMUP_SEED: u64 = 0x5eed_0000;
/// Warm-up batches on step-zeppelin, whose ops take milliseconds.
const ZEPPELIN_WARMUP: usize = 4;
/// Warm-up batches per baseline, whose ops take up to a third of a second.
const BASELINE_WARMUP: usize = 1;
/// The paper's average end-to-end speedup of Zeppelin over TE CP.
const PAPER_SPEEDUP_OVER_TE: f64 = 2.8;

/// Everything one run needs, built by set-up.
struct Setup {
    ctx: SchedulerCtx,
    cfg: StepConfig,
    schedulers: Vec<Box<dyn Scheduler>>,
    batches: Vec<Batch>,
    /// (scheduler index, batch index), in loop order.
    ops: Vec<(usize, usize)>,
}

fn sample_batches(seed: u64, n: usize, tokens: u64) -> Vec<Batch> {
    let mix = pretraining_mix();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| mix.sample_batch(&mut rng, tokens)).collect()
}

fn ctx() -> SchedulerCtx {
    SchedulerCtx::new(&cluster_a(NODES), &llama_3b())
}

fn scheduler(name: &str) -> Box<dyn Scheduler> {
    zeppelin_baselines::scheduler_by_name(name).expect("built-in scheduler name")
}

fn setup(workload: &str, seed: u64) -> Result<Setup, String> {
    let (names, n, tokens, warmup): (&[&str], usize, u64, usize) = match workload {
        "step-zeppelin" => (
            &["zeppelin"],
            ZEPPELIN_BATCHES,
            ZEPPELIN_TOKENS,
            ZEPPELIN_WARMUP,
        ),
        _ => (
            &BASELINES,
            BASELINE_BATCHES,
            BASELINE_TOKENS,
            BASELINE_WARMUP,
        ),
    };
    let batches = sample_batches(seed, n, tokens);
    let ctx = ctx();
    let cfg = StepConfig::default();
    let schedulers: Vec<Box<dyn Scheduler>> = names.iter().map(|n| scheduler(n)).collect();
    let ops = (0..n)
        .flat_map(|b| (0..names.len()).map(move |s| (s, b)))
        .collect();
    for batch in sample_batches(WARMUP_SEED, warmup, tokens) {
        for s in &schedulers {
            let r = simulate_step(s.as_ref(), &batch, &ctx, &cfg);
            std::hint::black_box(r).map_err(|e| format!("warm-up {}: {e}", s.name()))?;
        }
    }
    Ok(Setup {
        ctx,
        cfg,
        schedulers,
        batches,
        ops,
    })
}

/// The first result of each op, which every repeat must reproduce.
#[derive(Clone)]
struct First {
    layer_forward: u64,
    layer_backward: u64,
    step_ns: u64,
    tokens: u64,
    plan: IterationPlan,
}

impl First {
    fn of(r: &StepReport) -> First {
        First {
            layer_forward: r.layer_forward.as_nanos(),
            layer_backward: r.layer_backward.as_nanos(),
            step_ns: r.step_time.as_nanos(),
            tokens: r.tokens,
            plan: r.plan.clone(),
        }
    }
}

/// Host times of one loop over the op list.
struct LoopTimes {
    /// Number of distinct ops.
    n: usize,
    /// (op index, host ms) in the order the ops ran; a failed op is
    /// infinite, so it ranks behind every success.
    samples: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
}

impl LoopTimes {
    fn new(n: usize) -> LoopTimes {
        LoopTimes {
            n,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Each op's median host ms over its repeats.
    fn op_medians(&self) -> Vec<f64> {
        let mut ms = vec![Vec::new(); self.n];
        for &(i, t) in &self.samples {
            ms[i].push(t);
        }
        ms.iter().map(|v| median(v)).collect()
    }

    /// Ops per host second over one pass of the op list, from the per-op
    /// medians.
    fn ops_per_s(&self) -> f64 {
        let med = self.op_medians();
        med.len() as f64 / (med.iter().sum::<f64>() / 1e3)
    }

    /// The same loop with the `k`-th sample's time multiplied by
    /// `factors[k]`.
    fn scaled(&self, factors: &[f64]) -> LoopTimes {
        LoopTimes {
            samples: self
                .samples
                .iter()
                .zip(factors)
                .map(|(&(i, t), f)| (i, t * f))
                .collect(),
            ..*self
        }
    }
}

/// Walks the op list in order until `budget` has passed and every op ran
/// at least once. Each op runs every body in turn (`bodies[k](i)` runs op
/// `i` one way and returns whether it succeeded), timed separately, so
/// several ways of running an op see the same host conditions. With a
/// `reference`, one reference sample follows each op.
fn run_loop(
    n: usize,
    budget: std::time::Duration,
    bodies: &mut [&mut dyn FnMut(usize) -> bool],
    mut reference: Option<&mut Reference>,
) -> Vec<LoopTimes> {
    let mut times: Vec<LoopTimes> = bodies.iter().map(|_| LoopTimes::new(n)).collect();
    let start = Instant::now();
    let (mut i, mut passes) = (0, 0);
    while passes == 0 || start.elapsed() < budget {
        for (body, times) in bodies.iter_mut().zip(times.iter_mut()) {
            let t0 = Instant::now();
            let ok = body(i);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            times.attempted += 1;
            if !ok {
                times.failed += 1;
            }
            times.samples.push((i, if ok { ms } else { f64::INFINITY }));
        }
        if let Some(r) = reference.as_deref_mut() {
            r.sample();
        }
        i += 1;
        if i == n {
            (i, passes) = (0, passes + 1);
        }
    }
    times
}

/// Runs op `i` with `simulate_step`, checking a repeat against the op's
/// first result (or recording it).
fn step_op(s: &Setup, i: usize, first: &mut [Option<First>], errors: &mut Vec<String>) -> bool {
    let (si, bi) = s.ops[i];
    let r = simulate_step(s.schedulers[si].as_ref(), &s.batches[bi], &s.ctx, &s.cfg);
    match std::hint::black_box(r) {
        Ok(r) => {
            match &first[i] {
                None => first[i] = Some(First::of(&r)),
                Some(f) if f.step_ns != r.step_time.as_nanos() => {
                    errors.push(format!("op {i}: a repeat changed the simulated step time"))
                }
                Some(_) => {}
            }
            true
        }
        Err(e) => {
            errors.push(format!("op {i} ({}): {e}", s.schedulers[si].name()));
            false
        }
    }
}

/// Counters and makespans of one traced op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    tasks: u64,
    events: u64,
    rebalances: u64,
    components: u64,
    filled_flows: u64,
    layer_forward: u64,
    layer_backward: u64,
}

/// Host ns of one traced op, by layer.
#[derive(Debug, Clone, Copy, Default)]
struct LayerNs {
    plan: u64,
    lower: u64,
    run: u64,
    op_self: u64,
}

/// `simulate_step` decomposed into its public calls, each under a span.
/// Reproduces `simulate_plan`'s makespans for the default `StepConfig`
/// (one chained layer, no faults, no ZeRO phase); the report assembly that
/// follows them is not repeated.
fn traced_step(
    tr: &mut Tracer,
    scheduler: &dyn Scheduler,
    batch: &Batch,
    ctx: &SchedulerCtx,
    cfg: &StepConfig,
) -> Result<(Counts, LayerNs), String> {
    let mut ns = LayerNs::default();
    if !tr.enabled() {
        return traced_step_inner(tr, &mut ns, scheduler, batch, ctx, cfg).map(|c| (c, ns));
    }
    let root = tr.enter("op");
    let r = traced_step_inner(tr, &mut ns, scheduler, batch, ctx, cfg);
    tr.exit();
    ns.op_self = tr.get(root).self_ns();
    r.map(|c| (c, ns))
}

fn traced_step_inner(
    tr: &mut Tracer,
    ns: &mut LayerNs,
    scheduler: &dyn Scheduler,
    batch: &Batch,
    ctx: &SchedulerCtx,
    cfg: &StepConfig,
) -> Result<Counts, String> {
    let nranks = ctx.cluster.total_gpus();
    let (plan, t) = tr.span("core.plan", || scheduler.plan(batch, ctx));
    ns.plan += t;
    let plan = plan.map_err(|e| format!("plan: {e}"))?;
    // The execution config `simulate_plan` lowers with.
    let mut exec = cfg.exec.clone();
    exec.moe_linear_factor *=
        moe_linear_factor(&ctx.model, batch.total_tokens(), cfg.seed, cfg.moe_skew);
    let mut counts = Counts::default();
    for dir in [Direction::Forward, Direction::Backward] {
        let (sim, t) = tr.span("exec.lower", || -> Result<Simulator, String> {
            let mut sim = Simulator::new(&ctx.cluster);
            let entry = vec![None; nranks];
            lower_layer(&mut sim, &ctx.model, &plan, &exec, dir, &entry)
                .map_err(|e| format!("lower: {e}"))?;
            Ok(sim)
        });
        ns.lower += t;
        let sim = sim?;
        counts.tasks += sim.task_count() as u64;
        let (report, t) = tr.span("sim.run", || sim.run());
        ns.run += t;
        let report = report.map_err(|e| format!("sim: {e}"))?;
        let makespan = report.makespan.as_nanos();
        match dir {
            Direction::Forward => counts.layer_forward = makespan,
            Direction::Backward => counts.layer_backward = makespan,
        }
        counts.events += report.stats.events;
        counts.rebalances += report.stats.net.rebalances;
        counts.components += report.stats.net.components;
        counts.filled_flows += report.stats.net.filled_flows;
    }
    Ok(counts)
}

/// Simulated tokens per simulated second over a list of first results.
fn sim_tokens_per_s<'a>(firsts: impl Iterator<Item = &'a First>) -> f64 {
    let (tokens, ns) = firsts.fold((0u64, 0u64), |(t, n), f| (t + f.tokens, n + f.step_ns));
    tokens as f64 / (ns as f64 / 1e9)
}

/// Audits every op's plan against its batch (outside all timed regions).
fn audit_plans(s: &Setup, first: &[Option<First>], out: &mut Outcome) {
    for (i, f) in first.iter().enumerate() {
        let Some(f) = f else {
            out.fail(format!("op {i} never completed"));
            continue;
        };
        let (_, bi) = s.ops[i];
        if let Err(v) = validate_with_batch(&f.plan, &s.ctx, &s.batches[bi]) {
            out.fail(format!(
                "op {i} plan failed audit: {}",
                violation_report(&v)
            ));
        }
    }
}

/// Checks that the traced decomposition reproduces `simulate_step`'s
/// per-layer makespans.
fn check_decomposition(i: usize, c: &Counts, f: &First, out: &mut Outcome) {
    out.check(
        c.layer_forward == f.layer_forward && c.layer_backward == f.layer_backward,
        || {
            format!(
                "op {i}: traced makespans {}/{} ns differ from simulate_step's {}/{} ns",
                c.layer_forward, c.layer_backward, f.layer_forward, f.layer_backward
            )
        },
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_ms = Vec::with_capacity(setups);
    let mut setup_ref = Reference::default();
    let mut built = None;
    for _ in 0..setups {
        // Drop the previous set-up first, so only one is ever alive.
        drop(built.take());
        let t0 = Instant::now();
        let s = setup(&args.workload, args.seed);
        setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        setup_ref.sample();
        built = Some(s);
    }
    let s = match built.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("set-up failed: {e}"));
            return out;
        }
    };
    let mut first: Vec<Option<First>> = vec![None; s.ops.len()];
    if args.trace {
        traced_run(args, &s, &mut first, &mut out);
    } else {
        let mut errors = Vec::new();
        let mut reference = Reference::default();
        let raw = run_loop(
            s.ops.len(),
            args.seconds,
            &mut [&mut |i| step_op(&s, i, &mut first, &mut errors)],
            Some(&mut reference),
        )
        .remove(0);
        for e in errors {
            out.fail(e);
        }
        out.attempted = raw.attempted;
        out.failed = raw.failed;
        // Host times in reference-core time (see `reference`).
        let times = raw.scaled(&reference.factors());
        let setup: Vec<f64> = setup_ms
            .iter()
            .zip(setup_ref.factors())
            .map(|(ms, f)| ms * f / 1e3)
            .collect();
        let med = times.op_medians();
        out.set("ops_per_s", times.ops_per_s());
        out.set("op_ms.p50", percentile(&med, 0.50));
        out.set("op_ms.p90", percentile(&med, 0.90));
        out.set("setup_s", median(&setup));
        if first.iter().all(Option::is_some) {
            out.set("sim_tokens_per_s", sim_tokens_per_s(first.iter().flatten()));
        }
        let raw_med = raw.op_medians();
        out.notes.push(format!(
            "{}: {} distinct ops, {} ops run, {:.1} repeats per op; host time as measured: \
             {:.2} ops/s, p50 {:.3} ms, p90 {:.3} ms, set-up {:.4} s; reference unit {:.4} ms \
             (nominal {NOMINAL_MS} ms)",
            args.workload,
            s.ops.len(),
            raw.attempted,
            raw.attempted as f64 / s.ops.len() as f64,
            raw.ops_per_s(),
            percentile(&raw_med, 0.50),
            percentile(&raw_med, 0.90),
            median(&setup_ms) / 1e3,
            reference.median_ms(),
        ));
        // The traced decomposition must reproduce simulate_step; check it
        // on the first op of each scheduler.
        let mut tr = Tracer::new();
        for si in 0..s.schedulers.len() {
            let Some(i) = s.ops.iter().position(|&(x, _)| x == si) else {
                continue;
            };
            let (_, bi) = s.ops[i];
            match (
                traced_step(
                    &mut tr,
                    s.schedulers[si].as_ref(),
                    &s.batches[bi],
                    &s.ctx,
                    &s.cfg,
                ),
                &first[i],
            ) {
                (Ok((c, _)), Some(f)) => check_decomposition(i, &c, f, &mut out),
                (Err(e), _) => out.fail(format!("traced op {i}: {e}")),
                (_, None) => {}
            }
        }
    }
    audit_plans(&s, &first, &mut out);
    out
}

/// The traced run: every op runs as `simulate_step`, then decomposed with
/// spans off, then decomposed under spans; then the simulated comparison
/// of Zeppelin with the baselines.
fn traced_run(args: &Args, s: &Setup, first: &mut [Option<First>], out: &mut Outcome) {
    let n = s.ops.len();
    let mut tr = Tracer::new();
    let mut counts: Vec<Option<Counts>> = vec![None; n];
    let mut layer_ns: Vec<Vec<LayerNs>> = vec![Vec::new(); n];
    let mut errors = Vec::new();
    let mut traced_errors = Vec::new();
    let mut untraced_body = |i| step_op(s, i, first, &mut errors);
    // The same decomposition with spans off, for the tracing overhead.
    let mut untimed = Tracer::disabled();
    let mut untimed_body = |i: usize| {
        let (si, bi) = s.ops[i];
        traced_step(
            &mut untimed,
            s.schedulers[si].as_ref(),
            &s.batches[bi],
            &s.ctx,
            &s.cfg,
        )
        .is_ok()
    };
    let mut traced_body = |i: usize| {
        let (si, bi) = s.ops[i];
        tr.set_op(i as u64);
        match traced_step(
            &mut tr,
            s.schedulers[si].as_ref(),
            &s.batches[bi],
            &s.ctx,
            &s.cfg,
        ) {
            Ok((c, ns)) => {
                match &counts[i] {
                    None => counts[i] = Some(c),
                    Some(prev) if *prev != c => {
                        traced_errors.push(format!("op {i}: a traced repeat changed its counters"))
                    }
                    Some(_) => {}
                }
                layer_ns[i].push(ns);
                true
            }
            Err(e) => {
                traced_errors.push(format!("traced op {i}: {e}"));
                false
            }
        }
    };
    let times = run_loop(
        n,
        args.seconds,
        &mut [&mut untraced_body, &mut untimed_body, &mut traced_body],
        None,
    );
    let (untraced, untimed, traced) = (&times[0], &times[1], &times[2]);
    for e in errors.into_iter().chain(traced_errors) {
        out.fail(e);
    }
    out.attempted = untraced.attempted + untimed.attempted + traced.attempted;
    out.failed = untraced.failed + untimed.failed + traced.failed;
    for (i, (c, f)) in counts.iter().zip(first.iter()).enumerate() {
        if let (Some(c), Some(f)) = (c, f) {
            check_decomposition(i, c, f, out);
        }
    }
    if counts.iter().any(Option::is_none) {
        out.fail("a traced op never completed");
        return;
    }
    let counts: Vec<Counts> = counts.into_iter().flatten().collect();
    let per_op = |f: fn(&LayerNs) -> u64| -> Vec<f64> {
        layer_ns
            .iter()
            .map(|v| median(&v.iter().map(|x| f(x) as f64).collect::<Vec<_>>()))
            .collect()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let plan = per_op(|x| x.plan);
    let lower = per_op(|x| x.lower);
    let run = per_op(|x| x.run);
    // What `simulate_step` spends outside plan, lower and run: each op's
    // median untraced time minus its traced medians of the three.
    let report: Vec<f64> = untraced
        .op_medians()
        .iter()
        .enumerate()
        .map(|(i, ms)| ms * 1e6 - plan[i] - lower[i] - run[i])
        .collect();
    let op_self = per_op(|x| x.op_self);
    let total = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>();
    let (tasks, events, filled) = (
        total(|c| c.tasks),
        total(|c| c.events),
        total(|c| c.filled_flows),
    );
    let lower_sum: f64 = lower.iter().sum();
    let run_sum: f64 = run.iter().sum();
    out.set("core.plan_ms", mean(&plan) / 1e6);
    out.set("exec.lower_ms", mean(&lower) / 1e6);
    out.set("exec.report_ms", mean(&report) / 1e6);
    out.set("sim.run_ms", mean(&run) / 1e6);
    out.set("exec.tasks", tasks as f64);
    out.set("sim.events", events as f64);
    out.set("sim.rebalances", total(|c| c.rebalances) as f64);
    out.set("sim.components", total(|c| c.components) as f64);
    out.set("sim.filled_flows", filled as f64);
    out.set("exec.lower_ns_per_task", lower_sum / tasks.max(1) as f64);
    out.set("sim.ns_per_filled_flow", run_sum / filled.max(1) as f64);
    out.set("sim.ns_per_event", run_sum / events.max(1) as f64);
    out.set("trace.op_self_us", mean(&op_self) / 1e3);
    out.set("trace.spans", tr.spans().len() as f64);
    let (u, t) = (untimed.ops_per_s(), traced.ops_per_s());
    out.set("trace.ops_per_s_untraced", u);
    out.set("trace.ops_per_s_traced", t);
    out.set("trace.overhead_pct", (u - t) / u * 100.0);
    out.notes.push(format!(
        "{}: counts per pass of {n} ops: {tasks} tasks, {events} events, {filled} filled flows",
        args.workload
    ));
    for (name, (total_ns, self_ns, count)) in tr.summary() {
        out.notes.push(format!(
            "span {name:<12} count {count:>7}  total {:>10.1} ms  self {:>10.1} ms",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    match tr.write_out(&args.workload) {
        Ok(path) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.fail(format!("cannot write spans: {e}")),
    }
    compare_schedulers(args, s, out);
}

/// Simulated throughput of every scheduler on the baseline batches, and
/// Zeppelin's speedup over each baseline. Informational: the simulator is
/// an unvalidated model of the paper's testbed.
fn compare_schedulers(args: &Args, s: &Setup, out: &mut Outcome) {
    let batches = sample_batches(args.seed, COMPARE_BATCHES, BASELINE_TOKENS);
    let mut per = Vec::new();
    for name in ["zeppelin", "te", "llama", "ulysses"] {
        let sch = scheduler(name);
        let mut firsts = Vec::with_capacity(batches.len());
        for b in &batches {
            match simulate_step(sch.as_ref(), b, &s.ctx, &s.cfg) {
                Ok(r) => firsts.push(First::of(&r)),
                Err(e) => {
                    out.fail(format!("comparison {name}: {e}"));
                    return;
                }
            }
        }
        per.push((name, sim_tokens_per_s(firsts.iter())));
    }
    let zeppelin = per[0].1;
    for &(name, tps) in &per {
        let key = match name {
            "zeppelin" => "sim.tokens_per_s.zeppelin",
            "te" => "sim.tokens_per_s.te",
            "llama" => "sim.tokens_per_s.llama",
            _ => "sim.tokens_per_s.ulysses",
        };
        out.set(key, tps);
        if name == "zeppelin" {
            continue;
        }
        let speedup = zeppelin / tps;
        let key = match name {
            "te" => "sim.zeppelin_speedup.te",
            "llama" => "sim.zeppelin_speedup.llama",
            _ => "sim.zeppelin_speedup.ulysses",
        };
        out.set(key, speedup);
        let paper = if name == "te" {
            format!(" (paper: ≈{PAPER_SPEEDUP_OVER_TE}× average over TE CP)")
        } else {
            String::new()
        };
        out.notes.push(format!(
            "simulated speedup of zeppelin over {name}: {speedup:.2}×{paper} \
             [unvalidated model; {COMPARE_BATCHES} batches of {}Ki tokens, cluster A × {NODES}]",
            BASELINE_TOKENS / 1024
        ));
    }
}
