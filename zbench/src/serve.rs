//! `serve-plan`: the host cost of serving plans.
//!
//! An in-process `Server` with the default configuration on an ephemeral
//! port, driven closed-loop over one loopback TCP connection: the caller is
//! a trainer that blocks on its next plan. The stream holds 64 hot arxiv
//! shapes of 256Ki tokens, warmed into the cache during set-up. Each hot
//! request rotates its sequence order, so hits are re-indexed; one request
//! in eight carries a fresh, never-seen shape, which is a miss (planner,
//! audit, insert). The hit share is therefore exactly 7/8: the median
//! measures the hit path and p90 the miss path.
//!
//! The traced run replays the first [`REPLAY`] requests of the same stream
//! in-process through the public calls the server makes: `parse_request` →
//! registry + `SchedulerCtx::new` → `PlanKey::new` → `ShardedPlanCache`
//! lookup (`CachedPlan::materialize` on hits; `Scheduler::plan` and insert
//! on misses) → `validate_with_batch` → `plan_response`.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use zeppelin_core::plan::IterationPlan;
use zeppelin_core::plan_io::{parse_json, plan_from_json, Json};
use zeppelin_core::scheduler::SchedulerCtx;
use zeppelin_core::validate::{report as violation_report, validate_with_batch};
use zeppelin_data::batch::Batch;
use zeppelin_data::datasets::arxiv;
use zeppelin_data::distribution::LengthDistribution;
use zeppelin_exec::step::{simulate_plan, StepConfig};
use zeppelin_serve::protocol::{parse_request, plan_response, Request};
use zeppelin_serve::registry;
use zeppelin_serve::{
    send_request, CachedPlan, PlanKey, Server, ServerConfig, ServerReport, ShardedPlanCache,
};

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Args, Outcome, SETUPS};

/// Hot shapes the stream cycles through.
const HOT_SHAPES: usize = 64;
/// Tokens per shape.
const SHAPE_TOKENS: u64 = 256 * 1024;
/// One request in this many carries a fresh shape.
const FRESH_EVERY: u64 = 8;
/// Requests per in-process replay pass in the traced run.
const REPLAY: u64 = 2048;
/// Replies kept for the parse-and-audit check.
const SAMPLE_EVERY: u64 = 61;
/// Width of the windows `ops_per_s` takes its median over.
const WINDOW: Duration = Duration::from_secs(1);

/// The request stream: a deterministic function of the seed.
struct Stream {
    dist: LengthDistribution,
    hot: Vec<Vec<u64>>,
    fresh_rng: StdRng,
    seen: HashSet<Vec<u64>>,
    /// Requests handed out so far.
    next: u64,
    /// Hot requests handed out so far.
    hot_sent: u64,
}

/// One request of the stream.
struct Req {
    seqs: Vec<u64>,
    /// Hot shape index, or `None` for a fresh shape.
    hot: Option<usize>,
}

fn sorted(seqs: &[u64]) -> Vec<u64> {
    let mut v = seqs.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    v
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let dist = arxiv();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = HashSet::new();
        let mut hot = Vec::with_capacity(HOT_SHAPES);
        while hot.len() < HOT_SHAPES {
            let b = zeppelin_data::batch::sample_batch(&dist, &mut rng, SHAPE_TOKENS);
            if seen.insert(sorted(&b.seqs)) {
                hot.push(b.seqs);
            }
        }
        Stream {
            dist,
            hot,
            fresh_rng: StdRng::seed_from_u64(seed ^ 0xf4e5_a3c1_b2d0_9e8f),
            seen,
            next: 0,
            hot_sent: 0,
        }
    }

    fn next_request(&mut self) -> Req {
        let i = self.next;
        self.next += 1;
        if i % FRESH_EVERY == FRESH_EVERY - 1 {
            loop {
                let b = zeppelin_data::batch::sample_batch(
                    &self.dist,
                    &mut self.fresh_rng,
                    SHAPE_TOKENS,
                );
                if self.seen.insert(sorted(&b.seqs)) {
                    return Req {
                        seqs: b.seqs,
                        hot: None,
                    };
                }
            }
        }
        let k = self.hot_sent;
        self.hot_sent += 1;
        let h = (k % HOT_SHAPES as u64) as usize;
        let mut seqs = self.hot[h].clone();
        let len = seqs.len();
        seqs.rotate_left(((k / HOT_SHAPES as u64 + 1) % len as u64) as usize);
        Req { seqs, hot: Some(h) }
    }
}

fn line(seqs: &[u64]) -> String {
    let mut l = Request::plan(seqs.to_vec()).to_line();
    l.push('\n');
    l
}

/// The context the default server config plans in.
fn server_ctx() -> SchedulerCtx {
    let cfg = ServerConfig::default();
    let model = registry::model_by_name(&cfg.model).expect("default model");
    let cluster = registry::cluster_by_name(&cfg.cluster, cfg.nodes).expect("default cluster");
    SchedulerCtx::new(&cluster, &model)
}

/// A running server and one client connection to it.
struct Live {
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<ServerReport>>,
    conn: BufReader<TcpStream>,
    reply: String,
}

impl Live {
    fn start() -> Result<Live, String> {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let server = std::thread::spawn(move || server.run());
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Live {
            addr,
            server,
            conn: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one line and reads the one-line reply into `self.reply`.
    fn call(&mut self, line: &str) -> Result<(), String> {
        self.conn
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.reply.clear();
        match self.conn.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Reads the server's `stats` object.
    fn stats(&mut self) -> Result<Json, String> {
        self.call("{\"op\":\"stats\"}\n")?;
        let v = parse_json(&self.reply).map_err(|e| e.to_string())?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| format!("no stats in {}", self.reply.trim()))
    }

    /// Shuts the server down and waits for its threads. The shutdown goes
    /// over a connection of its own, so it arrives even after the loop's
    /// connection broke.
    fn stop(self) -> Result<ServerReport, String> {
        drop(self.conn);
        let sent = send_request(self.addr, &Request::Shutdown);
        let report = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        sent.map_err(|e| format!("shutdown: {e}"))?;
        Ok(report)
    }
}

/// Set-up: the stream, the server, the connection, and the hot shapes
/// warmed into the cache.
fn setup(seed: u64) -> Result<(Stream, Live), String> {
    let stream = Stream::new(seed);
    let mut live = Live::start()?;
    for seqs in &stream.hot {
        let warmed = live.call(&line(seqs)).and_then(|()| {
            if live.reply.starts_with("{\"ok\":true,\"cached\":false") {
                Ok(())
            } else {
                Err(format!("warm-up reply: {}", live.reply.trim()))
            }
        });
        if let Err(e) = warmed {
            // The server still has to stop; the warm-up error is the one
            // worth reporting.
            let _ = live.stop();
            return Err(e);
        }
    }
    Ok((stream, live))
}

/// A reply kept for the parse-and-audit check.
struct Sample {
    index: u64,
    seqs: Vec<u64>,
    reply: String,
}

/// Results of the closed loop over TCP.
struct TcpLoop {
    ms: Vec<f64>,
    window_rates: Vec<f64>,
    hot: u64,
    fresh: u64,
    failed: u64,
    samples: Vec<Sample>,
    /// Each hot shape's first reply in the loop.
    hot_first: Vec<Option<Sample>>,
}

fn tcp_loop(stream: &mut Stream, live: &mut Live, budget: Duration, out: &mut Outcome) -> TcpLoop {
    let mut r = TcpLoop {
        ms: Vec::new(),
        window_rates: Vec::new(),
        hot: 0,
        fresh: 0,
        failed: 0,
        samples: Vec::new(),
        hot_first: (0..HOT_SHAPES).map(|_| None).collect(),
    };
    let start = Instant::now();
    let (mut window_start, mut window_first) = (start, 0);
    let mut unexpected = 0u64;
    while start.elapsed() < budget {
        let i = stream.next;
        let req = stream.next_request();
        let l = line(&req.seqs);
        let t0 = Instant::now();
        let sent = live.call(&l);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match req.hot {
            Some(_) => r.hot += 1,
            None => r.fresh += 1,
        }
        let expect = if req.hot.is_some() {
            "{\"ok\":true,\"cached\":true,\"degraded\":false"
        } else {
            "{\"ok\":true,\"cached\":false,\"degraded\":false"
        };
        if let Err(e) = sent {
            out.fail(format!("request {i}: {e}"));
            r.failed += 1;
            r.ms.push(f64::INFINITY);
            break;
        }
        if !live.reply.starts_with("{\"ok\":true") {
            r.failed += 1;
            r.ms.push(f64::INFINITY);
            if r.failed <= 3 {
                out.fail(format!("request {i} failed: {}", live.reply.trim()));
            }
        } else {
            r.ms.push(ms);
            if !live.reply.starts_with(expect) {
                unexpected += 1;
            }
        }
        let sample = || Sample {
            index: i,
            seqs: req.seqs.clone(),
            reply: live.reply.clone(),
        };
        if i.is_multiple_of(SAMPLE_EVERY) {
            r.samples.push(sample());
        }
        if let Some(h) = req.hot {
            if r.hot_first[h].is_none() {
                r.hot_first[h] = Some(sample());
            }
        }
        let w = window_start.elapsed();
        if w >= WINDOW {
            let ops = r.ms.len() - window_first;
            r.window_rates.push(ops as f64 / w.as_secs_f64());
            (window_start, window_first) = (Instant::now(), r.ms.len());
        }
    }
    out.check(unexpected == 0, || {
        format!("{unexpected} replies were not a hot hit / fresh miss as the stream fixes")
    });
    r
}

/// Checks the server's counters against the counts the stream fixes.
fn check_stats(stats: &Json, warm: u64, r: &TcpLoop, out: &mut Outcome) {
    let get = |k: &str| stats.get(k).and_then(Json::as_u64);
    let want = [
        ("errors", 0),
        ("degraded", 0),
        ("shed", 0),
        ("worker_panics", 0),
        ("plan_requests", warm + r.hot + r.fresh),
        ("cache_hits", r.hot),
        ("planner_runs", warm + r.fresh),
    ];
    for (k, v) in want {
        out.check(get(k) == Some(v), || {
            format!("server stats {k} = {:?}, the stream fixes {v}", get(k))
        });
    }
}

/// The plan carried by a reply line.
fn reply_plan(reply: &str) -> Result<IterationPlan, String> {
    let v = parse_json(reply).map_err(|e| e.to_string())?;
    let plan = v.get("plan").ok_or("reply carries no plan")?;
    plan_from_json(&plan.to_string()).map_err(|e| e.to_string())
}

/// Parses and audits the sampled replies and each hot shape's first
/// reply; returns the simulated tokens per second of the hot shapes'
/// served plans, the modelled training throughput of the working set.
fn check_replies(r: &TcpLoop, out: &mut Outcome) -> Option<f64> {
    let ctx = server_ctx();
    let cfg = StepConfig {
        audit_plans: true,
        ..StepConfig::default()
    };
    if r.hot_first.iter().any(Option::is_none) {
        out.fail("the loop did not reach every hot shape");
        return None;
    }
    let (mut tokens, mut ns) = (0u64, 0u64);
    let hot_first = r.hot_first.iter().flatten().map(|s| (s, true));
    for (s, simulate) in r.samples.iter().map(|s| (s, false)).chain(hot_first) {
        let batch = Batch::new(s.seqs.clone());
        let plan = match reply_plan(&s.reply) {
            Ok(p) => p,
            Err(e) => {
                out.fail(format!("reply {} does not parse: {e}", s.index));
                continue;
            }
        };
        if let Err(v) = validate_with_batch(&plan, &ctx, &batch) {
            out.fail(format!(
                "reply {} fails audit: {}",
                s.index,
                violation_report(&v)
            ));
            continue;
        }
        if simulate {
            match simulate_plan(&plan, &batch, &ctx, &cfg) {
                Ok(rep) => {
                    tokens += rep.tokens;
                    ns += rep.step_time.as_nanos();
                }
                Err(e) => out.fail(format!("served plan {} does not simulate: {e}", s.index)),
            }
        }
    }
    (ns > 0).then(|| tokens as f64 / (ns as f64 / 1e9))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups {
        // Stop the previous set-up's server first, so only one is ever
        // alive.
        if let Some(Ok((_, live))) = kept.take() {
            if let Err(e) = Live::stop(live) {
                out.fail(format!("stopping a set-up server: {e}"));
            }
        }
        let t0 = Instant::now();
        let s = setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let (mut stream, mut live) = match kept.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("set-up failed: {e}"));
            return out;
        }
    };
    let warm = HOT_SHAPES as u64;
    let budget = if args.trace {
        args.seconds / 3
    } else {
        args.seconds
    };
    let r = tcp_loop(&mut stream, &mut live, budget, &mut out);
    let stats = live.stats();
    match live.stop() {
        Ok(report) => out.check(report.metrics.errors == 0, || {
            format!("server reported {} errors", report.metrics.errors)
        }),
        Err(e) => out.fail(format!("stopping the server: {e}")),
    }
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("stats: {e}"));
            return out;
        }
    };
    check_stats(&stats, warm, &r, &mut out);
    let sim_tps = check_replies(&r, &mut out);
    out.attempted = r.hot + r.fresh;
    out.failed = r.failed;
    if r.ms.is_empty() || r.window_rates.is_empty() {
        out.fail("the loop completed no request window");
        return out;
    }
    let p50 = percentile(&r.ms, 0.50);
    if args.trace {
        let server_p50 = stats.get("p50_us").and_then(Json::as_u64).unwrap_or(0) as f64;
        out.set("serve.server_p50_us", server_p50);
        out.set("serve.loop_wait_us", p50 * 1e3 - server_p50);
        out.set("serve.client_p99_us", percentile(&r.ms, 0.99) * 1e3);
        traced_replay(args, &r.samples, &mut out);
    } else {
        out.set("ops_per_s", median(&r.window_rates));
        out.set("op_ms.p50", p50);
        out.set("op_ms.p90", percentile(&r.ms, 0.90));
        out.set("setup_s", median(&setup_s));
        if let Some(t) = sim_tps {
            out.set("sim_tokens_per_s", t);
        }
        out.notes.push(format!(
            "serve-plan: {} requests ({} hits, {} misses), {} sampled replies audited",
            r.hot + r.fresh,
            r.hot,
            r.fresh,
            r.samples.len()
        ));
    }
    out
}

/// Host ns per layer of one replayed request.
#[derive(Default, Clone, Copy)]
struct ReqNs {
    parse: u64,
    ctx: u64,
    key: u64,
    lookup: u64,
    materialize: u64,
    plan: u64,
    insert: u64,
    audit: u64,
    serialize: u64,
    op_self: u64,
}

/// Replays one request in-process through the server's public calls;
/// returns the response line and whether it was a hit.
fn replay_one(
    tr: &mut Tracer,
    ns: &mut ReqNs,
    cache: &ShardedPlanCache,
    line: &str,
) -> Result<(String, bool), String> {
    let (req, t) = tr.span("serve.parse", || parse_request(line.trim_end()));
    ns.parse = t;
    let Request::Plan { seqs, method, .. } = req? else {
        return Err("not a plan request".to_string());
    };
    let defaults = ServerConfig::default();
    let ((scheduler, ctx, batch), t) = tr.span("serve.ctx", || {
        let scheduler = registry::scheduler_by_name(method.as_deref().unwrap_or(&defaults.method));
        let model = registry::model_by_name(&defaults.model);
        let cluster = registry::cluster_by_name(&defaults.cluster, defaults.nodes);
        let ctx = match (model, cluster) {
            (Ok(m), Ok(c)) => Ok(SchedulerCtx::new(&c, &m)),
            (Err(n), _) | (_, Err(n)) => Err(n),
        };
        (scheduler, ctx, Batch::new(seqs))
    });
    ns.ctx = t;
    let scheduler = scheduler.map_err(|n| format!("unknown method {n}"))?;
    let ctx = ctx.map_err(|n| format!("unknown preset {n}"))?;
    let ((key, canonical), t) =
        tr.span("serve.key", || PlanKey::new(scheduler.name(), &batch, &ctx));
    ns.key = t;
    let (found, t) = tr.span("serve.lookup", || cache.lookup(&key));
    ns.lookup = t;
    let hit = found.is_some();
    let cached = match found {
        Some(c) => c,
        None => {
            let (plan, t) = tr.span("core.plan", || scheduler.plan(&canonical.to_batch(), &ctx));
            ns.plan = t;
            let plan = plan.map_err(|e| format!("plan: {e}"))?;
            let (cached, t) = tr.span("serve.insert", || {
                let cached = Arc::new(CachedPlan::new(plan, &canonical.lens));
                cache.insert(key, Arc::clone(&cached));
                cached
            });
            ns.insert = t;
            cached
        }
    };
    let (plan, t) = tr.span("serve.materialize", || cached.materialize(&canonical));
    ns.materialize = t;
    let (audit, t) = tr.span("core.audit", || validate_with_batch(&plan, &ctx, &batch));
    ns.audit = t;
    audit.map_err(|v| format!("audit: {}", violation_report(&v)))?;
    let (resp, t) = tr.span("serve.serialize", || plan_response(&plan, hit, false, 0));
    ns.serialize = t;
    Ok((resp, hit))
}

/// The plan and `cached` flag of a reply: everything but `plan_us`.
fn reply_body(reply: &str) -> Option<(bool, &str)> {
    let (head, plan) = reply.trim_end().split_once(",\"plan\":")?;
    Some((head.contains("\"cached\":true"), plan))
}

/// One in-process pass over the first [`REPLAY`] requests of the stream,
/// on a fresh cache warmed (untimed) with the hot shapes. Returns
/// per-request host ms, per-request layer ns (when `tr` records), hits and
/// planner runs (warm-up included). Every reply is handed to `keep` with
/// its stream index.
fn replay_pass(
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
    mut keep: impl FnMut(u64, &str),
) -> (Vec<f64>, Vec<(bool, ReqNs)>, u64, u64) {
    let defaults = ServerConfig::default();
    let cache = ShardedPlanCache::new(defaults.cache_capacity, defaults.cache_shards);
    let mut stream = Stream::new(seed);
    let (mut hits, mut planner_runs) = (0u64, 0u64);
    let mut untimed = Tracer::disabled();
    for seqs in &stream.hot {
        let mut ns = ReqNs::default();
        match replay_one(&mut untimed, &mut ns, &cache, &line(seqs)) {
            Ok((_, false)) => planner_runs += 1,
            Ok((_, true)) => out.fail("replay warm-up hit the cache"),
            Err(e) => out.fail(format!("replay warm-up: {e}")),
        }
    }
    let mut ms = Vec::with_capacity(REPLAY as usize);
    let mut layers = Vec::new();
    for i in 0..REPLAY {
        let req = stream.next_request();
        let l = line(&req.seqs);
        tr.set_op(i);
        let mut ns = ReqNs::default();
        let t0 = Instant::now();
        let r = if tr.enabled() {
            let root = tr.enter("op");
            let r = replay_one(tr, &mut ns, &cache, &l);
            tr.exit();
            ns.op_self = tr.get(root).self_ns();
            r
        } else {
            replay_one(tr, &mut ns, &cache, &l)
        };
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok((resp, hit)) => {
                if hit {
                    hits += 1;
                } else {
                    planner_runs += 1;
                }
                out.check(hit == req.hot.is_some(), || {
                    format!("replayed request {i}: hit={hit}, the stream fixes the opposite")
                });
                keep(i, &resp);
                if tr.enabled() {
                    layers.push((hit, ns));
                }
            }
            Err(e) => out.fail(format!("replayed request {i}: {e}")),
        }
    }
    (ms, layers, hits, planner_runs)
}

/// The traced run's in-process part: untraced and traced replay passes
/// take turns for two thirds of the run. `samples` are server replies the
/// replay must reproduce.
fn traced_replay(args: &Args, samples: &[Sample], out: &mut Outcome) {
    let budget = args.seconds * 2 / 3;
    let rate = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut mismatched = Vec::new();
    let mut layers = Vec::new();
    let mut counts = None;
    let mut spans = 0;
    let start = Instant::now();
    while traced_rates.is_empty() || start.elapsed() < budget {
        let check = untraced_rates.is_empty();
        let (ms, _, _, _) = replay_pass(args.seed, &mut Tracer::disabled(), out, |i, resp| {
            if let Some(s) = samples.iter().filter(|_| check).find(|s| s.index == i) {
                if reply_body(resp) != reply_body(&s.reply) {
                    mismatched.push(i);
                }
            }
        });
        untraced_rates.push(rate(&ms));
        let mut tr = Tracer::new();
        let (ms, l, hits, runs) = replay_pass(args.seed, &mut tr, out, |_, _| {});
        traced_rates.push(rate(&ms));
        match counts {
            None => counts = Some((hits, runs)),
            Some(c) => out.check(c == (hits, runs), || {
                format!(
                    "replay passes disagree on hits/planner runs: {c:?} vs {:?}",
                    (hits, runs)
                )
            }),
        }
        // The first pass's spans are the ones written out.
        if traced_rates.len() == 1 {
            spans = tr.spans().len();
            for (name, (total_ns, self_ns, count)) in tr.summary() {
                out.notes.push(format!(
                    "span {name:<17} count {count:>7}  total {:>9.2} ms  self {:>9.2} ms",
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
        }
        layers.extend(l);
    }
    for i in mismatched {
        out.fail(format!(
            "replayed request {i} differs from the server's reply"
        ));
    }
    let (hits, runs) = counts.expect("at least one pass");
    out.check(
        hits == REPLAY - REPLAY / FRESH_EVERY && runs == HOT_SHAPES as u64 + REPLAY / FRESH_EVERY,
        || format!("replay pass: {hits} hits and {runs} planner runs, not as the stream fixes"),
    );
    out.attempted += REPLAY * (untraced_rates.len() + traced_rates.len()) as u64;
    let pick = |hit: Option<bool>, f: fn(&ReqNs) -> u64| -> f64 {
        let v: Vec<f64> = layers
            .iter()
            .filter(|(h, _)| hit.is_none_or(|want| *h == want))
            .map(|(_, ns)| f(ns) as f64 / 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    out.set("serve.parse_us", pick(None, |n| n.parse));
    out.set("serve.ctx_us", pick(None, |n| n.ctx));
    out.set("serve.key_us", pick(None, |n| n.key));
    out.set("serve.lookup_us", pick(None, |n| n.lookup));
    out.set("serve.materialize_us", pick(Some(true), |n| n.materialize));
    out.set("core.plan_us", pick(Some(false), |n| n.plan));
    out.set("serve.insert_us", pick(Some(false), |n| n.insert));
    out.set("core.audit_us", pick(None, |n| n.audit));
    out.set("serve.serialize_us", pick(None, |n| n.serialize));
    out.set("serve.hit_ratio", hits as f64 / REPLAY as f64);
    out.set("serve.planner_runs", runs as f64);
    out.set("trace.spans", spans as f64);
    out.set("trace.op_self_us", pick(None, |n| n.op_self));
    let (u, t) = (median(&untraced_rates), median(&traced_rates));
    out.set("trace.ops_per_s_untraced", u);
    out.set("trace.ops_per_s_traced", t);
    out.set("trace.overhead_pct", (u - t) / u * 100.0);
    out.notes.push(format!(
        "serve-plan replay: {REPLAY} requests per pass, {hits} hits, {runs} planner runs \
         ({HOT_SHAPES} warm-up + {} fresh)",
        REPLAY / FRESH_EVERY
    ));
}
