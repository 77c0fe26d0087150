//! The two serve workloads: one client thread drives `PredictionService`
//! in a closed loop with a bounded number of requests in flight.
//!
//! * `serve-novel` — fresh SELJOIN and TPCH instances, new literals on
//!   every request: almost every request misses both caches.
//! * `serve-repeat` — Zipf-skewed requests over a fixed working set of
//!   128 instances, all predicted once in set-up: only warm hits are timed.
//!
//! Both run over the same fixed database (see [`SERVE_DB_SEED`]); the
//! run's seed draws the request stream: literals, Zipf draws, deadlines.

use crate::env::{Env, SetupTimes, SERVE_DB_SEED};
use crate::layers::{self, LayerStats};
use crate::util::{self, metric, Metric, Report, SplitMix, Zipf};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use uaq_cost::{simulate_actual_time, HardwareProfile, NodeCostContext, SimConfig};
use uaq_engine::{execute_full, plan_query, Plan};
use uaq_service::{
    CacheStats, Decision, PredictRequest, PredictionService, ServedTier, ServiceConfig, TenantId,
};
use uaq_stats::Rng;
use uaq_workloads::{seljoin_queries, tpch_queries, Benchmark};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Novel,
    Repeat,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests of the first round whose responses serve-novel checks against
/// direct predictions (and whose plans feed r_s, D_n and the layer replay).
const NOVEL_CHECKED: usize = 128;
/// SELJOIN + TPCH batches (one instance per template each) per round.
const NOVEL_BATCHES_PER_ROUND: usize = 48;
/// Requests per serve-repeat round.
const REPEAT_ROUND: usize = 1024;
/// Zipf exponent of serve-repeat's popularity skew.
const ZIPF_S: f64 = 1.0;
/// Seconds of untimed closed loop before every timed one: the workers'
/// allocator arenas and the host's caches settle before the clock starts.
const WARMUP_S: f64 = 2.0;
/// Salt of the warm-up's request stream, so that its instances are not
/// the timed phase's.
const WARMUP_SALT: u64 = 0x3A7E;
/// Rounds per p99 window (about 2000 requests, 20 tail samples). The
/// run's p99 is the median over its windows, so a host stall of a second
/// or two moves a few windows, not the figure.
const P99_WINDOW_ROUNDS: usize = 2;
/// Deadlines are log-uniform over this range (ms): it spans the predicted
/// means of the 10 GB analog's queries, so Admit, Defer and Reject all
/// occur.
const DEADLINE_MS: (f64, f64) = (100.0, 12_000.0);
/// The admission policy the service is expected to run (the default
/// uncertainty-aware one): admit when `Pr(T ≤ d)` ≥ 0.9, defer down to
/// 0.45, reject below. The decision check recomputes from these, not from
/// the program's own policy.
const ADMIT_THRESHOLD: f64 = 0.9;
const DEFER_THRESHOLD: f64 = 0.45;

struct Request {
    plan: Arc<Plan>,
    deadline_ms: f64,
    /// serve-repeat: index into the working set; serve-novel: request
    /// number within the run.
    instance: usize,
    /// Requests of one group share a plan (serve-repeat, replays) or a
    /// template (serve-novel): the strata of the latency reconciliation.
    group: usize,
}

/// Deterministic request source: the same seed yields the same rounds.
struct Source {
    kind: Kind,
    query_rng: Rng,
    rng: SplitMix,
    zipf: Zipf,
    /// serve-repeat's working set, in popularity-rank order.
    working_set: Vec<Arc<Plan>>,
    issued: usize,
}

/// The reference working set: the 72 MICRO grid queries plus 4 SELJOIN
/// and 2 TPCH instances per template, in a fixed popularity order.
pub fn working_set(env: &Env) -> Vec<Arc<Plan>> {
    let mut query_rng = Rng::new(SERVE_DB_SEED ^ 0x0B5E);
    let mut plans: Vec<Option<Arc<Plan>>> = [
        (Benchmark::Micro, 1),
        (Benchmark::SelJoin, 4),
        (Benchmark::Tpch, 2),
    ]
    .iter()
    .flat_map(|&(b, n)| b.queries(&env.catalog, n, &mut query_rng))
    .map(|spec| Some(Arc::new(plan_query(&spec, &env.catalog))))
    .collect();
    SplitMix::new(SERVE_DB_SEED)
        .permutation(plans.len())
        .into_iter()
        .map(|i| plans[i].take().expect("permutation visits each index once"))
        .collect()
}

impl Source {
    fn new(kind: Kind, seed: u64, env: &Env) -> Self {
        let working_set = match kind {
            Kind::Repeat => working_set(env),
            Kind::Novel => Vec::new(),
        };
        Self {
            kind,
            query_rng: Rng::new(seed ^ 0x0B5E),
            rng: SplitMix::new(seed),
            zipf: Zipf::new(working_set.len().max(1), ZIPF_S),
            working_set,
            issued: 0,
        }
    }

    fn round(&mut self, env: &Env) -> Vec<Request> {
        let mut out = Vec::new();
        match self.kind {
            Kind::Novel => {
                for _ in 0..NOVEL_BATCHES_PER_ROUND {
                    let specs = seljoin_queries(1, &mut self.query_rng)
                        .into_iter()
                        .chain(tpch_queries(1, &mut self.query_rng));
                    for (template, spec) in specs.enumerate() {
                        out.push(Request {
                            plan: Arc::new(plan_query(&spec, &env.catalog)),
                            deadline_ms: self.rng.log_uniform(DEADLINE_MS.0, DEADLINE_MS.1),
                            instance: self.issued,
                            group: template,
                        });
                        self.issued += 1;
                    }
                }
            }
            Kind::Repeat => {
                for _ in 0..REPEAT_ROUND {
                    let i = self.zipf.draw(&mut self.rng);
                    out.push(Request {
                        plan: Arc::clone(&self.working_set[i]),
                        deadline_ms: self.rng.log_uniform(DEADLINE_MS.0, DEADLINE_MS.1),
                        instance: i,
                        group: i,
                    });
                }
            }
        }
        out
    }
}

/// What one timed closed loop observed.
#[derive(Default)]
pub struct LoopOutcome {
    latency_ms: Vec<f64>,
    service_ms: Vec<f64>,
    /// [`Request::group`] of each observed response.
    group: Vec<usize>,
    /// Requests per second of each round.
    round_qps: Vec<f64>,
    /// Requests per round.
    round_len: usize,
    timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    decisions: [u64; 3],
    /// serve-repeat: timed responses per working-set instance.
    per_instance: Vec<u64>,
    /// serve-novel: (mean, var) of the checked requests, by request number.
    checked: Vec<Option<(f64, f64)>>,
    /// Cache counter deltas over the timed phase.
    sel_hits: u64,
    sel_misses: u64,
    fit_hits: u64,
    fit_misses: u64,
    sel_evictions: u64,
}

impl LoopOutcome {
    /// Median over windows of [`P99_WINDOW_ROUNDS`] rounds of each
    /// window's 99th percentile latency; the p99 of all requests when the
    /// run is shorter than one window.
    fn windowed_p99(&self) -> f64 {
        let windows: Vec<f64> = self
            .latency_ms
            .chunks_exact(P99_WINDOW_ROUNDS * self.round_len)
            .map(|w| util::quantile(w, 0.99))
            .collect();
        if windows.is_empty() {
            util::quantile(&self.latency_ms, 0.99)
        } else {
            util::median(&windows)
        }
    }

    fn count_cache(&mut self, before: &CacheStats, after: &CacheStats) {
        self.sel_hits += after.sel_hits - before.sel_hits;
        self.sel_misses += after.sel_misses - before.sel_misses;
        self.fit_hits += after.fit_hits - before.fit_hits;
        self.fit_misses += after.fit_misses - before.fit_misses;
        self.sel_evictions += after.sel_evictions - before.sel_evictions;
    }
}

/// Checks one response in flight: exactly one reply, tier `Full`, and
/// `prob_in_time` plus the decision recomputed from μ, σ, the deadline
/// and [`ADMIT_THRESHOLD`] / [`DEFER_THRESHOLD`] with the benchmark's own
/// normal CDF.
fn response_ok(
    rx: &std::sync::mpsc::Receiver<uaq_service::PredictResponse>,
    resp: &uaq_service::PredictResponse,
    id: u64,
    deadline_ms: f64,
) -> bool {
    if resp.id != id || resp.tier != ServedTier::Full || rx.try_recv().is_ok() {
        return false;
    }
    let p = &resp.prediction;
    let (mu, sd) = (p.mean_ms(), p.std_dev_ms());
    if !(mu.is_finite() && sd.is_finite() && sd > 0.0) {
        return false;
    }
    let prob = util::normal_cdf(mu, sd, deadline_ms);
    if (prob - resp.prob_in_time).abs() > util::CDF_TOLERANCE {
        return false;
    }
    let near = |t: f64| (prob - t).abs() <= util::CDF_TOLERANCE;
    if near(ADMIT_THRESHOLD) || near(DEFER_THRESHOLD) {
        return true;
    }
    let expected = if prob >= ADMIT_THRESHOLD {
        Decision::Admit
    } else if prob >= DEFER_THRESHOLD {
        Decision::Defer
    } else {
        Decision::Reject
    };
    resp.decision == expected
}

/// Runs whole rounds of the closed loop until `seconds` of timed work
/// have passed, with [`crate::nproc`] requests in flight. `reference`
/// (serve-repeat) holds the (mean, var) bits every response of an instance
/// must reproduce.
fn closed_loop(
    service: &PredictionService,
    env: &Env,
    source: &mut Source,
    seconds: f64,
    reference: &[(u64, u64)],
) -> LoopOutcome {
    let depth = crate::nproc();
    let mut out = LoopOutcome {
        per_instance: vec![0; reference.len()],
        checked: vec![None; NOVEL_CHECKED],
        ..Default::default()
    };
    let before = service.cache_stats();
    let mut next_id = 0u64;
    loop {
        let round = source.round(env);
        let mut in_flight: VecDeque<(std::sync::mpsc::Receiver<_>, Instant, usize, u64)> =
            VecDeque::with_capacity(depth);
        let t = Instant::now();
        let mut pending = round.iter().enumerate();
        loop {
            while in_flight.len() < depth {
                let Some((k, req)) = pending.next() else {
                    break;
                };
                let sent = Instant::now();
                let rx = service.submit(PredictRequest {
                    id: next_id,
                    plan: Arc::clone(&req.plan),
                    deadline_ms: Some(req.deadline_ms),
                    tenant: TenantId::default(),
                });
                in_flight.push_back((rx, sent, k, next_id));
                next_id += 1;
            }
            let Some((rx, sent, k, id)) = in_flight.pop_front() else {
                break;
            };
            let req = &round[k];
            out.attempted += 1;
            let Ok(resp) = rx.recv() else {
                out.failed += 1;
                continue;
            };
            out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            out.service_ms.push(resp.service_seconds * 1e3);
            out.group.push(req.group);
            out.decisions[match resp.decision {
                Decision::Admit => 0,
                Decision::Defer => 1,
                Decision::Reject => 2,
            }] += 1;
            let mut ok = response_ok(&rx, &resp, id, req.deadline_ms);
            let bits = (
                resp.prediction.mean_ms().to_bits(),
                resp.prediction.var().to_bits(),
            );
            match source.kind {
                Kind::Repeat if !reference.is_empty() => {
                    ok &= reference[req.instance] == bits;
                    out.per_instance[req.instance] += 1;
                }
                Kind::Repeat => {}
                Kind::Novel => {
                    if let Some(slot) = out.checked.get_mut(req.instance) {
                        *slot = Some((resp.prediction.mean_ms(), resp.prediction.var()));
                    }
                }
            }
            if !ok {
                out.failed += 1;
            }
        }
        let round_s = util::secs(t);
        out.timed_s += round_s;
        out.round_qps.push(round.len() as f64 / round_s);
        out.round_len = round.len();
        if out.timed_s >= seconds {
            break;
        }
    }
    out.count_cache(&before, &service.cache_stats());
    out
}

/// The untimed warm-up loop: whole rounds of the same kind of requests,
/// drawn from a stream of their own, until [`WARMUP_S`] have passed.
fn warm_loop(
    service: &PredictionService,
    env: &Env,
    kind: Kind,
    seed: u64,
    reference: &[(u64, u64)],
) -> LoopOutcome {
    let mut source = Source::new(kind, seed ^ WARMUP_SALT, env);
    closed_loop(service, env, &mut source, WARMUP_S, reference)
}

fn start_service(env: &Env, record_spans: bool) -> PredictionService {
    PredictionService::start(
        env.predictor.clone(),
        Arc::clone(&env.catalog),
        Arc::clone(&env.samples),
        ServiceConfig {
            workers: crate::nproc(),
            record_spans,
            ..Default::default()
        },
    )
}

/// Predicts every working-set instance once through the service (filling
/// both caches) and returns the responses' (mean, var) bits.
fn warm_up(service: &PredictionService, source: &Source) -> Vec<(u64, u64)> {
    source
        .working_set
        .iter()
        .map(|plan| {
            let r = service.predict_blocking(Arc::clone(plan), None);
            (
                r.prediction.mean_ms().to_bits(),
                r.prediction.var().to_bits(),
            )
        })
        .collect()
}

/// A closed loop through a freshly started service, warmed up first on
/// serve-repeat, with spans on or off.
fn fresh_loop(env: &Env, kind: Kind, seed: u64, seconds: f64, record_spans: bool) -> LoopOutcome {
    let service = start_service(env, record_spans);
    let mut source = Source::new(kind, seed, env);
    let reference = match kind {
        Kind::Repeat => warm_up(&service, &source),
        Kind::Novel => Vec::new(),
    };
    let warm = warm_loop(&service, env, kind, seed, &reference);
    let mut out = closed_loop(&service, env, &mut source, seconds, &reference);
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    service.shutdown();
    out
}

/// serve-repeat's closed loop, untraced and then with spans on: the
/// service figures of paper-eval's traced run.
pub fn repeat_loops(env: &Env, seed: u64, seconds: f64) -> (LoopOutcome, LoopOutcome) {
    (
        fresh_loop(env, Kind::Repeat, seed, seconds, false),
        fresh_loop(env, Kind::Repeat, seed, seconds, true),
    )
}

/// The plans the post-run checks and the layer replay use: the working
/// set (serve-repeat) or the first checked requests (serve-novel).
fn checked_plans(kind: Kind, seed: u64, env: &Env) -> Vec<Arc<Plan>> {
    let mut source = Source::new(kind, seed, env);
    match kind {
        Kind::Repeat => source.working_set.clone(),
        Kind::Novel => source
            .round(env)
            .into_iter()
            .take(NOVEL_CHECKED)
            .map(|r| r.plan)
            .collect(),
    }
}

/// r_s(σ, |error|) and D_n of direct predictions of `plans` against
/// simulated actual times (full execution on the base tables, PC1, 5-run
/// average).
pub fn quality(env: &Env, plans: &[Arc<Plan>], seed: u64) -> (f64, f64) {
    let direct: Vec<_> = plans
        .iter()
        .map(|p| env.predictor.predict(p, &env.catalog, &env.samples))
        .collect();
    let means: Vec<f64> = direct.iter().map(|d| d.mean_ms()).collect();
    let sds: Vec<f64> = direct.iter().map(|d| d.std_dev_ms()).collect();
    let mut rng = Rng::new(seed ^ 0x51A);
    let profile = HardwareProfile::pc1();
    let actuals: Vec<f64> = plans
        .iter()
        .map(|plan| {
            let out = execute_full(plan, &env.catalog);
            let contexts = NodeCostContext::build_all(plan, &env.catalog);
            simulate_actual_time(
                plan,
                &contexts,
                &out.traces,
                &profile,
                &SimConfig::default(),
                &mut rng,
            )
            .mean_ms
        })
        .collect();
    let errors: Vec<f64> = means
        .iter()
        .zip(&actuals)
        .map(|(m, t)| (m - t).abs())
        .collect();
    (
        util::spearman(&sds, &errors),
        util::dn(&means, &sds, &actuals),
    )
}

struct Prepared {
    env: Env,
    service: PredictionService,
    reference: Vec<(u64, u64)>,
    setup_s: Vec<f64>,
    layer_setup: Vec<SetupTimes>,
}

/// Sets up `SETUPS` times (database, calibration, samples, service start,
/// cache warm-up) and keeps the last.
fn prepare(kind: Kind, seed: u64) -> Prepared {
    let mut setup_s = Vec::new();
    let mut layer_setup = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let (env, times) = Env::build(SERVE_DB_SEED);
        let service = start_service(&env, false);
        let source = Source::new(kind, seed, &env);
        let reference = warm_up(&service, &source);
        setup_s.push(util::secs(t));
        layer_setup.push(times);
        last = Some((env, service, reference));
    }
    let (env, service, reference) = last.expect("at least one set-up");
    Prepared {
        env,
        service,
        reference,
        setup_s,
        layer_setup,
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Report {
    let Prepared {
        env,
        service,
        reference,
        setup_s,
        layer_setup,
    } = prepare(kind, seed);
    let warm = warm_loop(&service, &env, kind, seed, &reference);
    let mut source = Source::new(kind, seed, &env);
    let main = closed_loop(&service, &env, &mut source, seconds, &reference);
    service.shutdown();

    // Post-run checks: direct uncached predictions of the checked plans
    // must be bit-identical to what the service answered.
    let plans = checked_plans(kind, seed, &env);
    let direct: Vec<_> = plans
        .iter()
        .map(|p| env.predictor.predict(p, &env.catalog, &env.samples))
        .collect();
    let mut failed = main.failed + warm.failed;
    let attempted = main.attempted + warm.attempted;
    for (i, d) in direct.iter().enumerate() {
        let bits = (d.mean_ms().to_bits(), d.var().to_bits());
        match kind {
            Kind::Repeat => {
                if reference[i] != bits {
                    failed += main.per_instance[i];
                }
            }
            Kind::Novel => {
                let served = main.checked[i].map(|(m, v)| (m.to_bits(), v.to_bits()));
                if served != Some(bits) {
                    failed += 1;
                }
            }
        }
    }
    println!(
        "# rounds: {}, qps min {:.0} median {:.0} max {:.0}",
        main.round_qps.len(),
        util::quantile(&main.round_qps, 0.0),
        util::median(&main.round_qps),
        util::quantile(&main.round_qps, 1.0),
    );
    let [admit, defer, reject] = main.decisions;
    println!(
        "# decisions: admit={admit} defer={defer} reject={reject} of {} requests",
        main.attempted
    );

    if trace {
        // The same requests again, spans on, then the layer replay.
        let spans = fresh_loop(&env, kind, seed, seconds, true);
        let layers = layers::replay(&env, &plans, seed);
        let cell_ms = layers::serve_cells(kind, SERVE_DB_SEED);
        return layers::reconciled(Report {
            attempted: attempted + spans.attempted + layers.attempted,
            failed: failed + spans.failed + layers.failed,
            metrics: trace_metrics(&layer_setup, &main, &spans, &layers, cell_ms),
        });
    }
    // Prediction quality on the fixed reference set (the working set).
    let (rs, dn) = quality(&env, &working_set(&env), SERVE_DB_SEED);
    Report {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", util::median(&setup_s), "s"),
            metric(
                "predict_p50_ms",
                util::quantile(&main.latency_ms, 0.5),
                "ms",
            ),
            metric("predict_p99_ms", main.windowed_p99(), "ms"),
            metric("throughput_qps", util::median(&main.round_qps), "1/s"),
            metric("peak_rss_mb", util::peak_rss_mb(), "MB"),
            metric("rs", rs, "1"),
            metric("dn", dn, "1"),
        ],
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Every per-layer metric of a traced run, plus the second
/// reconciliation: service time + queue wait against the traced p50.
pub fn trace_metrics(
    layer_setup: &[SetupTimes],
    untraced: &LoopOutcome,
    spans: &LoopOutcome,
    layers: &LayerStats,
    cell_ms: f64,
) -> Vec<Metric> {
    let untraced_p50 = util::median(&untraced.latency_ms);
    let p50 = util::median(&spans.latency_ms);
    let serve = util::median(&spans.service_ms);
    let waits: Vec<f64> = spans
        .latency_ms
        .iter()
        .zip(&spans.service_ms)
        .map(|(l, s)| l - s)
        .collect();
    let wait = util::median(&waits);
    println!(
        "# latency medians: serve {serve:.4} + queue wait {wait:.4} = {:.4} ms vs traced p50 {p50:.4} ms over {} requests",
        serve + wait,
        spans.latency_ms.len(),
    );
    // Medians of a mix of plan costs do not add: near the median the
    // distribution is steep, so each median lands on a different plan.
    // The reconciliation therefore takes medians within each group of
    // like requests and weighs them by the group's size.
    let mut groups: BTreeMap<usize, [Vec<f64>; 3]> = BTreeMap::new();
    for ((&g, &l), (&s, &w)) in spans
        .group
        .iter()
        .zip(&spans.latency_ms)
        .zip(spans.service_ms.iter().zip(&waits))
    {
        let [lat, svc, wt] = groups.entry(g).or_default();
        lat.push(l);
        svc.push(s);
        wt.push(w);
    }
    let (mut whole, mut parts) = (0.0, 0.0);
    for [lat, svc, wt] in groups.values() {
        let n = lat.len() as f64;
        whole += n * util::median(lat);
        parts += n * (util::median(svc) + util::median(wt));
    }
    let leftover = (whole - parts) / spans.latency_ms.len() as f64;
    let whole = whole / spans.latency_ms.len() as f64;
    println!(
        "# reconcile latency: per-group serve + queue wait = {:.4} ms vs per-group p50 {whole:.4} ms over {} groups; leftover {leftover:.4} ms ({:.2} %)",
        whole - leftover,
        groups.len(),
        100.0 * leftover / whole
    );
    let mut m = layers::setup_metrics(layer_setup);
    m.extend(layers.metrics());
    m.extend([
        metric("service.serve_ms", serve, "ms"),
        metric("service.queue_wait_ms", wait, "ms"),
        metric(
            "service.sel_hit_ratio",
            ratio(spans.sel_hits, spans.sel_misses),
            "1",
        ),
        metric(
            "service.fit_hit_ratio",
            ratio(spans.fit_hits, spans.fit_misses),
            "1",
        ),
        metric("service.sel_evictions", spans.sel_evictions as f64, "count"),
        metric("experiments.cell_ms", cell_ms, "ms"),
        metric(
            "telemetry.trace_overhead_pct",
            100.0 * (p50 - untraced_p50) / untraced_p50,
            "%",
        ),
        metric(
            "reconcile.latency_leftover_pct",
            100.0 * (leftover / whole).abs(),
            "%",
        ),
    ]);
    m
}
