//! The layer replay of the traced run: each plan goes single-threaded
//! through every layer's public entry point, each call timed from here.

use crate::env::{Env, SetupTimes};
use crate::serve::Kind;
use crate::util::{self, metric, Metric, Report};
use std::sync::Arc;
use std::time::Instant;
use uaq_cost::{
    fit_node, simulate_actual_time, FitConfig, HardwareProfile, NodeCostContext, SimConfig,
};
use uaq_datagen::DbPreset;
use uaq_engine::{execute_full, execute_on_samples, ExecOutcome, Plan};
use uaq_experiments::{CellConfig, Lab, Machine};
use uaq_selest::{estimate_selectivities_with, AggCardinalitySource, SelEstimates};
use uaq_service::{SharedFitCache, SharedSelEstCache};
use uaq_stats::{Normal, Rng};
use uaq_workloads::Benchmark;

/// Replay passes; each layer's time per plan is the median over passes.
const PASSES: usize = 3;
/// Largest |leftover| of each reconciliation, as a share of its whole (%).
pub const PREDICT_TOLERANCE_PCT: f64 = 10.0;
pub const LATENCY_TOLERANCE_PCT: f64 = 15.0;

/// Per-plan times (ms, median over passes) of each entry point.
#[derive(Default)]
pub struct LayerStats {
    exec_sample: Vec<f64>,
    estimate: Vec<f64>,
    fit: Vec<f64>,
    algebra: Vec<f64>,
    predict: Vec<f64>,
    warm_predict: Vec<f64>,
    exec_full: Vec<f64>,
    simulate: Vec<f64>,
    sample_rows: u64,
    full_rows: u64,
    /// One operation per plan: the layer-by-layer composition must
    /// reproduce `Predictor::predict` bit for bit, and so must the warm
    /// cached path.
    pub attempted: u64,
    pub failed: u64,
}

fn rows(out: &ExecOutcome) -> u64 {
    out.traces.iter().map(|t| t.output_rows as u64).sum()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (v, t.elapsed().as_secs_f64() * 1e3)
}

/// The fitting stage as the predictor runs it: per-node cost contexts,
/// then `fit_node` on each node's input and own selectivity distributions.
fn fit_all(plan: &Plan, env: &Env, estimates: &SelEstimates) -> usize {
    let contexts = NodeCostContext::build_all(plan, &env.catalog);
    let dists = estimates.distributions();
    let config = FitConfig::default();
    plan.node_ids()
        .map(|id| {
            let children = plan.op(id).children();
            let xl = children.first().map_or(Normal::point(0.0), |&c| dists[c]);
            let xr = children.get(1).map_or(Normal::point(0.0), |&c| dists[c]);
            fit_node(&contexts[id], &xl, &xr, &dists[id], &config)
                .iter()
                .flatten()
                .count()
        })
        .sum()
}

pub fn replay(env: &Env, plans: &[Arc<Plan>], seed: u64) -> LayerStats {
    let profile = HardwareProfile::pc1();
    let fit_cache = SharedFitCache::default();
    let sel_cache = SharedSelEstCache::default();
    let mut s = LayerStats::default();
    for plan in plans {
        let (cat, smp) = (&*env.catalog, &*env.samples);
        let mut t: [Vec<f64>; 8] = Default::default();
        let mut same = true;
        for pass in 0..PASSES {
            // The full pass and the simulation first: they sweep the base
            // tables through the CPU caches, so the prediction calls below
            // all start from the same (warmed) state.
            let (full, ms) = timed(|| execute_full(plan, cat));
            t[6].push(ms);
            let contexts = NodeCostContext::build_all(plan, cat);
            let mut rng = Rng::new(seed ^ pass as u64);
            let sim = SimConfig::default();
            t[7].push(
                timed(|| {
                    simulate_actual_time(plan, &contexts, &full.traces, &profile, &sim, &mut rng)
                })
                .1,
            );
            std::hint::black_box(env.predictor.predict(plan, cat, smp));
            // The whole predict is timed before and after its parts, so
            // neither side always runs first.
            let (direct, ms) = timed(|| env.predictor.predict(plan, cat, smp));
            t[4].push(ms);

            let (outcome, ms) = timed(|| execute_on_samples(plan, smp));
            t[0].push(ms);
            let (est, ms) = timed(|| {
                estimate_selectivities_with(
                    plan,
                    &outcome,
                    smp,
                    cat,
                    AggCardinalitySource::Optimizer,
                )
            });
            t[1].push(ms);
            let estimates = SelEstimates::from_vec(est);
            t[2].push(timed(|| fit_all(plan, env, &estimates)).1);
            if pass == 0 {
                // Warm both caches outside the timed calls.
                env.predictor
                    .predict_from_estimates(plan, cat, estimates.clone(), &fit_cache);
                env.predictor
                    .predict_with_caches(plan, cat, smp, &fit_cache, &sel_cache);
                s.sample_rows += rows(&outcome);
                s.full_rows += rows(&full);
            }
            let (composed, ms) = timed(|| {
                env.predictor
                    .predict_from_estimates(plan, cat, estimates.clone(), &fit_cache)
            });
            t[3].push(ms);
            t[4].push(timed(|| env.predictor.predict(plan, cat, smp)).1);
            let (warm, ms) = timed(|| {
                env.predictor
                    .predict_with_caches(plan, cat, smp, &fit_cache, &sel_cache)
            });
            t[5].push(ms);
            let bits = |p: &uaq_core::Prediction| (p.mean_ms().to_bits(), p.var().to_bits());
            same &= bits(&composed) == bits(&direct) && bits(&warm) == bits(&direct);
        }
        s.attempted += 1;
        if !same {
            s.failed += 1;
        }
        let sinks = [
            &mut s.exec_sample,
            &mut s.estimate,
            &mut s.fit,
            &mut s.algebra,
            &mut s.predict,
            &mut s.warm_predict,
            &mut s.exec_full,
            &mut s.simulate,
        ];
        for (sink, times) in sinks.into_iter().zip(&t) {
            sink.push(util::median(times));
        }
    }
    s
}

impl LayerStats {
    /// Per-instance medians, the exact row counts, and the first
    /// reconciliation: sample pass + estimation + fitting + algebra
    /// against the uncached predict, summed over the replayed plans.
    pub fn metrics(&self) -> Vec<Metric> {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let parts =
            sum(&self.exec_sample) + sum(&self.estimate) + sum(&self.fit) + sum(&self.algebra);
        let whole = sum(&self.predict);
        let leftover = whole - parts;
        println!(
            "# reconcile predict: exec_sample {:.3} + estimate {:.3} + fit {:.3} + algebra {:.3} = {parts:.3} ms vs predict {whole:.3} ms over {} plans; leftover {leftover:.3} ms ({:.2} %)",
            sum(&self.exec_sample),
            sum(&self.estimate),
            sum(&self.fit),
            sum(&self.algebra),
            self.predict.len(),
            100.0 * leftover / whole
        );
        vec![
            metric(
                "engine.exec_sample_ms",
                util::median(&self.exec_sample),
                "ms",
            ),
            metric("engine.sample_rows", self.sample_rows as f64, "count"),
            metric("engine.exec_full_ms", util::median(&self.exec_full), "ms"),
            metric("engine.full_rows", self.full_rows as f64, "count"),
            metric("selest.estimate_ms", util::median(&self.estimate), "ms"),
            metric("cost.fit_ms", util::median(&self.fit), "ms"),
            metric("cost.simulate_ms", util::median(&self.simulate), "ms"),
            metric("core.predict_ms", util::median(&self.predict), "ms"),
            metric("core.algebra_ms", util::median(&self.algebra), "ms"),
            metric(
                "core.warm_predict_ms",
                util::median(&self.warm_predict),
                "ms",
            ),
            metric(
                "reconcile.predict_leftover_pct",
                100.0 * (leftover / whole).abs(),
                "%",
            ),
        ]
    }
}

/// Adds the two reconciliations to a traced run's report as operations of
/// their own: each fails when its leftover exceeds its tolerance.
pub fn reconciled(mut report: Report) -> Report {
    for (name, tolerance) in [
        ("reconcile.predict_leftover_pct", PREDICT_TOLERANCE_PCT),
        ("reconcile.latency_leftover_pct", LATENCY_TOLERANCE_PCT),
    ] {
        let leftover = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value);
        report.attempted += 1;
        if leftover.is_nan() || leftover > tolerance {
            report.failed += 1;
            println!("# {name} = {leftover:.2} exceeds its tolerance of {tolerance} %");
        }
    }
    report
}

/// Set-up layer metrics: the median over set-ups of each step's time.
pub fn setup_metrics(setups: &[SetupTimes]) -> Vec<Metric> {
    let col = |f: fn(&SetupTimes) -> f64| util::median(&setups.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("datagen.build_s", col(|s| s.build_s), "s"),
        metric("storage.draw_samples_s", col(|s| s.draw_samples_s), "s"),
        metric("cost.calibrate_s", col(|s| s.calibrate_s), "s"),
    ]
}

/// `Lab::run_cell` time (median, ms) of the matrix cells that match a
/// serve workload: the 10 GB analog, PC1, SR 0.05, and the workload's
/// benchmarks.
pub fn serve_cells(kind: Kind, seed: u64) -> f64 {
    let mut lab = Lab::new(seed);
    lab.catalog(DbPreset::Uniform10G);
    lab.calibrated_units(Machine::Pc1);
    let benchmarks: &[Benchmark] = match kind {
        Kind::Novel => &[Benchmark::SelJoin, Benchmark::Tpch],
        _ => &Benchmark::ALL,
    };
    let times: Vec<f64> = benchmarks
        .iter()
        .map(|&b| {
            let cell = CellConfig::new(DbPreset::Uniform10G, Machine::Pc1, b, crate::env::SERVE_SR);
            timed(|| lab.run_cell(&cell).records.len()).1
        })
        .collect();
    util::median(&times)
}
