//! The simulated hardware runtime: turns a truly-executed plan into an
//! "actual" wall-clock time (the ground truth of every experiment).
//!
//! Per run (the paper runs each query 5 times with cold caches and averages):
//!
//! * one system-state draw of the five cost units for the whole query — the
//!   paper models the `c`'s as per-query random state, and calibration
//!   observes exactly these fluctuations;
//! * the oracle counts evaluated at the **true** cardinalities — a real
//!   execution "observes the true cardinalities ... identical every time it
//!   is run" (§1);
//! * a per-operator log-normal factor for cost-model error (`g`-error: the
//!   model ignores e.g. CPU/I/O interleaving; §1 bullet three) which the
//!   predictor's uncertainty model deliberately does not capture.

use crate::oracle::NodeCostContext;
use crate::profile::HardwareProfile;
use uaq_engine::{NodeTrace, Plan};
use uaq_stats::Rng;

/// Simulation knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Runs per query (paper: 5, averaged).
    pub runs: usize,
    /// σ of the per-operator log-normal model-error factor.
    pub model_error_sigma: f64,
    /// When true, every operator draws its own cost-unit state per run
    /// instead of all operators sharing one system state per run. The paper
    /// models the `c`'s as shared per-query state (`t_q ≈ Σ_c g_c·c`,
    /// §5.2.3); this flag simulates the world where that modeling assumption
    /// is wrong (the `ablate-cdraw` binary of `uaq-bench`).
    pub per_operator_unit_draws: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            runs: 5,
            model_error_sigma: 0.05,
            per_operator_unit_draws: false,
        }
    }
}

/// True selectivity triple `(x_l, x_r, own)` per node, computed from full
/// execution traces (the selectivity definition of Eq. 3).
pub fn true_selectivities(
    plan: &Plan,
    contexts: &[NodeCostContext],
    traces: &[NodeTrace],
) -> Vec<(f64, f64, f64)> {
    plan.node_ids()
        .map(|id| {
            let children = plan.op(id).children();
            let ctx = &contexts[id];
            // The leaf products are recovered by mapping selectivity 1.
            let xl = children
                .first()
                .map_or(0.0, |&c| ratio(traces[c].output_rows, ctx.nl(1.0)));
            let xr = children
                .get(1)
                .map_or(0.0, |&c| ratio(traces[c].output_rows, ctx.nr(1.0)));
            let own = ratio(traces[id].output_rows, ctx.own_leaf_product());
            (xl, xr, own)
        })
        .collect()
}

fn ratio(num: usize, denom: f64) -> f64 {
    if denom > 0.0 {
        num as f64 / denom
    } else {
        0.0
    }
}

/// Timing of one simulated query: per-run times and their mean.
#[derive(Debug, Clone)]
pub struct ActualTiming {
    pub per_run_ms: Vec<f64>,
    pub mean_ms: f64,
}

/// Simulates the actual execution time of a plan whose true per-node
/// cardinalities are known from a full execution.
pub fn simulate_actual_time(
    plan: &Plan,
    contexts: &[NodeCostContext],
    traces: &[NodeTrace],
    profile: &HardwareProfile,
    config: &SimConfig,
    rng: &mut Rng,
) -> ActualTiming {
    assert!(config.runs > 0);
    let sels = true_selectivities(plan, contexts, traces);
    // The `g`-error is *systematic*: the cost model mis-models a given
    // operator the same way on every run (e.g. it always ignores the same
    // CPU/I/O interleaving), so one γ per operator per query — it does not
    // average out across the 5 runs, exactly like the paper's third error
    // source which the predictor's uncertainty model cannot see.
    let gammas: Vec<f64> = plan
        .node_ids()
        .map(|_| {
            if config.model_error_sigma > 0.0 {
                rng.lognormal(0.0, config.model_error_sigma)
            } else {
                1.0
            }
        })
        .collect();
    let per_run_ms: Vec<f64> = (0..config.runs)
        .map(|_| {
            let shared_state = profile.draw(rng);
            plan.node_ids()
                .map(|id| {
                    let (xl, xr, own) = sels[id];
                    let counts = contexts[id].counts(xl, xr, own);
                    let time = if config.per_operator_unit_draws {
                        profile.draw(rng).time_for(&counts)
                    } else {
                        shared_state.time_for(&counts)
                    };
                    gammas[id] * time
                })
                .sum()
        })
        .collect();
    let mean_ms = per_run_ms.iter().sum::<f64>() / per_run_ms.len() as f64;
    ActualTiming {
        per_run_ms,
        mean_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_engine::{execute_full, PlanBuilder, Pred};
    use uaq_storage::{Catalog, Column, Schema, Table, Value};

    fn setup() -> (Catalog, Plan) {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a"), Column::int("b")]);
        let rows = (0..6400)
            .map(|i| vec![Value::Int(i % 10), Value::Int(i)])
            .collect();
        c.add_table(Table::new("t", s, rows));
        let mut b = PlanBuilder::new();
        let scan = b.seq_scan("t", Pred::lt("b", Value::Int(3200)));
        let plan = b.build(scan);
        (c, plan)
    }

    #[test]
    fn true_selectivities_match_execution() {
        let (c, plan) = setup();
        let out = execute_full(&plan, &c);
        let ctxs = NodeCostContext::build_all(&plan, &c);
        let sels = true_selectivities(&plan, &ctxs, &out.traces);
        assert!(
            (sels[0].2 - 0.5).abs() < 1e-9,
            "own selectivity {:?}",
            sels[0]
        );
    }

    #[test]
    fn simulated_time_is_positive_and_varies_across_runs() {
        let (c, plan) = setup();
        let out = execute_full(&plan, &c);
        let ctxs = NodeCostContext::build_all(&plan, &c);
        let mut rng = Rng::new(77);
        let timing = simulate_actual_time(
            &plan,
            &ctxs,
            &out.traces,
            &HardwareProfile::pc1(),
            &SimConfig::default(),
            &mut rng,
        );
        assert_eq!(timing.per_run_ms.len(), 5);
        assert!(timing.per_run_ms.iter().all(|&t| t > 0.0));
        let spread = timing
            .per_run_ms
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
                (lo.min(t), hi.max(t))
            });
        assert!(spread.1 > spread.0, "runs should differ");
        assert!(
            (timing.mean_ms
                - timing.per_run_ms.iter().sum::<f64>() / timing.per_run_ms.len() as f64)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn per_operator_draws_reduce_run_variance() {
        // Independent per-operator fluctuations partially cancel, so the
        // spread of per-run times shrinks versus shared system state.
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a")]);
        c.add_table(Table::new(
            "t",
            s,
            (0..20_000).map(|i| vec![Value::Int(i % 10)]).collect(),
        ));
        // Several operators of similar size: scan + filters stacked.
        let mut b = PlanBuilder::new();
        let mut node = b.seq_scan("t", Pred::True);
        for i in 0..4 {
            node = b.filter(node, Pred::ge("a", Value::Int(i)));
        }
        let plan = b.build(node);
        let out = execute_full(&plan, &c);
        let ctxs = NodeCostContext::build_all(&plan, &c);
        let profile = HardwareProfile::pc1();
        let run_var = |per_op: bool, seed: u64| {
            let cfg = SimConfig {
                runs: 3000,
                model_error_sigma: 0.0,
                per_operator_unit_draws: per_op,
            };
            let mut rng = Rng::new(seed);
            let t = simulate_actual_time(&plan, &ctxs, &out.traces, &profile, &cfg, &mut rng);
            uaq_stats::sample_variance(&t.per_run_ms)
        };
        let shared = run_var(false, 9);
        let independent = run_var(true, 9);
        assert!(
            independent < shared,
            "independent {independent} should be below shared {shared}"
        );
    }

    #[test]
    fn mean_time_tracks_expected_cost() {
        let (c, plan) = setup();
        let out = execute_full(&plan, &c);
        let ctxs = NodeCostContext::build_all(&plan, &c);
        let profile = HardwareProfile::pc1();
        let mut rng = Rng::new(5);
        // No model error, many runs → mean close to Σ n_c μ_c.
        let cfg = SimConfig {
            runs: 4000,
            model_error_sigma: 0.0,
            per_operator_unit_draws: false,
        };
        let timing = simulate_actual_time(&plan, &ctxs, &out.traces, &profile, &cfg, &mut rng);
        let sels = true_selectivities(&plan, &ctxs, &out.traces);
        let expected: f64 = plan
            .node_ids()
            .map(|id| {
                let (xl, xr, own) = sels[id];
                let counts = ctxs[id].counts(xl, xr, own);
                crate::units::CostUnit::ALL
                    .iter()
                    .map(|&u| counts[u] * profile.true_units()[u].mean())
                    .sum::<f64>()
            })
            .sum();
        assert!(
            (timing.mean_ms - expected).abs() / expected < 0.01,
            "mean {} vs expected {}",
            timing.mean_ms,
            expected
        );
    }

    #[test]
    fn bigger_queries_take_longer() {
        let mut c = Catalog::new();
        let s = Schema::new(vec![Column::int("a")]);
        c.add_table(Table::new(
            "small",
            s.clone(),
            (0..1000).map(|i| vec![Value::Int(i)]).collect(),
        ));
        c.add_table(Table::new(
            "large",
            s,
            (0..100_000).map(|i| vec![Value::Int(i)]).collect(),
        ));
        let time_of = |table: &str, rng_seed: u64| {
            let mut b = PlanBuilder::new();
            let scan = b.seq_scan(table, Pred::True);
            let plan = b.build(scan);
            let out = execute_full(&plan, &c);
            let ctxs = NodeCostContext::build_all(&plan, &c);
            let mut rng = Rng::new(rng_seed);
            simulate_actual_time(
                &plan,
                &ctxs,
                &out.traces,
                &HardwareProfile::pc2(),
                &SimConfig::default(),
                &mut rng,
            )
            .mean_ms
        };
        assert!(time_of("large", 1) > 20.0 * time_of("small", 1));
    }
}
