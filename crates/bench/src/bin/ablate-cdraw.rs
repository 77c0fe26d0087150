//! Ablation of the shared cost-unit assumption: the paper models the cost units as *shared*
//! per-query system state — `t_q ≈ Σ_c g_c·c` with one `c` per unit per run.
//! What if the world instead draws independent unit values per operator?
//! The shared-state variance term `σ_c²(Σ_i E[f_ic])²` then over-counts
//! (independent fluctuations partially cancel), and the correlation between
//! predicted σ and actual error should degrade.

use uaq_core::{Predictor, PredictorConfig};
use uaq_cost::{calibrate, simulate_actual_time, CalibrationConfig, NodeCostContext, SimConfig};
use uaq_datagen::DbPreset;
use uaq_engine::{execute_full, plan_query};
use uaq_experiments::Machine;
use uaq_stats::{pearson, spearman, Rng};
use uaq_workloads::Benchmark;

fn main() {
    let seed = uaq_bench::DEFAULT_SEED;
    let catalog = DbPreset::Uniform1G.build(seed ^ 0xD8);
    let profile = Machine::Pc1.profile();
    let mut rng = Rng::new(seed ^ 0x9E37);
    let units = calibrate(&profile, &CalibrationConfig::default(), &mut rng);
    let predictor = Predictor::new(units, PredictorConfig::default());
    let mut qrng = Rng::new(seed ^ 0xB0B);
    let specs = Benchmark::Micro.queries(&catalog, 1, &mut qrng);
    let samples = catalog.draw_samples(0.05, 2, &mut qrng);

    println!("Ablation: shared vs per-operator cost-unit draws (MICRO, U-1G, PC1, SR=0.05)\n");
    println!("{:<22} {:>8} {:>8}", "world", "r_s", "r_p");
    println!("{}", "-".repeat(40));
    for (label, per_op) in [("shared (paper model)", false), ("per-operator", true)] {
        let sim = SimConfig {
            per_operator_unit_draws: per_op,
            ..Default::default()
        };
        let mut arng = Rng::new(seed ^ 0xCAFE);
        let mut sigmas = Vec::new();
        let mut errors = Vec::new();
        for spec in &specs {
            let plan = plan_query(spec, &catalog);
            let p = predictor.predict(&plan, &catalog, &samples);
            let out = execute_full(&plan, &catalog);
            let ctxs = NodeCostContext::build_all(&plan, &catalog);
            let actual = simulate_actual_time(&plan, &ctxs, &out.traces, &profile, &sim, &mut arng);
            sigmas.push(p.std_dev_ms());
            errors.push((p.mean_ms() - actual.mean_ms).abs());
        }
        println!(
            "{:<22} {:>8.4} {:>8.4}",
            label,
            spearman(&sigmas, &errors),
            pearson(&sigmas, &errors)
        );
    }
    println!(
        "\nwith per-operator draws the predictor's shared-state variance model\n\
         over-claims σ for multi-operator plans — correlation drops accordingly"
    );
}
