//! Criterion benchmarks for the Var[t_q] computation (Algorithm 3) and the
//! covariance-bound machinery — plus a bound-choice ablation, because the
//! predictor takes the tightest of several bounds: how expensive are B1's
//! restricted variances versus the plain Cauchy–Schwarz B2?

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use uaq_core::{Predictor, PredictorConfig, Variant};
use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
use uaq_datagen::GenConfig;
use uaq_engine::{execute_on_samples, plan_query};
use uaq_selest::{cov_bounds, estimate_selectivities, shared_leaves};
use uaq_stats::Rng;

fn bench_variance(c: &mut Criterion) {
    let catalog = GenConfig::new(0.002, 0.0, 42).build();
    let mut rng = Rng::new(3);
    let units = calibrate(
        &HardwareProfile::pc1(),
        &CalibrationConfig::default(),
        &mut rng,
    );
    let samples = catalog.draw_samples(0.05, 2, &mut rng);
    // A deep plan: TPC-H Q5's 6-way join.
    let plan = plan_query(&uaq_workloads::tpch::q5(&mut rng), &catalog);

    let mut group = c.benchmark_group("variance");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);

    // Full prediction under each variant: the difference All − NoCov prices
    // the covariance-bound machinery.
    for variant in [
        Variant::All,
        Variant::NoCovariance,
        Variant::NoSelectivityVariance,
    ] {
        let predictor = Predictor::new(
            units,
            PredictorConfig {
                variant,
                ..Default::default()
            },
        );
        group.bench_function(variant.label().replace(' ', "_"), |b| {
            b.iter(|| predictor.predict(&plan, &catalog, &samples))
        });
    }
    group.finish();

    // Raw bound computation between a deep descendant-ancestor pair.
    let outcome = execute_on_samples(&plan, &samples);
    let estimates = estimate_selectivities(&plan, &outcome, &samples, &catalog);
    let pairs: Vec<_> = plan
        .node_ids()
        .flat_map(|a| plan.node_ids().map(move |b| (a, b)))
        .filter_map(|(a, b)| shared_leaves(&plan, a, b).map(|s| (a, b, s)))
        .collect();
    assert!(!pairs.is_empty());
    let mut group = c.benchmark_group("cov_bounds");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(50);
    group.bench_function("all_path_pairs", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|(a, bn, s)| {
                    let (desc, anc) = if plan.is_descendant(*a, *bn) {
                        (*a, *bn)
                    } else {
                        (*bn, *a)
                    };
                    cov_bounds(&estimates[desc], &estimates[anc], s).tightest()
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_variance);
criterion_main!(benches);
