//! Criterion benchmarks for cost-function fitting (§4.2): NNLS solves and
//! per-node grid fits, including an ablation over the grid width `W`: each
//! fit probes the oracle (W+1)² times, so `W` trades fit accuracy for
//! per-query fitting cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use uaq_cost::{fit_node, CostUnit, FitConfig, NodeCostContext};
use uaq_datagen::GenConfig;
use uaq_engine::{plan_query, JoinStep, Pred, QuerySpec, SortOrder, TableRef};
use uaq_stats::{nnls, Matrix, Normal, Rng};
use uaq_storage::Value;

fn bench_nnls(c: &mut Criterion) {
    let mut rng = Rng::new(11);
    let a = Matrix::from_rows(
        (0..81)
            .map(|_| (0..4).map(|_| rng.f64()).collect())
            .collect(),
    );
    let y: Vec<f64> = (0..81).map(|_| rng.f64() * 100.0).collect();
    let mut group = c.benchmark_group("nnls");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(50);
    group.bench_function("81x4", |b| b.iter(|| nnls(&a, &y)));
    group.finish();
}

fn bench_fit_node(c: &mut Criterion) {
    let catalog = GenConfig::new(0.002, 0.0, 42).build();
    let join_plan = plan_query(
        &QuerySpec::scan("j", TableRef::plain("orders")).with_joins(vec![JoinStep::new(
            TableRef::plain("lineitem"),
            "o_orderkey",
            "l_orderkey",
        )]),
        &catalog,
    );
    let sort_plan = plan_query(
        &QuerySpec::scan(
            "s",
            TableRef::new("lineitem", Pred::le("l_shipdate", Value::Int(1200))),
        )
        .with_order_by(vec![("l_shipdate".into(), SortOrder::Asc)]),
        &catalog,
    );
    let join_ctx = NodeCostContext::build(&join_plan, join_plan.root(), &catalog);
    let sort_ctx = NodeCostContext::build(&sort_plan, sort_plan.root(), &catalog);
    let xl = Normal::new(0.4, 0.001);
    let xr = Normal::new(0.5, 0.002);
    let own = Normal::new(0.2, 0.0005);

    let mut group = c.benchmark_group("fit_node");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(50);
    // Grid-width ablation: W controls the number of oracle probes
    // ((W+1)² for binary forms).
    for w in [4usize, 8, 16] {
        let cfg = FitConfig { grid_w: w };
        group.bench_with_input(BenchmarkId::new("join_c6", w), &w, |b, _| {
            b.iter(|| fit_node(&join_ctx, &xl, &xr, &own, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("sort_c4", w), &w, |b, _| {
            b.iter(|| fit_node(&sort_ctx, &xl, &xr, &own, &cfg))
        });
    }
    group.finish();

    // Sanity outside the timing loop: the fitted join function must have a
    // ProductBoth c_t slot and the sort a QuadLeft c_o slot.
    let cfg = FitConfig::default();
    let jf = fit_node(&join_ctx, &xl, &xr, &own, &cfg);
    assert!(jf[CostUnit::CpuTuple.idx()].is_some());
    let sf = fit_node(&sort_ctx, &xl, &xr, &own, &cfg);
    assert!(sf[CostUnit::CpuOp.idx()].is_some());
}

criterion_group!(benches, bench_nnls, bench_fit_node);
criterion_main!(benches);
