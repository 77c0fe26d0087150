//! `paper-eval`: the §6.3 matrix behind Tables 4–5 through
//! `Lab::run_cell` — four databases × PC1/PC2 × SR 0.01/0.05/0.1 ×
//! MICRO/SELJOIN/TPCH, 72 cells and 3072 query records per round.

use crate::env::{Env, SetupTimes, SERVE_DB_SEED};
use crate::serve;
use crate::util::{self, metric, Report};
use std::time::Instant;
use uaq_datagen::DbPreset;
use uaq_experiments::{metrics, CellConfig, CellOutcome, Lab, Machine, MAIN_SAMPLING_RATIOS};
use uaq_stats::Rng;
use uaq_workloads::Benchmark;

/// Rounds per run, at least: a round is five seconds of memory-heavy
/// work, and fewer rounds leave the median at the mercy of host drift.
const MIN_ROUNDS: usize = 5;

fn cells() -> Vec<CellConfig> {
    let mut out = Vec::new();
    for db in DbPreset::ALL {
        for machine in Machine::ALL {
            for sr in MAIN_SAMPLING_RATIOS {
                for b in Benchmark::ALL {
                    out.push(CellConfig::new(db, machine, b, sr));
                }
            }
        }
    }
    out
}

/// A cell's r_s and D_n recomputed from its records with the benchmark's
/// own code, and how many of its records fail a check: σ, μ and the
/// actual time must be finite and positive, and the program's own r_s and
/// D_n (`uaq_experiments::metrics`) must agree with the recomputation.
fn check_cell(o: &CellOutcome) -> (f64, f64, u64) {
    let means = o.predicted_means();
    let sds = o.predicted_stds();
    let actuals = o.actuals();
    let errors = o.errors();
    let rs = util::spearman(&sds, &errors);
    let dn = util::dn(&means, &sds, &actuals);
    let agree = (rs - metrics::correlation(o).0).abs() <= 1e-9
        && (dn - metrics::distribution_distance(o)).abs() <= util::CDF_TOLERANCE;
    let bad = if agree {
        o.records
            .iter()
            .filter(|r| {
                let positive = |x: f64| x.is_finite() && x > 0.0;
                !(positive(r.predicted_std_ms)
                    && positive(r.predicted_mean_ms)
                    && positive(r.actual_ms))
            })
            .count() as u64
    } else {
        o.records.len() as u64
    };
    (rs, dn, bad)
}

/// The median cell latency, each cell's latency being its median over the
/// run's rounds. The 36 fastest cells take at most about 12 ms and the 36
/// others 20 ms or more, so the median falls in the gap between them. A
/// median over every timed call moves by the whole gap when a stalled
/// round pushes one cell across it; per-cell medians keep each cell on its
/// side.
fn median_cell_ms(cell_ms: &[f64], cells: usize) -> f64 {
    let per_cell: Vec<f64> = (0..cells)
        .map(|i| {
            let runs: Vec<f64> = cell_ms.iter().skip(i).step_by(cells).copied().collect();
            util::median(&runs)
        })
        .collect();
    util::median(&per_cell)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let cells = cells();
    let mut setup_s = Vec::new();
    let mut layer_setup = Vec::new();
    let mut cell_ms = Vec::new();
    let (mut round_qps, mut round_p99_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut timed_s) = (0u64, 0u64, 0.0);
    let mut first_round: Option<Vec<(f64, f64)>> = None;
    let (mut rs, mut dn);
    loop {
        // Set-up: the four databases and both machines' cost units.
        let t = Instant::now();
        let mut lab = Lab::new(seed);
        let mut times = SetupTimes::default();
        for p in DbPreset::ALL {
            let t = Instant::now();
            lab.catalog(p);
            times.build_s += util::secs(t);
        }
        for m in Machine::ALL {
            let t = Instant::now();
            lab.calibrated_units(m);
            times.calibrate_s += util::secs(t);
        }
        setup_s.push(util::secs(t));
        if trace {
            // The lab draws its samples inside each cell; time the same
            // draws (every database × ratio) from here.
            let mut rng = Rng::new(seed ^ 0x5A);
            let t = Instant::now();
            for p in DbPreset::ALL {
                for sr in MAIN_SAMPLING_RATIOS {
                    std::hint::black_box(lab.catalog(p).draw_samples(sr, 2, &mut rng));
                }
            }
            times.draw_samples_s = util::secs(t);
        }
        layer_setup.push(times);

        let round = Instant::now();
        let first = cell_ms.len();
        let outcomes: Vec<CellOutcome> = cells
            .iter()
            .map(|cell| {
                let t = Instant::now();
                let o = lab.run_cell(cell);
                cell_ms.push(util::secs(t) * 1e3);
                o
            })
            .collect();
        let round_s = util::secs(round);
        timed_s += round_s;
        let round_records: usize = outcomes.iter().map(|o| o.records.len()).sum();
        round_qps.push(round_records as f64 / round_s);
        round_p99_ms.push(util::quantile(&cell_ms[first..], 0.99));
        drop(lab);

        let mut round_failed = 0;
        let mut quality = Vec::new();
        for o in &outcomes {
            let (cell_rs, cell_dn, bad) = check_cell(o);
            attempted += o.records.len() as u64;
            round_failed += bad;
            quality.push((cell_rs, cell_dn));
        }
        // Cells are deterministic given the seed: every round must
        // reproduce the first round's r_s and D_n bit for bit.
        match &first_round {
            Some(first) => {
                for ((o, q), f) in outcomes.iter().zip(&quality).zip(first) {
                    if (q.0.to_bits(), q.1.to_bits()) != (f.0.to_bits(), f.1.to_bits()) {
                        round_failed += o.records.len() as u64;
                    }
                }
            }
            None => first_round = Some(quality.clone()),
        }
        rs = util::mean(&quality.iter().map(|q| q.0).collect::<Vec<_>>());
        dn = util::mean(&quality.iter().map(|q| q.1).collect::<Vec<_>>());
        // The paper's claim: estimated and actual errors correlate.
        if rs <= 0.0 {
            round_failed = outcomes.iter().map(|o| o.records.len() as u64).sum();
        }
        failed += round_failed;
        if timed_s >= seconds && round_qps.len() >= MIN_ROUNDS {
            break;
        }
    }
    println!(
        "# rounds: records/s {:?}",
        round_qps.iter().map(|q| q.round()).collect::<Vec<_>>()
    );

    if trace {
        // The layers a cell drives (`execute_full`, `simulate_actual_time`,
        // `Predictor::predict` and its parts), replayed on one of the
        // matrix's databases: the 10 GB analog's 128 queries (MICRO grid,
        // 4 SELJOIN and 2 TPCH instances per template) at PC1, SR 0.05.
        let (env, _) = Env::build(SERVE_DB_SEED);
        let plans = serve::working_set(&env);
        let layers = crate::layers::replay(&env, &plans, seed);
        // paper-eval sends no request through the service; its service.*
        // figures and the latency reconciliation come from serve-repeat's
        // closed loop over the same database.
        let (off, on) = serve::repeat_loops(&env, seed, seconds);
        return crate::layers::reconciled(Report {
            attempted: attempted + off.attempted + on.attempted + layers.attempted,
            failed: failed + off.failed + on.failed + layers.failed,
            metrics: serve::trace_metrics(
                &layer_setup,
                &off,
                &on,
                &layers,
                median_cell_ms(&cell_ms, cells.len()),
            ),
        });
    }
    Report {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", util::median(&setup_s), "s"),
            metric(
                "predict_p50_ms",
                median_cell_ms(&cell_ms, cells.len()),
                "ms",
            ),
            metric("predict_p99_ms", util::median(&round_p99_ms), "ms"),
            metric("throughput_qps", util::median(&round_qps), "1/s"),
            metric("peak_rss_mb", util::peak_rss_mb(), "MB"),
            metric("rs", rs, "1"),
            metric("dn", dn, "1"),
        ],
    }
}
