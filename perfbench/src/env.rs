//! Set-up shared by the serve workloads and the layer replay: the 10 GB
//! analog database, PC1 cost units and a 5 % sample set, each timed.

use crate::util::secs;
use std::sync::Arc;
use std::time::Instant;
use uaq_core::{Predictor, PredictorConfig};
use uaq_cost::{calibrate, CalibrationConfig, HardwareProfile};
use uaq_datagen::DbPreset;
use uaq_stats::Rng;
use uaq_storage::{Catalog, SampleCatalog};

/// Sampling ratio of the serve workloads.
pub const SERVE_SR: f64 = 0.05;

/// Seed of the serve workloads' database, cost units, samples and
/// reference working set. They are fixed like a deployed database; the
/// run's `--seed` draws only the request stream.
pub const SERVE_DB_SEED: u64 = 0xDB;

/// Wall-clock seconds of each set-up step, per layer.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub calibrate_s: f64,
    pub draw_samples_s: f64,
}

pub struct Env {
    pub catalog: Arc<Catalog>,
    pub samples: Arc<SampleCatalog>,
    pub predictor: Predictor,
}

impl Env {
    /// Builds the serve database and everything the predictor needs, all
    /// derived from `seed`.
    pub fn build(seed: u64) -> (Self, SetupTimes) {
        let t = Instant::now();
        let catalog = DbPreset::Uniform10G.build(seed ^ 0xD8);
        let build_s = secs(t);
        let mut rng = Rng::new(seed ^ 0xCA1);
        let t = Instant::now();
        let units = calibrate(
            &HardwareProfile::pc1(),
            &CalibrationConfig::default(),
            &mut rng,
        );
        let calibrate_s = secs(t);
        let t = Instant::now();
        let samples = catalog.draw_samples(SERVE_SR, 2, &mut rng);
        let draw_samples_s = secs(t);
        let env = Self {
            catalog: Arc::new(catalog),
            samples: Arc::new(samples),
            predictor: Predictor::new(units, PredictorConfig::default()),
        };
        let times = SetupTimes {
            build_s,
            calibrate_s,
            draw_samples_s,
        };
        (env, times)
    }
}
