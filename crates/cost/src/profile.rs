//! Simulated hardware profiles — the substitution for the paper's PC1/PC2
//! machines.
//!
//! A profile is the *ground truth* the predictor never sees: the true
//! distribution of each cost unit. The paper models the `c`'s as random
//! system state ("the value of `c_r` may vary ... depending on where the
//! pages are located on disk", §1); we realise that by drawing one value per
//! unit per query run.

use crate::units::{CostUnit, UnitDists, UnitValues};
use uaq_stats::{Normal, Rng};

/// Ground-truth hardware behaviour.
#[derive(Debug, Clone)]
pub struct HardwareProfile {
    name: &'static str,
    true_units: UnitDists,
}

impl HardwareProfile {
    pub fn new(name: &'static str, true_units: UnitDists) -> Self {
        Self { name, true_units }
    }

    /// The paper's PC1: dual-core 1.86 GHz, 4 GB RAM — slower CPU, slower
    /// and noisier disk. Unit means in milliseconds per primitive.
    pub fn pc1() -> Self {
        Self::new(
            "PC1",
            UnitDists([
                normal_rel(0.080, 0.06),    // c_s: seq page
                normal_rel(0.900, 0.12),    // c_r: random page
                normal_rel(0.000_40, 0.05), // c_t: tuple CPU
                normal_rel(0.000_90, 0.07), // c_i: index CPU
                normal_rel(0.000_15, 0.05), // c_o: primitive op
            ]),
        )
    }

    /// The paper's PC2: 8-core 2.4 GHz, 16 GB RAM — faster, steadier.
    pub fn pc2() -> Self {
        Self::new(
            "PC2",
            UnitDists([
                normal_rel(0.050, 0.05),
                normal_rel(0.550, 0.10),
                normal_rel(0.000_18, 0.04),
                normal_rel(0.000_40, 0.05),
                normal_rel(0.000_07, 0.04),
            ]),
        )
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The true unit distributions (test/experiment introspection only — the
    /// predictor must use calibrated estimates instead).
    pub fn true_units(&self) -> &UnitDists {
        &self.true_units
    }

    /// Draws one concrete system state: a value per unit, truncated positive.
    pub fn draw(&self, rng: &mut Rng) -> UnitValues {
        let mut values = UnitValues::default();
        for u in CostUnit::ALL {
            let dist = self.true_units[u];
            let mut v = dist.sample(rng);
            // Means sit many σ above zero; truncation is a safety net.
            for _ in 0..8 {
                if v > 0.0 {
                    break;
                }
                v = dist.sample(rng);
            }
            values[u] = v.max(dist.mean() * 1e-3);
        }
        values
    }
}

/// `N(mean, (rel_std · mean)²)`.
fn normal_rel(mean: f64, rel_std: f64) -> Normal {
    let sd = mean * rel_std;
    Normal::new(mean, sd * sd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_stats::Welford;

    #[test]
    fn pc1_is_slower_than_pc2() {
        let pc1 = HardwareProfile::pc1();
        let pc2 = HardwareProfile::pc2();
        for u in CostUnit::ALL {
            assert!(
                pc1.true_units()[u].mean() > pc2.true_units()[u].mean(),
                "{u}: PC1 should be slower"
            );
        }
    }

    #[test]
    fn random_io_costs_more_than_sequential() {
        for p in [HardwareProfile::pc1(), HardwareProfile::pc2()] {
            assert!(
                p.true_units()[CostUnit::RandPage].mean()
                    > 5.0 * p.true_units()[CostUnit::SeqPage].mean()
            );
        }
    }

    #[test]
    fn draws_are_positive_and_match_distribution() {
        let p = HardwareProfile::pc1();
        let mut rng = Rng::new(42);
        let mut w = Welford::new();
        for _ in 0..50_000 {
            let v = p.draw(&mut rng);
            assert!(v[CostUnit::RandPage] > 0.0);
            w.push(v[CostUnit::RandPage]);
        }
        let truth = p.true_units()[CostUnit::RandPage];
        assert!((w.mean() - truth.mean()).abs() / truth.mean() < 0.01);
        assert!((w.sample_variance() - truth.var()).abs() / truth.var() < 0.05);
    }

    #[test]
    fn draws_vary_between_runs() {
        let p = HardwareProfile::pc2();
        let mut rng = Rng::new(7);
        let a = p.draw(&mut rng);
        let b = p.draw(&mut rng);
        assert_ne!(a, b);
    }
}
