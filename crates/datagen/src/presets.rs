//! Named database presets mirroring the paper's four experimental databases
//! (§6.1): uniform/skewed × "1 GB"/"10 GB". Our substrate is an in-memory
//! simulator, so "1 GB" maps to a scaled-down database with the same schema
//! and relative cardinalities.

use crate::gen::{generate, GenConfig};
use uaq_storage::Catalog;

/// Which of the paper's four databases to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbPreset {
    /// Uniform TPC-H "1 GB" analog.
    Uniform1G,
    /// Zipf z=1 TPC-H "1 GB" analog.
    Skewed1G,
    /// Uniform TPC-H "10 GB" analog.
    Uniform10G,
    /// Zipf z=1 TPC-H "10 GB" analog.
    Skewed10G,
}

impl DbPreset {
    pub const ALL: [DbPreset; 4] = [
        DbPreset::Uniform1G,
        DbPreset::Skewed1G,
        DbPreset::Uniform10G,
        DbPreset::Skewed10G,
    ];

    /// Short label used in experiment tables (matches the paper's wording).
    pub fn label(&self) -> &'static str {
        match self {
            DbPreset::Uniform1G => "Uniform TPC-H 1GB",
            DbPreset::Skewed1G => "Skewed TPC-H 1GB",
            DbPreset::Uniform10G => "Uniform TPC-H 10GB",
            DbPreset::Skewed10G => "Skewed TPC-H 10GB",
        }
    }

    /// Compact label for narrow table headers.
    pub fn short_label(&self) -> &'static str {
        match self {
            DbPreset::Uniform1G => "U-1G",
            DbPreset::Skewed1G => "S-1G",
            DbPreset::Uniform10G => "U-10G",
            DbPreset::Skewed10G => "S-10G",
        }
    }

    /// Generator configuration for the preset. "1 GB" ≈ SF 0.004 (≈ 24 k
    /// lineitem rows), "10 GB" ≈ SF 0.04 — a 10× ratio, as in the paper.
    pub fn gen_config(&self, seed: u64) -> GenConfig {
        match self {
            DbPreset::Uniform1G => GenConfig::new(0.004, 0.0, seed),
            DbPreset::Skewed1G => GenConfig::new(0.004, 1.0, seed),
            DbPreset::Uniform10G => GenConfig::new(0.04, 0.0, seed),
            DbPreset::Skewed10G => GenConfig::new(0.04, 1.0, seed),
        }
    }

    /// Builds the database.
    pub fn build(&self, seed: u64) -> Catalog {
        generate(&self.gen_config(seed))
    }

    pub fn is_skewed(&self) -> bool {
        matches!(self, DbPreset::Skewed1G | DbPreset::Skewed10G)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_with_expected_relative_sizes() {
        let small = DbPreset::Uniform1G.build(11);
        let big = DbPreset::Uniform10G.build(11);
        let ratio = big.table("orders").len() as f64 / small.table("orders").len() as f64;
        assert!((9.0..11.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn skew_flag() {
        assert!(DbPreset::Skewed1G.is_skewed());
        assert!(!DbPreset::Uniform10G.is_skewed());
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = DbPreset::ALL.iter().map(|p| p.short_label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
