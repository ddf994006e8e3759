//! The repository benchmark: four seeded workloads driven against the
//! in-process `svc` server and the tree library, reporting end-to-end
//! metrics (tracing off) or per-layer metrics (`--trace 1`).
//!
//! See `README.md` in this directory for the workloads, the metrics, and
//! which layer metric should move which end-to-end metric.

pub mod alloc;
pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trees;

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-hit `solve` traffic over a pre-warmed pool of 32 chains.
    SolveHot,
    /// Cache-miss `solve` traffic over more distinct chains than the cache holds.
    SolveCold,
    /// `ft_run` traffic, one seeded crash per request.
    FtRun,
    /// Offline tree rounds: solve, settle, fault runs and order search.
    TreeRounds,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::SolveHot,
        Workload::SolveCold,
        Workload::FtRun,
        Workload::TreeRounds,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveHot => "solve_hot",
            Workload::SolveCold => "solve_cold",
            Workload::FtRun => "ft_run",
            Workload::TreeRounds => "tree_rounds",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 step: the benchmark's seed-derivation function.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
