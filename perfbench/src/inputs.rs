//! Seeded request streams for the three served workloads.
//!
//! A stream is a pool of request lines replayed in order (request `id`
//! carries pool entry `id % pool_len`), so a run of any length needs no
//! per-request storage, the oracle knows which entry every response
//! answers, and every run offers the same mix whatever its seed: pools are
//! stratified (equal counts of each size, and of each crash phase) and only
//! the rates, the crash details and the order come from the seed.

use crate::{mix, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::generators::{chain, ChainConfig};
use workloads::requests::{self, RequestMixConfig};

/// Distinct chains in the `solve_hot` pool (pre-warmed into the cache).
pub const HOT_POOL: usize = 32;
/// Processors per `solve_hot` chain.
pub const HOT_PROCESSORS: usize = 6;
/// Processor counts `solve_cold` chains are drawn from.
pub const COLD_SIZES: [usize; 4] = [6, 17, 65, 257];
/// Distinct `solve_cold` chains: 1.5× the default cache (16 × 512
/// entries). The pool is replayed in one fixed order, so an LRU cache
/// never still holds the chain it is asked for next.
pub const COLD_POOL: usize = 12_288;
/// Processor counts `ft_run` chains are drawn from.
pub const FT_SIZES: [usize; 3] = [6, 17, 65];
/// Distinct `ft_run` cases (chain, crash, scenario seed): 64 of every
/// (size, crash phase) pair. `ft_run` is not cached, so repeats cost the
/// server the same as new cases.
pub const FT_POOL: usize = 768;

/// One served workload's request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Which served workload this is.
    pub workload: Workload,
    /// Offered rate of the open-loop phase, requests per second: at most
    /// about a sixth of the workload's capacity on a 2-vCPU host, low
    /// enough that queueing does not turn the host's speed swings into
    /// latency swings.
    pub rate: f64,
    prefix: &'static str,
    suffixes: Vec<String>,
}

impl Stream {
    /// Generate the stream of a served workload from `seed`.
    ///
    /// # Panics
    /// On [`Workload::TreeRounds`], which serves nothing.
    pub fn build(workload: Workload, seed: u64) -> Stream {
        let (prefix, lines, rate) = match workload {
            Workload::SolveHot => (SOLVE_PREFIX, hot_lines(seed), 20_000.0),
            Workload::SolveCold => (SOLVE_PREFIX, cold_lines(seed), 2_500.0),
            Workload::FtRun => (FT_PREFIX, ft_lines(seed), 500.0),
            Workload::TreeRounds => panic!("tree_rounds has no request stream"),
        };
        let suffixes = lines
            .into_iter()
            .map(|l| {
                l.strip_prefix(prefix)
                    .and_then(|rest| rest.strip_prefix('0'))
                    .expect("generated line starts with its op and id 0")
                    .to_string()
            })
            .collect();
        Stream {
            workload,
            rate,
            prefix,
            suffixes,
        }
    }

    /// Number of distinct pool entries.
    pub fn pool_len(&self) -> usize {
        self.suffixes.len()
    }

    /// The pool entry request `id` carries.
    pub fn index(&self, id: u64) -> usize {
        (id % self.suffixes.len() as u64) as usize
    }

    /// Append request `id`'s line and a newline to `out`.
    pub fn write_line(&self, id: u64, out: &mut Vec<u8>) {
        self.write_pool_line(self.index(id), id, out);
    }

    /// Append pool entry `idx` under request id `id` to `out`.
    pub fn write_pool_line(&self, idx: usize, id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(self.prefix.as_bytes());
        out.extend_from_slice(id.to_string().as_bytes());
        out.extend_from_slice(self.suffixes[idx].as_bytes());
        out.push(b'\n');
    }

    /// Pool entry `idx` as a request line with id `id` (no newline).
    pub fn pool_line(&self, idx: usize, id: u64) -> String {
        format!("{}{id}{}", self.prefix, self.suffixes[idx])
    }
}

const SOLVE_PREFIX: &str = "{\"op\":\"solve\",\"id\":";
const FT_PREFIX: &str = "{\"op\":\"ft_run\",\"id\":";

fn strategic_rates(net: &dlt::model::LinearNetwork) -> Vec<f64> {
    (1..net.len()).map(|j| net.w(j)).collect()
}

/// `solve_hot`: the E23 chain pool (`workloads::requests::chain_pool`).
fn hot_lines(seed: u64) -> Vec<String> {
    let pool = requests::chain_pool(&RequestMixConfig {
        distinct_chains: HOT_POOL,
        processors: HOT_PROCESSORS,
        seed: mix(seed, 1),
        ..RequestMixConfig::default()
    });
    pool.iter()
        .map(|net| requests::solve_line(0, net.w(0), &net.rates_z(), &strategic_rates(net)))
        .collect()
}

fn sized_chain(processors: usize, seed: u64) -> dlt::model::LinearNetwork {
    chain(
        &ChainConfig {
            processors,
            ..ChainConfig::default()
        },
        seed,
    )
}

/// Seeded Fisher–Yates shuffle.
fn shuffled(mut lines: Vec<String>, rng: &mut StdRng) -> Vec<String> {
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.gen_range(0..=i));
    }
    lines
}

/// `solve_cold`: equal numbers of chains of each size, in a seeded order.
fn cold_lines(seed: u64) -> Vec<String> {
    let lines = (0..COLD_POOL)
        .map(|i| {
            let processors = COLD_SIZES[i % COLD_SIZES.len()];
            let net = sized_chain(processors, mix(seed, 1_000 + i as u64));
            requests::solve_line(0, net.w(0), &net.rates_z(), &strategic_rates(&net))
        })
        .collect();
    shuffled(lines, &mut StdRng::seed_from_u64(mix(seed, 2)))
}

/// `ft_run`: one crash per case, at each phase 1–4 equally often for each
/// size; the crashed node and its progress are seeded.
fn ft_lines(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    let lines = (0..FT_POOL)
        .map(|i| {
            let processors = FT_SIZES[i % FT_SIZES.len()];
            let phase = 1 + (i / FT_SIZES.len() % 4) as u8;
            let net = sized_chain(processors, mix(seed, 100_000 + i as u64));
            let rates = strategic_rates(&net);
            let crash = (
                rng.gen_range(1..=rates.len()),
                phase,
                rng.gen_range(0.1..0.9),
            );
            requests::ft_line(
                0,
                net.w(0),
                &rates,
                &net.rates_z(),
                mix(seed, 200_000 + i as u64),
                Some(crash),
            )
        })
        .collect();
    shuffled(lines, &mut rng)
}
