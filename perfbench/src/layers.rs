//! Per-layer timings: calls into each layer's public functions, timed
//! from outside the program on seeded inputs.

use crate::alloc::thread_allocs;
use crate::inputs::Stream;
use crate::serve::reference_body;
use crate::stats::median;
use crate::trees::Population;
use crate::{mix, Workload};
use dlt::model::LinearNetwork;
use mechanism::payment::{self, PaymentInputs};
use mechanism::{Agent, DlsLbl};
use protocol::{FaultPlan, Scenario};
use std::hint::black_box;
use std::time::{Duration, Instant};
use svc::handlers::{self, RequestKind, WorkRequest};
use svc::pool::Job;
use svc::{BoundedQueue, CanonicalChain, SolverCache, DEFAULT_QUANTUM};
use workloads::generators::{chain, ChainConfig};

/// A call shorter than this is timed in batches, so the clock read does
/// not dominate it.
const BATCH_BELOW: Duration = Duration::from_micros(2);
/// Target duration of one timed batch.
const BATCH_TARGET: Duration = Duration::from_micros(20);
/// Fewest timed samples per layer, whatever the budget.
const MIN_SAMPLES: usize = 5;
/// Inputs the allocation-counting pass covers.
const ALLOC_PASS: usize = 64;
/// Chain sizes of the per-size linear and settlement rows.
pub const CHAIN_SIZES: [usize; 4] = [6, 17, 65, 257];

/// One layer's figures.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median microseconds per call.
    pub us: f64,
    /// Mean allocation calls per call over the first inputs (exact).
    pub allocs: f64,
}

/// Time `f` over `inputs`, cycled in order from where the previous call
/// left off. A first pass over up to [`ALLOC_PASS`] inputs counts
/// allocations and warms up; then samples are taken until `budget` is
/// spent (at least [`MIN_SAMPLES`]). Reports the median per-call time.
pub fn time_calls<T, R>(inputs: &[T], budget: Duration, mut f: impl FnMut(&T) -> R) -> Timing {
    assert!(!inputs.is_empty(), "no inputs to time");
    let mut next = 0usize;
    let mut call = |f: &mut dyn FnMut(&T) -> R| {
        black_box(f(black_box(&inputs[next % inputs.len()])));
        next += 1;
    };
    let pass = inputs.len().min(ALLOC_PASS);
    let (a0, t0) = (thread_allocs(), Instant::now());
    for _ in 0..pass {
        call(&mut f);
    }
    let per_call = t0.elapsed() / pass as u32;
    let allocs = (thread_allocs() - a0) as f64 / pass as f64;
    let batch = if per_call < BATCH_BELOW {
        (BATCH_TARGET.as_nanos() / per_call.as_nanos().max(1)) as usize + 1
    } else {
        1
    };
    let mut samples = Vec::new();
    let end = Instant::now() + budget;
    while samples.len() < MIN_SAMPLES || Instant::now() < end {
        let t = Instant::now();
        for _ in 0..batch {
            call(&mut f);
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    Timing {
        us: median(&mut samples),
        allocs,
    }
}

/// Inputs every traced run times its layers on.
pub struct LayerInputs {
    /// Request lines of the stream the workload serves (`solve_hot`'s for
    /// `tree_rounds`): front-path layers run on these.
    pub front_lines: Vec<String>,
    /// `ok` bodies of `front_lines` (first entries).
    pub front_bodies: Vec<String>,
    /// Whether front responses carry the `cached` flag.
    pub front_cached: Option<bool>,
    /// Canonical chains of the `solve_hot` pool.
    pub hot_chains: Vec<CanonicalChain>,
    /// Canonical chains of the `solve_cold` pool.
    pub cold_chains: Vec<CanonicalChain>,
    /// `ft_run` cases: (root, rates, links, seed, crash).
    pub ft_cases: Vec<FtCase>,
    /// Chains per size in [`CHAIN_SIZES`].
    pub sized: Vec<Vec<LinearNetwork>>,
    /// The tree population.
    pub trees: Population,
}

/// An `ft_run` request's arguments.
pub type FtCase = (f64, Vec<f64>, Vec<f64>, u64, Option<(usize, u8, f64)>);

fn solve_chain(line: &str) -> CanonicalChain {
    match handlers::parse_request(line, DEFAULT_QUANTUM).map(|r| r.kind) {
        Ok(RequestKind::Work(WorkRequest::Solve(c))) => c,
        other => panic!("generated solve line did not parse: {other:?}"),
    }
}

fn ft_case(line: &str) -> FtCase {
    match handlers::parse_request(line, DEFAULT_QUANTUM).map(|r| r.kind) {
        Ok(RequestKind::Work(WorkRequest::FtRun {
            root_rate,
            rates,
            links,
            seed,
            crash,
        })) => (root_rate, rates, links, seed, crash),
        other => panic!("generated ft_run line did not parse: {other:?}"),
    }
}

fn pool_lines(stream: &Stream, limit: usize) -> Vec<String> {
    (0..stream.pool_len().min(limit))
        .map(|idx| stream.pool_line(idx, idx as u64))
        .collect()
}

impl LayerInputs {
    /// Build the inputs for `workload` from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Result<LayerInputs, String> {
        let front_kind = match workload {
            Workload::TreeRounds => Workload::SolveHot,
            w => w,
        };
        let front = Stream::build(front_kind, seed);
        let hot = Stream::build(Workload::SolveHot, seed);
        let cold = Stream::build(Workload::SolveCold, seed);
        let ft = Stream::build(Workload::FtRun, seed);
        let front_lines = pool_lines(&front, 1024);
        let front_bodies = front_lines
            .iter()
            .take(ALLOC_PASS)
            .map(|l| reference_body(l))
            .collect::<Result<_, _>>()?;
        let sized = CHAIN_SIZES
            .iter()
            .enumerate()
            .map(|(k, &processors)| {
                let config = ChainConfig {
                    processors,
                    ..ChainConfig::default()
                };
                (0..16)
                    .map(|i| chain(&config, mix(seed, 500 + 16 * k as u64 + i)))
                    .collect()
            })
            .collect();
        Ok(LayerInputs {
            front_cached: (front_kind != Workload::FtRun).then_some(true),
            front_lines,
            front_bodies,
            hot_chains: pool_lines(&hot, usize::MAX)
                .iter()
                .map(|l| solve_chain(l))
                .collect(),
            cold_chains: pool_lines(&cold, usize::MAX)
                .iter()
                .map(|l| solve_chain(l))
                .collect(),
            ft_cases: pool_lines(&ft, usize::MAX)
                .iter()
                .map(|l| ft_case(l))
                .collect(),
            sized,
            trees: Population::build(seed),
        })
    }
}

fn strategic(net: &LinearNetwork) -> (Vec<f64>, Vec<f64>) {
    ((1..net.len()).map(|j| net.w(j)).collect(), net.rates_z())
}

/// Time every layer, spending about `budget` in total (more when a layer's
/// [`MIN_SAMPLES`] calls take longer). Returns `(name, value, unit)` rows;
/// the `svc.server.*`, `svc.cache.hit_ratio` and `bench.*` rows come from
/// the served phase instead.
pub fn measure(inp: &LayerInputs, budget: Duration) -> Vec<(String, f64, &'static str)> {
    const TIMED_LAYERS: u32 = 31;
    let each = budget / TIMED_LAYERS;
    let mut rows: Vec<(String, f64, &'static str)> = Vec::new();
    let put = |rows: &mut Vec<_>, name: &str, value: f64, unit: &'static str| {
        rows.push((name.to_string(), value, unit));
    };

    // minijson and the request/response handlers, on the served lines.
    let t = time_calls(&inp.front_lines, each, |l| minijson::Value::parse(l));
    put(&mut rows, "minijson.parse_us", t.us, "us");
    put(&mut rows, "minijson.parse_allocs", t.allocs, "count");
    let t = time_calls(&inp.front_lines, each, |l| {
        handlers::parse_request(l, DEFAULT_QUANTUM)
    });
    put(&mut rows, "svc.handlers.parse_request_us", t.us, "us");
    put(
        &mut rows,
        "svc.handlers.parse_request_allocs",
        t.allocs,
        "count",
    );
    let t = time_calls(&inp.front_bodies, each, |b| {
        handlers::ok_response(Some(1_234_567), inp.front_cached, b)
    });
    put(&mut rows, "svc.handlers.ok_response_us", t.us, "us");
    let t = time_calls(&inp.cold_chains, each, handlers::solve_body);
    put(&mut rows, "svc.handlers.solve_body_us", t.us, "us");
    put(
        &mut rows,
        "svc.handlers.solve_body_allocs",
        t.allocs,
        "count",
    );
    let t = time_calls(&inp.ft_cases, each, |(root, rates, links, seed, crash)| {
        handlers::ft_body(*root, rates, links, *seed, *crash)
    });
    put(&mut rows, "svc.handlers.ft_body_us", t.us, "us");

    // quant, cache and queue.
    let t = time_calls(&inp.hot_chains, each, |c| {
        svc::canonicalize(c.root_rate, &c.link_rates, &c.bids, DEFAULT_QUANTUM)
    });
    put(&mut rows, "svc.quant.canonicalize_us", t.us, "us");
    let cache = SolverCache::new(16, 512);
    for c in &inp.hot_chains {
        cache.get_or_insert(&c.key, || handlers::solve_body(c));
    }
    let t = time_calls(&inp.hot_chains, each, |c| {
        cache.get_or_insert(&c.key, || unreachable!("pre-warmed key missed"))
    });
    put(&mut rows, "svc.cache.hit_us", t.us, "us");
    // Replay the cold keys once so the cache is full; the timed calls then
    // continue the same cyclic order, so each is a miss, a write and an
    // eviction. The closure returns an empty body: only the write is timed.
    let cache = SolverCache::new(16, 512);
    let cold_keys: Vec<_> = inp.cold_chains.iter().map(|c| c.key.clone()).collect();
    for k in &cold_keys {
        cache.get_or_insert(k, String::new);
    }
    let t = time_calls(&cold_keys, each, |k| cache.get_or_insert(k, String::new));
    put(&mut rows, "svc.cache.insert_us", t.us, "us");
    let queue = BoundedQueue::new(1024);
    let (reply, _rx) = std::sync::mpsc::channel();
    let mut job = Some(Job {
        request: WorkRequest::Solve(inp.hot_chains[0].clone()),
        id: Some(1),
        deadline: Duration::from_secs(2),
        enqueued: Instant::now(),
        trace: None,
        reply,
    });
    let t = time_calls(&[()], each, |_| {
        let pushed = queue.try_push(job.take().expect("job is home"));
        assert!(pushed.is_ok(), "queue refused a job");
        job = queue.pop();
    });
    put(&mut rows, "svc.queue.push_pop_us", t.us, "us");

    // dlt and mechanism on chains of each size.
    for (k, nets) in inp.sized.iter().enumerate() {
        let p = CHAIN_SIZES[k];
        let t = time_calls(nets, each, dlt::linear::solve);
        put(&mut rows, &format!("dlt.linear.solve_us.p{p}"), t.us, "us");
        let settle: Vec<(DlsLbl, Vec<Agent>)> = nets
            .iter()
            .map(|net| {
                let (rates, links) = strategic(net);
                (
                    DlsLbl::new(net.w(0), links),
                    rates.into_iter().map(Agent::new).collect(),
                )
            })
            .collect();
        let t = time_calls(&settle, each, |(mech, agents)| mech.settle_truthful(agents));
        put(
            &mut rows,
            &format!("mechanism.dls_lbl.settle_truthful_us.p{p}"),
            t.us,
            "us",
        );
    }
    let biggest = inp.sized.last().expect("sized chains");
    let settle_all_inputs: Vec<(LinearNetwork, Vec<PaymentInputs>)> = biggest
        .iter()
        .map(|net| {
            let sol = dlt::linear::solve(net);
            let inputs = (1..net.len())
                .map(|j| PaymentInputs {
                    assigned_load: sol.alloc.alpha(j),
                    actual_load: sol.alloc.alpha(j),
                    actual_rate: net.w(j),
                })
                .collect();
            (net.clone(), inputs)
        })
        .collect();
    let t = time_calls(&settle_all_inputs, each, |(net, inputs)| {
        payment::settle_all(net, inputs, 0.0)
    });
    put(
        &mut rows,
        &format!("mechanism.payment.settle_all_us.p{}", CHAIN_SIZES[3]),
        t.us,
        "us",
    );

    // Trees: solve per member, tree over chain on the largest path,
    // settlement, order search and tree fault runs.
    let mut path_2048 = None;
    for case in &inp.trees.solves {
        let t = time_calls(std::slice::from_ref(&case.shape), each, dlt::tree::solve);
        put(
            &mut rows,
            &format!("dlt.tree.solve_us.{}", case.label),
            t.us,
            "us",
        );
        if case.label == "path-2048" {
            let net = case.chain.as_ref().expect("paths keep their chain");
            let linear = time_calls(std::slice::from_ref(net), each, dlt::linear::solve);
            path_2048 = Some(t.us / linear.us);
        }
        if let Some((mech, agents)) = &case.settle {
            if let Some(n) = case.label.strip_prefix("random-") {
                let t = time_calls(&[()], each, |_| mech.settle_truthful(agents));
                put(
                    &mut rows,
                    &format!("mechanism.dls_tree.settle_truthful_us.{n}"),
                    t.us,
                    "us",
                );
            }
        }
    }
    put(
        &mut rows,
        "dlt.tree.path_over_linear-2048",
        path_2048.expect("population has path-2048"),
        "ratio",
    );
    let t = time_calls(&inp.trees.orders, each, |shape| {
        dlt::seqsearch::local_search(shape, &inp.trees.search)
    });
    put(&mut rows, "dlt.seqsearch.local_search_us", t.us, "us");

    // protocol: clean chain rounds, chain and tree fault runs.
    let scenarios: Vec<(Scenario, FaultPlan)> = inp
        .ft_cases
        .iter()
        .map(|(root, rates, links, seed, crash)| {
            let (node, phase, progress) = crash.expect("every ft case crashes once");
            (
                Scenario::honest(*root, rates.clone(), links.clone()).with_seed(*seed),
                FaultPlan::crash(node, phase, progress),
            )
        })
        .collect();
    let t = time_calls(&scenarios, each, |(s, _)| protocol::run(s));
    put(&mut rows, "protocol.runner.run_us", t.us, "us");
    let t = time_calls(&scenarios, each, |(s, plan)| {
        protocol::run_with_faults(s, plan)
    });
    put(
        &mut rows,
        "protocol.ft_runner.run_with_faults_us",
        t.us,
        "us",
    );
    put(
        &mut rows,
        "protocol.ft_runner.run_with_faults_allocs",
        t.allocs,
        "count",
    );
    let t = time_calls(&inp.trees.faults, each, |f| {
        let (node, phase, progress) = f.crash;
        protocol::run_tree_with_faults(&f.scenario, &FaultPlan::crash(node, phase, progress))
    });
    put(
        &mut rows,
        "protocol.ft_tree_runner.run_with_faults_us",
        t.us,
        "us",
    );
    rows
}
