//! One benchmark run: set-up, the measured phases, the checks, and the
//! metrics of the run's mode (end-to-end, or per-layer with `--trace 1`).

use crate::layers::{self, LayerInputs};
use crate::procfs;
use crate::serve::Env;
use crate::stats::{median, percentile};
use crate::trees::{self, Population};
use crate::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest set-ups per run; `setup_s` is the median of a run's set-ups.
pub const SETUP_MIN_REPEATS: usize = 5;
/// Most set-ups per run.
pub const SETUP_MAX_REPEATS: usize = 50;
/// Cheap set-ups repeat until this much time has passed since process
/// start, so their median rests on many samples.
pub const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Requests each closed-loop connection keeps in flight (E23's window).
pub const WINDOW: usize = 64;
/// A run whose generator sent its 99th-percentile request later than
/// this behind schedule is invalid: the offered rate was not the stated
/// one. Scheduling stalls of the host delay single sends by a few
/// milliseconds (up to 7 ms seen on a 2-vCPU VM); a generator that cannot
/// keep up falls behind without bound.
pub const MAX_GEN_LAG_P99_MS: f64 = 20.0;
/// Fixed-rate/capacity segment pairs of a served run; latency
/// percentiles, CPU per op and capacity are medians over segments
/// (capacity over their 100 ms windows), so a stretch of outside load
/// moves none of them.
pub const CYCLES: usize = 10;
/// Fewest rounds a `tree_rounds` run measures, whatever its length.
pub const MIN_ROUNDS: usize = 5;

/// Command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// `true` for the per-layer (traced) run.
    pub trace: bool,
}

/// A run's result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or went unanswered.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn count(&mut self, attempted: u64, ok: u64) {
        self.attempted += attempted;
        self.failed += attempted - ok;
    }

    /// The JSON result line.
    pub fn to_json(&self) -> String {
        use minijson::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(*value)),
                        ("unit".into(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(true)),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_json()
    }
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set up repeatedly — at least [`SETUP_MIN_REPEATS`] times and for at
/// least [`SETUP_BUDGET`], at most [`SETUP_MAX_REPEATS`] times —
/// discarding each result before the next set-up starts and keeping the
/// last. The first set-up is timed from `process_start`. Returns the kept
/// result and the median set-up time in seconds.
fn timed_setups<T>(
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPEATS
        || (process_start.elapsed() < SETUP_BUDGET && times.len() < SETUP_MAX_REPEATS)
    {
        if let Some(old) = kept.take() {
            discard(old)?;
        }
        let start = if times.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&mut times)))
}

fn check_lag(lags_ms: &mut [f64]) -> Result<f64, String> {
    let lag = percentile(lags_ms, 0.99);
    if lag > MAX_GEN_LAG_P99_MS {
        return Err(format!(
            "invalid run: the generator fell behind its schedule (p99 lag {lag:.3} ms > {MAX_GEN_LAG_P99_MS} ms)"
        ));
    }
    Ok(lag)
}

/// Execute one run.
pub fn run(args: Args, process_start: Instant) -> Result<Outcome, String> {
    let seconds = args.seconds;
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    match (args.workload, args.trace) {
        (Workload::TreeRounds, false) => tree_e2e(args.seed, secs(1.0), process_start),
        (w, false) => serve_e2e(w, args.seed, seconds, process_start),
        (w, true) => traced(w, args.seed, seconds),
    }
}

/// End-to-end run of a served workload.
fn serve_e2e(w: Workload, seed: u64, seconds: f64, t0: Instant) -> Result<Outcome, String> {
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let (mut env, setup_s) = timed_setups(
        t0,
        || Env::setup(w, seed, nproc()).map_err(io),
        |old| old.finish().map(drop),
    )?;
    env.prepare_oracle(nproc())?;
    let mut out = Outcome::default();
    let warm = env.open_loop(secs(0.05)).map_err(io)?;
    out.count(warm.attempted, warm.ok);
    // Fixed-rate and capacity segments alternate, so both metrics sample
    // the whole run rather than one contiguous stretch of it.
    let (mut p50, mut p90, mut lags, mut cpu, mut capacity) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..CYCLES {
        let mut fixed = env.open_loop(secs(0.6 / CYCLES as f64)).map_err(io)?;
        out.count(fixed.attempted, fixed.ok);
        p50.push(percentile(&mut fixed.latencies_ms, 0.5));
        p90.push(percentile(&mut fixed.latencies_ms, 0.9));
        lags.extend(fixed.lags_ms);
        cpu.push(fixed.cpu_ms_per_op);
        let saturated = env
            .closed_loop(secs(0.35 / CYCLES as f64), WINDOW)
            .map_err(io)?;
        out.count(saturated.attempted, saturated.ok);
        capacity.extend(saturated.ops_per_s);
    }
    check_lag(&mut lags)?;

    env.check_bodies()?;
    let peak_rss = procfs::peak_rss_mb().map_err(io)?;
    env.finish()?;

    out.put("setup_s", setup_s, "s");
    out.put("p50_ms", median(&mut p50), "ms");
    out.put("p90_ms", median(&mut p90), "ms");
    out.put("capacity_ops_s", median(&mut capacity), "1/s");
    out.put("cpu_ms_per_op", median(&mut cpu), "ms");
    out.put("peak_rss_mb", peak_rss, "MiB");
    put_ok_ratio(&mut out);
    Ok(out)
}

fn put_ok_ratio(out: &mut Outcome) {
    let ratio = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    out.put("ok_ratio", ratio, "ratio");
}

/// Rounds over at least `duration` and [`MIN_ROUNDS`] rounds, each checked
/// by the round oracle after its clock stopped. Returns per-round wall
/// times (ms), per-round CPU times (ms) and the elapsed seconds.
fn rounds(pop: &Population, duration: Duration) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let start = Instant::now();
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    while wall.len() < MIN_ROUNDS || start.elapsed() < duration {
        let (t, c) = (Instant::now(), procfs::thread_cpu_ns().map_err(io)?);
        let output = trees::round(pop);
        wall.push(t.elapsed().as_secs_f64() * 1e3);
        cpu.push((procfs::thread_cpu_ns().map_err(io)? - c) as f64 / 1e6);
        trees::check_round(pop, &output)?;
    }
    Ok((wall, cpu, start.elapsed().as_secs_f64()))
}

/// End-to-end run of `tree_rounds`: one closed-loop caller.
fn tree_e2e(seed: u64, duration: Duration, t0: Instant) -> Result<Outcome, String> {
    let (pop, setup_s) = timed_setups(t0, || Ok(Population::build(seed)), |_| Ok(()))?;
    let (mut wall, mut cpu, elapsed) = rounds(&pop, duration)?;
    let n = wall.len() as u64;
    let mut out = Outcome::default();
    out.count(n, n);
    out.put("setup_s", setup_s, "s");
    out.put("p50_ms", percentile(&mut wall, 0.5), "ms");
    out.put("p90_ms", percentile(&mut wall, 0.9), "ms");
    out.put("capacity_ops_s", n as f64 / elapsed, "1/s");
    out.put("cpu_ms_per_op", median(&mut cpu), "ms");
    out.put("peak_rss_mb", procfs::peak_rss_mb().map_err(io)?, "MiB");
    put_ok_ratio(&mut out);
    Ok(out)
}

/// Run `f` with an in-memory `obs` sink installed: the program's own spans
/// and counters are recorded for the duration.
fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
    obs::install(Arc::new(obs::MemorySink::new()));
    let result = f();
    obs::uninstall();
    result
}

fn stat(v: &minijson::Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(minijson::Value::as_f64)
        .ok_or_else(|| format!("stats body lacks {}", path.join(".")))
}

/// The traced run: per-layer metrics. The served phase runs the
/// workload's stream (`solve_hot`'s for `tree_rounds`, which serves
/// nothing) untraced and then traced; `tree_rounds` also runs rounds both
/// ways; then every layer is timed on seeded inputs.
fn traced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let served = if w == Workload::TreeRounds {
        Workload::SolveHot
    } else {
        w
    };
    let mut out = Outcome::default();
    let mut env = Env::setup(served, seed, nproc()).map_err(io)?;
    env.prepare_oracle(nproc())?;
    let warm = env.open_loop(secs(0.05)).map_err(io)?;
    out.count(warm.attempted, warm.ok);
    let mut plain = env.open_loop(secs(0.2)).map_err(io)?;
    out.count(plain.attempted, plain.ok);
    let gen_lag = check_lag(&mut plain.lags_ms)?;
    let stats = env.stats().map_err(io)?;
    let traced = with_tracing(|| env.open_loop(secs(0.1))).map_err(io)?;
    out.count(traced.attempted, traced.ok);
    env.check_bodies()?;
    env.finish()?;
    let served_p50_ms = percentile(&mut plain.latencies_ms, 0.5);

    let (mut bench_times, mut traced_times) = if w == Workload::TreeRounds {
        let pop = Population::build(seed);
        let (plain_rounds, _, _) = rounds(&pop, secs(0.15))?;
        let (traced_rounds, _, _) = with_tracing(|| rounds(&pop, secs(0.1)))?;
        let n = (plain_rounds.len() + traced_rounds.len()) as u64;
        out.count(n, n); // every round passed its oracle inside `rounds`
        (plain_rounds, traced_rounds)
    } else {
        (plain.latencies_ms.clone(), traced.latencies_ms.clone())
    };
    let p50_plain = percentile(&mut bench_times, 0.5);
    let p50_traced = percentile(&mut traced_times, 0.5);

    let inputs = LayerInputs::build(w, seed)?;
    let rows = layers::measure(&inputs, secs(0.4));
    let row = |name: &str| {
        rows.iter()
            .find(|(n, _, _)| n == name)
            .map(|r| r.1)
            .expect("layer row measured")
    };
    let parse_us = row("svc.handlers.parse_request_us");
    let service_us = row("svc.handlers.ok_response_us")
        + match served {
            Workload::SolveHot => row("svc.cache.hit_us"),
            Workload::SolveCold => row("svc.handlers.solve_body_us") + row("svc.cache.insert_us"),
            _ => row("svc.handlers.ft_body_us"),
        };
    let endpoint = if served == Workload::FtRun {
        "ft_run"
    } else {
        "solve"
    };
    let endpoint_p50_us = stat(&stats, &["endpoints", endpoint, "p50_us"])?;
    let hits = stat(&stats, &["cache", "hits"])?;
    let lookups = hits + stat(&stats, &["cache", "misses"])?;
    for (name, value, unit) in rows {
        out.metrics.push((name, value, unit));
    }
    out.put(
        "svc.cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    out.put("svc.server.endpoint_p50_us", endpoint_p50_us, "us");
    out.put(
        "svc.server.queue_wait_us",
        endpoint_p50_us - service_us,
        "us",
    );
    out.put(
        "svc.server.hop_us",
        served_p50_ms * 1e3 - parse_us - service_us,
        "us",
    );
    out.put("svc.server.rejected", stat(&stats, &["rejected"])?, "count");
    out.put("bench.gen_lag_p99_ms", gen_lag, "ms");
    out.put("bench.p99_ms", percentile(&mut bench_times, 0.99), "ms");
    out.put("bench.max_ms", percentile(&mut bench_times, 1.0), "ms");
    out.put(
        "bench.trace_overhead_pct",
        100.0 * (p50_traced - p50_plain) / p50_plain,
        "%",
    );
    Ok(out)
}
