//! Driving the in-process `svc` server: set-up, the open-loop fixed-rate
//! phase, the closed-loop capacity phase, the body oracle, and the drain
//! ledger check.

use crate::inputs::Stream;
use crate::procfs;
use crate::stats::fingerprint;
use crate::Workload;
use minijson::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use svc::handlers::{self, RequestKind, WorkRequest};
use svc::{serve, ServerConfig, ServerHandle, StatsSnapshot};

/// Latency charged to a request that failed, was refused or never
/// answered: the server's default deadline, so a failure always counts as
/// missing any latency limit the percentiles are compared against.
pub const FAILED_LATENCY_MS: f64 = 2_000.0;

/// Capacity is counted in windows of about this length, so the run's
/// median rests on many windows.
pub const CAPACITY_WINDOW: Duration = Duration::from_millis(100);

/// How long a receiver waits for the next response before it declares
/// the rest missing.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Outcome of one request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// `status: ok`.
    Ok,
    /// `status: rejected` (backpressure or draining).
    Rejected,
    /// `status: timeout` (deadline passed in the queue).
    Timeout,
    /// `status: error` or an unparseable response.
    Error,
}

/// A parsed response line: `(id, status, body fingerprint)`.
fn parse_response(line: &[u8]) -> Option<(u64, Status, (u64, u32))> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id: u64 = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    let rest = rest[digits..].strip_prefix(b",\"status\":\"")?;
    let status = if rest.starts_with(b"ok\"") {
        Status::Ok
    } else if rest.starts_with(b"rejected\"") {
        Status::Rejected
    } else if rest.starts_with(b"timeout\"") {
        Status::Timeout
    } else {
        Status::Error
    };
    if status != Status::Ok {
        return Some((id, status, (0, 0)));
    }
    let at = rest.windows(9).position(|w| w == b"\"result\":")?;
    let body = rest[at + 9..].strip_suffix(b"}")?;
    Some((id, status, fingerprint(body)))
}

/// Per-thread response counts, checked against the oracle as they arrive.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ok: u64,
    mismatched: u64,
    first_mismatch: Option<usize>,
}

impl Tally {
    fn record(&mut self, expected: &[(u64, u32)], idx: usize, status: Status, body: (u64, u32)) {
        if status != Status::Ok {
            return;
        }
        self.ok += 1;
        if expected[idx] != body {
            self.mismatched += 1;
            self.first_mismatch.get_or_insert(idx);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.mismatched += other.mismatched;
        self.first_mismatch = self.first_mismatch.or(other.first_mismatch);
    }
}

/// Figures from one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per-request latency from the instant the request was due,
    /// [`FAILED_LATENCY_MS`] for failures.
    pub latencies_ms: Vec<f64>,
    /// Per-request lateness of the generator behind its schedule.
    pub lags_ms: Vec<f64>,
    /// Server CPU per offered request (every thread but the generator's
    /// and the caller's).
    pub cpu_ms_per_op: f64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests sent.
    pub attempted: u64,
}

/// Figures from one closed-loop capacity phase.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// `ok` completions per second in each of the phase's windows of about
    /// [`CAPACITY_WINDOW`].
    pub ops_per_s: Vec<f64>,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests sent.
    pub attempted: u64,
}

/// Sleep until `at` (no-op when it has passed).
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// A running server with its client connections and request stream.
pub struct Env {
    /// The workload's request stream.
    pub stream: Stream,
    handle: Option<ServerHandle>,
    conns: Vec<TcpStream>,
    next_id: u64,
    prewarm: Vec<(usize, (u64, u32))>,
    expected: Vec<(u64, u32)>,
    tally: Tally,
}

impl Env {
    /// Start the server (`workers = nproc`, otherwise the default
    /// configuration), generate the stream, open `nproc` connections and,
    /// for `solve_hot`, pre-warm the cache with every pool chain.
    pub fn setup(workload: Workload, seed: u64, nproc: usize) -> std::io::Result<Env> {
        let handle = serve(ServerConfig {
            workers: nproc,
            ..ServerConfig::default()
        })?;
        let addr = handle.addr();
        let stream = Stream::build(workload, seed);
        let mut conns = Vec::with_capacity(nproc);
        for _ in 0..nproc.max(1) {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            conns.push(c);
        }
        let mut env = Env {
            stream,
            handle: Some(handle),
            conns,
            next_id: 0,
            prewarm: Vec::new(),
            expected: Vec::new(),
            tally: Tally::default(),
        };
        if workload == Workload::SolveHot {
            env.prewarm()?;
        }
        Ok(env)
    }

    fn prewarm(&mut self) -> std::io::Result<()> {
        let n = self.stream.pool_len();
        let mut out = Vec::new();
        for idx in 0..n {
            self.stream
                .write_pool_line(idx, self.next_id + idx as u64, &mut out);
        }
        self.conns[0].write_all(&out)?;
        let mut reader = BufReader::new(self.conns[0].try_clone()?);
        reader.get_ref().set_read_timeout(Some(RECV_TIMEOUT))?;
        let mut line = Vec::new();
        for _ in 0..n {
            line.clear();
            reader.read_until(b'\n', &mut line)?;
            match parse_response(&line) {
                Some((id, Status::Ok, body)) => {
                    self.prewarm.push(((id - self.next_id) as usize, body))
                }
                _ => return Err(std::io::Error::other("pre-warm request failed")),
            }
        }
        self.next_id += n as u64;
        Ok(())
    }

    /// Compute the oracle: the body the handlers produce in-process for
    /// every pool entry (`solve_body` of the canonicalized chain, or
    /// `ft_body` with the same seed and crash), spread over `threads`.
    /// Served bodies are then checked as they arrive.
    pub fn prepare_oracle(&mut self, threads: usize) -> Result<(), String> {
        let stream = &self.stream;
        let n = stream.pool_len();
        let chunk = n.div_ceil(threads.max(1));
        let parts: Vec<Result<Vec<(u64, u32)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|lo| {
                    s.spawn(move || {
                        (lo..(lo + chunk).min(n))
                            .map(|idx| {
                                reference_body(&stream.pool_line(idx, 0))
                                    .map(|body| fingerprint(body.as_bytes()))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        self.expected = parts.into_iter().collect::<Result<Vec<_>, _>>()?.concat();
        for &(idx, body) in &self.prewarm {
            self.tally.record(&self.expected, idx, Status::Ok, body);
        }
        Ok(())
    }

    /// Offer the stream open-loop at its fixed rate for `duration` on one
    /// connection: one thread sends on schedule, one receives, and the
    /// calling thread reads the server's CPU time at both ends. Each
    /// request is timed from when it was due.
    pub fn open_loop(&mut self, duration: Duration) -> std::io::Result<OpenLoop> {
        assert!(!self.expected.is_empty(), "prepare_oracle before measuring");
        let rate = self.stream.rate;
        let n = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
        let base = self.next_id;
        self.next_id += n as u64;
        let write_half = self.conns[0].try_clone()?;
        let read_half = self.conns[0].try_clone()?;
        read_half.set_read_timeout(Some(RECV_TIMEOUT))?;
        let (stream, expected) = (&self.stream, &self.expected[..]);
        let t0 = Instant::now() + Duration::from_millis(5);
        let due = move |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let receiver_tids = tid_tx.clone();

        let (sent, received, cpu) = std::thread::scope(|s| {
            let sender = s.spawn(move || -> std::io::Result<Vec<f64>> {
                let _ = tid_tx.send(procfs::current_tid());
                let mut w = BufWriter::with_capacity(1 << 16, write_half);
                let mut lags = Vec::with_capacity(n);
                let mut buf = Vec::new();
                let mut k = 0;
                while k < n {
                    let now = Instant::now();
                    if due(k) > now {
                        sleep_until(due(k));
                        continue;
                    }
                    while k < n && due(k) <= now {
                        buf.clear();
                        stream.write_line(base + k as u64, &mut buf);
                        w.write_all(&buf)?;
                        lags.push(now.duration_since(due(k)).as_secs_f64() * 1e3);
                        k += 1;
                    }
                    w.flush()?;
                }
                Ok(lags)
            });
            let receiver = s.spawn(move || -> (Vec<f64>, Tally) {
                let _ = receiver_tids.send(procfs::current_tid());
                let mut reader = BufReader::with_capacity(1 << 16, read_half);
                let mut latencies = vec![FAILED_LATENCY_MS; n];
                let mut tally = Tally::default();
                let mut line = Vec::new();
                let mut got = 0;
                while got < n {
                    line.clear();
                    match reader.read_until(b'\n', &mut line) {
                        Ok(0) | Err(_) => break, // EOF or timeout: the rest is missing
                        Ok(_) => {}
                    }
                    let at = Instant::now();
                    let Some((id, status, body)) = parse_response(&line) else {
                        continue;
                    };
                    let Some(k) = id.checked_sub(base).map(|k| k as usize).filter(|&k| k < n)
                    else {
                        continue; // a straggler from an earlier phase
                    };
                    got += 1;
                    if status == Status::Ok {
                        latencies[k] = at.saturating_duration_since(due(k)).as_secs_f64() * 1e3;
                    }
                    tally.record(expected, stream.index(id), status, body);
                }
                (latencies, tally)
            });
            let cpu = server_cpu_ns(&tid_rx, t0, duration);
            (
                sender.join().expect("sender thread panicked"),
                receiver.join().expect("receiver thread panicked"),
                cpu,
            )
        });
        let lags = sent?;
        let (latencies_ms, tally) = received;
        let cpu_ms_per_op = cpu? as f64 / 1e6 / n as f64;
        self.tally.merge(tally);
        Ok(OpenLoop {
            latencies_ms,
            lags_ms: lags,
            cpu_ms_per_op,
            ok: tally.ok,
            attempted: n as u64,
        })
    }

    /// Saturate the server closed-loop for `duration`: one thread per
    /// connection keeps `window` requests in flight (E23's method).
    pub fn closed_loop(
        &mut self,
        duration: Duration,
        window: usize,
    ) -> std::io::Result<ClosedLoop> {
        assert!(!self.expected.is_empty(), "prepare_oracle before measuring");
        let next = AtomicU64::new(self.next_id);
        let done = AtomicU64::new(0);
        let (stream, expected) = (&self.stream, &self.expected[..]);
        let start = Instant::now();
        let deadline = start + duration;
        let (results, ops_per_s) = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter()
                .map(|conn| {
                    let (next, done) = (&next, &done);
                    s.spawn(move || -> std::io::Result<(Tally, u64)> {
                        let read_half = conn.try_clone()?;
                        read_half.set_read_timeout(Some(RECV_TIMEOUT))?;
                        let mut reader = BufReader::with_capacity(1 << 16, read_half);
                        let mut w = BufWriter::with_capacity(1 << 16, conn.try_clone()?);
                        let mut tally = Tally::default();
                        let mut sent = 0u64;
                        let mut buf = Vec::new();
                        let mut send = |w: &mut BufWriter<TcpStream>| -> std::io::Result<()> {
                            buf.clear();
                            stream.write_line(next.fetch_add(1, Ordering::Relaxed), &mut buf);
                            w.write_all(&buf)
                        };
                        for _ in 0..window {
                            send(&mut w)?;
                            sent += 1;
                        }
                        w.flush()?;
                        let mut inflight = window;
                        let mut line = Vec::new();
                        while inflight > 0 {
                            line.clear();
                            if reader.read_until(b'\n', &mut line)? == 0 {
                                break;
                            }
                            inflight -= 1;
                            if let Some((id, status, body)) = parse_response(&line) {
                                if status == Status::Ok {
                                    done.fetch_add(1, Ordering::Relaxed);
                                }
                                tally.record(expected, stream.index(id), status, body);
                            }
                            if Instant::now() < deadline {
                                send(&mut w)?;
                                sent += 1;
                                inflight += 1;
                            }
                            if !reader.buffer().contains(&b'\n') {
                                w.flush()?;
                            }
                        }
                        Ok((tally, sent))
                    })
                })
                .collect();
            let windows = (duration.as_secs_f64() / CAPACITY_WINDOW.as_secs_f64())
                .round()
                .max(1.0) as u32;
            let window = duration / windows;
            let mut ops_per_s = Vec::with_capacity(windows as usize);
            let mut last = 0;
            for j in 1..=windows {
                sleep_until(start + window * j);
                let now = done.load(Ordering::Relaxed);
                ops_per_s.push((now - last) as f64 / window.as_secs_f64());
                last = now;
            }
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop thread panicked"))
                .collect();
            (results, ops_per_s)
        });
        self.next_id = next.into_inner();
        let mut out = ClosedLoop {
            ops_per_s,
            ..ClosedLoop::default()
        };
        for r in results {
            let (tally, sent) = r?;
            out.attempted += sent;
            out.ok += tally.ok;
            self.tally.merge(tally);
        }
        Ok(out)
    }

    /// The server's `stats` body, fetched on the first connection between
    /// phases.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.conns[0].write_all(b"{\"op\":\"stats\"}\n")?;
        let read_half = self.conns[0].try_clone()?;
        read_half.set_read_timeout(Some(RECV_TIMEOUT))?;
        let mut line = String::new();
        BufReader::new(read_half).read_line(&mut line)?;
        Value::parse(&line)
            .ok()
            .and_then(|v| v.get("result").cloned())
            .ok_or_else(|| std::io::Error::other(format!("bad stats response {line:?}")))
    }

    /// The oracle's verdict on every `ok` body served so far. Returns the
    /// number of bodies checked.
    pub fn check_bodies(&self) -> Result<u64, String> {
        match self.tally.first_mismatch {
            None => Ok(self.tally.ok),
            Some(idx) => Err(format!(
                "{}: {} served bodies differ from the in-process bodies (first: pool entry {idx})",
                self.stream.workload.name(),
                self.tally.mismatched
            )),
        }
    }

    /// Close the connections, drain the server gracefully, and check the
    /// ledger `received == completed + rejected` on the final snapshot.
    pub fn finish(mut self) -> Result<StatsSnapshot, String> {
        self.conns.clear();
        let handle = self.handle.take().expect("server still running");
        handle.shutdown();
        let snap = handle.join();
        if !snap.conserved() {
            return Err(format!(
                "drain ledger violated: received {} != completed {} + rejected {}",
                snap.received, snap.completed, snap.rejected
            ));
        }
        Ok(snap)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Error paths still stop every server thread before returning.
        self.conns.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            let _ = handle.join();
        }
    }
}

/// Server CPU nanoseconds from `t0` to `t0 + duration`: every thread
/// except the caller and the two generator threads whose task ids arrive
/// on `tids`.
fn server_cpu_ns(
    tids: &std::sync::mpsc::Receiver<std::io::Result<u64>>,
    t0: Instant,
    duration: Duration,
) -> std::io::Result<u64> {
    let mut exclude = vec![procfs::current_tid()?];
    for _ in 0..2 {
        let tid = tids
            .recv()
            .map_err(|_| std::io::Error::other("generator thread exited early"))??;
        exclude.push(tid);
    }
    sleep_until(t0);
    let start = procfs::process_cpu_ns_excluding(&exclude)?;
    sleep_until(t0 + duration);
    Ok(procfs::process_cpu_ns_excluding(&exclude)? - start)
}

/// The body the server's handlers produce for `line`, computed in-process.
pub fn reference_body(line: &str) -> Result<String, String> {
    let request = handlers::parse_request(line, svc::DEFAULT_QUANTUM).map_err(|(_, e)| e)?;
    match request.kind {
        RequestKind::Work(WorkRequest::Solve(chain)) => Ok(handlers::solve_body(&chain)),
        RequestKind::Work(WorkRequest::FtRun {
            root_rate,
            rates,
            links,
            seed,
            crash,
        }) => handlers::ft_body(root_rate, &rates, &links, seed, crash),
        other => Err(format!("unexpected request kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_response_envelopes() {
        for cached in [Some(true), Some(false), None] {
            let ok = handlers::ok_response(Some(42), cached, "{\"m\":5}");
            let parsed = parse_response(ok.as_bytes()).unwrap();
            assert_eq!(parsed, (42, Status::Ok, fingerprint(b"{\"m\":5}")));
        }
        let rej = handlers::rejected_response(Some(3), 25, false);
        assert_eq!(parse_response(rej.as_bytes()).unwrap().1, Status::Rejected);
        let to = handlers::timeout_response(Some(3), 25);
        assert_eq!(parse_response(to.as_bytes()).unwrap().1, Status::Timeout);
        let err = handlers::error_response(Some(3), "bad");
        assert_eq!(parse_response(err.as_bytes()).unwrap().1, Status::Error);
    }
}
