//! Blocking client and load generator for the daemon, plus a retrying
//! wrapper with seeded jittered exponential backoff.

use crate::metrics::trace_inc;
use crate::protocol::{ErrorCode, Response};
use noc_rng::rngs::SmallRng;
use noc_rng::{RngCore, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A blocking NDJSON client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line and reads one response line.
    pub fn round_trip(&mut self, request_line: &str) -> std::io::Result<String> {
        self.writer.write_all(request_line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends one request line and parses the response.
    pub fn request(&mut self, request_line: &str) -> std::io::Result<Response> {
        let line = self.round_trip(request_line)?;
        Response::from_line(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends one request line and reads the full (possibly streamed)
    /// response: raw lines are collected until one carries `"done": true`,
    /// `"ok": false`, or no `"seq"` (an ordinary single-line response) —
    /// the framing of the `scenario` kind.
    pub fn round_trip_stream(&mut self, request_line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(request_line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-stream",
                ));
            }
            let raw = line.trim_end().to_string();
            let parsed = noc_json::parse(&raw)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            let ok = parsed
                .get("ok")
                .and_then(noc_json::Value::as_bool)
                .unwrap_or(false);
            let done = parsed
                .get("done")
                .and_then(noc_json::Value::as_bool)
                .unwrap_or(false);
            let streamed = parsed.get("seq").is_some();
            lines.push(raw);
            if !ok || done || !streamed {
                return Ok(lines);
            }
        }
    }
}

/// Retry discipline for [`RetryingClient`]: how many attempts, and the
/// backoff curve between them.
///
/// Backoff is exponential with full determinism: attempt `k` (0-based)
/// waits a duration drawn uniformly from `[base·2ᵏ/2, base·2ᵏ]`, capped
/// at `max_delay`, using a [`SmallRng`] seeded from `seed`. The jitter
/// spreads retry storms without sacrificing reproducibility — the same
/// seed produces the same wait sequence, which the chaos suite relies
/// on.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "never retry").
    pub max_attempts: u32,
    /// Backoff base: the upper bound of the first retry's wait.
    pub base_delay: Duration,
    /// Hard cap on any single wait.
    pub max_delay: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered wait before retry number `attempt` (0-based), drawn
    /// from `rng`.
    fn backoff(&self, attempt: u32, rng: &mut SmallRng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_delay);
        let lo = exp.as_nanos() as u64 / 2;
        let hi = (exp.as_nanos() as u64).max(lo + 1);
        Duration::from_nanos(lo + rng.next_u64() % (hi - lo))
    }
}

/// Whether a response (or transport failure) is worth retrying.
///
/// `overloaded` is the server shedding load — the request never ran and
/// is safe to resend. Transport errors mean the connection died
/// mid-exchange; every request kind the service exposes is idempotent
/// (compute kinds are deterministic and cached, inline kinds are reads
/// or drain triggers), so resending after a reconnect is safe too.
/// Deadline and bad-request errors are *not* retried: resending cannot
/// change the outcome.
fn retryable(result: &std::io::Result<Response>) -> bool {
    match result {
        Ok(Response::Err { code, .. }) => *code == ErrorCode::Overloaded,
        Ok(Response::Ok { .. }) => false,
        Err(_) => true,
    }
}

/// A [`Client`] wrapper that retries shed and transport-failed requests
/// with seeded jittered exponential backoff, reconnecting as needed.
pub struct RetryingClient {
    addr: String,
    client: Option<Client>,
    policy: RetryPolicy,
    rng: SmallRng,
    retries: u64,
}

impl RetryingClient {
    /// Connects lazily on first use and keeps `addr` for reconnects.
    pub fn new(addr: &str, policy: RetryPolicy) -> RetryingClient {
        let rng = SmallRng::seed_from_u64(policy.seed);
        RetryingClient {
            addr: addr.to_string(),
            client: None,
            policy,
            rng,
            retries: 0,
        }
    }

    /// Total retries performed so far (not counting first attempts).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends one request line, retrying per the policy. Returns the last
    /// outcome when attempts are exhausted.
    pub fn request(&mut self, request_line: &str) -> std::io::Result<Response> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let wait = self.policy.backoff(attempt - 1, &mut self.rng);
                std::thread::sleep(wait);
                self.retries += 1;
                trace_inc("service.client.retry");
            }
            let outcome = self.try_once(request_line);
            if !retryable(&outcome) {
                return outcome;
            }
            if outcome.is_err() {
                // The connection died mid-exchange; the next attempt
                // reconnects.
                self.client = None;
            }
            last = Some(outcome);
        }
        last.expect("at least one attempt was made")
    }

    fn try_once(&mut self, request_line: &str) -> std::io::Result<Response> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.addr)?);
        }
        let client = self.client.as_mut().expect("client just connected");
        client.request(request_line)
    }
}

/// Aggregated result of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests attempted.
    pub sent: u64,
    /// Successful (`ok: true`) responses.
    pub ok: u64,
    /// Responses served from the cache.
    pub cached: u64,
    /// Failed responses or transport errors.
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// End-to-end request latencies, sorted ascending, in microseconds.
    pub latencies_us: Vec<u64>,
}

impl LoadReport {
    /// Completed requests per second over the run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.ok + self.errors) as f64 / secs
    }

    /// Exact latency quantile (0 < q <= 1) in microseconds over completed
    /// requests; 0 when nothing completed.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((q * self.latencies_us.len() as f64).ceil() as usize)
            .clamp(1, self.latencies_us.len());
        self.latencies_us[rank - 1]
    }
}

/// Drives `connections` concurrent clients, each sending the request
/// lines produced by `body(connection, i)` for `i` in
/// `0..requests_per_connection`, and aggregates latency and outcome
/// counts. `body` must be cheap — it runs on the timing path.
pub fn generate_load(
    addr: &str,
    connections: usize,
    requests_per_connection: usize,
    body: impl Fn(usize, usize) -> String + Sync,
) -> std::io::Result<LoadReport> {
    generate_load_multi(
        &[addr.to_string()],
        connections,
        requests_per_connection,
        body,
    )
}

/// [`generate_load`] over a cluster: connection `i` dials
/// `addrs[i % addrs.len()]` (deterministic round-robin), and a
/// connection whose transport dies mid-run fails over to the next peer
/// in the list and resends the in-flight request — once per peer before
/// giving up on that request.
pub fn generate_load_multi(
    addrs: &[String],
    connections: usize,
    requests_per_connection: usize,
    body: impl Fn(usize, usize) -> String + Sync,
) -> std::io::Result<LoadReport> {
    assert!(!addrs.is_empty(), "generate_load needs at least one peer");
    let connections = connections.max(1);
    let started = Instant::now();
    let mut per_thread: Vec<(u64, u64, u64, u64, Vec<u64>)> = Vec::new();
    std::thread::scope(|s| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for conn in 0..connections {
            let body = &body;
            handles.push(s.spawn(move || {
                // Peer this connection currently talks to; advanced on
                // transport failure (failover).
                let mut peer = conn % addrs.len();
                let mut client = match Client::connect(&addrs[peer]) {
                    Ok(c) => c,
                    Err(_) => {
                        return (
                            requests_per_connection as u64,
                            0,
                            0,
                            requests_per_connection as u64,
                            Vec::new(),
                        )
                    }
                };
                let mut sent = 0u64;
                let mut ok = 0u64;
                let mut cached = 0u64;
                let mut errors = 0u64;
                let mut latencies = Vec::with_capacity(requests_per_connection);
                'requests: for i in 0..requests_per_connection {
                    let line = body(conn, i);
                    sent += 1;
                    let t0 = Instant::now();
                    // One attempt per peer: the current connection, then a
                    // reconnect against each remaining peer in order.
                    let mut tries_left = addrs.len();
                    loop {
                        match client.request(&line) {
                            Ok(Response::Ok { cached: c, .. }) => {
                                latencies.push(t0.elapsed().as_micros() as u64);
                                ok += 1;
                                if c {
                                    cached += 1;
                                }
                                break;
                            }
                            Ok(Response::Err { .. }) => {
                                latencies.push(t0.elapsed().as_micros() as u64);
                                errors += 1;
                                break;
                            }
                            Err(_) => {
                                tries_left -= 1;
                                if tries_left == 0 {
                                    errors += 1;
                                    break 'requests; // every peer failed
                                }
                                peer = (peer + 1) % addrs.len();
                                match Client::connect(&addrs[peer]) {
                                    Ok(c) => client = c,
                                    Err(_) => {
                                        errors += 1;
                                        break 'requests;
                                    }
                                }
                            }
                        }
                    }
                }
                (sent, ok, cached, errors, latencies)
            }));
        }
        for handle in handles {
            per_thread.push(handle.join().expect("loadgen thread panicked"));
        }
        Ok(())
    })?;
    let elapsed = started.elapsed();
    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        cached: 0,
        errors: 0,
        elapsed,
        latencies_us: Vec::new(),
    };
    for (sent, ok, cached, errors, latencies) in per_thread {
        report.sent += sent;
        report.ok += ok;
        report.cached += cached;
        report.errors += errors;
        report.latencies_us.extend(latencies);
    }
    report.latencies_us.sort_unstable();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_on_sorted_data() {
        let report = LoadReport {
            sent: 4,
            ok: 4,
            cached: 0,
            errors: 0,
            elapsed: Duration::from_secs(1),
            latencies_us: vec![10, 20, 30, 40],
        };
        assert_eq!(report.quantile_us(0.5), 20);
        assert_eq!(report.quantile_us(0.99), 40);
        assert_eq!(report.quantile_us(1.0), 40);
        assert!((report.throughput_rps() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_is_seeded_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            seed: 42,
        };
        let draw = |seed: u64| -> Vec<Duration> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..6).map(|k| policy.backoff(k, &mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed must give the same waits");
        assert_ne!(draw(42), draw(43));
        let mut rng = SmallRng::seed_from_u64(42);
        for k in 0..16 {
            let w = policy.backoff(k, &mut rng);
            let exp = policy
                .base_delay
                .saturating_mul(1u32 << k.min(20))
                .min(policy.max_delay);
            assert!(w <= exp, "attempt {k}: {w:?} above {exp:?}");
            assert!(w >= exp / 2, "attempt {k}: {w:?} below half of {exp:?}");
        }
    }

    #[test]
    fn only_overloaded_and_transport_failures_retry() {
        let shed = Ok(Response::err(
            "id".to_string(),
            ErrorCode::Overloaded,
            "shed",
        ));
        let deadline = Ok(Response::err(
            "id".to_string(),
            ErrorCode::DeadlineExceeded,
            "late",
        ));
        let ok = Ok(Response::ok(
            "id".to_string(),
            false,
            noc_json::Value::Bool(true),
        ));
        let transport = Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "dead",
        ));
        assert!(retryable(&shed));
        assert!(retryable(&transport));
        assert!(!retryable(&deadline));
        assert!(!retryable(&ok));
    }

    #[test]
    fn empty_report_is_benign() {
        let report = LoadReport {
            sent: 0,
            ok: 0,
            cached: 0,
            errors: 0,
            elapsed: Duration::ZERO,
            latencies_us: vec![],
        };
        assert_eq!(report.quantile_us(0.5), 0);
        assert_eq!(report.throughput_rps(), 0.0);
    }
}
