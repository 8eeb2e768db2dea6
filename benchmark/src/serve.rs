//! `serve-open`: `cmr serve --jobs 2` driven over HTTP/1.1 keep-alive by
//! this benchmark's own load generator (not `cmr loadtest`, so editing
//! the code under test cannot change how it is measured).
//!
//! Two client threads on two connections, in one process. Closed loops
//! give the saturated throughput; an open loop at a fixed rate ladder
//! gives latency, each request timed from when it was *due*, so a stall
//! is charged to every request it delays.

use crate::batch::{chunk_notes, scaled, scaled_count};
use crate::gold::Score;
use crate::harness::{Ctx, Outcome, PARALLEL};
use crate::inputs::{fnv1a, Kind, Source};
use crate::procs::{Exit, Proc, SIGTERM};
use crate::stats::{median, nearest_rank, sorted, tail_percentile};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Distinct request bodies; requests cycle through them.
pub const BODIES: usize = 1000;
/// Open-loop rates in requests per second, lowest first.
const LADDER: [u32; 6] = [500, 1000, 1500, 2000, 3000, 4000];
/// The open-loop rate of the end-to-end `latency_ms` (the median of the
/// per-round medians at this rate).
const LATENCY_RATE: u32 = 1000;
/// A step meets the SLO when its p99 is at most this.
const SLO_P99_MS: f64 = 50.0;
/// Server starts behind `setup_s` (the last one serves the load).
const SETUP_STARTS: usize = 5;
/// Rounds of (closed loop on 2 connections, on 1, latency probe).
const ROUNDS: usize = 3;
/// Shares of the budget: warm-up, each closed loop and latency probe of
/// a round, each ladder step.
const WARM_SHARE: f64 = 0.04;
const CLOSED_SHARE: f64 = 0.05;
const PROBE_SHARE: f64 = 0.05;
const STEP_SHARE: f64 = 0.07;
/// Longest wait for a starting server or one response.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `cmr serve`.
struct Server {
    proc: Proc,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server on a free port; returns it with the time from
    /// spawn to the first `200` from `GET /health`.
    fn start(ctx: &Ctx, index: usize) -> Result<(Server, Duration), String> {
        let log = ctx.path(&format!("serve-{index}.log"));
        let stderr = std::fs::File::create(&log).map_err(|e| format!("creating log: {e}"))?;
        let mut cmd = ctx.cmr();
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--jobs"])
            .arg(PARALLEL.to_string())
            .stderr(Stdio::from(stderr));
        let proc = ctx.spawn(&mut cmd, "cmr serve")?;
        let addr = wait_for_addr(&log, proc.started())?;
        loop {
            if health(addr).is_ok_and(|status| status == 200) {
                let setup = proc.started().elapsed();
                return Ok((Server { proc, addr }, setup));
            }
            if proc.started().elapsed() > IO_TIMEOUT {
                return Err("cmr serve never answered GET /health".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// SIGTERM, drain, reap. The server exits 3 after a drained stop.
    fn stop(self) -> Result<Exit, String> {
        self.proc
            .signal(SIGTERM)
            .map_err(|e| format!("stopping cmr serve: {e}"))?;
        self.proc
            .wait()
            .map_err(|e| format!("reaping cmr serve: {e}"))
    }
}

/// Reads the bound address from the server's `serving on ADDR` line.
fn wait_for_addr(log: &Path, started: Instant) -> Result<SocketAddr, String> {
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(rest) = text.split("serving on ").nth(1) {
            // The address is complete once the whitespace after it is
            // written.
            if let Some(end) = rest.find(char::is_whitespace) {
                let addr = &rest[..end];
                return addr
                    .parse()
                    .map_err(|e| format!("bad address {addr:?} in the serve log: {e}"));
            }
        }
        if started.elapsed() > IO_TIMEOUT {
            return Err(format!("cmr serve did not start:\n{text}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn health(addr: SocketAddr) -> io::Result<u16> {
    let mut c = Client::connect(addr)?;
    Ok(c.send(b"GET /health HTTP/1.1\r\nHost: bench\r\n\r\n")?
        .status)
}

/// One keep-alive HTTP/1.1 connection.
struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A parsed response.
struct Response {
    status: u16,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            addr,
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Sends one request and reads its response. A response that closes
    /// the connection leaves this client reconnected for the next one.
    fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        let (head_len, status, content_length, close) = loop {
            if let Some(head) = parse_head(&self.buf)? {
                break head;
            }
            self.fill()?;
        };
        while self.buf.len() < head_len + content_length {
            self.fill()?;
        }
        let body = self.buf[head_len..head_len + content_length].to_vec();
        self.buf.drain(..head_len + content_length);
        if close {
            *self = Client::connect(self.addr)?;
        }
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// Parses a response head once it is complete: `(head length, status,
/// Content-Length, Connection: close)`.
fn parse_head(buf: &[u8]) -> io::Result<Option<(usize, u16, usize, bool)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse().ok(),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "transfer-encoding" => return Err(bad("chunked responses are not expected")),
            _ => {}
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    Ok(Some((end + 4, status, length, close)))
}

fn extract_request(body: &str) -> Vec<u8> {
    format!(
        "POST /extract HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Request outcomes of one client thread.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    ok: u64,
    rejected_429: u64,
    /// Answers other than 200 and 429.
    non_2xx: u64,
    /// Connect failures and broken connections.
    transport: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.rejected_429 + self.non_2xx + self.transport
    }

    fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.rejected_429 += o.rejected_429;
        self.non_2xx += o.non_2xx;
        self.transport += o.transport;
    }
}

/// The first `200` body seen for each request body, and how many later
/// answers differed from it (the pipeline is deterministic, so any
/// difference is a defect).
struct Seen {
    first: Vec<Option<(u64, Vec<u8>)>>,
    differing: u64,
}

impl Seen {
    fn new(n: usize) -> Seen {
        Seen {
            first: vec![None; n],
            differing: 0,
        }
    }

    fn observe(&mut self, idx: usize, body: Vec<u8>) {
        self.record(idx, fnv1a(&body), body);
    }

    fn record(&mut self, idx: usize, hash: u64, body: Vec<u8>) {
        match &self.first[idx] {
            Some((first, _)) if *first != hash => self.differing += 1,
            Some(_) => {}
            None => self.first[idx] = Some((hash, body)),
        }
    }

    /// Merges another client's observations.
    fn absorb(&mut self, other: Seen) {
        self.differing += other.differing;
        for (idx, slot) in other.first.into_iter().enumerate() {
            if let Some((hash, body)) = slot {
                self.record(idx, hash, body);
            }
        }
    }
}

/// One client thread's connection, outcomes and answers.
struct Session<'a> {
    addr: SocketAddr,
    requests: &'a [Vec<u8>],
    /// Index of the session's request 0 in `requests` (cyclic).
    base: usize,
    client: Option<Client>,
    tally: Tally,
    seen: Seen,
}

impl Session<'_> {
    /// Sends the `k`-th request: counts the outcome, keeps the body for
    /// checking, and reconnects after a transport error.
    fn attempt(&mut self, k: usize) -> bool {
        let idx = (self.base + k) % self.requests.len();
        self.tally.sent += 1;
        if self.client.is_none() {
            self.client = Client::connect(self.addr).ok();
        }
        let Some(c) = self.client.as_mut() else {
            self.tally.transport += 1;
            return false;
        };
        match c.send(&self.requests[idx]) {
            Ok(r) if r.status == 200 => {
                self.tally.ok += 1;
                self.seen.observe(idx, r.body);
                true
            }
            Ok(r) => {
                if r.status == 429 {
                    self.tally.rejected_429 += 1;
                } else {
                    self.tally.non_2xx += 1;
                }
                false
            }
            Err(_) => {
                self.tally.transport += 1;
                self.client = None;
                false
            }
        }
    }
}

/// The load generator: the request bodies, where the next phase starts
/// in them, and the merged outcomes and answers of every phase so far.
struct Load<'a> {
    addr: SocketAddr,
    requests: &'a [Vec<u8>],
    next: usize,
    tally: Tally,
    seen: Seen,
}

impl Load<'_> {
    /// Runs `work` on `conns` client threads, each on its own connection,
    /// then merges their outcomes and answers.
    fn clients<T: Send>(
        &mut self,
        conns: usize,
        work: impl Fn(usize, &mut Session) -> T + Sync,
    ) -> Vec<T> {
        let (addr, requests, base) = (self.addr, self.requests, self.next);
        let work = &work;
        let results: Vec<(T, Tally, Seen)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|t| {
                    s.spawn(move || {
                        let mut session = Session {
                            addr,
                            requests,
                            base,
                            client: None,
                            tally: Tally::default(),
                            seen: Seen::new(requests.len()),
                        };
                        let r = work(t, &mut session);
                        (r, session.tally, session.seen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        results
            .into_iter()
            .map(|(r, tally, seen)| {
                self.tally.add(&tally);
                self.seen.absorb(seen);
                r
            })
            .collect()
    }

    /// Closed loop on `conns` connections for `dur`: each client sends its
    /// next request when the previous one is answered. Returns answered
    /// requests per second.
    fn closed_loop(&mut self, conns: usize, dur: Duration) -> f64 {
        let start = Instant::now();
        let per_client = self.clients(conns, |t, session| {
            let mut k = t;
            while start.elapsed() < dur {
                session.attempt(k);
                k += conns;
            }
            (k, session.tally.ok)
        });
        let elapsed = start.elapsed().as_secs_f64();
        self.next += per_client.iter().map(|(k, _)| *k).max().unwrap_or(0);
        per_client.iter().map(|(_, ok)| *ok).sum::<u64>() as f64 / elapsed
    }

    /// Open loop at `rate` for `dur` on `conns` connections: request `k`
    /// goes out on connection `k % conns` at its due time, or as soon as
    /// that connection is free if it is late.
    fn open_loop(&mut self, conns: usize, rate: u32, dur: Duration) -> Step {
        let total = ((f64::from(rate) * dur.as_secs_f64()) as usize).max(4 * conns);
        let rejected_before = self.tally.rejected_429;
        // A short lead so every thread is parked before the first due time.
        let start = Instant::now() + Duration::from_millis(5);
        let per_client = self.clients(conns, |t, session| {
            let mut samples = Vec::with_capacity(total / conns + 1);
            for k in (t..total).step_by(conns) {
                let due_at = start + due(k, rate);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let sent = start.elapsed();
                let ok = session.attempt(k);
                let done = start.elapsed();
                let sample = Sample {
                    due: due(k, rate),
                    sent,
                    done,
                    ok,
                };
                samples.push((k, sample));
            }
            samples
        });
        self.next += total;
        let mut all: Vec<(usize, Sample)> = per_client.into_iter().flatten().collect();
        all.sort_by_key(|(k, _)| *k);
        let samples: Vec<Sample> = all.into_iter().map(|(_, s)| s).collect();
        Step::new(rate, &samples, self.tally.rejected_429 - rejected_before)
    }
}

/// One open-loop request: when it was due, sent and answered, relative
/// to the step's start.
#[derive(Debug, Clone, Copy)]
struct Sample {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time, so generator lateness caused by a slow
    /// earlier response is charged to this request too. A failed request
    /// never meets a latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done.saturating_sub(self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Due time of the `k`-th request at `rate` requests per second.
fn due(k: usize, rate: u32) -> Duration {
    Duration::from_secs_f64(k as f64 / f64::from(rate))
}

/// Summary and verdict of one open-loop step.
#[derive(Debug, Clone)]
struct Step {
    pub rate: u32,
    pub samples: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Highest percentile with ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
    pub lateness_p50_ms: f64,
    pub failed: u64,
    pub rejected_429: u64,
    /// Median latency of the first and last quarter, by due time.
    pub first_quarter_p50_ms: f64,
    pub last_quarter_p50_ms: f64,
}

impl Step {
    /// Summarizes samples sorted by due time.
    pub fn new(rate: u32, samples: &[Sample], rejected_429: u64) -> Step {
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let all = sorted(&lat);
        let q = samples.len() / 4;
        let lateness: Vec<f64> = samples.iter().map(Sample::lateness_ms).collect();
        Step {
            rate,
            samples: samples.len(),
            p50_ms: nearest_rank(&all, 50.0),
            p99_ms: nearest_rank(&all, 99.0),
            tail: tail_percentile(all.len()).map(|p| (p, nearest_rank(&all, p))),
            lateness_p50_ms: median(&lateness),
            failed: samples.iter().filter(|s| !s.ok).count() as u64,
            rejected_429,
            first_quarter_p50_ms: median(&lat[..q]),
            last_quarter_p50_ms: median(&lat[samples.len() - q..]),
        }
    }

    /// The SLO: p99 within [`SLO_P99_MS`], nothing failed or refused, and
    /// no growing backlog (the last quarter's median at most twice the
    /// first quarter's).
    pub fn meets_slo(&self) -> bool {
        self.failed == 0
            && self.p99_ms <= SLO_P99_MS
            && self.last_quarter_p50_ms <= 2.0 * self.first_quarter_p50_ms
    }
}

/// Runs `serve-open`.
pub fn serve(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let n = scaled(ctx, BODIES);
    let notes = Source::new(Kind::Clean, ctx.seed, chunk_notes(ctx, Kind::Clean)).notes(0..n);
    out.digest = fnv1a(notes.body(0..n).as_bytes());
    let requests: Vec<Vec<u8>> = notes.lines.iter().map(|b| extract_request(b)).collect();
    let share = |s: f64| ctx.budget.mul_f64(s);

    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..scaled_count(ctx, SETUP_STARTS) {
        let (s, setup) = Server::start(ctx, i)?;
        setups.push(setup.as_secs_f64());
        if let Some(previous) = server.replace(s) {
            previous.stop()?;
        }
    }
    out.set("setup_s", median(&setups));
    let server = server.expect("at least one server start");

    let mut load = Load {
        addr: server.addr,
        requests: &requests,
        next: 0,
        tally: Tally::default(),
        seen: Seen::new(n),
    };
    load.closed_loop(PARALLEL, share(WARM_SHARE));
    // Interleaved rounds: a burst of background load lands on one sample
    // of each metric instead of on every sample of one.
    let mut closed = [Vec::new(), Vec::new()];
    let mut latency = Vec::new();
    for _ in 0..ROUNDS {
        for (slot, conns) in [PARALLEL, 1].into_iter().enumerate() {
            closed[slot].push(load.closed_loop(conns, share(CLOSED_SHARE)));
        }
        let probe = load.open_loop(PARALLEL, LATENCY_RATE, share(PROBE_SHARE));
        latency.push(probe.p50_ms);
    }
    let (parallel, serial) = (median(&closed[0]), median(&closed[1]));
    out.set("notes_per_s", parallel);
    out.set("serial_notes_per_s", serial);
    out.set("latency_ms", median(&latency));
    out.set(
        "engine.parallel_efficiency",
        parallel / (PARALLEL as f64 * serial),
    );

    // The rate ladder, up to the first step that misses the SLO.
    let ladder: &[u32] = if ctx.smoke { &LADDER[..2] } else { &LADDER };
    let mut steps = Vec::new();
    for &rate in ladder {
        let step = load.open_loop(PARALLEL, rate, share(STEP_SHARE));
        let met = step.meets_slo();
        steps.push(step);
        if !met {
            break;
        }
    }
    let exit = server.stop()?;
    out.check("serve drains on SIGTERM", exit.code == Some(3), || {
        format!("cmr serve ended with {exit} after SIGTERM")
    });
    out.set("peak_rss_mb", exit.maxrss_kib as f64 / 1024.0);

    for step in &steps {
        let r = step.rate;
        out.set(&format!("serve.p50_ms.r{r}"), step.p50_ms);
        out.set(&format!("serve.p99_ms.r{r}"), step.p99_ms);
        out.set(&format!("serve.gen_lateness_ms.r{r}"), step.lateness_p50_ms);
        out.set(
            &format!("serve.rejected_429.r{r}"),
            step.rejected_429 as f64,
        );
        let tail = step
            .tail
            .map(|(p, v)| format!("p{p} {v:.3} ms"))
            .unwrap_or_else(|| "no tail".to_string());
        eprintln!(
            "  r{r}: n={} p50 {:.3} ms p99 {:.3} ms ({tail}) lateness p50 {:.3} ms \
             failed {} quarters {:.3}/{:.3} ms SLO {}",
            step.samples,
            step.p50_ms,
            step.p99_ms,
            step.lateness_p50_ms,
            step.failed,
            step.first_quarter_p50_ms,
            step.last_quarter_p50_ms,
            if step.meets_slo() { "met" } else { "missed" }
        );
    }
    let max_rps = steps
        .iter()
        .take_while(|s| s.meets_slo())
        .map(|s| s.rate)
        .max()
        .unwrap_or(0);
    out.set("serve.max_rps_slo", f64::from(max_rps));

    let Load { tally, seen, .. } = load;
    out.attempted += tally.sent;
    out.failed += tally.failed();
    out.check("serve answers deterministic", seen.differing == 0, || {
        format!(
            "{} answers differed from the first answer to the same body",
            seen.differing
        )
    });
    let mut score = Score::default();
    let mut malformed = 0;
    let mut scored = 0;
    for (slot, gold) in seen.first.iter().zip(&notes.gold) {
        if let Some((_, body)) = slot {
            let text = String::from_utf8_lossy(body);
            match serde_json::parse_value_str(&text) {
                Ok(v) if v.get("numeric").is_some() => {
                    score.add_record(&v, gold);
                    scored += 1;
                }
                _ => malformed += 1,
            }
        }
    }
    out.check("serve 200 bodies are records", malformed == 0, || {
        format!("{malformed} 200 answers were not record JSON")
    });
    out.check("gold scoring", scored > 0, || {
        "no 200 answer to score".to_string()
    });
    out.set("numeric_f1", score.numeric.f1());
    out.set("term_f1", score.terms.f1());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 10 ms; the generator was stalled until 15 ms by an
        // earlier slow answer; answered at 16 ms.
        let s = Sample {
            due: ms(10),
            sent: ms(15),
            done: ms(16),
            ok: true,
        };
        assert_eq!(s.latency_ms(), 6.0);
        assert_eq!(s.lateness_ms(), 5.0);
        assert_eq!(due(3, 1000), ms(3));
        assert_eq!(due(1, 500), ms(2));
    }

    fn step(latencies_ms: &[u64], ok: impl Fn(usize) -> bool) -> Step {
        let samples: Vec<Sample> = latencies_ms
            .iter()
            .enumerate()
            .map(|(i, &l)| Sample {
                due: ms(i as u64),
                sent: ms(i as u64),
                done: ms(i as u64 + l),
                ok: ok(i),
            })
            .collect();
        Step::new(1000, &samples, 0)
    }

    #[test]
    fn slo_met_on_a_flat_fast_step() {
        let s = step(&[1; 100], |_| true);
        assert!(s.meets_slo());
        assert_eq!(s.p50_ms, 1.0);
    }

    #[test]
    fn slo_missed_on_a_slow_tail() {
        let mut lat = vec![1; 100];
        lat[98] = 60;
        lat[99] = 60;
        let s = step(&lat, |_| true);
        assert_eq!(s.p99_ms, 60.0);
        assert!(!s.meets_slo());
    }

    #[test]
    fn slo_missed_on_a_growing_backlog() {
        // Latency creeps up from 1 to 5 ms: p99 is fine, but the last
        // quarter's median is more than twice the first's.
        let lat: Vec<u64> = (0..100).map(|i| 1 + i / 25).collect();
        let s = step(&lat, |_| true);
        assert!(s.p99_ms <= SLO_P99_MS);
        assert!(!s.meets_slo());
    }

    #[test]
    fn a_single_failure_misses_the_slo() {
        let s = step(&[1; 100], |i| i != 50);
        assert_eq!(s.failed, 1);
        assert!(!s.meets_slo());
        // The failure is an infinite latency, not a dropped sample.
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50_ms, 1.0);
    }

    #[test]
    fn response_heads_parse() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        assert_eq!(
            parse_head(head).expect("valid"),
            Some((head.len() - 2, 200, 2, false))
        );
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\n").expect("partial"), None);
        let close = b"HTTP/1.1 429 Too Many\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        assert_eq!(
            parse_head(close).expect("valid"),
            Some((close.len(), 429, 0, true))
        );
    }
}
