//! Integration tests for the resident extraction service: endpoint
//! contracts against an in-process [`Server`], deterministic `429`
//! admission control, and — the one that matters for operations — a
//! real-binary SIGTERM mid-load drain proving every accepted request
//! gets a complete response and the process exits with the drain code.

use cmr::prelude::*;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NOTE: &str = "Vitals:  Blood pressure is 144/90, pulse of 84.\n";

/// Starts an in-process server on an ephemeral port; returns the bound
/// address, the shutdown flag, and the join handle for the serve loop.
fn start(cfg: ServeConfig) -> (String, Arc<AtomicBool>, JoinHandle<ServeSummary>) {
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..cfg
        },
        Arc::clone(&shutdown),
    )
    .expect("bind server");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, shutdown, handle)
}

fn stop(shutdown: &AtomicBool, handle: JoinHandle<ServeSummary>) -> ServeSummary {
    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread")
}

/// Reads one HTTP response off `stream` (leftover bytes persist in `buf`
/// across calls for keep-alive). Returns `(status, body)`; panics on a
/// malformed response — in these tests the server must never produce one.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String) {
    let mut fill = |buf: &mut Vec<u8>| -> usize {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response");
        buf.extend_from_slice(&chunk[..n]);
        n
    };
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        assert!(fill(buf) > 0, "eof before response head");
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("utf-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    let lower = head.to_ascii_lowercase();
    let header = |name: &str| -> Option<String> {
        lower.lines().find_map(|l| {
            l.strip_prefix(&format!("{name}:"))
                .map(|v| v.trim().to_string())
        })
    };
    let mut consumed = head_end + 4;
    let mut body = Vec::new();
    if header("transfer-encoding").as_deref() == Some("chunked") {
        loop {
            let line_end = loop {
                if let Some(i) = buf[consumed..].windows(2).position(|w| w == b"\r\n") {
                    break consumed + i;
                }
                assert!(fill(buf) > 0, "eof in chunk size");
            };
            let size = usize::from_str_radix(
                std::str::from_utf8(&buf[consumed..line_end])
                    .expect("chunk size utf-8")
                    .trim(),
                16,
            )
            .expect("chunk size hex");
            consumed = line_end + 2;
            while buf.len() < consumed + size + 2 {
                assert!(fill(buf) > 0, "eof in chunk");
            }
            if size == 0 {
                consumed += 2;
                break;
            }
            body.extend_from_slice(&buf[consumed..consumed + size]);
            consumed += size + 2;
        }
    } else {
        let n: usize = header("content-length")
            .expect("content-length or chunked")
            .parse()
            .expect("content-length number");
        while buf.len() < consumed + n {
            assert!(fill(buf) > 0, "eof in body");
        }
        body.extend_from_slice(&buf[consumed..consumed + n]);
        consumed += n;
    }
    buf.drain(..consumed);
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// One-shot request on a fresh connection.
fn oneshot(addr: &str, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(raw).expect("write request");
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf)
}

fn post(addr: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(addr: &str, path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").into_bytes()
}

/// NDJSON body of `n` *distinct* notes. Distinct matters: repeating one
/// note would hit the warm parse cache and finish a "long" batch in
/// microseconds, defeating busy-worker tests.
fn distinct_batch(n: usize) -> String {
    let corpus = CorpusBuilder::new().records(n).seed(17).build();
    let mut body = String::new();
    for record in &corpus.records {
        body.push_str(&serde_json::to_string(&record.text).unwrap());
        body.push('\n');
    }
    body
}

#[test]
fn endpoints_health_extract_metrics_contract() {
    let (addr, shutdown, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });

    let (status, body) = oneshot(&addr, &get(&addr, "/health"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ready\""), "{body}");
    assert!(body.contains("\"assets\""), "{body}");

    let (status, body) = oneshot(&addr, &post(&addr, "/extract", NOTE));
    assert_eq!(status, 200, "{body}");
    let record: ExtractedRecord = serde_json::from_str(&body).expect("record JSON");
    assert!(record.numeric("pulse").is_some(), "{body}");
    assert!(record.numeric("blood_pressure").is_some(), "{body}");

    // The gold-record object form decodes through the shared NDJSON
    // reader, same as `cmr extract -`.
    let json_note = format!(
        "{{\"text\":{}}}",
        serde_json::to_string(&NOTE.to_string()).unwrap()
    );
    let (status, body2) = oneshot(&addr, &post(&addr, "/extract", &json_note));
    assert_eq!(status, 200);
    assert_eq!(
        body, body2,
        "raw and {{\"text\":...}} bodies extract identically"
    );

    let (status, metrics_json) = oneshot(&addr, &get(&addr, "/metrics"));
    assert_eq!(status, 200);
    let metrics: EngineMetrics = serde_json::from_str(&metrics_json).expect("metrics JSON");
    assert_eq!(metrics.records, 2, "two extractions so far");
    assert_eq!(metrics.service.extract.count, 2);
    assert!(metrics.service.extract.total_nanos > 0);

    let (status, body) = oneshot(&addr, &get(&addr, "/nope"));
    assert_eq!(status, 404, "{body}");
    let (status, body) = oneshot(&addr, &get(&addr, "/extract"));
    assert_eq!(status, 405, "{body}");
    let (status, body) = oneshot(&addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400, "{body}");

    let summary = stop(&shutdown, handle);
    assert!(summary.requests >= 7, "{summary:?}");
    assert_eq!(summary.rejected, 0);
}

#[test]
fn batch_endpoint_streams_ndjson_and_skips_blank_lines() {
    let (addr, shutdown, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });

    // Two notes, with blank + whitespace-only separators and a trailing
    // newline: exactly two result lines, none of them errors.
    let note_json = serde_json::to_string(&NOTE.to_string()).unwrap();
    let body = format!("{note_json}\n\n   \n{{\"text\":{note_json}}}\n");
    let (status, out) = oneshot(&addr, &post(&addr, "/extract/batch", &body));
    assert_eq!(status, 200, "{out}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "blank lines must not become records: {out}");
    for line in &lines {
        let record: ExtractedRecord = serde_json::from_str(line).expect("record JSON");
        assert!(record.numeric("pulse").is_some(), "{line}");
        assert!(!line.contains("\"error\""), "{line}");
    }
    assert_eq!(lines[0], lines[1], "same note, same record");

    let summary = stop(&shutdown, handle);
    assert!(summary.requests >= 1);
}

#[test]
fn keep_alive_connection_serves_sequential_requests() {
    let (addr, shutdown, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut buf = Vec::new();
    for i in 0..3 {
        let req = format!(
            "POST /extract HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{NOTE}",
            NOTE.len()
        );
        stream.write_all(req.as_bytes()).expect("write");
        let (status, body) = read_response(&mut stream, &mut buf);
        assert_eq!(status, 200, "request {i}: {body}");
        assert!(body.contains("\"pulse\""), "request {i}");
    }
    drop(stream);

    let summary = stop(&shutdown, handle);
    assert!(summary.requests >= 3);
}

/// Each keep-alive request waits on the worker handing its connection
/// back. The accept thread's `poll` wait is bounded (100 ms) only to see
/// the shutdown flag, so a lost wake-up costs a whole wait: 50 requests
/// would take ~5 s. The bound of 2 s fails on that, not on a slow box.
#[test]
fn keep_alive_requests_do_not_wait_out_the_poll_timeout() {
    let (addr, shutdown, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let req = format!(
        "POST /extract HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{NOTE}",
        NOTE.len()
    );
    let mut buf = Vec::new();
    let started = Instant::now();
    for i in 0..50 {
        stream.write_all(req.as_bytes()).expect("write");
        let (status, body) = read_response(&mut stream, &mut buf);
        assert_eq!(status, 200, "request {i}: {body}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "50 keep-alive requests took {elapsed:?}: a hand-back did not wake the accept thread"
    );
    drop(stream);

    let summary = stop(&shutdown, handle);
    assert!(summary.requests >= 50, "{summary:?}");
}

/// An idle server sees the shutdown flag without any signal or traffic
/// to end its `poll` wait.
#[test]
fn idle_server_stops_soon_after_the_flag_rises() {
    let (addr, shutdown, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let (status, _) = oneshot(&addr, &get(&addr, "/health"));
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    stop(&shutdown, handle);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "idle server took {elapsed:?} to stop"
    );
}

/// Sends one `POST /extract` on a fresh connection without reading the
/// answer.
fn send_probe(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(&post(addr, "/extract", NOTE))
        .expect("write");
    stream
}

/// Reads a probe's whole response: its status and whether it carried
/// `Retry-After`.
fn probe_status(mut stream: TcpStream) -> (u16, bool) {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let head = String::from_utf8_lossy(&raw);
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, head.to_ascii_lowercase().contains("retry-after:"))
}

#[test]
fn admission_control_answers_429_when_queue_is_full() {
    // One worker, one queue slot: while a long batch holds the worker and
    // one extract holds the slot, every further request must be shed with
    // 429 + Retry-After rather than queued without bound. The test cannot
    // ask whether the worker is busy (`/health` is answered by that same
    // worker), so it probes in rounds once the batch has started: the
    // first probe of a round is left unread to hold the slot, the second
    // is read. The first 429 ends the rounds; a batch that finishes
    // before any 429 is sent again.
    let (addr, shutdown, handle) = start(ServeConfig {
        jobs: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });

    let batch_len = 1500;
    let batch_req = post(&addr, "/extract/batch", &distinct_batch(batch_len));
    // Sends the batch and returns once its first response bytes arrive:
    // the response streams, so from then on the worker is busy with it.
    let send_batch = || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream.write_all(&batch_req).expect("write batch");
        let mut buf = vec![0u8; 4096];
        let n = stream.read(&mut buf).expect("read batch head");
        buf.truncate(n);
        std::thread::spawn(move || read_response(&mut stream, &mut buf))
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut retry_after_seen = false;
    loop {
        assert!(
            Instant::now() < deadline,
            "no probe was shed while a batch held the worker within 60 s"
        );
        let batch = send_batch();
        let mut shed = false;
        while !shed && !batch.is_finished() {
            let held = send_probe(&addr);
            for (status, retry_after) in [probe_status(send_probe(&addr)), probe_status(held)] {
                assert!(
                    status == 200 || status == 429,
                    "every request is either served or cleanly shed: {status}"
                );
                shed |= status == 429;
                retry_after_seen |= status == 429 && retry_after;
            }
        }
        let (batch_status, batch_out) = batch.join().expect("batch thread");
        assert_eq!(batch_status, 200);
        assert_eq!(
            batch_out.lines().count(),
            batch_len,
            "the in-flight batch must finish completely"
        );
        if shed {
            break;
        }
    }
    assert!(retry_after_seen, "429 must carry Retry-After");

    let summary = stop(&shutdown, handle);
    assert!(summary.rejected >= 1, "{summary:?}");
}

#[test]
fn in_process_drain_finishes_inflight_batch() {
    let (addr, shutdown, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });

    let long_batch = distinct_batch(200);
    let batch_req = post(&addr, "/extract/batch", &long_batch);
    let batch_addr = addr.clone();
    let batch_thread = std::thread::spawn(move || oneshot(&batch_addr, &batch_req));
    std::thread::sleep(Duration::from_millis(120));

    // Shut down while the batch is mid-flight.
    let summary = stop(&shutdown, handle);

    let (status, out) = batch_thread.join().expect("batch thread");
    assert_eq!(status, 200, "in-flight batch still gets its response");
    assert_eq!(out.lines().count(), 200, "and it is complete");

    // The listener is gone: fresh connections are refused.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "drained server must not accept"
    );
    assert!(summary.requests >= 1);
}

/// The operational contract, end to end against the real binary:
/// SIGTERM mid-load ⇒ every application-accepted request gets a
/// complete, valid response; the process exits with the drain code (3).
///
/// Client error accounting follows standard HTTP practice: EOF on a
/// *reused* keep-alive connection before any response byte is a stale
/// close (retry on a fresh connection); a fresh connection that is
/// refused — or closed by the dying listener before yielding a byte —
/// was never application-accepted. Anything else (partial response,
/// 5xx) is a hard failure.
#[test]
fn sigterm_mid_load_drains_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cmr"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmr serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut stderr = std::io::BufReader::new(stderr);
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read banner");
    let addr = banner
        .split("serving on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    #[derive(Default)]
    struct ClientStats {
        ok: u64,
        bad: Vec<String>,
    }

    let stop_flag = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let stop_flag = Arc::clone(&stop_flag);
                scope.spawn(move || {
                    let mut stats = ClientStats::default();
                    let mut conn: Option<(TcpStream, Vec<u8>, u64)> = None;
                    'requests: while !stop_flag.load(Ordering::Relaxed)
                        && Instant::now() < deadline
                    {
                        for attempt in 0..2 {
                            let fresh = conn.is_none();
                            if fresh {
                                match TcpStream::connect(&addr) {
                                    Ok(s) => {
                                        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
                                        conn = Some((s, Vec::new(), 0));
                                    }
                                    Err(_) => break 'requests, // draining: refused
                                }
                            }
                            let (stream, buf, served) = conn.as_mut().expect("conn");
                            let req = format!(
                                "POST /extract HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{NOTE}",
                                NOTE.len()
                            );
                            let write_ok = stream.write_all(req.as_bytes()).is_ok();
                            let outcome = if write_ok {
                                try_read_response(stream, buf)
                            } else {
                                Err(true)
                            };
                            match outcome {
                                Ok((200, body)) if body.contains("\"pulse\"") => {
                                    *served += 1;
                                    stats.ok += 1;
                                    break;
                                }
                                Ok((status, body)) => {
                                    stats.bad.push(format!("status {status}: {body}"));
                                    break;
                                }
                                // EOF before any response byte.
                                Err(true) => {
                                    let was_reused = *served > 0;
                                    conn = None;
                                    if was_reused && attempt == 0 {
                                        continue; // stale keep-alive: retry fresh
                                    }
                                    // Fresh connection killed before a
                                    // byte: never application-accepted
                                    // (listener died) — stop cleanly.
                                    break 'requests;
                                }
                                // Partial response: hard failure.
                                Err(false) => {
                                    stats.bad.push("partial response".to_string());
                                    conn = None;
                                    break;
                                }
                            }
                        }
                    }
                    stats
                })
            })
            .collect();

        // Let the load establish, then SIGTERM the server.
        std::thread::sleep(Duration::from_millis(900));
        send_sigterm(child.id());
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        stop_flag.store(true, Ordering::Relaxed);
        out
    });

    let status = child.wait().expect("wait for serve");
    assert_eq!(
        status.code(),
        Some(3),
        "drained stop must exit with the partial-run code"
    );
    let mut drained_line = String::new();
    stderr.read_line(&mut drained_line).expect("drain banner");
    assert!(drained_line.contains("drained"), "{drained_line}");

    let total_ok: u64 = stats.iter().map(|s| s.ok).sum();
    let bad: Vec<&String> = stats.iter().flat_map(|s| s.bad.iter()).collect();
    assert!(bad.is_empty(), "incomplete/erroneous responses: {bad:?}");
    assert!(
        total_ok > 0,
        "the load must have gotten through before the drain"
    );
}

/// Reads one response; `Err(true)` = EOF before any byte (stale/refused
/// class), `Err(false)` = EOF mid-response (a dropped response).
fn try_read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u16, String), bool> {
    let had_leftover = !buf.is_empty();
    let mut got_any = had_leftover;
    let mut fill = |buf: &mut Vec<u8>, got_any: &mut bool| -> Result<usize, ()> {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => Err(()),
            Ok(n) => {
                *got_any = true;
                buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
        }
    };
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        if fill(buf, &mut got_any).is_err() {
            return Err(!got_any);
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(false)?;
    let n: usize = head
        .to_ascii_lowercase()
        .lines()
        .find_map(|l| {
            l.strip_prefix("content-length:")
                .map(|v| v.trim().to_string())
        })
        .and_then(|v| v.parse().ok())
        .ok_or(false)?;
    let mut consumed = head_end + 4;
    while buf.len() < consumed + n {
        if fill(buf, &mut got_any).is_err() {
            return Err(false); // head arrived, body truncated: partial
        }
    }
    let body = String::from_utf8_lossy(&buf[consumed..consumed + n]).into_owned();
    consumed += n;
    buf.drain(..consumed);
    Ok((status, body))
}

/// Raises SIGTERM without shelling out (same libc-free style as the
/// binary's own signal handling).
fn send_sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}
