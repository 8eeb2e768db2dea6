//! A deterministic, order-preserving scoped worker pool.
//!
//! The shape is a classic fan-out/fan-in over bounded channels, with
//! records moving in *chunks* to amortize channel and wakeup costs:
//!
//! ```text
//! inputs ──feeder──▶ sync_channel(chunks) ──▶ N workers ──▶
//!          sync_channel(chunks + jobs) ──consumer──▶ ring buffer ──▶ sink
//! ```
//!
//! * **Chunked dispatch** — the feeder batches records into chunks before
//!   sending (one channel rendezvous per chunk, not per record). Chunk
//!   size is feeder-adaptive: it starts at one record so every worker has
//!   work within microseconds of startup, then doubles per send up to
//!   [`DEFAULT_CHUNK`] once the pool is warm. Per-record sends made the
//!   channel itself the bottleneck at small record costs.
//! * **Backpressure** — both channels are bounded in chunks such that
//!   buffered records stay O(queue depth), never O(corpus); a slow sink
//!   stalls the workers and a slow feeder idles them. The feeder also
//!   never runs more than the reorder ring's capacity ahead of the last
//!   emitted record, so one slow record cannot let the other workers
//!   overrun the ring.
//! * **Determinism** — every input is tagged with its index; the consumer
//!   parks out-of-order results in a fixed-capacity ring buffer indexed by
//!   sequence number (no per-item allocation, no tree rebalancing) and
//!   emits strictly in input order, so the output sequence is identical
//!   for any worker count and any chunk size.
//! * **Worker-local state** — each worker builds its own state *inside its
//!   thread* via `make_worker`, which is how `!Send` state (the pipeline's
//!   link-parser cache) rides a thread pool.
//! * **Fault isolation** — a panicking work item is caught with
//!   [`std::panic::catch_unwind`] *per record*, not per chunk, and
//!   surfaced through `on_panic` as an ordinary per-item error; the rest
//!   of the chunk and the batch keep going.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Steady-state records per channel send when the caller does not choose.
const DEFAULT_CHUNK: usize = 16;

/// Pool shape parameters (already resolved: `jobs >= 1`).
pub(crate) struct PoolConfig {
    /// Worker threads.
    pub jobs: usize,
    /// Target bound on buffered *records* awaiting a worker.
    pub queue_depth: usize,
    /// External graceful-shutdown flag (SIGINT/SIGTERM): when raised, the
    /// feeder stops feeding new records but everything already fed drains
    /// through the workers and the sink normally, so a journal written
    /// from the sink stays a clean prefix of the run.
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Steady-state records per channel send; `0` means [`DEFAULT_CHUNK`].
    /// `1` reproduces the old per-record dispatch exactly.
    pub chunk: usize,
}

/// Counters observed by one [`run_ordered`] run, reported to the caller so
/// the engine can surface pool health (see `EngineMetrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PoolStats {
    /// Total nanoseconds workers spent blocked waiting for input chunks
    /// (including contention on the shared receiver), summed over workers.
    pub channel_wait_nanos: u64,
    /// Peak number of results parked in the reorder ring awaiting their
    /// predecessors.
    pub reorder_high_water: u64,
    /// Chunks the feeder dispatched.
    pub chunks_dispatched: u64,
}

/// Runs `inputs` through `jobs` workers, invoking `sink(index, result)`
/// strictly in input order. See the module docs for the contract.
pub(crate) fn run_ordered<In, Out, E, It, MkW, W, P, S>(
    inputs: It,
    cfg: PoolConfig,
    make_worker: MkW,
    on_panic: P,
    mut sink: S,
) -> PoolStats
where
    In: Send,
    Out: Send,
    E: Send,
    It: Iterator<Item = In> + Send,
    MkW: Fn(usize) -> W + Sync,
    W: FnMut(usize, In) -> Result<Out, E>,
    P: Fn(String) -> E + Sync,
    S: FnMut(usize, Result<Out, E>),
{
    assert!(cfg.jobs >= 1, "pool needs at least one worker");
    let queue_depth = cfg.queue_depth.max(1);
    let max_chunk = if cfg.chunk == 0 {
        DEFAULT_CHUNK
    } else {
        cfg.chunk
    };
    // Channel bounds are in chunks; buffered records stay O(queue_depth).
    let in_bound = queue_depth.div_ceil(max_chunk).max(1);
    let out_bound = in_bound + cfg.jobs;
    let wait_nanos = AtomicU64::new(0);
    let chunks_sent = AtomicU64::new(0);
    let (in_tx, in_rx) = sync_channel::<Vec<(usize, In)>>(in_bound);
    let in_rx = Arc::new(Mutex::new(in_rx));
    let (out_tx, out_rx) = sync_channel::<Vec<(usize, Result<Out, E>)>>(out_bound);

    // Records in flight (fed but not yet emitted) when every worker keeps
    // pace: every chunk buffered in either channel, one chunk in a blocked
    // send on each side, one chunk per worker, and one being scattered by
    // the consumer. The reorder ring is sized to that once, up front. A
    // slow record lets the other workers run ahead while the consumer
    // keeps parking their results, so the feeder also waits until a chunk
    // fits the window: a parked result never lands `ring_cap` or more
    // ahead of the next emission.
    let ring_cap = ((in_bound + out_bound + cfg.jobs + 3) * max_chunk).next_power_of_two();
    let ring_mask = ring_cap - 1;
    // The next index to emit, published by the consumer for the feeder.
    let emitted = Mutex::new(0usize);
    let emitted_cv = Condvar::new();

    let mut high_water = 0u64;
    std::thread::scope(|scope| {
        // Feeder: enumerate inputs into chunks until done or asked to
        // shut down. Dropping `in_tx` is the end-of-input signal. On
        // shutdown the chunk being built is DROPPED, not flushed: nothing
        // new is fed past the last dispatched chunk, so a flag raised
        // before the run starts feeds zero records, and what was emitted
        // is always a contiguous prefix of the input.
        let chunks_ref = &chunks_sent;
        let shutdown_ref = cfg.shutdown.as_deref();
        let (emitted_ref, emitted_cv_ref) = (&emitted, &emitted_cv);
        // Blocks until every index of `chunk` is within the ring window.
        // The oldest unemitted index was fed before `chunk` (or `chunk`
        // would fit), so the wait always ends.
        let wait_for_window = move |chunk: &[(usize, In)]| {
            let Some(&(last, _)) = chunk.last() else {
                return;
            };
            let mut next = emitted_ref
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while last >= *next + ring_cap {
                next = emitted_cv_ref
                    .wait(next)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        scope.spawn(move || {
            let mut chunk_target = 1usize;
            let mut chunk: Vec<(usize, In)> = Vec::with_capacity(chunk_target);
            for item in inputs.enumerate() {
                if shutdown_ref.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    return;
                }
                chunk.push(item);
                if chunk.len() >= chunk_target {
                    // Enacts `panic`/`delay`; error-shaped actions only log
                    // (there is no I/O at a dispatch boundary to poison).
                    let _ = cmr_failpoint::io_inject("pool::chunk_dispatch");
                    wait_for_window(&chunk);
                    chunks_ref.fetch_add(1, Ordering::Relaxed);
                    if in_tx.send(std::mem::take(&mut chunk)).is_err() {
                        return;
                    }
                    // Warm-up ramp: small first chunks get every worker
                    // busy immediately; steady state amortizes.
                    chunk_target = (chunk_target * 2).min(max_chunk);
                    chunk.reserve(chunk_target);
                }
            }
            if !chunk.is_empty() {
                let _ = cmr_failpoint::io_inject("pool::chunk_dispatch");
                wait_for_window(&chunk);
                chunks_ref.fetch_add(1, Ordering::Relaxed);
                let _ = in_tx.send(chunk);
            }
        });

        for widx in 0..cfg.jobs {
            let in_rx = Arc::clone(&in_rx);
            let out_tx = out_tx.clone();
            let wait_ref = &wait_nanos;
            let (make_worker, on_panic) = (&make_worker, &on_panic);
            scope.spawn(move || {
                let mut work = make_worker(widx);
                loop {
                    // Lock only for the blocking recv: whoever holds the
                    // lock takes the next chunk, then releases before
                    // processing it. Worker panics are caught below around
                    // `work`, never while this lock is held, but recover
                    // from poisoning anyway — the channel receiver has no
                    // state a mid-recv unwind could corrupt, and dying here
                    // would strand the remaining queued records.
                    let waited = Instant::now();
                    let msg = in_rx
                        .lock() // cmr:allow(S001) -- the lock scope IS the recv: it arbitrates which worker claims the next chunk
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .recv();
                    wait_ref.fetch_add(waited.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let Ok(chunk) = msg else { break };
                    let mut results = Vec::with_capacity(chunk.len());
                    for (idx, item) in chunk {
                        // Unwind isolation is per record, not per chunk:
                        // one poisoned record inside a batch must not take
                        // its chunk-mates down with it.
                        let result = match catch_unwind(AssertUnwindSafe(|| work(idx, item))) {
                            Ok(r) => r,
                            Err(payload) => Err(on_panic(panic_message(payload.as_ref()))),
                        };
                        results.push((idx, result));
                    }
                    if out_tx.send(results).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold the only remaining senders; when the last one
        // exits, recv below disconnects and the consumer loop ends.
        drop(out_tx);

        // Consumer (this thread): restore input order via a fixed-capacity
        // ring indexed by sequence number — slot `idx & ring_mask` — and
        // emit the contiguous run each arriving chunk completes.
        let mut ring: Vec<Option<Result<Out, E>>> = (0..ring_cap).map(|_| None).collect();
        let mut parked = 0usize;
        let mut next_emit = 0usize;
        while let Ok(chunk) = out_rx.recv() {
            for (idx, result) in chunk {
                debug_assert!(
                    idx >= next_emit && idx - next_emit < ring_cap,
                    "result index {idx} outside ring window starting at {next_emit}"
                );
                let slot = &mut ring[idx & ring_mask];
                debug_assert!(slot.is_none(), "ring slot for {idx} already occupied");
                *slot = Some(result);
                parked += 1;
            }
            high_water = high_water.max(parked as u64);
            let _ = cmr_failpoint::io_inject("pool::reorder_flush");
            let before = next_emit;
            while let Some(result) = ring[next_emit & ring_mask].take() {
                parked -= 1;
                sink(next_emit, result);
                next_emit += 1;
            }
            if next_emit > before {
                *emitted
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = next_emit;
                emitted_cv.notify_one();
            }
        }
        debug_assert_eq!(parked, 0, "gap in emitted indices");
    });

    PoolStats {
        channel_wait_nanos: wait_nanos.into_inner(),
        reorder_high_water: high_water,
        chunks_dispatched: chunks_sent.into_inner(),
    }
}

/// Renders a panic payload the way the default hook does.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Concurrency model for the pool's ordering machinery, built only under
/// `RUSTFLAGS="--cfg loom"` (the CI loom job). Modeled across many
/// interleavings: the reorder ring emits every fed index exactly once and
/// in strictly ascending order, for any worker count and chunk size — a
/// duplicate emission, a skipped index, or an out-of-sequence slot reuse
/// all fail the sink's assertion.
#[cfg(all(test, loom))]
mod loom_model {
    use super::*;

    /// Runs the pool and asserts the sink saw indices `0..len` in strict
    /// sequence with no duplicates; returns the emitted results.
    fn run_and_check_sequence<W>(
        n: usize,
        jobs: usize,
        chunk: usize,
        make_worker: impl Fn(usize) -> W + Sync,
    ) -> Vec<Result<usize, String>>
    where
        W: FnMut(usize, usize) -> Result<usize, String>,
    {
        let mut emitted = Vec::new();
        run_ordered(
            0..n,
            PoolConfig {
                jobs,
                queue_depth: 4,
                shutdown: None,
                chunk,
            },
            make_worker,
            |m| format!("panic: {m}"),
            |idx, r| {
                assert_eq!(
                    idx,
                    emitted.len(),
                    "emission out of sequence (or duplicated): got {idx}, expected {}",
                    emitted.len()
                );
                emitted.push(r);
            },
        );
        emitted
    }

    #[test]
    fn ring_emits_each_record_exactly_once_in_sequence() {
        loom::model(|| {
            for (jobs, chunk) in [(2, 1), (2, 3), (3, 2)] {
                let emitted = run_and_check_sequence(10, jobs, chunk, |_w| {
                    |_i, x: usize| Ok::<usize, String>(x * 2)
                });
                assert_eq!(emitted.len(), 10, "jobs={jobs} chunk={chunk}");
                for (i, r) in emitted.iter().enumerate() {
                    assert_eq!(r, &Ok(i * 2), "jobs={jobs} chunk={chunk}");
                }
            }
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cfg(jobs: usize) -> PoolConfig {
        PoolConfig {
            jobs,
            queue_depth: 4,
            shutdown: None,
            chunk: 0,
        }
    }

    /// Runs the doubling pool and returns the emitted (index, result) list.
    fn double_all(jobs: usize, n: usize) -> Vec<(usize, Result<usize, String>)> {
        let mut seen = Vec::new();
        run_ordered(
            0..n,
            cfg(jobs),
            |_w| |_i, x: usize| Ok::<usize, String>(x * 2),
            |m| m,
            |idx, r| seen.push((idx, r)),
        );
        seen
    }

    #[test]
    fn emits_in_order_any_worker_count() {
        for jobs in [1, 2, 4, 7] {
            let seen = double_all(jobs, 100);
            assert_eq!(seen.len(), 100, "jobs={jobs}");
            for (i, (idx, r)) in seen.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(r.as_ref().unwrap(), &(i * 2));
            }
        }
    }

    #[test]
    fn emits_in_order_for_any_chunk_size() {
        // Chunk size is a throughput knob, never a semantics knob: the
        // emitted sequence is identical from per-record dispatch (1)
        // through chunks larger than the whole input (1000).
        for chunk in [1, 2, 3, 16, 64, 1000] {
            let mut seen = Vec::new();
            let stats = run_ordered(
                0..250,
                PoolConfig {
                    jobs: 4,
                    queue_depth: 8,
                    shutdown: None,
                    chunk,
                },
                |_w| |_i, x: usize| Ok::<usize, String>(x + 1),
                |m| m,
                |idx, r| seen.push((idx, r)),
            );
            assert_eq!(seen.len(), 250, "chunk={chunk}");
            for (i, (idx, r)) in seen.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(r.as_ref().unwrap(), &(i + 1));
            }
            assert!(stats.chunks_dispatched > 0, "chunk={chunk}");
        }
    }

    #[test]
    fn reorder_ring_restores_order_under_variable_latency() {
        // Slow every fourth record so later indexes routinely finish
        // first; the ring must park them and still emit 0..n in order,
        // and the high-water mark must record that parking happened.
        let mut seen = Vec::new();
        let stats = run_ordered(
            0..120,
            PoolConfig {
                jobs: 4,
                queue_depth: 16,
                shutdown: None,
                chunk: 4,
            },
            |_w| {
                |i: usize, x: usize| {
                    if i.is_multiple_of(4) {
                        std::thread::sleep(std::time::Duration::from_micros(300));
                    }
                    Ok::<usize, String>(x)
                }
            },
            |m| m,
            |idx, r| seen.push((idx, r)),
        );
        assert_eq!(seen.len(), 120);
        for (i, (idx, r)) in seen.iter().enumerate() {
            assert_eq!(*idx, i, "ring emitted out of order");
            assert_eq!(r, &Ok(i));
        }
        // Not asserted > 0: a 1-CPU machine may legitimately never
        // overlap workers. Recorded so multicore runs can see it.
        let _ = stats.reorder_high_water;
    }

    #[test]
    fn chunking_amortizes_sends() {
        let mut count = 0usize;
        let stats = run_ordered(
            0..1000,
            PoolConfig {
                jobs: 2,
                queue_depth: 64,
                shutdown: None,
                chunk: 16,
            },
            |_w| |_i, x: usize| Ok::<usize, String>(x),
            |m| m,
            |_, _| count += 1,
        );
        assert_eq!(count, 1000);
        // The warm-up ramp (1, 2, 4, 8, then 16s) means strictly fewer
        // sends than records but more than records/16.
        assert!(
            stats.chunks_dispatched < 1000 && stats.chunks_dispatched >= 1000 / 16,
            "unexpected dispatch count {}",
            stats.chunks_dispatched
        );
    }

    #[test]
    fn slow_record_cannot_let_workers_overrun_the_ring() {
        // Record 0 stalls while the other worker races through the rest
        // with per-record chunks (a 32-slot ring). Without the feeder's
        // window the racing results overwrote ring slots (wrong records
        // emitted in release builds, a deadlocked pool in debug builds).
        let mut seen = Vec::new();
        run_ordered(
            0..1000,
            PoolConfig {
                jobs: 2,
                queue_depth: 4,
                shutdown: None,
                chunk: 1,
            },
            |_w| {
                |i: usize, x: usize| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                    Ok::<usize, String>(x)
                }
            },
            |m| m,
            |idx, r| seen.push((idx, r)),
        );
        assert_eq!(seen.len(), 1000);
        for (i, (idx, r)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(r, &Ok(i));
        }
    }

    #[test]
    fn empty_input() {
        assert!(double_all(3, 0).is_empty());
    }

    #[test]
    fn panics_become_item_errors() {
        let mut results = Vec::new();
        run_ordered(
            0..6,
            cfg(3),
            |_w| {
                |_i, x: usize| {
                    if x == 3 {
                        panic!("boom at {x}");
                    }
                    Ok::<usize, String>(x)
                }
            },
            |m| format!("panic: {m}"),
            |_, r| results.push(r),
        );
        assert_eq!(results.len(), 6, "panicking item still yields an output");
        assert_eq!(results[3].as_ref().unwrap_err(), "panic: boom at 3");
        assert_eq!(results[5], Ok(5));
    }

    #[test]
    fn panic_mid_chunk_spares_chunk_mates() {
        // Force everything into one big chunk: the panic at index 7 must
        // surface as that record's error alone, with its chunk-mates on
        // both sides still processed by the same worker pass.
        let mut results = Vec::new();
        run_ordered(
            0..16,
            PoolConfig {
                jobs: 1,
                queue_depth: 16,
                shutdown: None,
                chunk: 16,
            },
            |_w| {
                |_i, x: usize| {
                    if x == 7 {
                        panic!("mid-chunk boom");
                    }
                    Ok::<usize, String>(x)
                }
            },
            |m| format!("panic: {m}"),
            |_, r| results.push(r),
        );
        assert_eq!(results.len(), 16);
        assert_eq!(results[7].as_ref().unwrap_err(), "panic: mid-chunk boom");
        for (i, r) in results.iter().enumerate() {
            if i != 7 {
                assert_eq!(r, &Ok(i), "chunk-mate {i} was not processed");
            }
        }
    }

    #[test]
    fn worker_state_is_per_thread() {
        // Each worker's state counts its own items; the total must equal n.
        let counts = Arc::new(Mutex::new(vec![0usize; 4]));
        let counts_ref = Arc::clone(&counts);
        run_ordered(
            0..50,
            cfg(4),
            move |widx| {
                let counts = Arc::clone(&counts_ref);
                move |_i, _x: usize| {
                    counts.lock().unwrap()[widx] += 1;
                    Ok::<usize, String>(widx)
                }
            },
            |m| m,
            |_, _| {},
        );
        let total: usize = counts.lock().unwrap().iter().sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn workers_see_the_input_index() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_ref = Arc::clone(&seen);
        run_ordered(
            10..20,
            cfg(3),
            move |_w| {
                let seen = Arc::clone(&seen_ref);
                move |i, x: usize| {
                    seen.lock().unwrap().push((i, x));
                    Ok::<usize, String>(x)
                }
            },
            |m| m,
            |_, _| {},
        );
        let mut pairs = seen.lock().unwrap().clone();
        pairs.sort_unstable();
        assert_eq!(pairs, (0..10).map(|i| (i, 10 + i)).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_stops_feeding_but_drains_fed_items() {
        // Raise the shutdown flag from the first processed item: the feeder
        // stops early, yet every item it DID feed is processed and
        // emitted in order with no gaps.
        let flag = Arc::new(AtomicBool::new(false));
        let worker_flag = Arc::clone(&flag);
        let mut results = Vec::new();
        run_ordered(
            0..1_000_000,
            PoolConfig {
                jobs: 2,
                queue_depth: 4,
                shutdown: Some(Arc::clone(&flag)),
                chunk: 0,
            },
            move |_w| {
                let flag = Arc::clone(&worker_flag);
                move |_i, x: usize| {
                    flag.store(true, Ordering::Relaxed);
                    Ok::<usize, String>(x)
                }
            },
            |m| m,
            |idx, r| results.push((idx, r)),
        );
        assert!(
            results.len() < 1_000_000,
            "shutdown flag did not stop the feeder"
        );
        for (i, (idx, r)) in results.iter().enumerate() {
            assert_eq!(*idx, i, "gap in emitted indices");
            assert_eq!(r, &Ok(i), "fed item was dropped instead of drained");
        }
    }
}
