//! # cmr-serve — the resident extraction service
//!
//! Every other entry point in this codebase is batch: read a corpus, run
//! it, exit. The north star (heavy EHR traffic, many concurrent callers)
//! needs the opposite shape — a process that stays up with *warm* state:
//! the string interner, the shared two-generation parse cache, and the
//! ontology's concept table are built once and reused by every request,
//! so steady-state latency reflects extraction work, not setup.
//!
//! The crate is three small layers:
//!
//! * [`http`] — a deliberately minimal HTTP/1.1 implementation over
//!   `std::net` (no async runtime, no external dependencies, same
//!   philosophy as the vendored serde): sized bodies, keep-alive,
//!   pipelining, `Expect: 100-continue`, chunked responses.
//! * [`ndjson`] — the NDJSON note reader shared by `cmr extract -` and
//!   the batch endpoint (one definition of "skip blank lines").
//! * [`Server`] — an accept loop blocked in `poll(2)` on the listener,
//!   the idle connections and a wake socket; a bounded work queue with
//!   `429` admission control; a worker pool over
//!   [`cmr_engine::ServiceHandle`]; and graceful drain on the shared
//!   shutdown flag.
//!
//! Endpoints: `POST /extract` (one note in, one record out),
//! `POST /extract/batch` (NDJSON in, streamed NDJSON out),
//! `GET /health` (readiness + the build fingerprint),
//! `GET /metrics` (cumulative [`cmr_engine::EngineMetrics`] including
//! request-latency histograms).

// `deny`, not `forbid`: the server's `poll(2)` call (`server::wait_ready`)
// is the one `#[allow(unsafe_code)]` item; nothing else may be unsafe.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod http;
pub mod ndjson;
mod server;

pub use server::{ServeConfig, ServeError, ServeSummary, Server};
