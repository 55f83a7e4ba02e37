//! Resilient graph serving for AutoGraph: a std-only HTTP/JSON server
//! that stages a PyLite program once per content hash and serves
//! concurrent `POST /run/<fn>` requests against the shared immutable
//! plans — with admission control, deadline propagation, load shedding,
//! per-function circuit breakers, graceful drain, and opportunistic
//! dynamic batching.
//!
//! The serving pipeline (each `→` is a module):
//!
//! ```text
//! HTTP bytes → http → json (wire tensors) → admission (shed or queue)
//!            → server workers → batch? → registry sessions → graph run
//! ```
//!
//! See `DESIGN.md` §"Serving & overload behavior" for the policy
//! rationale and `README.md` for the curl-able quickstart.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub(crate) mod admission;
pub(crate) mod batch;
pub(crate) mod breaker;
pub mod client;
pub mod error;
pub(crate) mod http;
pub mod json;
pub mod prom;
pub mod registry;
pub mod server;
pub mod telemetry;

pub use error::ServeError;
pub use registry::{reset_stage_memo, ModelRegistry, RegistryConfig};
pub use server::{Server, ServerConfig};
pub use telemetry::{Telemetry, TelemetryConfig};
