//! The service-level error taxonomy: every failure a request can hit maps
//! to exactly one [`ServeError`], which in turn maps to one HTTP status
//! and one structured JSON body (see [`crate::json::error_body`]).
//!
//! The split mirrors the shed policy: *client-budget* failures (shed,
//! deadline, cancel) are not the function's fault and never count against
//! its circuit breaker; *execution* failures (kernel faults, panics) do.

use autograph_graph::GraphError;
use std::fmt;

/// Why a request was refused or failed.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// Admission refused the request before it entered the queue: the
    /// queue is full, or the predicted queue wait would consume the
    /// request's deadline budget. Retry after the hinted delay.
    Shed {
        /// Human-readable shed reason (`queue_full`, `predicted_late`,
        /// `expired_in_queue`, `overloaded`, or an injected-fault note).
        reason: String,
        /// Suggested client backoff, echoed as `Retry-After` (seconds,
        /// rounded up).
        retry_after_ms: u64,
    },
    /// The per-function circuit breaker is open: recent executions failed
    /// consecutively and the function is fast-failing while it cools off.
    BreakerOpen {
        /// Time until the next half-open probe is admitted.
        retry_after_ms: u64,
    },
    /// The server is draining (SIGTERM / admin drain): no new work.
    Draining,
    /// The run exceeded the request's propagated deadline while
    /// executing.
    DeadlineExceeded(GraphError),
    /// The client disconnected and the run was cancelled.
    Cancelled,
    /// Graph execution failed (kernel fault or isolated panic). Carries
    /// the structured `GraphError{kind,node,span}` for the response body.
    Graph(GraphError),
    /// Malformed request (bad JSON, wrong arity, bad dtype...).
    BadRequest(String),
    /// `POST /run/<fn>` for a function the loaded program doesn't define,
    /// or one that failed staging (the staging error is echoed).
    UnknownFunction(String),
    /// A server-side invariant broke (worker panic, response channel
    /// gone). Always a clean 500, never a hang.
    Internal(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Shed { .. } | ServeError::BreakerOpen { .. } | ServeError::Draining => 503,
            ServeError::DeadlineExceeded(_) => 504,
            // nginx's convention for "client closed request"; nobody is
            // listening, but logs and tests see a distinct code
            ServeError::Cancelled => 499,
            ServeError::Graph(_) | ServeError::Internal(_) => 500,
            ServeError::BadRequest(_) => 400,
            ServeError::UnknownFunction(_) => 404,
        }
    }

    /// The `Retry-After` hint in milliseconds, when this error carries
    /// one.
    pub(crate) fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::Shed { retry_after_ms, .. }
            | ServeError::BreakerOpen { retry_after_ms } => Some(*retry_after_ms),
            ServeError::Draining => Some(1000),
            _ => None,
        }
    }

    /// The machine-readable error kind for the JSON body.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Shed { .. } => "shed",
            ServeError::BreakerOpen { .. } => "breaker_open",
            ServeError::Draining => "draining",
            ServeError::DeadlineExceeded(_) => "deadline_exceeded",
            ServeError::Cancelled => "cancelled",
            ServeError::Graph(e) => match e.kind {
                autograph_graph::ErrorKind::Panic => "panic",
                _ => "graph_error",
            },
            ServeError::BadRequest(_) => "bad_request",
            ServeError::UnknownFunction(_) => "unknown_function",
            ServeError::Internal(_) => "internal",
        }
    }

    /// The underlying [`GraphError`], when there is one (used to attach
    /// node/span/provenance info to the response body).
    pub fn graph_error(&self) -> Option<&GraphError> {
        match self {
            ServeError::DeadlineExceeded(e) | ServeError::Graph(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this failure counts against the function's circuit
    /// breaker. Client-budget failures (shed/deadline/cancel/drain) and
    /// client mistakes do not; execution faults and panics do.
    pub(crate) fn trips_breaker(&self) -> bool {
        matches!(self, ServeError::Graph(_) | ServeError::Internal(_))
    }

    /// Classify a failed `Session::run_with_options`: cancellation and
    /// deadline expiry keep their identity, everything else is a graph
    /// execution failure.
    pub(crate) fn from_graph(e: GraphError) -> ServeError {
        if e.is_cancelled() {
            ServeError::Cancelled
        } else if e.is_deadline_exceeded() {
            ServeError::DeadlineExceeded(e)
        } else {
            ServeError::Graph(e)
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Shed {
                reason,
                retry_after_ms,
            } => write!(f, "request shed ({reason}); retry after {retry_after_ms}ms"),
            ServeError::BreakerOpen { retry_after_ms } => {
                write!(f, "circuit breaker open; next probe in {retry_after_ms}ms")
            }
            ServeError::Draining => f.write_str("server is draining"),
            ServeError::DeadlineExceeded(e) => write!(f, "{e}"),
            ServeError::Cancelled => f.write_str("client disconnected; run cancelled"),
            ServeError::Graph(e) => write!(f, "{e}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::UnknownFunction(m) => write!(f, "unknown function: {m}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping() {
        assert_eq!(
            ServeError::Shed {
                reason: "queue_full".into(),
                retry_after_ms: 10
            }
            .status(),
            503
        );
        assert_eq!(ServeError::BreakerOpen { retry_after_ms: 5 }.status(), 503);
        assert_eq!(ServeError::Draining.status(), 503);
        assert_eq!(
            ServeError::DeadlineExceeded(GraphError::deadline_exceeded(
                std::time::Duration::from_millis(5)
            ))
            .status(),
            504
        );
        assert_eq!(ServeError::Cancelled.status(), 499);
        assert_eq!(ServeError::Graph(GraphError::runtime("x")).status(), 500);
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::UnknownFunction("g".into()).status(), 404);
    }

    #[test]
    fn breaker_policy_excludes_client_budget_failures() {
        assert!(ServeError::Graph(GraphError::runtime("x")).trips_breaker());
        assert!(ServeError::Internal("x".into()).trips_breaker());
        assert!(!ServeError::Cancelled.trips_breaker());
        assert!(!ServeError::DeadlineExceeded(GraphError::deadline_exceeded(
            std::time::Duration::from_millis(5)
        ))
        .trips_breaker());
        assert!(!ServeError::Shed {
            reason: "q".into(),
            retry_after_ms: 1
        }
        .trips_breaker());
        assert!(!ServeError::BadRequest("x".into()).trips_breaker());
    }

    #[test]
    fn from_graph_classifies() {
        assert!(matches!(
            ServeError::from_graph(GraphError::cancelled()),
            ServeError::Cancelled
        ));
        assert!(matches!(
            ServeError::from_graph(GraphError::deadline_exceeded(
                std::time::Duration::from_millis(1)
            )),
            ServeError::DeadlineExceeded(_)
        ));
        assert!(matches!(
            ServeError::from_graph(GraphError::runtime("boom")),
            ServeError::Graph(_)
        ));
    }
}
