//! Graph staging and execution errors.
//!
//! Appendix B distinguishes *staging* errors (raised while the graph is
//! constructed) from *runtime* errors (raised when the staged IR executes).
//! Both carry the node name and, when available, the original user-source
//! span that produced the node — the error-rewriting half of the source-map
//! machinery.

use autograph_pylang::Span;
use autograph_tensor::TensorError;
use std::fmt;

/// Which execution phase produced the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// While building the graph (invalid argument types/shapes, Appendix B
    /// "staging errors").
    Staging,
    /// While executing the staged IR (Appendix B "runtime errors").
    Runtime,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Staging => f.write_str("staging"),
            Phase::Runtime => f.write_str("graph execution"),
        }
    }
}

/// Classification of a runtime failure beyond its message — what callers
/// branch on to decide recovery (retry, surface, abandon the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorKind {
    /// A kernel/staging failure (the common case).
    #[default]
    Fault,
    /// The run's [`crate::run::CancelToken`] was triggered.
    Cancelled,
    /// The run's deadline (`RunOptions::deadline` /
    /// `AUTOGRAPH_RUN_TIMEOUT_MS`) elapsed.
    DeadlineExceeded,
    /// A kernel panicked and the executor's `catch_unwind` boundary
    /// converted it (the process never aborts).
    Panic,
}

/// An error from graph construction or execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphError {
    /// Which phase failed.
    pub phase: Phase,
    /// Failure classification (cancellation, deadline, panic, or plain
    /// fault).
    pub kind: ErrorKind,
    /// Description of the failure.
    pub message: String,
    /// The name of the graph node involved, when known.
    pub node: Option<String>,
    /// The user-source location that staged the node, when known.
    pub span: Option<Span>,
}

impl GraphError {
    /// A staging-phase error.
    pub(crate) fn staging(message: impl Into<String>) -> Self {
        GraphError {
            phase: Phase::Staging,
            kind: ErrorKind::Fault,
            message: message.into(),
            node: None,
            span: None,
        }
    }

    /// A runtime-phase error.
    pub fn runtime(message: impl Into<String>) -> Self {
        GraphError {
            phase: Phase::Runtime,
            kind: ErrorKind::Fault,
            message: message.into(),
            node: None,
            span: None,
        }
    }

    /// A run cancelled through its [`crate::run::CancelToken`].
    pub fn cancelled() -> Self {
        GraphError {
            kind: ErrorKind::Cancelled,
            ..GraphError::runtime("run cancelled")
        }
    }

    /// A run that outlived its deadline.
    pub fn deadline_exceeded(limit: std::time::Duration) -> Self {
        GraphError {
            kind: ErrorKind::DeadlineExceeded,
            ..GraphError::runtime(format!("run deadline exceeded ({limit:?})"))
        }
    }

    /// A caught kernel panic, with the extracted panic message.
    pub fn panic(message: impl Into<String>) -> Self {
        GraphError {
            kind: ErrorKind::Panic,
            ..GraphError::runtime(message)
        }
    }

    /// Whether this is a cancellation.
    pub fn is_cancelled(&self) -> bool {
        self.kind == ErrorKind::Cancelled
    }

    /// Whether this is a deadline expiry.
    pub fn is_deadline_exceeded(&self) -> bool {
        self.kind == ErrorKind::DeadlineExceeded
    }

    /// Attach the offending node's name. The innermost attribution wins:
    /// an error bubbling out of a While/If body keeps the body node that
    /// actually failed, not the enclosing control-flow node.
    pub fn at_node(mut self, node: impl Into<String>) -> Self {
        if self.node.is_none() {
            self.node = Some(node.into());
        }
        self
    }

    /// Attach the user-source span that staged the node. Like
    /// [`GraphError::at_node`], the innermost (first) non-synthetic span is
    /// kept.
    pub fn at_span(mut self, span: Span) -> Self {
        if self.span.is_none() && !span.is_synthetic() {
            self.span = Some(span);
        }
        self
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.phase, self.message)?;
        if let Some(node) = &self.node {
            write!(f, " (node '{node}')")?;
        }
        if let Some(span) = &self.span {
            write!(f, " [from original source {span}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for GraphError {}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::runtime(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_node_and_span() {
        let e = GraphError::runtime("division by zero")
            .at_node("div_3")
            .at_span(Span::new(7, 5));
        let s = e.to_string();
        assert!(s.contains("graph execution"));
        assert!(s.contains("div_3"));
        assert!(s.contains("7:5"));
    }

    #[test]
    fn staging_phase_display() {
        assert!(GraphError::staging("bad dtype")
            .to_string()
            .starts_with("staging error"));
    }

    #[test]
    fn tensor_error_converts() {
        let te = TensorError::RankMismatch {
            op: "matmul",
            got: 1,
            expected: "2",
        };
        let ge: GraphError = te.into();
        assert_eq!(ge.phase, Phase::Runtime);
    }

    #[test]
    fn innermost_attribution_wins() {
        // nested frames (While body → While node) each call at_node/at_span;
        // the first — innermost — attribution must survive
        let e = GraphError::runtime("boom")
            .at_node("body/matmul_1")
            .at_span(Span::new(4, 9))
            .at_node("while_4")
            .at_span(Span::new(3, 5));
        assert_eq!(e.node.as_deref(), Some("body/matmul_1"));
        assert_eq!(e.span, Some(Span::new(4, 9)));
        // a synthetic inner span leaves room for the outer frame's real one
        let e = GraphError::runtime("boom")
            .at_span(Span::synthetic())
            .at_span(Span::new(3, 5));
        assert_eq!(e.span, Some(Span::new(3, 5)));
    }

    #[test]
    fn synthetic_span_not_attached() {
        let e = GraphError::runtime("x").at_span(Span::synthetic());
        assert!(e.span.is_none());
    }

    #[test]
    fn kind_predicates() {
        assert!(GraphError::cancelled().is_cancelled());
        assert!(!GraphError::cancelled().is_deadline_exceeded());
        let d = GraphError::deadline_exceeded(std::time::Duration::from_millis(5));
        assert!(d.is_deadline_exceeded());
        assert!(d.to_string().contains("deadline exceeded"));
        assert_eq!(GraphError::runtime("x").kind, ErrorKind::Fault);
        assert_eq!(GraphError::panic("boom").kind, ErrorKind::Panic);
    }
}
