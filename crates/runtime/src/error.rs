//! Runtime errors with original-source attribution (Appendix B).
//!
//! Because conversion passes stamp every synthesized AST node with the
//! span of the user construct it replaced, the interpreter's errors point
//! at the user's original source with no separate lookup — the error
//! message shows the offending line even when the failure happened deep in
//! generated code.

use autograph_pylang::Span;
use std::fmt;

/// An error raised while interpreting (possibly converted) PyLite code,
/// staging a graph, or executing a staged IR.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// What went wrong.
    pub message: String,
    /// Location in the user's original source.
    pub span: Span,
    /// Function-call stack (innermost last), as `(function, call-site)`.
    pub frames: Vec<(String, Span)>,
}

impl RuntimeError {
    /// New error with no location.
    pub fn new(message: impl Into<String>) -> Self {
        RuntimeError {
            message: message.into(),
            span: Span::synthetic(),
            frames: Vec::new(),
        }
    }

    /// Attach a location if none is set yet (innermost wins).
    pub fn at(mut self, span: Span) -> Self {
        if self.span.is_synthetic() && !span.is_synthetic() {
            self.span = span;
        }
        self
    }

    /// Push a stack frame (outermost calls push last).
    pub(crate) fn in_frame(mut self, name: &str, span: Span) -> Self {
        self.frames.push((name.to_string(), span));
        self
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error at {}: {}", self.span, self.message)?;
        for (name, span) in &self.frames {
            write!(f, "\n    in {name} (called at {span})")?;
        }
        Ok(())
    }
}

impl std::error::Error for RuntimeError {}

impl From<autograph_tensor::TensorError> for RuntimeError {
    fn from(e: autograph_tensor::TensorError) -> Self {
        RuntimeError::new(e.to_string())
    }
}

impl From<autograph_eager::EagerError> for RuntimeError {
    fn from(e: autograph_eager::EagerError) -> Self {
        RuntimeError::new(e.to_string())
    }
}

impl From<autograph_graph::GraphError> for RuntimeError {
    fn from(e: autograph_graph::GraphError) -> Self {
        let mut err = RuntimeError::new(e.to_string());
        if let Some(span) = e.span {
            err.span = span;
        }
        err
    }
}

impl From<autograph_lantern::LanternError> for RuntimeError {
    fn from(e: autograph_lantern::LanternError) -> Self {
        RuntimeError::new(e.to_string())
    }
}

impl From<autograph_transforms::ConversionError> for RuntimeError {
    fn from(e: autograph_transforms::ConversionError) -> Self {
        RuntimeError::new(e.message.clone()).at(e.span)
    }
}

impl From<autograph_pylang::ParseError> for RuntimeError {
    fn from(e: autograph_pylang::ParseError) -> Self {
        RuntimeError::new(e.message.clone()).at(e.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn innermost_span_wins() {
        let e = RuntimeError::new("boom")
            .at(Span::new(3, 1))
            .at(Span::new(9, 9));
        assert_eq!(e.span, Span::new(3, 1));
    }

    #[test]
    fn display_with_frames() {
        let e = RuntimeError::new("bad")
            .at(Span::new(2, 5))
            .in_frame("inner", Span::new(10, 1))
            .in_frame("outer", Span::new(20, 1));
        let s = e.to_string();
        assert!(s.contains("2:5"));
        assert!(s.contains("in inner (called at 10:1)"));
        assert!(s.contains("in outer"));
    }

    #[test]
    fn graph_error_span_propagates() {
        let ge = autograph_graph::GraphError::runtime("x").at_span(Span::new(4, 2));
        let re: RuntimeError = ge.into();
        assert_eq!(re.span, Span::new(4, 2));
    }
}
