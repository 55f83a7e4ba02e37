//! Qualified-name resolution (§7.1).
//!
//! Extends the notion of a symbol to compound names such as `a.b`, so that
//! activity analysis can report `a.b = c` as modifying `a.b` (and not `a`).

use autograph_pylang::{Expr, ExprKind};
use std::fmt;

/// A (possibly dotted) symbol name: `a`, `a.b`, `a.b.c` …
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct QualName(Vec<String>);

impl QualName {
    /// A simple (undotted) name.
    pub(crate) fn simple(name: impl Into<String>) -> QualName {
        QualName(vec![name.into()])
    }

    /// The root symbol (`a` for `a.b.c`).
    pub fn root(&self) -> &str {
        &self.0[0]
    }

    /// True for undotted names.
    pub(crate) fn is_simple(&self) -> bool {
        self.0.len() == 1
    }

    /// Extend with another attribute: `a.b` + `c` = `a.b.c`.
    pub fn attr(&self, name: impl Into<String>) -> QualName {
        let mut parts = self.0.clone();
        parts.push(name.into());
        QualName(parts)
    }
}

impl fmt::Display for QualName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.join("."))
    }
}

/// Resolve an expression to a qualified name if it is one
/// (`Name` or a chain of `Attribute`s over a `Name`).
pub(crate) fn qualname_of(expr: &Expr) -> Option<QualName> {
    match &expr.kind {
        ExprKind::Name(n) => Some(QualName::simple(n.clone())),
        ExprKind::Attribute { value, attr } => {
            let base = qualname_of(value)?;
            Some(base.attr(attr.clone()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::parse_module;
    use autograph_pylang::StmtKind;

    fn expr_of(src: &str) -> Expr {
        let m = parse_module(src).unwrap();
        match m.body.into_iter().next().unwrap().kind {
            StmtKind::ExprStmt(e) => e,
            _ => panic!("expected expression statement"),
        }
    }

    #[test]
    fn simple_and_dotted() {
        assert_eq!(qualname_of(&expr_of("a\n")).unwrap().to_string(), "a");
        let q = qualname_of(&expr_of("a.b.c\n")).unwrap();
        assert_eq!(q.to_string(), "a.b.c");
        assert_eq!(q.root(), "a");
        assert!(!q.is_simple());
    }

    #[test]
    fn non_names_resolve_to_none() {
        assert!(qualname_of(&expr_of("f(x)\n")).is_none());
        assert!(qualname_of(&expr_of("a[0]\n")).is_none());
        assert!(qualname_of(&expr_of("f(x).b\n")).is_none());
        assert!(qualname_of(&expr_of("1 + 2\n")).is_none());
    }

    #[test]
    fn attr_builder() {
        let q = QualName::simple("tf").attr("matmul");
        assert_eq!(q.to_string(), "tf.matmul");
    }

    #[test]
    fn ordering_deterministic() {
        let mut v = [
            QualName::simple("b"),
            QualName::simple("a"),
            QualName::simple("a").attr("x"),
        ];
        v.sort();
        let s: Vec<String> = v.iter().map(|q| q.to_string()).collect();
        assert_eq!(s, vec!["a", "a.x", "b"]);
    }
}
