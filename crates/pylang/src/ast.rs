//! The PyLite abstract syntax tree.
//!
//! Every node carries a [`Span`] pointing back at the user's original
//! source; synthesized nodes produced by conversion passes use
//! [`Span::synthetic`] unless the pass copies the span of the construct it
//! replaced (which is how AutoGraph's source maps work, Appendix B).

use crate::Span;

/// A whole source module: a sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Module {
    /// Find a top-level function definition by name.
    pub fn function(&self, name: &str) -> Option<&Stmt> {
        self.body
            .iter()
            .find(|s| matches!(&s.kind, StmtKind::FunctionDef { name: n, .. } if n == name))
    }
}

/// A function parameter (positional, with optional default).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Default value, if any.
    pub default: Option<Expr>,
}

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Construct a statement at a span.
    pub fn new(kind: StmtKind, span: Span) -> Stmt {
        Stmt { kind, span }
    }

    /// Construct a synthesized statement (no user-source origin).
    pub fn synthetic(kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::synthetic(),
        }
    }
}

/// The statement kinds of PyLite.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `def name(params): body`, possibly decorated.
    FunctionDef {
        /// Function name.
        name: String,
        /// Positional parameters.
        params: Vec<Param>,
        /// Body statements.
        body: Vec<Stmt>,
        /// Decorator expressions, outermost first.
        decorators: Vec<Expr>,
    },
    /// `return` with optional value.
    Return(Option<Expr>),
    /// `target = value` (target may be a Name, Tuple, Attribute or
    /// Subscript).
    Assign {
        /// Assignment target.
        target: Expr,
        /// Right-hand side.
        value: Expr,
    },
    /// `target op= value`.
    AugAssign {
        /// Assignment target.
        target: Expr,
        /// The arithmetic operator.
        op: BinOp,
        /// Right-hand side.
        value: Expr,
    },
    /// `if test: body [elif/else: orelse]` — `elif` chains become nested
    /// `If` in `orelse`.
    If {
        /// Condition.
        test: Expr,
        /// True branch.
        body: Vec<Stmt>,
        /// False branch (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// `while test: body`.
    While {
        /// Loop condition.
        test: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for target in iter: body`.
    For {
        /// Loop variable (Name or Tuple).
        target: Expr,
        /// Iterated expression.
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `pass`.
    Pass,
    /// `assert test[, msg]`.
    Assert {
        /// The asserted condition.
        test: Expr,
        /// Optional message.
        msg: Option<Expr>,
    },
    /// An expression evaluated for side effects.
    ExprStmt(Expr),
    /// `global names` — parsed, but rejected by conversion (Table 6).
    Global(Vec<String>),
    /// `nonlocal names` — parsed, but rejected by conversion (Table 6).
    Nonlocal(Vec<String>),
    /// `del name` — used by the undefined-symbol machinery.
    Del(Vec<String>),
    /// `raise expr` — passes through conversion unconverted (Table 4).
    Raise(Option<Expr>),
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Construct an expression at a span.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// Construct a synthesized expression.
    pub fn synthetic(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::synthetic(),
        }
    }

    /// Shorthand: a name expression with a synthetic span.
    pub fn name(n: impl Into<String>) -> Expr {
        Expr::synthetic(ExprKind::Name(n.into()))
    }

    /// Shorthand: a call with positional args and a synthetic span.
    pub fn call(func: Expr, args: Vec<Expr>) -> Expr {
        Expr::synthetic(ExprKind::Call {
            func: Box::new(func),
            args,
            kwargs: Vec::new(),
        })
    }

    /// Shorthand: dotted attribute path, e.g. `attr_path("ag", &["if_stmt"])`.
    pub fn attr_path(base: &str, attrs: &[&str]) -> Expr {
        let mut e = Expr::name(base);
        for a in attrs {
            e = Expr::synthetic(ExprKind::Attribute {
                value: Box::new(e),
                attr: (*a).to_string(),
            });
        }
        e
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
    /// `**`
    Pow,
}

impl BinOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `+`
    Pos,
    /// `not`
    Not,
}

/// Boolean (short-circuit) operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoolOpKind {
    /// `and`
    And,
    /// `or`
    Or,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    NotEq,
    /// `is`
    Is,
    /// `is not`
    IsNot,
    /// `in`
    In,
    /// `not in`
    NotIn,
}

impl CmpOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::NotEq => "!=",
            CmpOp::Is => "is",
            CmpOp::IsNot => "is not",
            CmpOp::In => "in",
            CmpOp::NotIn => "not in",
        }
    }
}

/// Subscript index: single expression or a `[lower:upper]` slice.
#[derive(Debug, Clone, PartialEq)]
pub enum Index {
    /// `x[i]`
    Single(Expr),
    /// `x[lo:hi]` (either bound optional)
    Slice {
        /// Lower bound.
        lower: Option<Expr>,
        /// Upper bound.
        upper: Option<Expr>,
    },
}

/// The expression kinds of PyLite.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A bare name.
    Name(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `True` / `False`.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// `value.attr`.
    Attribute {
        /// Object expression.
        value: Box<Expr>,
        /// Attribute name.
        attr: String,
    },
    /// `value[index]`.
    Subscript {
        /// Subscripted expression.
        value: Box<Expr>,
        /// Index or slice.
        index: Box<Index>,
    },
    /// `func(args, kw=...)`.
    Call {
        /// Callee.
        func: Box<Expr>,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(String, Expr)>,
    },
    /// Binary arithmetic.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `a and b and c` / `a or b` (short-circuit).
    BoolOp {
        /// Which operator.
        op: BoolOpKind,
        /// Operands, length >= 2.
        values: Vec<Expr>,
    },
    /// Chained comparison `a < b <= c`.
    Compare {
        /// Leftmost operand.
        left: Box<Expr>,
        /// Operators, one per comparator.
        ops: Vec<CmpOp>,
        /// Right-hand operands.
        comparators: Vec<Expr>,
    },
    /// Ternary `body if test else orelse`.
    IfExp {
        /// Condition.
        test: Box<Expr>,
        /// Value when true.
        body: Box<Expr>,
        /// Value when false.
        orelse: Box<Expr>,
    },
    /// List literal.
    List(Vec<Expr>),
    /// Tuple literal / tuple target.
    Tuple(Vec<Expr>),
    /// `lambda params: body`.
    Lambda {
        /// Parameters.
        params: Vec<Param>,
        /// Body expression.
        body: Box<Expr>,
    },
}

/// Walk helper: visit every statement in a body tree (pre-order),
/// including nested function bodies.
pub fn walk_stmts<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        match &s.kind {
            StmtKind::FunctionDef { body, .. } => walk_stmts(body, f),
            StmtKind::If { body, orelse, .. } => {
                walk_stmts(body, f);
                walk_stmts(orelse, f);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_function_lookup() {
        let m = Module {
            body: vec![
                Stmt::synthetic(StmtKind::Pass),
                Stmt::synthetic(StmtKind::FunctionDef {
                    name: "f".into(),
                    params: vec![],
                    body: vec![Stmt::synthetic(StmtKind::Pass)],
                    decorators: vec![],
                }),
            ],
        };
        assert!(m.function("f").is_some());
        assert!(m.function("g").is_none());
    }

    #[test]
    fn expr_builders() {
        let e = Expr::attr_path("ag", &["if_stmt"]);
        match &e.kind {
            ExprKind::Attribute { value, attr } => {
                assert_eq!(attr, "if_stmt");
                assert!(matches!(&value.kind, ExprKind::Name(n) if n == "ag"));
            }
            _ => panic!("expected attribute"),
        }
    }

    #[test]
    fn walk_visits_nested() {
        let m = crate::parse_module("def f(x):\n    if x:\n        while x:\n            pass\n")
            .unwrap();
        let mut count = 0;
        walk_stmts(&m.body, &mut |_| count += 1);
        assert_eq!(count, 4); // def, if, while, pass
    }

    #[test]
    fn op_strings() {
        assert_eq!(BinOp::FloorDiv.as_str(), "//");
        assert_eq!(CmpOp::IsNot.as_str(), "is not");
    }
}
