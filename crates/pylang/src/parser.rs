//! Recursive-descent parser for PyLite.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};
use crate::Span;

/// How deep the parser follows nesting — parentheses, brackets, unary and
/// `**` chains, ternaries, lambdas and statement suites share one count —
/// before it returns an error instead of recursing further. Source is
/// untrusted input, and one parenthesis level is thirteen frames: an
/// unoptimized build measures 21 KB of stack per level, so 64 levels fit
/// a 2 MB thread (1.3 MB) and CPython's own limit of 200 would not.
///
/// Each link of a chain the parser builds in a loop (`a + b + …`,
/// `a and b and …`, `a < b < …`, `x.y(z)[i]…`) takes one level too: the
/// loop does not recurse, but the tree it builds is one level deeper per
/// link, and conversion, staging, the interpreter and `Drop` all recurse
/// on it. In an unoptimized build on a 2 MB thread the whole pipeline
/// survives an `and` chain of 82 operands, a comparison chain of 83, a
/// call chain of 181 and `+`, `*`, attribute and subscript chains of
/// 215–216. No program in the tests, examples, models or fuzz seeds
/// 0..500 goes deeper than 25 levels, so the same 64 bounds chains too.
const MAX_DEPTH: usize = 64;

/// The PyLite parser. Construct with [`Parser::new`] then call
/// [`Parser::parse_module`].
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels currently open; see [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    /// Tokenize `source` and prepare a parser.
    ///
    /// # Errors
    ///
    /// Returns lexical errors.
    pub fn new(source: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: tokenize(source)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Run `f` one nesting level down. Every recursive cycle in the
    /// grammar goes through here, so recursion depth is bounded by
    /// [`MAX_DEPTH`] whatever the input.
    fn nested<T>(&mut self, f: fn(&mut Parser) -> Result<T, ParseError>) -> Result<T, ParseError> {
        self.descend()?;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Take one level of the [`MAX_DEPTH`] budget. A chain loop calls this
    /// once per link and puts `depth` back when the chain ends.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::new(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.peek_span(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                format!("expected {}, found {}", kind, self.peek()),
                self.peek_span(),
            ))
        }
    }

    fn expect_name(&mut self) -> Result<(String, Span), ParseError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Name(n) => {
                self.bump();
                Ok((n, span))
            }
            other => Err(ParseError::new(
                format!("expected a name, found {other}"),
                span,
            )),
        }
    }

    /// Parse the whole token stream as a module.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error encountered.
    pub fn parse_module(&mut self) -> Result<Module, ParseError> {
        let mut body = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Newline => {
                    self.bump();
                }
                _ => body.push(self.parse_stmt()?),
            }
        }
        Ok(Module { body })
    }

    /// One statement; compound statements recurse here through
    /// [`Parser::parse_suite`], one level per nested block.
    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Parser::parse_stmt_unbounded)
    }

    fn parse_stmt_unbounded(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        match self.peek() {
            TokenKind::At | TokenKind::Def => self.parse_funcdef(),
            TokenKind::If => self.parse_if(),
            TokenKind::While => self.parse_while(),
            TokenKind::For => self.parse_for(),
            TokenKind::Return => {
                self.bump();
                let value = if matches!(self.peek(), TokenKind::Newline) {
                    None
                } else {
                    Some(self.parse_testlist()?)
                };
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::Return(value), span))
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::Break, span))
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::Continue, span))
            }
            TokenKind::Pass => {
                self.bump();
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::Pass, span))
            }
            TokenKind::Assert => {
                self.bump();
                let test = self.parse_test()?;
                let msg = if self.eat(&TokenKind::Comma) {
                    Some(self.parse_test()?)
                } else {
                    None
                };
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::Assert { test, msg }, span))
            }
            TokenKind::Global | TokenKind::Nonlocal => {
                let is_global = matches!(self.peek(), TokenKind::Global);
                self.bump();
                let mut names = vec![self.expect_name()?.0];
                while self.eat(&TokenKind::Comma) {
                    names.push(self.expect_name()?.0);
                }
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(
                    if is_global {
                        StmtKind::Global(names)
                    } else {
                        StmtKind::Nonlocal(names)
                    },
                    span,
                ))
            }
            TokenKind::Del => {
                self.bump();
                let mut names = vec![self.expect_name()?.0];
                while self.eat(&TokenKind::Comma) {
                    names.push(self.expect_name()?.0);
                }
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::Del(names), span))
            }
            TokenKind::Raise => {
                self.bump();
                let value = if matches!(self.peek(), TokenKind::Newline) {
                    None
                } else {
                    Some(self.parse_test()?)
                };
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::Raise(value), span))
            }
            TokenKind::Yield => Err(ParseError::new(
                "yield is not allowed in PyLite (Table 4: generators are not supported)",
                span,
            )),
            TokenKind::Try => Err(ParseError::new(
                "try/except is outside the PyLite subset; see Table 4",
                span,
            )),
            _ => self.parse_expr_or_assign(),
        }
    }

    fn parse_funcdef(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        let mut decorators = Vec::new();
        while self.eat(&TokenKind::At) {
            decorators.push(self.parse_test()?);
            self.expect(TokenKind::Newline)?;
        }
        self.expect(TokenKind::Def)?;
        let (name, _) = self.expect_name()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        while !matches!(self.peek(), TokenKind::RParen) {
            let (pname, _) = self.expect_name()?;
            let default = if self.eat(&TokenKind::Assign) {
                Some(self.parse_test()?)
            } else {
                None
            };
            params.push(Param {
                name: pname,
                default,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        if self.eat(&TokenKind::Arrow) {
            // return annotation: parse and discard
            let _ = self.parse_test()?;
        }
        self.expect(TokenKind::Colon)?;
        let body = self.parse_suite()?;
        Ok(Stmt::new(
            StmtKind::FunctionDef {
                name,
                params,
                body,
                decorators,
            },
            span,
        ))
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        self.bump(); // if / elif
        let test = self.parse_test()?;
        self.expect(TokenKind::Colon)?;
        let body = self.parse_suite()?;
        let orelse = match self.peek() {
            TokenKind::Elif => vec![self.nested(Parser::parse_if)?],
            TokenKind::Else => {
                self.bump();
                self.expect(TokenKind::Colon)?;
                self.parse_suite()?
            }
            _ => Vec::new(),
        };
        Ok(Stmt::new(StmtKind::If { test, body, orelse }, span))
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        self.bump();
        let test = self.parse_test()?;
        self.expect(TokenKind::Colon)?;
        let body = self.parse_suite()?;
        Ok(Stmt::new(StmtKind::While { test, body }, span))
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        self.bump();
        let target = self.parse_target_list()?;
        self.expect(TokenKind::In)?;
        let iter = self.parse_testlist()?;
        self.expect(TokenKind::Colon)?;
        let body = self.parse_suite()?;
        Ok(Stmt::new(StmtKind::For { target, iter, body }, span))
    }

    fn parse_suite(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat(&TokenKind::Newline) {
            self.expect(TokenKind::Indent)?;
            let mut body = Vec::new();
            while !matches!(self.peek(), TokenKind::Dedent | TokenKind::Eof) {
                if self.eat(&TokenKind::Newline) {
                    continue;
                }
                body.push(self.parse_stmt()?);
            }
            self.expect(TokenKind::Dedent)?;
            if body.is_empty() {
                return Err(ParseError::new("empty block", self.peek_span()));
            }
            Ok(body)
        } else {
            // inline suite: single simple statement on the same line
            let stmt = self.parse_stmt()?;
            Ok(vec![stmt])
        }
    }

    fn parse_expr_or_assign(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        let first = self.parse_testlist()?;
        match self.peek().clone() {
            TokenKind::Assign => {
                self.bump();
                let mut chain = vec![first];
                let mut value = self.parse_testlist()?;
                while self.eat(&TokenKind::Assign) {
                    chain.push(value);
                    value = self.parse_testlist()?;
                }
                self.expect(TokenKind::Newline)?;
                // `a = b = v` desugars to consecutive assignments.
                let (Some(target), None) = (chain.pop(), chain.pop()) else {
                    return Err(ParseError::new(
                        "chained assignment is not supported in PyLite",
                        span,
                    ));
                };
                Self::check_target(&target)?;
                Ok(Stmt::new(StmtKind::Assign { target, value }, span))
            }
            k @ (TokenKind::PlusAssign
            | TokenKind::MinusAssign
            | TokenKind::StarAssign
            | TokenKind::SlashAssign) => {
                self.bump();
                let op = match k {
                    TokenKind::PlusAssign => BinOp::Add,
                    TokenKind::MinusAssign => BinOp::Sub,
                    TokenKind::StarAssign => BinOp::Mul,
                    TokenKind::SlashAssign => BinOp::Div,
                    _ => unreachable!(),
                };
                let value = self.parse_testlist()?;
                self.expect(TokenKind::Newline)?;
                Self::check_target(&first)?;
                Ok(Stmt::new(
                    StmtKind::AugAssign {
                        target: first,
                        op,
                        value,
                    },
                    span,
                ))
            }
            _ => {
                self.expect(TokenKind::Newline)?;
                Ok(Stmt::new(StmtKind::ExprStmt(first), span))
            }
        }
    }

    fn check_target(e: &Expr) -> Result<(), ParseError> {
        match &e.kind {
            ExprKind::Name(_) | ExprKind::Attribute { .. } | ExprKind::Subscript { .. } => Ok(()),
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                for i in items {
                    Self::check_target(i)?;
                }
                Ok(())
            }
            _ => Err(ParseError::new("invalid assignment target", e.span)),
        }
    }

    fn parse_target_list(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        let first = self.parse_postfix()?;
        if matches!(self.peek(), TokenKind::Comma) {
            let mut items = vec![first];
            while self.eat(&TokenKind::Comma) {
                if matches!(self.peek(), TokenKind::In) {
                    break;
                }
                items.push(self.parse_postfix()?);
            }
            Ok(Expr::new(ExprKind::Tuple(items), span))
        } else {
            Ok(first)
        }
    }

    /// testlist: test (',' test)* — builds a tuple when more than one.
    fn parse_testlist(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        let first = self.parse_test()?;
        if matches!(self.peek(), TokenKind::Comma) {
            let mut items = vec![first];
            while self.eat(&TokenKind::Comma) {
                if matches!(
                    self.peek(),
                    TokenKind::Newline
                        | TokenKind::Assign
                        | TokenKind::RParen
                        | TokenKind::RBracket
                        | TokenKind::Eof
                ) {
                    break;
                }
                items.push(self.parse_test()?);
            }
            Ok(Expr::new(ExprKind::Tuple(items), span))
        } else {
            Ok(first)
        }
    }

    /// test: ternary conditional or lambda. Every bracketed, argument,
    /// default-value and lambda-body expression re-enters the grammar here,
    /// one level per re-entry.
    pub(crate) fn parse_test(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::parse_test_unbounded)
    }

    fn parse_test_unbounded(&mut self) -> Result<Expr, ParseError> {
        if matches!(self.peek(), TokenKind::Lambda) {
            return self.parse_lambda();
        }
        let span = self.peek_span();
        let body = self.parse_or_test()?;
        if self.eat(&TokenKind::If) {
            let test = self.parse_or_test()?;
            self.expect(TokenKind::Else)?;
            let orelse = self.parse_test()?;
            Ok(Expr::new(
                ExprKind::IfExp {
                    test: Box::new(test),
                    body: Box::new(body),
                    orelse: Box::new(orelse),
                },
                span,
            ))
        } else {
            Ok(body)
        }
    }

    fn parse_lambda(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        self.expect(TokenKind::Lambda)?;
        let mut params = Vec::new();
        while !matches!(self.peek(), TokenKind::Colon) {
            let (name, _) = self.expect_name()?;
            let default = if self.eat(&TokenKind::Assign) {
                Some(self.parse_test()?)
            } else {
                None
            };
            params.push(Param { name, default });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Colon)?;
        let body = self.parse_test()?;
        Ok(Expr::new(
            ExprKind::Lambda {
                params,
                body: Box::new(body),
            },
            span,
        ))
    }

    fn parse_or_test(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        let first = self.parse_and_test()?;
        if !matches!(self.peek(), TokenKind::Or) {
            return Ok(first);
        }
        let depth = self.depth;
        let mut values = vec![first];
        while matches!(self.peek(), TokenKind::Or) {
            self.descend()?;
            self.bump();
            values.push(self.parse_and_test()?);
        }
        self.depth = depth;
        Ok(Expr::new(
            ExprKind::BoolOp {
                op: BoolOpKind::Or,
                values,
            },
            span,
        ))
    }

    fn parse_and_test(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        let first = self.parse_not_test()?;
        if !matches!(self.peek(), TokenKind::And) {
            return Ok(first);
        }
        let depth = self.depth;
        let mut values = vec![first];
        while matches!(self.peek(), TokenKind::And) {
            self.descend()?;
            self.bump();
            values.push(self.parse_not_test()?);
        }
        self.depth = depth;
        Ok(Expr::new(
            ExprKind::BoolOp {
                op: BoolOpKind::And,
                values,
            },
            span,
        ))
    }

    fn parse_not_test(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        if self.eat(&TokenKind::Not) {
            let operand = self.nested(Parser::parse_not_test)?;
            Ok(Expr::new(
                ExprKind::UnaryOp {
                    op: UnaryOp::Not,
                    operand: Box::new(operand),
                },
                span,
            ))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        let left = self.parse_arith()?;
        let mut ops = Vec::new();
        let mut comparators = Vec::new();
        let depth = self.depth;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => CmpOp::Lt,
                TokenKind::Le => CmpOp::Le,
                TokenKind::Gt => CmpOp::Gt,
                TokenKind::Ge => CmpOp::Ge,
                TokenKind::EqEq => CmpOp::Eq,
                TokenKind::NotEq => CmpOp::NotEq,
                TokenKind::In => CmpOp::In,
                TokenKind::Is => CmpOp::Is,
                TokenKind::Not => CmpOp::NotIn,
                _ => break,
            };
            self.descend()?;
            self.bump();
            let op = match op {
                CmpOp::Is if self.eat(&TokenKind::Not) => CmpOp::IsNot,
                CmpOp::NotIn => {
                    self.expect(TokenKind::In)?;
                    CmpOp::NotIn
                }
                op => op,
            };
            ops.push(op);
            comparators.push(self.parse_arith()?);
        }
        self.depth = depth;
        if ops.is_empty() {
            Ok(left)
        } else {
            Ok(Expr::new(
                ExprKind::Compare {
                    left: Box::new(left),
                    ops,
                    comparators,
                },
                span,
            ))
        }
    }

    fn parse_arith(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_term()?;
        let depth = self.depth;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            let span = left.span;
            self.descend()?;
            self.bump();
            let right = self.parse_term()?;
            left = Expr::new(
                ExprKind::BinOp {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_factor()?;
        let depth = self.depth;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::DoubleSlash => BinOp::FloorDiv,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            let span = left.span;
            self.descend()?;
            self.bump();
            let right = self.parse_factor()?;
            left = Expr::new(
                ExprKind::BinOp {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                span,
            );
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(Parser::parse_factor)?;
                Ok(Expr::new(
                    ExprKind::UnaryOp {
                        op: UnaryOp::Neg,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Plus => {
                self.bump();
                let operand = self.nested(Parser::parse_factor)?;
                Ok(Expr::new(
                    ExprKind::UnaryOp {
                        op: UnaryOp::Pos,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            _ => self.parse_power(),
        }
    }

    fn parse_power(&mut self) -> Result<Expr, ParseError> {
        let base = self.parse_postfix()?;
        if self.eat(&TokenKind::DoubleStar) {
            let span = base.span;
            let exp = self.nested(Parser::parse_factor)?; // right-assoc
            Ok(Expr::new(
                ExprKind::BinOp {
                    op: BinOp::Pow,
                    left: Box::new(base),
                    right: Box::new(exp),
                },
                span,
            ))
        } else {
            Ok(base)
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_atom()?;
        let depth = self.depth;
        loop {
            let span = self.peek_span();
            match self.peek() {
                TokenKind::LParen => {
                    self.descend()?;
                    self.bump();
                    let mut args = Vec::new();
                    let mut kwargs = Vec::new();
                    while !matches!(self.peek(), TokenKind::RParen) {
                        // keyword arg: NAME '=' test (lookahead)
                        if let TokenKind::Name(n) = self.peek().clone() {
                            if self.tokens[self.pos + 1].kind == TokenKind::Assign {
                                self.bump();
                                self.bump();
                                let v = self.parse_test()?;
                                kwargs.push((n, v));
                                if !self.eat(&TokenKind::Comma) {
                                    break;
                                }
                                continue;
                            }
                        }
                        if !kwargs.is_empty() {
                            return Err(ParseError::new(
                                "positional argument follows keyword argument",
                                self.peek_span(),
                            ));
                        }
                        args.push(self.parse_test()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    e = Expr::new(
                        ExprKind::Call {
                            func: Box::new(e),
                            args,
                            kwargs,
                        },
                        span,
                    );
                }
                TokenKind::LBracket => {
                    self.descend()?;
                    self.bump();
                    let index = self.parse_subscript()?;
                    self.expect(TokenKind::RBracket)?;
                    e = Expr::new(
                        ExprKind::Subscript {
                            value: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                TokenKind::Dot => {
                    self.descend()?;
                    self.bump();
                    let (attr, _) = self.expect_name()?;
                    e = Expr::new(
                        ExprKind::Attribute {
                            value: Box::new(e),
                            attr,
                        },
                        span,
                    );
                }
                _ => break,
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn parse_subscript(&mut self) -> Result<Index, ParseError> {
        if matches!(self.peek(), TokenKind::Colon) {
            self.bump();
            let upper = if matches!(self.peek(), TokenKind::RBracket) {
                None
            } else {
                Some(self.parse_test()?)
            };
            return Ok(Index::Slice { lower: None, upper });
        }
        let first = self.parse_test()?;
        if self.eat(&TokenKind::Colon) {
            let upper = if matches!(self.peek(), TokenKind::RBracket) {
                None
            } else {
                Some(self.parse_test()?)
            };
            Ok(Index::Slice {
                lower: Some(first),
                upper,
            })
        } else {
            Ok(Index::Single(first))
        }
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Name(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::Name(n), span))
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::Int(v), span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::Float(v), span))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::new(ExprKind::Str(s), span))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(true), span))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::new(ExprKind::Bool(false), span))
            }
            TokenKind::None => {
                self.bump();
                Ok(Expr::new(ExprKind::NoneLit, span))
            }
            TokenKind::Lambda => self.parse_lambda(),
            TokenKind::LParen => {
                self.bump();
                if self.eat(&TokenKind::RParen) {
                    return Ok(Expr::new(ExprKind::Tuple(Vec::new()), span));
                }
                let mut items = vec![self.parse_test()?];
                let mut is_tuple = false;
                while self.eat(&TokenKind::Comma) {
                    is_tuple = true;
                    if matches!(self.peek(), TokenKind::RParen) {
                        break;
                    }
                    items.push(self.parse_test()?);
                }
                self.expect(TokenKind::RParen)?;
                if is_tuple {
                    Ok(Expr::new(ExprKind::Tuple(items), span))
                } else {
                    items
                        .pop()
                        .ok_or_else(|| ParseError::new("empty parenthesized expression", span))
                }
            }
            TokenKind::LBracket => {
                self.bump();
                let mut items = Vec::new();
                while !matches!(self.peek(), TokenKind::RBracket) {
                    items.push(self.parse_test()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBracket)?;
                Ok(Expr::new(ExprKind::List(items), span))
            }
            TokenKind::LBrace => Err(ParseError::new(
                "dict/set literals are outside the PyLite subset (Table 5: other collections are not converted)",
                span,
            )),
            other => Err(ParseError::new(format!("unexpected {other}"), span)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    #[test]
    fn parse_listing1_function() {
        let m =
            parse_module("def f(x):\n    if x > 0:\n        x = x * x\n    return x\n").unwrap();
        let f = m.function("f").unwrap();
        match &f.kind {
            StmtKind::FunctionDef { params, body, .. } => {
                assert_eq!(params.len(), 1);
                assert_eq!(body.len(), 2);
                assert!(matches!(body[0].kind, StmtKind::If { .. }));
                assert!(matches!(body[1].kind, StmtKind::Return(Some(_))));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_decorator() {
        let m = parse_module("@ag.convert()\ndef f(x):\n    return x\n").unwrap();
        match &m.body[0].kind {
            StmtKind::FunctionDef { decorators, .. } => {
                assert_eq!(decorators.len(), 1);
                assert!(matches!(decorators[0].kind, ExprKind::Call { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_elif_chain() {
        let m = parse_module("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n").unwrap();
        match &m.body[0].kind {
            StmtKind::If { orelse, .. } => match &orelse[0].kind {
                StmtKind::If { orelse: inner, .. } => assert_eq!(inner.len(), 1),
                _ => panic!("elif should become nested if"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_tuple_assignment() {
        let m = parse_module("a, b = f(x)\n").unwrap();
        match &m.body[0].kind {
            StmtKind::Assign { target, .. } => {
                assert!(matches!(&target.kind, ExprKind::Tuple(items) if items.len() == 2));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_for_with_tuple_target() {
        let m = parse_module("for i, v in pairs:\n    pass\n").unwrap();
        match &m.body[0].kind {
            StmtKind::For { target, .. } => {
                assert!(matches!(&target.kind, ExprKind::Tuple(items) if items.len() == 2));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_aug_assign() {
        let m = parse_module("x += 2 * y\n").unwrap();
        assert!(matches!(
            &m.body[0].kind,
            StmtKind::AugAssign { op: BinOp::Add, .. }
        ));
    }

    #[test]
    fn parse_slices_and_calls() {
        let m = parse_module("y = x[i][1:n].foo(a, k=2)\n").unwrap();
        match &m.body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Call { kwargs, .. } => assert_eq!(kwargs[0].0, "k"),
                _ => panic!("expected call"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_precedence() {
        let m = parse_module("r = 1 + 2 * 3 ** 2\n").unwrap();
        // should evaluate as 1 + (2 * (3 ** 2))
        match &m.body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::BinOp {
                    op: BinOp::Add,
                    right,
                    ..
                } => {
                    assert!(matches!(
                        &right.kind,
                        ExprKind::BinOp { op: BinOp::Mul, .. }
                    ));
                }
                _ => panic!("expected Add at top"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_bool_chain_and_compare_chain() {
        let m = parse_module("ok = a and b and not c\nr = 0 <= x < n\n").unwrap();
        match &m.body[0].kind {
            StmtKind::Assign { value, .. } => {
                assert!(
                    matches!(&value.kind, ExprKind::BoolOp { values, .. } if values.len() == 3)
                );
            }
            _ => panic!(),
        }
        match &m.body[1].kind {
            StmtKind::Assign { value, .. } => {
                assert!(matches!(&value.kind, ExprKind::Compare { ops, .. } if ops.len() == 2));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_is_not_and_not_in() {
        let m = parse_module("a = x is not None\nb = y not in z\n").unwrap();
        match &m.body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Compare { ops, .. } => assert_eq!(ops[0], CmpOp::IsNot),
                _ => panic!(),
            },
            _ => panic!(),
        }
        match &m.body[1].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Compare { ops, .. } => assert_eq!(ops[0], CmpOp::NotIn),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_lambda_and_ternary() {
        let m = parse_module("f = lambda x: x * x\ny = a if c else b\n").unwrap();
        assert!(matches!(
            &m.body[0].kind,
            StmtKind::Assign { value, .. } if matches!(value.kind, ExprKind::Lambda { .. })
        ));
        assert!(matches!(
            &m.body[1].kind,
            StmtKind::Assign { value, .. } if matches!(value.kind, ExprKind::IfExp { .. })
        ));
    }

    #[test]
    fn parse_list_and_methods() {
        let m = parse_module("l = []\nl.append(3)\nv = l.pop()\n").unwrap();
        assert_eq!(m.body.len(), 3);
    }

    #[test]
    fn parse_nested_function() {
        let m = parse_module(
            "def outer(x):\n    def inner(y):\n        return y\n    return inner(x)\n",
        )
        .unwrap();
        match &m.body[0].kind {
            StmtKind::FunctionDef { body, .. } => {
                assert!(matches!(body[0].kind, StmtKind::FunctionDef { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn reject_yield_try_dict() {
        assert!(parse_module("def f():\n    yield 1\n").is_err());
        assert!(parse_module("try:\n    pass\n").is_err());
        assert!(parse_module("d = {}\n").is_err());
        assert!(parse_module("x = = 1\n").is_err());
    }

    #[test]
    fn global_nonlocal_del_raise() {
        let m = parse_module("global a, b\nnonlocal c\ndel d\nraise e\n").unwrap();
        assert!(matches!(&m.body[0].kind, StmtKind::Global(v) if v.len() == 2));
        assert!(matches!(&m.body[1].kind, StmtKind::Nonlocal(_)));
        assert!(matches!(&m.body[2].kind, StmtKind::Del(_)));
        assert!(matches!(&m.body[3].kind, StmtKind::Raise(Some(_))));
    }

    #[test]
    fn inline_suite() {
        let m = parse_module("if x: y = 1\n").unwrap();
        match &m.body[0].kind {
            StmtKind::If { body, .. } => assert_eq!(body.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn multiline_call() {
        let m = parse_module("x = f(a,\n      b,\n      c)\n").unwrap();
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn spans_preserved() {
        let m = parse_module("x = 1\ny = 2\n").unwrap();
        assert_eq!(m.body[0].span.line, 1);
        assert_eq!(m.body[1].span.line, 2);
    }

    #[test]
    fn keyword_only_after_positional_enforced() {
        assert!(parse_module("f(k=1, x)\n").is_err());
    }

    #[test]
    fn paren_tuple_and_empty_tuple() {
        let m = parse_module("t = (1, 2)\ne = ()\ns = (1)\n").unwrap();
        assert!(matches!(
            &m.body[0].kind,
            StmtKind::Assign { value, .. } if matches!(&value.kind, ExprKind::Tuple(v) if v.len() == 2)
        ));
        assert!(matches!(
            &m.body[1].kind,
            StmtKind::Assign { value, .. } if matches!(&value.kind, ExprKind::Tuple(v) if v.is_empty())
        ));
        assert!(matches!(
            &m.body[2].kind,
            StmtKind::Assign { value, .. } if matches!(&value.kind, ExprKind::Int(1))
        ));
    }

    fn parens(n: usize) -> String {
        format!("x = {}1{}\n", "(".repeat(n), ")".repeat(n))
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let nested_ifs: String = (0..1_000)
            .map(|i| format!("{}if x:\n", " ".repeat(i)))
            .chain(std::iter::once(format!("{}pass\n", " ".repeat(1_000))))
            .collect();
        let elifs = format!("if x:\n    pass\n{}", "elif x:\n    pass\n".repeat(1_000));
        for (what, src) in [
            ("parentheses", parens(200_000)),
            ("unary minus chain", format!("x = {}1\n", "-".repeat(5_000))),
            ("not chain", format!("x = {}1\n", "not ".repeat(5_000))),
            ("power chain", format!("x = {}2\n", "2 ** ".repeat(5_000))),
            (
                "lambda chain",
                format!("f = {}1\n", "lambda: ".repeat(5_000)),
            ),
            ("nested ifs", nested_ifs),
            ("elif chain", elifs),
        ] {
            let err = parse_module(&src).expect_err(what);
            assert!(err.message.contains("nesting deeper"), "{what}: {err}");
            assert!(err.span.line >= 1, "{what}: {err}");
        }
    }

    #[test]
    fn depth_budget_boundary_is_exact() {
        // the statement and its right-hand side are levels 1 and 2; every
        // parenthesis is one more
        parse_module(&parens(MAX_DEPTH - 2)).expect("last depth inside the budget");
        let err = parse_module(&parens(MAX_DEPTH - 1)).unwrap_err();
        assert_eq!(
            (err.span.line as usize, err.span.col as usize),
            (1, 4 + MAX_DEPTH),
            "the error points at the token where the budget ran out: {err}"
        );
    }

    #[test]
    fn hostile_chains_are_errors_not_stack_overflows() {
        let n = 200_000;
        for (what, src) in [
            ("+ chain", format!("x = a{}\n", " + a".repeat(n))),
            ("* chain", format!("x = a{}\n", " * a".repeat(n))),
            ("and chain", format!("x = a{}\n", " and a".repeat(n))),
            ("or chain", format!("x = a{}\n", " or a".repeat(n))),
            ("comparison chain", format!("x = a{}\n", " < a".repeat(n))),
            ("attribute chain", format!("x = a{}\n", ".b".repeat(n))),
            ("call chain", format!("x = a{}\n", "()".repeat(n))),
            ("subscript chain", format!("x = a{}\n", "[0]".repeat(n))),
        ] {
            let err = parse_module(&src).expect_err(what);
            assert!(err.message.contains("nesting deeper"), "{what}: {err}");
            assert!(err.span.line == 1 && err.span.col > 1, "{what}: {err}");
        }
    }

    #[test]
    fn chain_budget_boundary_is_exact() {
        // the statement and its right-hand side are levels 1 and 2; every
        // `+` is one more, and so is every postfix link
        let sum = |links: usize| format!("x = a{}\n", " + a".repeat(links));
        let calls = |links: usize| format!("x = f{}\n", "()".repeat(links));
        parse_module(&sum(MAX_DEPTH - 2)).expect("longest sum inside the budget");
        parse_module(&calls(MAX_DEPTH - 2)).expect("longest call chain inside the budget");
        assert!(parse_module(&sum(MAX_DEPTH - 1)).is_err());
        assert!(parse_module(&calls(MAX_DEPTH - 1)).is_err());
        // the budget is per chain: a chain ends, its levels come back
        parse_module(&format!(
            "x = g({}, {})\n",
            "a + ".repeat(60) + "a",
            "b + ".repeat(60) + "b"
        ))
        .expect("two sibling chains");
    }
}
