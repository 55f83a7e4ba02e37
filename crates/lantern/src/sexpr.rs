//! S-expression reading and printing — the textual IR that AutoGraph's
//! Lantern staging context emits (§8: "The Lantern back-end converts
//! Lisp-like S-expressions describing numeric operations into efficient
//! C++ code").

use crate::{LanternError, Result};
use std::fmt;

/// A parsed S-expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// A bare symbol.
    Sym(String),
    /// A numeric literal.
    Num(f64),
    /// A parenthesized list.
    List(Vec<SExpr>),
}

impl SExpr {
    /// Shorthand: build a list.
    pub fn list(items: Vec<SExpr>) -> SExpr {
        SExpr::List(items)
    }

    /// Shorthand: build a symbol.
    pub fn sym(s: impl Into<String>) -> SExpr {
        SExpr::Sym(s.into())
    }

    /// The symbol text, if this is a symbol.
    pub(crate) fn as_sym(&self) -> Option<&str> {
        match self {
            SExpr::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// The list items, if this is a list.
    pub(crate) fn as_list(&self) -> Option<&[SExpr]> {
        match self {
            SExpr::List(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Sym(s) => f.write_str(s),
            SExpr::Num(n) => write!(f, "{n}"),
            SExpr::List(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Parse one S-expression from text.
///
/// # Errors
///
/// Fails on unbalanced parentheses, empty input or trailing garbage.
pub fn parse(text: &str) -> Result<SExpr> {
    let mut tokens = tokenize(text);
    let expr = parse_expr(&mut tokens)?;
    if tokens.peek().is_some() {
        return Err(LanternError::new("trailing tokens after S-expression"));
    }
    Ok(expr)
}

fn tokenize(text: &str) -> std::iter::Peekable<std::vec::IntoIter<String>> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens.into_iter().peekable()
}

fn parse_expr(tokens: &mut std::iter::Peekable<std::vec::IntoIter<String>>) -> Result<SExpr> {
    match tokens.next() {
        None => Err(LanternError::new("unexpected end of S-expression")),
        Some(t) if t == "(" => {
            let mut items = Vec::new();
            loop {
                match tokens.peek() {
                    None => return Err(LanternError::new("unbalanced '('")),
                    Some(t) if t == ")" => {
                        tokens.next();
                        break;
                    }
                    _ => items.push(parse_expr(tokens)?),
                }
            }
            Ok(SExpr::List(items))
        }
        Some(t) if t == ")" => Err(LanternError::new("unbalanced ')'")),
        Some(t) => match t.parse::<f64>() {
            Ok(n) => Ok(SExpr::Num(n)),
            Err(_) => Ok(SExpr::Sym(t)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let src = "(mul (add x 1) (call f y))";
        let e = parse(src).unwrap();
        assert_eq!(e.to_string(), src);
    }

    #[test]
    fn numbers_and_symbols() {
        let e = parse("(f 1 2.5 -3 foo)").unwrap();
        let items = e.as_list().unwrap();
        assert_eq!(items[1], SExpr::Num(1.0));
        assert_eq!(items[2], SExpr::Num(2.5));
        assert_eq!(items[3], SExpr::Num(-3.0));
        assert_eq!(items[4].as_sym(), Some("foo"));
    }

    #[test]
    fn nested_depth() {
        let e = parse("(a (b (c (d))))").unwrap();
        assert_eq!(e.to_string(), "(a (b (c (d))))");
    }

    #[test]
    fn errors() {
        assert!(parse("(a b").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("(a) b").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn whitespace_flexible() {
        let e = parse("  ( add\n x\t y )  ").unwrap();
        assert_eq!(e.to_string(), "(add x y)");
    }
}
