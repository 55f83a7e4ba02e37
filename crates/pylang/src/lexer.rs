//! Indentation-aware lexer for PyLite.
//!
//! Produces a flat token stream with explicit `Newline` / `Indent` /
//! `Dedent` tokens, like CPython's tokenizer. Newlines inside brackets are
//! suppressed (implicit line joining), and `\` at end of line joins
//! explicitly.

use crate::error::ParseError;
use crate::token::{Token, TokenKind};
use crate::Span;

/// Tokenize PyLite source text.
///
/// # Errors
///
/// Returns [`ParseError`] on unterminated strings, bad numbers, inconsistent
/// dedents or unknown characters.
pub fn tokenize(source: &str) -> Result<Vec<Token>, ParseError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    indent_stack: Vec<usize>,
    paren_depth: usize,
    tokens: Vec<Token>,
    at_line_start: bool,
    source: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            indent_stack: vec![0],
            paren_depth: 0,
            tokens: Vec::new(),
            at_line_start: true,
            source,
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, span: Span) {
        self.tokens.push(Token { kind, span });
    }

    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        let _ = self.source; // retained for future diagnostics
        while self.pos < self.chars.len() {
            if self.at_line_start && self.paren_depth == 0 {
                self.handle_indentation()?;
                if self.pos >= self.chars.len() {
                    break;
                }
            }
            let span = self.span();
            let c = match self.peek() {
                Some(c) => c,
                None => break,
            };
            match c {
                ' ' | '\t' | '\r' => {
                    self.bump();
                }
                '#' => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                '\n' => {
                    self.bump();
                    if self.paren_depth == 0 {
                        // collapse consecutive newlines
                        if matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(TokenKind::Newline) | Some(TokenKind::Indent) | None
                        ) {
                            // skip blank line
                        } else {
                            self.push(TokenKind::Newline, span);
                        }
                        self.at_line_start = true;
                    }
                }
                '\\' if self.peek2() == Some('\n') => {
                    self.bump();
                    self.bump();
                }
                '\'' | '"' => self.lex_string(c)?,
                '0'..='9' => self.lex_number()?,
                c if c.is_alphabetic() || c == '_' => self.lex_name(),
                _ => self.lex_operator()?,
            }
        }
        // terminate last logical line
        if !matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(TokenKind::Newline) | None
        ) {
            let span = self.span();
            self.push(TokenKind::Newline, span);
        }
        // unwind indents
        while self.indent_stack.len() > 1 {
            self.indent_stack.pop();
            let span = self.span();
            self.push(TokenKind::Dedent, span);
        }
        let span = self.span();
        self.push(TokenKind::Eof, span);
        Ok(self.tokens)
    }

    fn handle_indentation(&mut self) -> Result<(), ParseError> {
        loop {
            let mut width = 0usize;
            let start = self.pos;
            while let Some(c) = self.peek() {
                match c {
                    ' ' => {
                        width += 1;
                        self.bump();
                    }
                    '\t' => {
                        width += 8 - (width % 8);
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // blank or comment-only line: consume and restart
                Some('\n') => {
                    self.bump();
                    continue;
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                    continue;
                }
                None => {
                    let _ = start;
                    self.at_line_start = false;
                    return Ok(());
                }
                _ => {}
            }
            self.at_line_start = false;
            let span = self.span();
            // the base level 0 is never popped, so the stack is not empty
            let Some(&current) = self.indent_stack.last() else {
                return Err(ParseError::new("indentation stack is empty", span));
            };
            if width > current {
                self.indent_stack.push(width);
                self.push(TokenKind::Indent, span);
            } else if width < current {
                while self.indent_stack.last().is_some_and(|&level| level > width) {
                    self.indent_stack.pop();
                    self.push(TokenKind::Dedent, span);
                }
                if self.indent_stack.last() != Some(&width) {
                    return Err(ParseError::new(
                        "unindent does not match any outer indentation level",
                        span,
                    ));
                }
            }
            return Ok(());
        }
    }

    fn lex_string(&mut self, quote: char) -> Result<(), ParseError> {
        let span = self.span();
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => {
                    return Err(ParseError::new("unterminated string literal", span));
                }
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('\\') => s.push('\\'),
                    Some('\'') => s.push('\''),
                    Some('"') => s.push('"'),
                    Some(other) => {
                        s.push('\\');
                        s.push(other);
                    }
                    None => return Err(ParseError::new("unterminated string literal", span)),
                },
                Some(c) if c == quote => break,
                Some(c) => s.push(c),
            }
        }
        self.push(TokenKind::Str(s), span);
        Ok(())
    }

    fn lex_number(&mut self) -> Result<(), ParseError> {
        let span = self.span();
        let mut text = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '_' {
                if c != '_' {
                    text.push(c);
                }
                self.bump();
            } else if c == '.' && self.peek2().map(|c| c.is_ascii_digit()).unwrap_or(false)
                || (c == '.' && !is_float && !text.is_empty())
            {
                is_float = true;
                text.push('.');
                self.bump();
            } else if c == 'e' || c == 'E' {
                is_float = true;
                text.push(c);
                self.bump();
                if let Some(sign @ ('+' | '-')) = self.peek() {
                    self.bump();
                    text.push(sign);
                }
            } else {
                break;
            }
        }
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| ParseError::new(format!("invalid float literal '{text}'"), span))?;
            self.push(TokenKind::Float(v), span);
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| ParseError::new(format!("invalid int literal '{text}'"), span))?;
            self.push(TokenKind::Int(v), span);
        }
        Ok(())
    }

    fn lex_name(&mut self) {
        let span = self.span();
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match TokenKind::keyword(&s) {
            Some(k) => self.push(k, span),
            None => self.push(TokenKind::Name(s), span),
        }
    }

    fn lex_operator(&mut self) -> Result<(), ParseError> {
        let span = self.span();
        let Some(c) = self.bump() else {
            return Err(ParseError::new("unexpected end of input", span));
        };
        let two = |lexer: &Lexer| lexer.peek();
        let kind = match c {
            '(' => {
                self.paren_depth += 1;
                TokenKind::LParen
            }
            ')' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RParen
            }
            '[' => {
                self.paren_depth += 1;
                TokenKind::LBracket
            }
            ']' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RBracket
            }
            '{' => {
                self.paren_depth += 1;
                TokenKind::LBrace
            }
            '}' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RBrace
            }
            ',' => TokenKind::Comma,
            ':' => TokenKind::Colon,
            '.' => TokenKind::Dot,
            '@' => TokenKind::At,
            '+' => {
                if two(self) == Some('=') {
                    self.bump();
                    TokenKind::PlusAssign
                } else {
                    TokenKind::Plus
                }
            }
            '-' => match two(self) {
                Some('=') => {
                    self.bump();
                    TokenKind::MinusAssign
                }
                Some('>') => {
                    self.bump();
                    TokenKind::Arrow
                }
                _ => TokenKind::Minus,
            },
            '*' => match two(self) {
                Some('=') => {
                    self.bump();
                    TokenKind::StarAssign
                }
                Some('*') => {
                    self.bump();
                    TokenKind::DoubleStar
                }
                _ => TokenKind::Star,
            },
            '/' => match two(self) {
                Some('=') => {
                    self.bump();
                    TokenKind::SlashAssign
                }
                Some('/') => {
                    self.bump();
                    TokenKind::DoubleSlash
                }
                _ => TokenKind::Slash,
            },
            '%' => TokenKind::Percent,
            '<' => {
                if two(self) == Some('=') {
                    self.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            '>' => {
                if two(self) == Some('=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            '=' => {
                if two(self) == Some('=') {
                    self.bump();
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            '!' => {
                if two(self) == Some('=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    return Err(ParseError::new("unexpected character '!'", span));
                }
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character '{other}'"),
                    span,
                ));
            }
        };
        self.push(kind, span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_expression() {
        assert_eq!(
            kinds("x = 1 + 2\n"),
            vec![Name("x".into()), Assign, Int(1), Plus, Int(2), Newline, Eof]
        );
    }

    #[test]
    fn indent_dedent() {
        let k = kinds("if x:\n    y = 1\nz = 2\n");
        assert_eq!(
            k,
            vec![
                If,
                Name("x".into()),
                Colon,
                Newline,
                Indent,
                Name("y".into()),
                Assign,
                Int(1),
                Newline,
                Dedent,
                Name("z".into()),
                Assign,
                Int(2),
                Newline,
                Eof
            ]
        );
    }

    #[test]
    fn nested_dedents_unwound_at_eof() {
        let k = kinds("if a:\n    if b:\n        pass\n");
        let dedents = k.iter().filter(|t| **t == Dedent).count();
        assert_eq!(dedents, 2);
    }

    #[test]
    fn blank_lines_and_comments_ignored() {
        let k = kinds("x = 1\n\n# comment\n   # indented comment\ny = 2\n");
        assert_eq!(
            k,
            vec![
                Name("x".into()),
                Assign,
                Int(1),
                Newline,
                Name("y".into()),
                Assign,
                Int(2),
                Newline,
                Eof
            ]
        );
    }

    #[test]
    fn implicit_line_joining_in_parens() {
        let k = kinds("f(a,\n  b)\n");
        assert!(!k[..k.len() - 2].contains(&Newline));
    }

    #[test]
    fn explicit_line_joining() {
        let k = kinds("x = 1 + \\\n2\n");
        assert_eq!(
            k,
            vec![Name("x".into()), Assign, Int(1), Plus, Int(2), Newline, Eof]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("1.5\n")[0], Float(1.5));
        assert_eq!(kinds("1e3\n")[0], Float(1000.0));
        assert_eq!(kinds("2.5e-1\n")[0], Float(0.25));
        assert_eq!(kinds("1_000\n")[0], Int(1000));
        assert_eq!(kinds("3.\n")[0], Float(3.0));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'a\\nb'\n")[0], Str("a\nb".into()));
        assert_eq!(kinds("\"x'y\"\n")[0], Str("x'y".into()));
        assert!(tokenize("'unterminated\n").is_err());
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("a <= b != c ** d // e -> f += 1\n"),
            vec![
                Name("a".into()),
                Le,
                Name("b".into()),
                NotEq,
                Name("c".into()),
                DoubleStar,
                Name("d".into()),
                DoubleSlash,
                Name("e".into()),
                Arrow,
                Name("f".into()),
                PlusAssign,
                Int(1),
                Newline,
                Eof
            ]
        );
    }

    #[test]
    fn bad_dedent_rejected() {
        assert!(tokenize("if x:\n        a = 1\n    b = 2\n").is_err());
    }

    #[test]
    fn unknown_char_rejected() {
        let err = tokenize("x = $\n").unwrap_err();
        assert!(err.to_string().contains('$'));
    }

    #[test]
    fn spans_track_lines() {
        let toks = tokenize("x = 1\ny = 2\n").unwrap();
        let y = toks.iter().find(|t| t.kind == Name("y".into())).unwrap();
        assert_eq!(y.span.line, 2);
        assert_eq!(y.span.col, 1);
    }

    #[test]
    fn keywords_recognized() {
        assert_eq!(kinds("lambda x: x\n")[0], Lambda);
        assert_eq!(kinds("del x\n")[0], Del);
    }

    #[test]
    fn no_trailing_newline_still_terminated() {
        let k = kinds("x = 1");
        assert_eq!(k.last(), Some(&Eof));
        assert!(k.contains(&Newline));
    }
}
