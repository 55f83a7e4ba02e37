//! Token kinds produced by the PyLite lexer.

use crate::Span;
use std::fmt;

/// A lexical token with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it starts in the source.
    pub span: Span,
}

/// The kinds of PyLite tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals and identifiers
    /// An identifier or non-keyword name.
    Name(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (contents, quotes stripped).
    Str(String),

    // Keywords
    /// `def`
    Def,
    /// `return`
    Return,
    /// `if`
    If,
    /// `elif`
    Elif,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `in`
    In,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `pass`
    Pass,
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `True`
    True,
    /// `False`
    False,
    /// `None`
    None,
    /// `assert`
    Assert,
    /// `lambda`
    Lambda,
    /// `is`
    Is,
    /// `global`
    Global,
    /// `nonlocal`
    Nonlocal,
    /// `del`
    Del,
    /// `print` is an ordinary name in PyLite (Python 3), listed here only
    /// for documentation; the lexer emits `Name("print")`.
    /// `yield` — recognized so conversion can reject it per Table 4.
    Yield,
    /// `try` — recognized so conversion can pass it through unconverted.
    Try,
    /// `raise`
    Raise,

    // Punctuation / operators
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `/=`
    SlashAssign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `**`
    DoubleStar,
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `->` (accepted and ignored in defs)
    Arrow,

    // Layout
    /// Logical end of line.
    Newline,
    /// Indentation increased.
    Indent,
    /// Indentation decreased.
    Dedent,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Map an identifier string to a keyword kind, if it is one.
    pub(crate) fn keyword(name: &str) -> Option<TokenKind> {
        Some(match name {
            "def" => TokenKind::Def,
            "return" => TokenKind::Return,
            "if" => TokenKind::If,
            "elif" => TokenKind::Elif,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "in" => TokenKind::In,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "pass" => TokenKind::Pass,
            "and" => TokenKind::And,
            "or" => TokenKind::Or,
            "not" => TokenKind::Not,
            "True" => TokenKind::True,
            "False" => TokenKind::False,
            "None" => TokenKind::None,
            "assert" => TokenKind::Assert,
            "lambda" => TokenKind::Lambda,
            "is" => TokenKind::Is,
            "global" => TokenKind::Global,
            "nonlocal" => TokenKind::Nonlocal,
            "del" => TokenKind::Del,
            "yield" => TokenKind::Yield,
            "try" => TokenKind::Try,
            "raise" => TokenKind::Raise,
            _ => return Option::None,
        })
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Name(s) => write!(f, "name '{s}'"),
            TokenKind::Int(v) => write!(f, "int {v}"),
            TokenKind::Float(v) => write!(f, "float {v}"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Newline => write!(f, "newline"),
            TokenKind::Indent => write!(f, "indent"),
            TokenKind::Dedent => write!(f, "dedent"),
            TokenKind::Eof => write!(f, "end of input"),
            other => write!(f, "'{}'", token_text(other)),
        }
    }
}

fn token_text(kind: &TokenKind) -> &'static str {
    use TokenKind::*;
    match kind {
        Def => "def",
        Return => "return",
        If => "if",
        Elif => "elif",
        Else => "else",
        While => "while",
        For => "for",
        In => "in",
        Break => "break",
        Continue => "continue",
        Pass => "pass",
        And => "and",
        Or => "or",
        Not => "not",
        True => "True",
        False => "False",
        None => "None",
        Assert => "assert",
        Lambda => "lambda",
        Is => "is",
        Global => "global",
        Nonlocal => "nonlocal",
        Del => "del",
        Yield => "yield",
        Try => "try",
        Raise => "raise",
        LParen => "(",
        RParen => ")",
        LBracket => "[",
        RBracket => "]",
        LBrace => "{",
        RBrace => "}",
        Comma => ",",
        Colon => ":",
        Dot => ".",
        At => "@",
        Assign => "=",
        PlusAssign => "+=",
        MinusAssign => "-=",
        StarAssign => "*=",
        SlashAssign => "/=",
        Plus => "+",
        Minus => "-",
        Star => "*",
        DoubleStar => "**",
        Slash => "/",
        DoubleSlash => "//",
        Percent => "%",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        EqEq => "==",
        NotEq => "!=",
        Arrow => "->",
        _ => unreachable!("handled in Display"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("def"), Some(TokenKind::Def));
        assert_eq!(TokenKind::keyword("lambda"), Some(TokenKind::Lambda));
        assert_eq!(TokenKind::keyword("frobnicate"), None);
        // print is not a keyword in PyLite
        assert_eq!(TokenKind::keyword("print"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TokenKind::Def.to_string(), "'def'");
        assert_eq!(TokenKind::Name("x".into()).to_string(), "name 'x'");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
        assert_eq!(TokenKind::PlusAssign.to_string(), "'+='");
    }
}
