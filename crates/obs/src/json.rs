//! The workspace's one JSON string writer. Every exporter that embeds
//! text it does not control — node names, error messages, request ids,
//! source excerpts, thread names — renders it through [`write_str`].

use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal, quotes included.
///
/// `"` and `\` are backslash-escaped, `\n` `\r` `\t` take their short
/// forms, and every other C0 control, DEL, U+2028 and U+2029 become
/// `\uXXXX` — the last two are legal JSON but end a line in JavaScript,
/// and these documents are read by JavaScript-adjacent tooling
/// (`chrome://tracing`, dashboards). Everything else, astral-plane
/// characters included, is written as itself.
pub fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0}'..='\u{1f}' | '\u{7f}' | '\u{2028}' | '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::write_str;

    #[test]
    fn escapes_exactly_the_documented_set() {
        let mut out = String::new();
        write_str(
            &mut out,
            "a\"b\\c\n\r\t\u{1}\u{7f}\u{2028}\u{2029}\u{1F600}é",
        );
        assert_eq!(
            out,
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u007f\\u2028\\u2029\u{1F600}é\""
        );
        out.clear();
        write_str(&mut out, "");
        assert_eq!(out, "\"\"");
    }
}
