//! A small, strict N-Triples parser and serializer.
//!
//! Supports the subset needed by the workspace: IRIs, blank nodes, plain /
//! typed / language-tagged literals with the standard escapes, `#` comments,
//! and blank lines. `\uXXXX` and `\UXXXXXXXX` escapes decode in literals and
//! IRIs; in an IRI every other byte is kept as written.

use crate::term::Term;
use crate::triple::TermTriple;
use std::fmt;

/// Error produced by the N-Triples parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtError {
    /// 1-based line number of the offending line (0 when unknown).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for NtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N-Triples parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtError {}

struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Cursor {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len()
            && (self.input[self.pos] == b' ' || self.input[self.pos] == b'\t')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(format!("expected '{}', found '{}'", c as char, got as char)),
            None => Err(format!("expected '{}', found end of line", c as char)),
        }
    }

    /// The IRI after an opening `<`, up to its `>`, escapes decoded.
    fn iri(&mut self) -> Result<String, String> {
        let start = self.pos;
        let mut escaped = false;
        while let Some(c) = self.bump() {
            match c {
                b'>' => {
                    let raw = std::str::from_utf8(&self.input[start..self.pos - 1])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    return if escaped { decode_iri(raw) } else { Ok(raw.to_owned()) };
                }
                b'\\' => escaped = true,
                _ => {}
            }
        }
        Err("unterminated token, expected '>'".into())
    }

    fn parse_term(&mut self) -> Result<Term, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => {
                self.bump();
                Ok(Term::iri(self.iri()?))
            }
            Some(b'_') => {
                self.bump();
                self.expect(b':')?;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b' ' || c == b'\t' {
                        break;
                    }
                    self.pos += 1;
                }
                let label = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| "invalid utf-8".to_string())?;
                if label.is_empty() {
                    return Err("empty blank node label".into());
                }
                Ok(Term::bnode(label))
            }
            Some(b'"') => {
                self.bump();
                let mut lexical = String::new();
                loop {
                    match self.bump() {
                        None => return Err("unterminated string literal".into()),
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'n') => lexical.push('\n'),
                            Some(b'r') => lexical.push('\r'),
                            Some(b't') => lexical.push('\t'),
                            Some(b'"') => lexical.push('"'),
                            Some(b'\\') => lexical.push('\\'),
                            Some(b'\'') => lexical.push('\''),
                            Some(b'b') => lexical.push('\u{8}'),
                            Some(b'f') => lexical.push('\u{c}'),
                            Some(u @ (b'u' | b'U')) => {
                                let (c, width) = uchar(u, &self.input[self.pos..])?;
                                lexical.push(c);
                                self.pos += width;
                            }
                            Some(c) => return Err(format!("bad escape '\\{}'", c as char)),
                            None => return Err("dangling escape".into()),
                        },
                        Some(c) => {
                            // Re-assemble multi-byte UTF-8 sequences.
                            if c < 0x80 {
                                lexical.push(c as char);
                            } else {
                                let start = self.pos - 1;
                                let width = utf8_width(c);
                                let end = start + width;
                                if end > self.input.len() {
                                    return Err("truncated utf-8".into());
                                }
                                let s = std::str::from_utf8(&self.input[start..end])
                                    .map_err(|_| "invalid utf-8".to_string())?;
                                lexical.push_str(s);
                                self.pos = end;
                            }
                        }
                    }
                }
                match self.peek() {
                    Some(b'^') => {
                        self.bump();
                        self.expect(b'^')?;
                        self.expect(b'<')?;
                        Ok(Term::typed_literal(lexical, self.iri()?))
                    }
                    Some(b'@') => {
                        self.bump();
                        let start = self.pos;
                        while let Some(c) = self.peek() {
                            if c == b' ' || c == b'\t' {
                                break;
                            }
                            self.pos += 1;
                        }
                        let lang = std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| "invalid utf-8".to_string())?;
                        Ok(Term::lang_literal(lexical, lang))
                    }
                    _ => Ok(Term::literal(lexical)),
                }
            }
            Some(c) => Err(format!("unexpected character '{}'", c as char)),
            None => Err("unexpected end of line".into()),
        }
    }
}

/// Decode the hex digits of a `\u` (`kind` `b'u'`, 4 digits) or `\U` (8
/// digits) escape at the start of `digits`: the character and the digit
/// count.
fn uchar(kind: u8, digits: &[u8]) -> Result<(char, usize), String> {
    let width = if kind == b'u' { 4 } else { 8 };
    let hex = digits
        .get(..width)
        .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| format!("bad escape '\\{}': needs {width} hex digits", kind as char))?;
    // ASCII hex digits, at most 8: always a valid u32.
    let code = hex.iter().fold(0u32, |acc, &d| acc << 4 | (d as char).to_digit(16).unwrap());
    match char::from_u32(code) {
        Some(c) => Ok((c, width)),
        None if (0xD800..=0xDFFF).contains(&code) => Err(format!("bad escape: U+{code:04X} is a surrogate")),
        None => Err(format!("bad escape: U+{code:X} is beyond U+10FFFF")),
    }
}

/// Decode the `\u` / `\U` escapes of an IRI; every other byte is kept.
fn decode_iri(raw: &str) -> Result<String, String> {
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let after = &rest[at + 1..];
        match after.as_bytes().first() {
            Some(&u @ (b'u' | b'U')) => {
                let (c, width) = uchar(u, &after.as_bytes()[1..])?;
                out.push(c);
                rest = &after[1 + width..];
            }
            _ => {
                out.push('\\');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    Ok(out)
}

fn utf8_width(first: u8) -> usize {
    if first >= 0xF0 {
        4
    } else if first >= 0xE0 {
        3
    } else {
        2
    }
}

/// Parse a single N-Triples line. Returns `Ok(None)` for blank/comment lines.
pub fn parse_ntriples_line(line: &str) -> Result<Option<TermTriple>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut cur = Cursor::new(trimmed);
    let s = cur.parse_term()?;
    let p = cur.parse_term()?;
    let o = cur.parse_term()?;
    cur.skip_ws();
    cur.expect(b'.')?;
    cur.skip_ws();
    if cur.peek().is_some() {
        return Err("trailing content after '.'".into());
    }
    if s.is_literal() {
        return Err("literal in subject position".into());
    }
    if !p.is_iri() {
        return Err("non-IRI in property position".into());
    }
    Ok(Some(TermTriple::new(s, p, o)))
}

/// Parse an entire N-Triples document.
pub fn parse_ntriples(doc: &str) -> Result<Vec<TermTriple>, NtError> {
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        match parse_ntriples_line(line) {
            Ok(Some(t)) => out.push(t),
            Ok(None) => {}
            Err(message) => {
                return Err(NtError {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(out)
}

/// Serialize triples as an N-Triples document.
pub fn write_ntriples(triples: &[TermTriple]) -> String {
    let mut out = String::new();
    for t in triples {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_iri_triple() {
        let t = parse_ntriples_line("<http://x/s> <http://x/p> <http://x/o> .")
            .unwrap()
            .unwrap();
        assert_eq!(t.s, Term::iri("http://x/s"));
        assert_eq!(t.p, Term::iri("http://x/p"));
        assert_eq!(t.o, Term::iri("http://x/o"));
    }

    #[test]
    fn parses_typed_literal() {
        let t = parse_ntriples_line(
            "<http://x/s> <http://x/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        )
        .unwrap()
        .unwrap();
        assert_eq!(t.o.numeric_value(), Some(42.0));
    }

    #[test]
    fn parses_lang_literal_and_bnode() {
        let t = parse_ntriples_line("_:b1 <http://x/p> \"chat\"@fr .")
            .unwrap()
            .unwrap();
        assert_eq!(t.s, Term::bnode("b1"));
        assert_eq!(t.o, Term::lang_literal("chat", "fr"));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let doc = "# a comment\n\n<http://x/s> <http://x/p> \"v\" .\n";
        let ts = parse_ntriples(doc).unwrap();
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn rejects_literal_subject() {
        let err = parse_ntriples("\"lit\" <http://x/p> <http://x/o> .").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("subject"));
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse_ntriples("<http://x/s> <http://x/p> <http://x/o>").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_ntriples("<http://x/s> <http://x/p> <http://x/o> . x").is_err());
    }

    #[test]
    fn escape_roundtrip() {
        let original = TermTriple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::literal("line1\nline2\t\"quoted\" \\slash"),
        );
        let doc = write_ntriples(std::slice::from_ref(&original));
        let parsed = parse_ntriples(&doc).unwrap();
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn decodes_uchar_escapes_in_literals_and_iris() {
        let t = parse_ntriples_line(
            r#"<http://x/caf\u00E9> <http://x/p\U0001F30D> "\u00e9t\u00E9 \U0001F30D \'\b\f"^^<http://x/t\u0079pe> ."#,
        )
        .unwrap()
        .unwrap();
        assert_eq!(t.s, Term::iri("http://x/café"));
        assert_eq!(t.p, Term::iri("http://x/p🌍"));
        assert_eq!(t.o, Term::typed_literal("été 🌍 '\u{8}\u{c}", "http://x/type"));
    }

    #[test]
    fn other_iri_bytes_parse_as_written() {
        let t = parse_ntriples_line(r"<http://x/a\b\n> <http://x/p> <http://x/o\> .").unwrap().unwrap();
        assert_eq!(t.s, Term::iri(r"http://x/a\b\n"));
        assert_eq!(t.o, Term::iri(r"http://x/o\"));
    }

    #[test]
    fn bad_uchar_escapes_are_typed_errors_with_their_line() {
        for (bad, why) in [
            (r#""\uD800""#, "surrogate"),
            (r#""\UDFFF0000""#, "beyond"),
            (r#""\U00110000""#, "beyond"),
            (r#""\u12""#, "4 hex digits"),
            (r#""\u12G4""#, "4 hex digits"),
            (r#""\U0001F30""#, "8 hex digits"),
            ("<http://x/\\uDC00>", "surrogate"),
            ("<http://x/\\u00>", "4 hex digits"),
            ("<http://x/\\U>", "8 hex digits"),
        ] {
            let doc = format!("<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> <http://x/p> {bad} .\n");
            let err = parse_ntriples(&doc).unwrap_err();
            assert_eq!(err.line, 2, "{bad}");
            assert!(err.message.contains(why), "{bad}: {}", err.message);
        }
    }

    #[test]
    fn unicode_literal_roundtrip() {
        let original = TermTriple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::literal("καλημέρα 世界 🌍"),
        );
        let doc = write_ntriples(std::slice::from_ref(&original));
        let parsed = parse_ntriples(&doc).unwrap();
        assert_eq!(parsed, vec![original]);
    }
}
