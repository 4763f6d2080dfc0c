//! The reference N-Triples parser: an owned, term-at-a-time parser that
//! builds a `String` for every term. `rdf::parse_ntriples` must accept
//! exactly the documents this accepts, give the same triples, and fail on
//! the same line with the same message.
//!
//! Two of its rules are the N-Triples grammar's, not a first-cut scan's:
//! a language tag is `[a-zA-Z]+('-'[a-zA-Z0-9]+)*` (an empty one is an
//! error), and a blank-node label never ends in `.`, so `_:b1.` ends a
//! line.

#![allow(dead_code)]

use rapida_rdf::{NtError, Term, TermTriple};

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
        while self.pos < self.input.len() && (self.input[self.pos] == b' ' || self.input[self.pos] == b'\t') {
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
                while self.pos > start && self.input[self.pos - 1] == b'.' {
                    self.pos -= 1;
                }
                let label =
                    std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| "invalid utf-8".to_string())?;
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
                        self.lang_tag();
                        if self.pos == start {
                            return Err("empty language tag".into());
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

    /// Step over `[a-zA-Z]+('-'[a-zA-Z0-9]+)*`, or nothing.
    fn lang_tag(&mut self) {
        let run = |input: &[u8], at: usize, ok: fn(&u8) -> bool| input[at..].iter().take_while(|c| ok(c)).count();
        let first = run(self.input, self.pos, u8::is_ascii_alphabetic);
        if first == 0 {
            return;
        }
        self.pos += first;
        while self.peek() == Some(b'-') {
            let sub = run(self.input, self.pos + 1, u8::is_ascii_alphanumeric);
            if sub == 0 {
                return;
            }
            self.pos += 1 + sub;
        }
    }
}

fn uchar(kind: u8, digits: &[u8]) -> Result<(char, usize), String> {
    let width = if kind == b'u' { 4 } else { 8 };
    let hex = digits
        .get(..width)
        .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| format!("bad escape '\\{}': needs {width} hex digits", kind as char))?;
    let code = hex.iter().fold(0u32, |acc, &d| acc << 4 | (d as char).to_digit(16).unwrap());
    match char::from_u32(code) {
        Some(c) => Ok((c, width)),
        None if (0xD800..=0xDFFF).contains(&code) => Err(format!("bad escape: U+{code:04X} is a surrogate")),
        None => Err(format!("bad escape: U+{code:X} is beyond U+10FFFF")),
    }
}

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

/// One line: `Ok(None)` for a blank or comment line.
pub fn parse_line(line: &str) -> Result<Option<TermTriple>, String> {
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

/// A whole document, or the first bad line's number and message.
pub fn parse_document(doc: &str) -> Result<Vec<TermTriple>, NtError> {
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        match parse_line(line) {
            Ok(Some(t)) => out.push(t),
            Ok(None) => {}
            Err(message) => return Err(NtError { line: i + 1, message }),
        }
    }
    Ok(out)
}
