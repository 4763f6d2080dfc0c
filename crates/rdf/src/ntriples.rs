//! A small, strict N-Triples parser and serializer.
//!
//! Supports the subset needed by the workspace: IRIs, blank nodes, plain /
//! typed / language-tagged literals with the standard escapes, `#` comments,
//! and blank lines. `\uXXXX` and `\UXXXXXXXX` escapes decode in literals and
//! IRIs; in an IRI every other byte is kept as written.
//!
//! [`parse_ntriples`] copies no term: it records each as a kind and spans
//! into the text. A term written with escapes is decoded into one buffer
//! that the [`NtDocument`] owns.

use crate::term::TermRef;
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

/// The largest document [`parse_ntriples`] takes: with its decoded text it
/// must fit 32-bit spans.
///
/// It also keeps one document far inside `Graph`'s 32-bit triple
/// positions: a triple takes at least 7 bytes of text (three 2-byte terms
/// such as `<>` or `""`, and the `.`), so a document holds under
/// `MAX_DOCUMENT / 7` ≈ 3.1 × 10⁸ triples, against `u32::MAX` ≈ 4.3 × 10⁹
/// positions. Only a graph built from many documents or single inserts can
/// pass `u32::MAX` triples, and it panics there rather than wrap.
const MAX_DOCUMENT: usize = u32::MAX as usize / 2;

/// Where a term's text lies: `start..end` of the document, or, at offsets
/// from the document's length on, of the decoded buffer.
#[derive(Clone, Copy, Default)]
struct Span {
    start: u32,
    end: u32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Iri,
    Blank,
    Plain,
    Typed,
    Lang,
}

/// A parsed term: its kind, its IRI, label or lexical form, and a
/// literal's datatype or language tag.
#[derive(Clone, Copy)]
struct NtTerm {
    kind: Kind,
    text: Span,
    tag: Span,
}

/// A parsed N-Triples document whose terms borrow from its text.
///
/// Iterating a `&NtDocument` yields owned [`TermTriple`]s;
/// `Graph::insert_term_triples` interns the borrowed terms without copying
/// them.
pub struct NtDocument<'a> {
    text: &'a str,
    /// The terms written with escapes, decoded, back to back.
    decoded: String,
    /// Subject, property and object of each triple, in document order.
    terms: Vec<NtTerm>,
}

impl<'a> NtDocument<'a> {
    /// Number of triples.
    pub fn len(&self) -> usize {
        self.terms.len() / 3
    }

    /// True if the document holds no triple.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The triples as owned terms, in document order.
    pub fn iter(&self) -> NtTriples<'_> {
        NtTriples {
            doc: self,
            terms: self.terms.chunks_exact(3),
        }
    }

    /// The owned triples, collected.
    pub fn to_vec(&self) -> Vec<TermTriple> {
        self.iter().collect()
    }

    /// The triples with their terms borrowed, in document order.
    pub(crate) fn term_refs(&self) -> impl Iterator<Item = [TermRef<'_>; 3]> {
        self.terms.chunks_exact(3).map(|t| [self.term(t[0]), self.term(t[1]), self.term(t[2])])
    }

    fn str(&self, span: Span) -> &str {
        let (start, end) = (span.start as usize, span.end as usize);
        match start.checked_sub(self.text.len()) {
            Some(at) => &self.decoded[at..at + end - start],
            None => &self.text[start..end],
        }
    }

    fn term(&self, t: NtTerm) -> TermRef<'_> {
        let text = self.str(t.text);
        let literal = |datatype, language| TermRef::Literal { lexical: text, datatype, language };
        match t.kind {
            Kind::Iri => TermRef::Iri(text),
            Kind::Blank => TermRef::BlankNode(text),
            Kind::Plain => literal(None, None),
            Kind::Typed => literal(Some(self.str(t.tag)), None),
            Kind::Lang => literal(None, Some(self.str(t.tag))),
        }
    }

    /// Parse one trimmed, non-empty line that starts at `base`.
    fn parse_line(&mut self, line: &str, base: usize) -> Result<(), String> {
        let mut cur = Cursor {
            line,
            pos: 0,
            base,
            doc_len: self.text.len(),
            decoded: &mut self.decoded,
        };
        let s = cur.term()?;
        let p = cur.term()?;
        let o = cur.term()?;
        cur.skip_ws();
        cur.expect(b'.')?;
        cur.skip_ws();
        if cur.peek().is_some() {
            return Err("trailing content after '.'".into());
        }
        if matches!(s.kind, Kind::Plain | Kind::Typed | Kind::Lang) {
            return Err("literal in subject position".into());
        }
        if p.kind != Kind::Iri {
            return Err("non-IRI in property position".into());
        }
        self.terms.extend([s, p, o]);
        Ok(())
    }
}

impl fmt::Debug for NtDocument<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The triples of an [`NtDocument`] as owned [`TermTriple`]s.
pub struct NtTriples<'d> {
    doc: &'d NtDocument<'d>,
    terms: std::slice::ChunksExact<'d, NtTerm>,
}

impl Iterator for NtTriples<'_> {
    type Item = TermTriple;

    fn next(&mut self) -> Option<TermTriple> {
        let t = self.terms.next()?;
        let term = |i: usize| self.doc.term(t[i]).to_term();
        Some(TermTriple::new(term(0), term(1), term(2)))
    }
}

impl<'d> IntoIterator for &'d NtDocument<'_> {
    type Item = TermTriple;
    type IntoIter = NtTriples<'d>;

    fn into_iter(self) -> NtTriples<'d> {
        self.iter()
    }
}

/// A cursor over one line, recording spans in document offsets.
struct Cursor<'t> {
    line: &'t str,
    pos: usize,
    /// Offset of `line` in the document.
    base: usize,
    doc_len: usize,
    decoded: &'t mut String,
}

impl Cursor<'_> {
    fn bytes(&self) -> &[u8] {
        self.line.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
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

    /// The document span of `line[start..end]`.
    fn span(&self, start: usize, end: usize) -> Span {
        Span {
            start: (self.base + start) as u32,
            end: (self.base + end) as u32,
        }
    }

    /// The span of what was decoded from `from` on.
    fn decoded_span(&self, from: usize) -> Span {
        Span {
            start: (self.doc_len + from) as u32,
            end: (self.doc_len + self.decoded.len()) as u32,
        }
    }

    /// Step over the run of characters up to the next space or tab.
    fn skip_token(&mut self) {
        while !matches!(self.peek(), None | Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Step over a language tag, `[a-zA-Z]+('-'[a-zA-Z0-9]+)*`, if one
    /// starts here.
    fn lang_tag(&mut self) {
        let bytes = self.line.as_bytes();
        let run = |at: usize, ok: fn(&u8) -> bool| bytes[at..].iter().take_while(|c| ok(c)).count();
        let mut end = self.pos + run(self.pos, u8::is_ascii_alphabetic);
        if end == self.pos {
            return;
        }
        while bytes.get(end) == Some(&b'-') {
            match run(end + 1, u8::is_ascii_alphanumeric) {
                0 => break,
                sub => end += 1 + sub,
            }
        }
        self.pos = end;
    }

    /// The IRI after an opening `<`, up to its `>`.
    fn iri(&mut self) -> Result<Span, String> {
        let start = self.pos;
        let mut escaped = false;
        while let Some(c) = self.bump() {
            match c {
                b'>' if escaped => {
                    let from = self.decoded.len();
                    decode_iri(&self.line[start..self.pos - 1], self.decoded)?;
                    return Ok(self.decoded_span(from));
                }
                b'>' => return Ok(self.span(start, self.pos - 1)),
                b'\\' => escaped = true,
                _ => {}
            }
        }
        Err("unterminated token, expected '>'".into())
    }

    /// The lexical form after an opening `"`, up to its closing `"`.
    fn quoted(&mut self) -> Result<Span, String> {
        let start = self.pos;
        while let Some(c) = self.bump() {
            match c {
                b'"' => return Ok(self.span(start, self.pos - 1)),
                b'\\' => {
                    let from = self.decoded.len();
                    self.pos -= 1;
                    self.unescape(start)?;
                    return Ok(self.decoded_span(from));
                }
                _ => {}
            }
        }
        Err("unterminated string literal".into())
    }

    /// Decode the lexical form from `line[run..]` to its closing `"`.
    fn unescape(&mut self, mut run: usize) -> Result<(), String> {
        loop {
            match self.bump() {
                None => return Err("unterminated string literal".into()),
                Some(b'"') => {
                    self.decoded.push_str(&self.line[run..self.pos - 1]);
                    return Ok(());
                }
                Some(b'\\') => {
                    self.decoded.push_str(&self.line[run..self.pos - 1]);
                    let c = match self.bump() {
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'\'') => '\'',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(u @ (b'u' | b'U')) => {
                            let (c, width) = uchar(u, &self.bytes()[self.pos..])?;
                            self.pos += width;
                            c
                        }
                        Some(c) => return Err(format!("bad escape '\\{}'", c as char)),
                        None => return Err("dangling escape".into()),
                    };
                    self.decoded.push(c);
                    run = self.pos;
                }
                Some(_) => {}
            }
        }
    }

    fn term(&mut self) -> Result<NtTerm, String> {
        self.skip_ws();
        let term = |kind, text, tag| NtTerm { kind, text, tag };
        match self.peek() {
            Some(b'<') => {
                self.bump();
                Ok(term(Kind::Iri, self.iri()?, Span::default()))
            }
            Some(b'_') => {
                self.bump();
                self.expect(b':')?;
                let start = self.pos;
                self.skip_token();
                // A label never ends in `.`: in `_:b1.` the dot ends the triple.
                while self.pos > start && self.bytes()[self.pos - 1] == b'.' {
                    self.pos -= 1;
                }
                if self.pos == start {
                    return Err("empty blank node label".into());
                }
                Ok(term(Kind::Blank, self.span(start, self.pos), Span::default()))
            }
            Some(b'"') => {
                self.bump();
                let lexical = self.quoted()?;
                match self.peek() {
                    Some(b'^') => {
                        self.bump();
                        self.expect(b'^')?;
                        self.expect(b'<')?;
                        Ok(term(Kind::Typed, lexical, self.iri()?))
                    }
                    Some(b'@') => {
                        self.bump();
                        let start = self.pos;
                        self.lang_tag();
                        if self.pos == start {
                            return Err("empty language tag".into());
                        }
                        Ok(term(Kind::Lang, lexical, self.span(start, self.pos)))
                    }
                    _ => Ok(term(Kind::Plain, lexical, Span::default())),
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
    // At most 8 hex digits: the code always fits a u32.
    let code = digits
        .get(..width)
        .and_then(|hex| hex.iter().try_fold(0u32, |acc, &d| Some(acc << 4 | (d as char).to_digit(16)?)))
        .ok_or_else(|| format!("bad escape '\\{}': needs {width} hex digits", kind as char))?;
    match char::from_u32(code) {
        Some(c) => Ok((c, width)),
        None if (0xD800..=0xDFFF).contains(&code) => Err(format!("bad escape: U+{code:04X} is a surrogate")),
        None => Err(format!("bad escape: U+{code:X} is beyond U+10FFFF")),
    }
}

/// Decode the `\u` / `\U` escapes of an IRI into `out`; every other byte
/// is kept.
fn decode_iri(raw: &str, out: &mut String) -> Result<(), String> {
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
    Ok(())
}

/// Parse an N-Triples document of at most 2 GiB. Blank lines and `#`
/// comment lines are skipped; the first bad line fails the document with
/// its 1-based number.
pub fn parse_ntriples(doc: &str) -> Result<NtDocument<'_>, NtError> {
    if doc.len() > MAX_DOCUMENT {
        let message = format!("the document is {} bytes; at most {MAX_DOCUMENT} are parsed", doc.len());
        return Err(NtError { line: 0, message });
    }
    let lines = doc.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut out = NtDocument {
        text: doc,
        decoded: String::new(),
        terms: Vec::with_capacity(3 * lines),
    };
    let mut base = 0;
    for (i, raw) in doc.split_inclusive('\n').enumerate() {
        let from_start = raw.trim_start();
        let line = from_start.trim_end();
        let offset = base + raw.len() - from_start.len();
        base += raw.len();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.parse_line(line, offset).map_err(|message| NtError { line: i + 1, message })?;
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
    fn one_document_cannot_fill_a_graphs_u32_positions() {
        let shortest = "<><>\"\".";
        assert_eq!(parse_ntriples(shortest).map(|d| d.len()), Ok(1), "a 7-byte triple");
        assert!(MAX_DOCUMENT / shortest.len() < u32::MAX as usize);
    }
    use crate::term::Term;

    /// The one triple of a one-line document.
    fn one(line: &str) -> TermTriple {
        let doc = parse_ntriples(line).unwrap();
        assert_eq!(doc.len(), 1, "{line}");
        doc.to_vec().remove(0)
    }

    #[test]
    fn parses_iri_triple() {
        let t = one("<http://x/s> <http://x/p> <http://x/o> .");
        assert_eq!(t.s, Term::iri("http://x/s"));
        assert_eq!(t.p, Term::iri("http://x/p"));
        assert_eq!(t.o, Term::iri("http://x/o"));
    }

    #[test]
    fn parses_typed_literal() {
        let t = one(
            "<http://x/s> <http://x/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        );
        assert_eq!(t.o.numeric_value(), Some(42.0));
    }

    #[test]
    fn parses_lang_literal_and_bnode() {
        let t = one("_:b1 <http://x/p> \"chat\"@fr .");
        assert_eq!(t.s, Term::bnode("b1"));
        assert_eq!(t.o, Term::lang_literal("chat", "fr"));
    }

    #[test]
    fn a_dot_may_close_a_language_tag() {
        let t = one(r#"<http://x/s> <http://x/p> "x"@en."#);
        assert_eq!(t.o, Term::lang_literal("x", "en"));
        let t = one(r#"<http://x/s> <http://x/p> "x"@en-GB-oed."#);
        assert_eq!(t.o, Term::lang_literal("x", "en-GB-oed"));
    }

    #[test]
    fn a_dot_may_close_a_blank_node_label() {
        let t = one("_:a.b <http://x/p> _:b1.");
        assert_eq!(t.s, Term::bnode("a.b"));
        assert_eq!(t.o, Term::bnode("b1"));
    }

    #[test]
    fn an_empty_language_tag_is_an_error_with_its_line() {
        let doc = "<http://x/s> <http://x/p> \"a\" .\n<http://x/s> <http://x/p> \"x\"@ .\n";
        let err = parse_ntriples(doc).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "empty language tag"));
        // A tag runs as far as the grammar allows; what follows is not part of it.
        let err = parse_ntriples(r#"<http://x/s> <http://x/p> "x"@en_US ."#).unwrap_err();
        assert_eq!(err.message, "expected '.', found '_'");
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
        assert_eq!(parsed.to_vec(), vec![original]);
    }

    #[test]
    fn decodes_uchar_escapes_in_literals_and_iris() {
        let t = one(
            r#"<http://x/caf\u00E9> <http://x/p\U0001F30D> "\u00e9t\u00E9 \U0001F30D \'\b\f"^^<http://x/t\u0079pe> ."#,
        );
        assert_eq!(t.s, Term::iri("http://x/café"));
        assert_eq!(t.p, Term::iri("http://x/p🌍"));
        assert_eq!(t.o, Term::typed_literal("été 🌍 '\u{8}\u{c}", "http://x/type"));
    }

    #[test]
    fn other_iri_bytes_parse_as_written() {
        let t = one(r"<http://x/a\b\n> <http://x/p> <http://x/o\> .");
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
    fn iris_round_trip_through_the_writer() {
        for iri in ["http://x/\\u0041", "http://x/a>b", "http://x/a b<\"c\"\n\t\u{7f}\\", "http://x/é"] {
            let t = TermTriple::new(Term::iri(iri), Term::iri("http://x/p"), Term::typed_literal("v", iri));
            let doc = write_ntriples(std::slice::from_ref(&t));
            assert_eq!(parse_ntriples(&doc).unwrap().to_vec(), vec![t], "{doc}");
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
        assert_eq!(parsed.to_vec(), vec![original]);
    }
}
