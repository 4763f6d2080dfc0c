//! `parse_ntriples` against the reference parser in `common`: over random
//! documents — every term kind, `\u` / `\U` / ECHAR escapes, comments,
//! blank lines, CRLF line ends, and at most one malformed line at a random
//! position — it gives the reference's triples, or fails on the same line
//! with the same message.

mod common;

use rapida_rdf::parse_ntriples;
use rapida_testkit::prelude::*;
use rapida_testkit::prop::Gen;

/// Pick one of `items`.
fn pick<'a>(g: &mut Gen, items: &[&'a str]) -> &'a str {
    items[g.below(items.len() as u64) as usize]
}

/// Zero to two spaces or tabs, at least `min`.
fn ws(g: &mut Gen, min: usize, out: &mut String) {
    for _ in 0..min + g.usize_in(0..3) {
        out.push(if g.below(3) == 0 { '\t' } else { ' ' });
    }
}

/// An IRI: plain, non-ASCII and escaped characters, and backslashes the
/// parser keeps as written.
fn iri(g: &mut Gen, out: &mut String) {
    const PIECES: &[&str] = &[
        "a", "Z", "7", "/", "#", ":", ".", "_", "-", "~", "?", "=", "é", "世", "🌍", r"\u00E9", r"\U0001F30D",
        r"\u003E", r"\u005C", r"\u0020", r"\", r"\b", r"\n",
    ];
    out.push_str("<http://");
    out.push_str(pick(g, &["x", "bsbm.example.org", "a.b"]));
    out.push('/');
    for _ in 0..g.usize_in(0..10) {
        out.push_str(pick(g, PIECES));
    }
    out.push('>');
}

/// The quoted part of a literal: raw characters (tab and non-ASCII
/// included), ECHARs and `\u` / `\U` escapes.
fn quoted(g: &mut Gen, out: &mut String) {
    const PIECES: &[&str] = &[
        "a", "Q", "0", " ", "\t", "'", "<", ">", "#", ".", "@", "^", "é", "世", "🌍", r"\t", r"\b", r"\n", r"\r",
        r"\f", r#"\""#, r"\'", r"\\", r"\u00e9", r"\U0001F30D", r"\u0022", r"\u0000",
    ];
    out.push('"');
    for _ in 0..g.usize_in(0..10) {
        out.push_str(pick(g, PIECES));
    }
    out.push('"');
}

/// `_:label`; a label never ends in `.`.
fn bnode(g: &mut Gen, out: &mut String) {
    out.push_str("_:");
    out.push_str(pick(g, &["b", "B", "0", "_"]));
    for _ in 0..g.usize_in(0..5) {
        out.push_str(pick(g, &["a", "9", "_", "-", ".", "é"]));
    }
    if out.ends_with('.') {
        out.push('x');
    }
}

fn lang(g: &mut Gen, out: &mut String) {
    out.push('@');
    out.push_str(pick(g, &["en", "fr", "de", "x"]));
    if g.below(2) == 0 {
        out.push('-');
        out.push_str(pick(g, &["US", "latn", "1996", "a1"]));
    }
}

fn object(g: &mut Gen, out: &mut String) {
    match g.below(5) {
        0 => iri(g, out),
        1 => bnode(g, out),
        2 => quoted(g, out),
        3 => {
            quoted(g, out);
            out.push_str("^^");
            iri(g, out);
        }
        _ => {
            quoted(g, out);
            lang(g, out);
        }
    }
}

fn subject(g: &mut Gen, out: &mut String) {
    if g.below(3) == 0 {
        bnode(g, out);
    } else {
        iri(g, out);
    }
}

fn triple(g: &mut Gen, out: &mut String) {
    ws(g, 0, out);
    subject(g, out);
    ws(g, 1, out);
    iri(g, out);
    ws(g, 1, out);
    object(g, out);
    ws(g, 0, out);
    out.push('.');
    ws(g, 0, out);
}

/// A line every parser must reject: a valid triple with one fault.
fn malformed(g: &mut Gen, out: &mut String) {
    let mut s = String::new();
    subject(g, &mut s);
    let mut p = String::new();
    iri(g, &mut p);
    let mut o = String::new();
    object(g, &mut o);
    let (s, p, o) = match g.below(12) {
        0 => return out.push_str(&format!("{s} {p} {o} ")),
        1 => return out.push_str(&format!("{s} {p}")),
        2 => return out.push_str(&format!("{s} {p} {o} . {}", pick(g, &["x", "<http://x/o>", "."]))),
        3 => (pick(g, &[r#""lit""#, r#""lit"@en"#]).to_owned(), p, o),
        4 => (s, pick(g, &["_:p", r#""p""#]).to_owned(), o),
        5 => {
            let bad = [r#""a\q""#, r#""\u12""#, r#""\u12G4""#, r#""\uD800""#, r#""\U00110000""#, r#""\UDFFF0000""#, r#""a\é""#];
            (s, p, pick(g, &bad).to_owned())
        }
        6 => (s, p, pick(g, &[r"<http://x/\u00>", r"<http://x/\uDC00>", r"<http://x/\U0001F30>"]).to_owned()),
        7 => return out.push_str(&format!("{s} {p} {}", pick(g, &["<http://x/o .", r#""abc ."#, r#""abc\"#]))),
        8 => (s, pick(g, &["?", "é", "p"]).to_owned(), o),
        9 => (pick(g, &["_: ", "_x", "_"]).to_owned(), p, o),
        10 => (s, p, pick(g, &[r#""x"^<http://x/t>"#, r#""x"^^http://x/t"#, r#""x"^"#, r#""x"@"#, r#""x"@-en"#]).to_owned()),
        _ => (s, p, format!("{o}{}", pick(g, &["x", "?"]))),
    };
    out.push_str(&format!("{s} {p} {o} ."));
}

/// Documents of up to 24 lines; three in four have one malformed line.
struct Documents;

impl Strategy for Documents {
    type Value = String;

    fn generate(&self, g: &mut Gen) -> String {
        let lines = g.usize_in(0..24);
        let bad = (g.below(4) != 0).then(|| g.usize_in(0..lines.max(1)));
        let mut doc = String::new();
        for i in 0..lines {
            if bad == Some(i) {
                malformed(g, &mut doc);
            } else {
                match g.below(8) {
                    0 => {
                        ws(g, 0, &mut doc);
                        doc.push_str(pick(g, &["#", "# <http://x/s> <http://x/p> \"o\" .", "#é\t\\u12"]));
                    }
                    1 => ws(g, 0, &mut doc),
                    _ => triple(g, &mut doc),
                }
            }
            if i + 1 < lines || g.below(2) == 0 {
                doc.push_str(if g.below(4) == 0 { "\r\n" } else { "\n" });
            }
        }
        doc
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn parse_matches_the_reference(doc in Documents) {
        let want = common::parse_document(&doc);
        let got = parse_ntriples(&doc).map(|d| d.to_vec());
        prop_assert_eq!(got, want, "document:\n{}", doc);
    }
}
