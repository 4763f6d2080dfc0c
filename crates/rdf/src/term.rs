//! RDF terms: IRIs, literals (plain, typed, language-tagged), blank nodes.

use std::fmt;

/// Well-known XSD datatype IRIs used when constructing typed literals.
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
/// xsd:decimal datatype IRI.
pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
/// xsd:double datatype IRI.
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
/// xsd:string datatype IRI.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
/// xsd:date datatype IRI.
pub const XSD_DATE: &str = "http://www.w3.org/2001/XMLSchema#date";

/// An RDF term.
///
/// The in-memory representation used *before* dictionary encoding. Hot paths
/// operate on [`crate::TermId`]s instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding `<>`.
    Iri(String),
    /// A literal with optional datatype and language tag.
    Literal {
        /// The lexical form.
        lexical: String,
        /// Datatype IRI, if any (`None` means plain / xsd:string).
        datatype: Option<String>,
        /// Language tag, if any (mutually exclusive with `datatype`).
        language: Option<String>,
    },
    /// A blank node with its local label (without the `_:` prefix).
    BlankNode(String),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Construct a plain (untyped) string literal.
    pub fn literal(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// Construct a typed literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: Some(datatype.into()),
            language: None,
        }
    }

    /// Construct a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: Some(lang.into()),
        }
    }

    /// Construct an integer literal (xsd:integer).
    pub fn integer(value: i64) -> Self {
        Term::typed_literal(value.to_string(), XSD_INTEGER)
    }

    /// Construct a decimal literal (xsd:decimal).
    pub fn decimal(value: f64) -> Self {
        Term::typed_literal(format!("{value}"), XSD_DECIMAL)
    }

    /// Construct a blank node term.
    pub fn bnode(label: impl Into<String>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Is this term an IRI?
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Is this term a literal?
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// Is this term a blank node?
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// Lexical form for literals, IRI string for IRIs, label for bnodes.
    pub fn lexical(&self) -> &str {
        self.view().lexical()
    }

    /// The numeric value of this term if it is a numeric literal.
    ///
    /// Any literal whose lexical form parses as `f64` is treated as numeric,
    /// matching SPARQL's lenient treatment in aggregate expressions over
    /// benchmark data.
    pub fn numeric_value(&self) -> Option<f64> {
        self.view().numeric_value()
    }

    /// This term with its strings borrowed.
    pub(crate) fn view(&self) -> TermRef<'_> {
        match self {
            Term::Iri(iri) => TermRef::Iri(iri),
            Term::Literal { lexical, datatype, language } => TermRef::Literal {
                lexical,
                datatype: datatype.as_deref(),
                language: language.as_deref(),
            },
            Term::BlankNode(label) => TermRef::BlankNode(label),
        }
    }
}

/// A [`Term`] whose strings are borrowed: what the N-Triples parser hands
/// the dictionary, and what the dictionary decodes its keys into.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TermRef<'a> {
    Iri(&'a str),
    Literal {
        lexical: &'a str,
        datatype: Option<&'a str>,
        language: Option<&'a str>,
    },
    BlankNode(&'a str),
}

impl<'a> TermRef<'a> {
    /// See [`Term::lexical`].
    pub(crate) fn lexical(self) -> &'a str {
        match self {
            TermRef::Iri(s) | TermRef::Literal { lexical: s, .. } | TermRef::BlankNode(s) => s,
        }
    }

    /// An owned copy.
    pub(crate) fn to_term(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::Iri(iri.to_owned()),
            TermRef::Literal { lexical, datatype, language } => Term::Literal {
                lexical: lexical.to_owned(),
                datatype: datatype.map(str::to_owned),
                language: language.map(str::to_owned),
            },
            TermRef::BlankNode(label) => Term::BlankNode(label.to_owned()),
        }
    }

    /// See [`Term::numeric_value`].
    pub(crate) fn numeric_value(self) -> Option<f64> {
        match self {
            TermRef::Literal { lexical, .. } => lexical.trim().parse::<f64>().ok(),
            _ => None,
        }
    }
}

fn escape_literal(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
}

/// `<iri>`, with the characters an N-Triples IRI cannot hold as written —
/// `\`, `<`, `>`, `"`, space and control characters — as `\uXXXX`, so that
/// the parser reads back the same IRI.
fn write_iri(iri: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let escaped = |c: char| c.is_control() || matches!(c, ' ' | '<' | '>' | '"' | '\\');
    f.write_str("<")?;
    let mut rest = iri;
    while let Some((at, c)) = rest.char_indices().find(|&(_, c)| escaped(c)) {
        write!(f, "{}\\u{:04X}", &rest[..at], u32::from(c))?;
        rest = &rest[at + c.len_utf8()..];
    }
    write!(f, "{rest}>")
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write_iri(iri, f),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => {
                let mut s = String::with_capacity(lexical.len() + 2);
                escape_literal(lexical, &mut s);
                write!(f, "\"{s}\"")?;
                if let Some(lang) = language {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    f.write_str("^^")?;
                    write_iri(dt, f)?;
                }
                Ok(())
            }
            Term::BlankNode(label) => write!(f, "_:{label}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_iri() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
    }

    #[test]
    fn display_escapes_what_an_iri_cannot_hold() {
        assert_eq!(Term::iri("http://x/a>b").to_string(), r"<http://x/a\u003Eb>");
        assert_eq!(Term::iri("http://x/\\u0041").to_string(), r"<http://x/\u005Cu0041>");
        assert_eq!(
            Term::typed_literal("v", "http://x/ t\"<\n\u{7f}é").to_string(),
            r#""v"^^<http://x/\u0020t\u0022\u003C\u000A\u007Fé>"#
        );
    }

    #[test]
    fn display_plain_literal() {
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn display_typed_literal() {
        assert_eq!(
            Term::integer(5).to_string(),
            format!("\"5\"^^<{XSD_INTEGER}>")
        );
    }

    #[test]
    fn display_lang_literal() {
        assert_eq!(Term::lang_literal("hallo", "de").to_string(), "\"hallo\"@de");
    }

    #[test]
    fn display_bnode() {
        assert_eq!(Term::bnode("b0").to_string(), "_:b0");
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(
            Term::literal("a\"b\\c\nd").to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn numeric_value_parses() {
        assert_eq!(Term::integer(7).numeric_value(), Some(7.0));
        assert_eq!(Term::decimal(1.5).numeric_value(), Some(1.5));
        assert_eq!(Term::literal("12.25").numeric_value(), Some(12.25));
        assert_eq!(Term::literal("abc").numeric_value(), None);
        assert_eq!(Term::iri("http://x/7").numeric_value(), None);
    }

    #[test]
    fn term_kind_predicates() {
        assert!(Term::iri("http://x").is_iri());
        assert!(Term::literal("x").is_literal());
        assert!(Term::bnode("b").is_blank());
        assert!(!Term::literal("x").is_iri());
    }
}
