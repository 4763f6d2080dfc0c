//! Recursive-descent parser for the SPARQL subset.

use crate::ast::*;
use crate::token::{tokenize, Token};
use rapida_rdf::{vocab, Term};
use std::collections::HashMap;
use std::fmt;

/// Parse error with token position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Index of the offending token (may equal token count at EOF).
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a SPARQL query string into an AST.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input).map_err(|e| ParseError {
        at: 0,
        message: e.to_string(),
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
    };
    // Built-in convenience prefixes; queries may override them.
    p.prefixes
        .insert("rdf".into(), "http://www.w3.org/1999/02/22-rdf-syntax-ns#".into());
    p.prefixes
        .insert("rdfs".into(), "http://www.w3.org/2000/01/rdf-schema#".into());
    p.prefixes
        .insert("xsd".into(), "http://www.w3.org/2001/XMLSchema#".into());
    let q = p.parse_query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: format!(
                "{} (near '{}')",
                msg.into(),
                self.tokens
                    .get(self.pos)
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "<eof>".into())
            ),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{t}'")))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword '{kw}'")))
        }
    }

    fn resolve_pname(&self, prefix: &str, local: &str) -> Result<String, ParseError> {
        match self.prefixes.get(prefix) {
            Some(base) => Ok(format!("{base}{local}")),
            None => Err(ParseError {
                at: self.pos,
                message: format!("undeclared prefix '{prefix}:'"),
            }),
        }
    }

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        let mut prefixes = Vec::new();
        while self.eat_keyword("PREFIX") {
            let (pfx, local) = match self.bump() {
                Some(Token::PName(p, l)) => (p, l),
                _ => return Err(self.err("expected prefix name after PREFIX")),
            };
            if !local.is_empty() {
                return Err(self.err("prefix declaration must end with ':'"));
            }
            let iri = match self.bump() {
                Some(Token::Iri(i)) => i,
                _ => return Err(self.err("expected IRI in PREFIX declaration")),
            };
            self.prefixes.insert(pfx.clone(), iri.clone());
            prefixes.push((pfx, iri));
        }
        let select = self.parse_select()?;
        Ok(Query { prefixes, select })
    }

    fn parse_select(&mut self) -> Result<SelectQuery, ParseError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projection = Vec::new();
        let mut saw_star = false;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.pos += 1;
                    saw_star = true;
                    break; // SELECT * — empty projection list
                }
                Some(Token::Var(_)) => {
                    if let Some(Token::Var(v)) = self.bump() {
                        projection.push(ProjectionItem::Var(Var::new(v)));
                    }
                }
                Some(Token::LParen) => {
                    self.pos += 1;
                    projection.push(self.parse_agg_projection()?);
                }
                Some(Token::Ident(s)) if is_agg_name(s) => {
                    // Unparenthesized aggregate: COUNT(?x) as ?y
                    projection.push(self.parse_agg_projection()?);
                }
                _ => break,
            }
        }
        if projection.is_empty() && !saw_star {
            return Err(self.err("SELECT requires '*' or at least one projection item"));
        }
        let pattern = self.parse_where()?;
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let Some(Token::Var(_)) = self.peek() {
                if let Some(Token::Var(v)) = self.bump() {
                    group_by.push(Var::new(v));
                }
            }
            if group_by.is_empty() {
                return Err(self.err("GROUP BY requires at least one variable"));
            }
        }
        Ok(SelectQuery {
            projection,
            distinct,
            pattern,
            group_by,
        })
    }

    /// Parses `FUNC '(' [DISTINCT] (?v | *) ')' [AS] ?alias [')' consumed by caller-aware logic]`.
    ///
    /// Called either after an opening `(` (the standard SPARQL 1.1 form) or at
    /// a bare aggregate name. The paper's appendix uses both
    /// `(COUNT(?pr2) ?cntF)` (no AS) and `(COUNT(?cid) as ?alias)`.
    fn parse_agg_projection(&mut self) -> Result<ProjectionItem, ParseError> {
        let func = match self.bump() {
            Some(Token::Ident(s)) => parse_agg_name(&s).ok_or_else(|| ParseError {
                at: self.pos,
                message: format!("unknown aggregate '{s}'"),
            })?,
            _ => return Err(self.err("expected aggregate function")),
        };
        self.expect(&Token::LParen)?;
        let distinct = self.eat_keyword("DISTINCT");
        let arg = match self.bump() {
            Some(Token::Var(v)) => Some(Var::new(v)),
            Some(Token::Star) => None,
            _ => return Err(self.err("expected variable or * in aggregate")),
        };
        self.expect(&Token::RParen)?;
        let _ = self.eat_keyword("AS") || self.eat_keyword("As") || self.eat_keyword("as");
        let alias = match self.bump() {
            Some(Token::Var(v)) => Var::new(v),
            _ => return Err(self.err("expected alias variable after aggregate")),
        };
        // Close the surrounding paren if present.
        let _ = self.eat(&Token::RParen);
        Ok(ProjectionItem::Aggregate {
            func,
            arg,
            alias,
            distinct,
        })
    }

    fn parse_where(&mut self) -> Result<GroupGraphPattern, ParseError> {
        let _ = self.eat_keyword("WHERE");
        self.parse_group_graph_pattern()
    }

    fn parse_group_graph_pattern(&mut self) -> Result<GroupGraphPattern, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut elements = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated group graph pattern")),
                Some(Token::RBrace) => {
                    self.pos += 1;
                    break;
                }
                Some(Token::LBrace) => {
                    // Nested group: either a sub-SELECT or a plain group
                    // (plain groups are inlined — no UNION semantics needed).
                    if matches!(self.peek2(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case("SELECT"))
                    {
                        self.pos += 1; // '{'
                        let sub = self.parse_select()?;
                        self.expect(&Token::RBrace)?;
                        elements.push(PatternElement::SubSelect(Box::new(sub)));
                    } else {
                        let inner = self.parse_group_graph_pattern()?;
                        elements.extend(inner.elements);
                    }
                    let _ = self.eat(&Token::Dot);
                }
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("FILTER") => {
                    self.pos += 1;
                    let f = self.parse_filter_constraint()?;
                    elements.push(PatternElement::Filter(f));
                    let _ = self.eat(&Token::Dot);
                }
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("OPTIONAL") => {
                    self.pos += 1;
                    let inner = self.parse_group_graph_pattern()?;
                    elements.push(PatternElement::Optional(inner));
                    let _ = self.eat(&Token::Dot);
                }
                _ => {
                    let triples = self.parse_triples_same_subject()?;
                    elements.extend(triples.into_iter().map(PatternElement::Triple));
                    // '.' separates sentences; it is optional before '}'.
                    let _ = self.eat(&Token::Dot);
                }
            }
        }
        Ok(GroupGraphPattern { elements })
    }

    fn parse_triples_same_subject(&mut self) -> Result<Vec<TriplePattern>, ParseError> {
        let subject = self.parse_term_slot(false)?;
        let mut out = Vec::new();
        loop {
            let verb = self.parse_verb()?;
            loop {
                let object = self.parse_term_slot(true)?;
                out.push(TriplePattern::new(subject.clone(), verb.clone(), object));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            if !self.eat(&Token::Semi) {
                break;
            }
            // Allow a dangling ';' before '.' or '}'.
            if matches!(self.peek(), Some(Token::Dot) | Some(Token::RBrace)) {
                break;
            }
        }
        Ok(out)
    }

    fn parse_verb(&mut self) -> Result<PatternTerm, ParseError> {
        if let Some(Token::Ident(s)) = self.peek() {
            if s == "a" {
                self.pos += 1;
                return Ok(PatternTerm::Term(Term::iri(vocab::RDF_TYPE)));
            }
        }
        self.parse_term_slot(false)
    }

    fn parse_term_slot(&mut self, allow_literal: bool) -> Result<PatternTerm, ParseError> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(PatternTerm::Var(Var::new(v))),
            Some(Token::Iri(i)) => Ok(PatternTerm::Term(Term::iri(i))),
            Some(Token::PName(p, l)) => {
                let iri = self.resolve_pname(&p, &l)?;
                Ok(PatternTerm::Term(Term::iri(iri)))
            }
            Some(Token::Str(s)) if allow_literal => {
                // Optional datatype / language tag.
                match self.peek() {
                    Some(Token::DtMarker) => {
                        self.pos += 1;
                        let dt = match self.bump() {
                            Some(Token::Iri(i)) => i,
                            Some(Token::PName(p, l)) => self.resolve_pname(&p, &l)?,
                            _ => return Err(self.err("expected datatype IRI after '^^'")),
                        };
                        Ok(PatternTerm::Term(Term::typed_literal(s, dt)))
                    }
                    Some(Token::LangTag(lang)) => {
                        let term = Term::lang_literal(s, lang.clone());
                        self.pos += 1;
                        Ok(PatternTerm::Term(term))
                    }
                    _ => Ok(PatternTerm::Term(Term::literal(s))),
                }
            }
            Some(Token::Num(n)) if allow_literal => Ok(PatternTerm::Term(number_term(n))),
            other => Err(ParseError {
                at: self.pos,
                message: format!("expected term, found {other:?}"),
            }),
        }
    }

    fn parse_filter_constraint(&mut self) -> Result<FilterExpr, ParseError> {
        if self.at_keyword("REGEX") {
            return self.parse_regex_call();
        }
        self.expect(&Token::LParen)?;
        let e = self.parse_or_expr()?;
        self.expect(&Token::RParen)?;
        Ok(e)
    }

    fn parse_regex_call(&mut self) -> Result<FilterExpr, ParseError> {
        self.expect_keyword("REGEX")?;
        self.expect(&Token::LParen)?;
        let var = match self.bump() {
            Some(Token::Var(v)) => Var::new(v),
            _ => return Err(self.err("regex() first argument must be a variable")),
        };
        self.expect(&Token::Comma)?;
        let pattern = match self.bump() {
            Some(Token::Str(s)) => s,
            _ => return Err(self.err("regex() second argument must be a string")),
        };
        let mut case_insensitive = false;
        if self.eat(&Token::Comma) {
            match self.bump() {
                Some(Token::Str(flags)) => case_insensitive = flags.contains('i'),
                _ => return Err(self.err("regex() flags must be a string")),
            }
        }
        self.expect(&Token::RParen)?;
        Ok(FilterExpr::Regex {
            var,
            pattern,
            case_insensitive,
        })
    }

    fn parse_or_expr(&mut self) -> Result<FilterExpr, ParseError> {
        let mut left = self.parse_and_expr()?;
        while self.eat(&Token::OrOr) {
            let right = self.parse_and_expr()?;
            left = FilterExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and_expr(&mut self) -> Result<FilterExpr, ParseError> {
        let mut left = self.parse_unary_expr()?;
        while self.eat(&Token::AndAnd) {
            let right = self.parse_unary_expr()?;
            left = FilterExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary_expr(&mut self) -> Result<FilterExpr, ParseError> {
        if self.eat(&Token::Bang) {
            let inner = self.parse_unary_expr()?;
            return Ok(FilterExpr::Not(Box::new(inner)));
        }
        if self.at_keyword("REGEX") {
            return self.parse_regex_call();
        }
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let e = self.parse_or_expr()?;
            self.expect(&Token::RParen)?;
            return Ok(e);
        }
        let left = self.parse_value_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            _ => return Err(self.err("expected comparison operator in FILTER")),
        };
        self.pos += 1;
        let right = self.parse_value_expr()?;
        Ok(FilterExpr::Compare { left, op, right })
    }

    fn parse_value_expr(&mut self) -> Result<ValueExpr, ParseError> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(ValueExpr::Var(Var::new(v))),
            Some(Token::Num(n)) => Ok(ValueExpr::Number(n)),
            Some(Token::Str(s)) => Ok(ValueExpr::Term(Term::literal(s))),
            Some(Token::Iri(i)) => Ok(ValueExpr::Term(Term::iri(i))),
            Some(Token::PName(p, l)) => {
                let iri = self.resolve_pname(&p, &l)?;
                Ok(ValueExpr::Term(Term::iri(iri)))
            }
            other => Err(ParseError {
                at: self.pos,
                message: format!("expected value expression, found {other:?}"),
            }),
        }
    }
}

fn is_agg_name(s: &str) -> bool {
    parse_agg_name(s).is_some()
}

fn parse_agg_name(s: &str) -> Option<AggFunc> {
    match s.to_ascii_uppercase().as_str() {
        "COUNT" => Some(AggFunc::Count),
        "SUM" => Some(AggFunc::Sum),
        "AVG" => Some(AggFunc::Avg),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        _ => None,
    }
}

fn number_term(n: f64) -> Term {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        Term::integer(n as i64)
    } else {
        Term::decimal(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_select() {
        let q = parse_query(
            "PREFIX ex: <http://x/> SELECT ?s WHERE { ?s ex:p ?o . ?o ex:q \"v\" . }",
        )
        .unwrap();
        assert_eq!(q.select.projection.len(), 1);
        assert_eq!(q.select.pattern.triples().len(), 2);
    }

    #[test]
    fn parses_predicate_list() {
        let q = parse_query(
            "PREFIX ex: <http://x/> SELECT ?s { ?s ex:a ?x ; ex:b ?y ; ex:c \"z\" . }",
        )
        .unwrap();
        let tps = q.select.pattern.triples();
        assert_eq!(tps.len(), 3);
        for tp in &tps {
            assert_eq!(tp.s, PatternTerm::Var(Var::new("s")));
        }
    }

    #[test]
    fn parses_a_keyword() {
        let q = parse_query("SELECT ?s { ?s a <http://x/T> . }").unwrap();
        let tps = q.select.pattern.triples();
        assert_eq!(
            tps[0].p,
            PatternTerm::Term(Term::iri(rapida_rdf::vocab::RDF_TYPE))
        );
    }

    #[test]
    fn parses_aggregates_both_styles() {
        let q = parse_query(
            "SELECT ?f (COUNT(?p) AS ?c) (SUM(?p) ?s) { ?x <http://x/p> ?p . } GROUP BY ?f",
        )
        .unwrap();
        assert_eq!(q.select.projection.len(), 3);
        assert!(matches!(
            q.select.projection[1],
            ProjectionItem::Aggregate {
                func: AggFunc::Count,
                ..
            }
        ));
        assert!(matches!(
            q.select.projection[2],
            ProjectionItem::Aggregate {
                func: AggFunc::Sum,
                ..
            }
        ));
        assert_eq!(q.select.group_by, vec![Var::new("f")]);
    }

    #[test]
    fn parses_count_star() {
        let q = parse_query("SELECT (COUNT(*) AS ?n) { ?s ?p ?o . }").unwrap();
        match &q.select.projection[0] {
            ProjectionItem::Aggregate { arg, .. } => assert!(arg.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_nested_subselects() {
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?f ?c ?t {
               { SELECT ?f (COUNT(?p) AS ?c) { ?x ex:f ?f ; ex:p ?p . } GROUP BY ?f }
               { SELECT (COUNT(?p2) AS ?t) { ?y ex:p ?p2 . } }
             }",
        )
        .unwrap();
        let subs = q.select.pattern.subselects();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].group_by.len(), 1);
        assert!(subs[1].group_by.is_empty());
        assert!(subs[1].has_aggregates());
    }

    #[test]
    fn parses_filters() {
        let q = parse_query(
            "SELECT ?s { ?s <http://x/price> ?p . FILTER(?p > 5000 && ?p != 9999) }",
        )
        .unwrap();
        let fs = q.select.pattern.filters();
        assert_eq!(fs.len(), 1);
        assert!(matches!(fs[0], FilterExpr::And(_, _)));
    }

    #[test]
    fn parses_regex_filter() {
        let q = parse_query(
            "SELECT ?s { ?s <http://x/name> ?n . FILTER regex(?n, \"MAPK signaling pathway\", \"i\") }",
        )
        .unwrap();
        match q.select.pattern.filters()[0] {
            FilterExpr::Regex {
                case_insensitive, ..
            } => assert!(case_insensitive),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_optional() {
        let q = parse_query(
            "SELECT ?s { ?s <http://x/p> ?o . OPTIONAL { ?s <http://x/q> ?q . } }",
        )
        .unwrap();
        assert!(q
            .select
            .pattern
            .elements
            .iter()
            .any(|e| matches!(e, PatternElement::Optional(_))));
    }

    #[test]
    fn parses_string_object_with_literal() {
        let q = parse_query(
            "SELECT ?dr { ?dr <http://x/Generic_Name> \"Dexamethasone\" . }",
        )
        .unwrap();
        let tps = q.select.pattern.triples();
        assert_eq!(
            tps[0].o,
            PatternTerm::Term(Term::literal("Dexamethasone"))
        );
    }

    #[test]
    fn rejects_undeclared_prefix() {
        assert!(parse_query("SELECT ?s { ?s foo:p ?o . }").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("SELECT ?s WHERE ?s").is_err());
        assert!(parse_query("SELECT { }").is_err());
    }

    #[test]
    fn parses_distinct() {
        let q = parse_query("SELECT DISTINCT ?s { ?s <http://x/p> ?o . }").unwrap();
        assert!(q.select.distinct);
    }

    #[test]
    fn group_by_multiple_vars() {
        let q = parse_query(
            "SELECT ?a ?b (COUNT(?c) AS ?n) { ?x <http://x/a> ?a ; <http://x/b> ?b ; <http://x/c> ?c . } GROUP BY ?a ?b",
        )
        .unwrap();
        assert_eq!(q.select.group_by.len(), 2);
    }
}
