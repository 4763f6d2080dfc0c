//! A direct, in-memory reference evaluator for the SPARQL subset.
//!
//! This is the correctness oracle of the workspace: it evaluates the AST by
//! straightforward nested iteration with no optimization at all, and every
//! scale-out engine in `rapida-core` must agree with it on result multisets.

use crate::ast::*;
use crate::relation::{Cell, Relation};
use rapida_rdf::{FxHashMap, Graph, TermId, Triple};

/// Evaluate a parsed query against a graph.
pub fn evaluate(query: &Query, graph: &Graph) -> Relation {
    let ev = Evaluator::new(graph);
    ev.eval_select(&query.select)
}

/// Evaluate a select (sub)query against a graph.
pub fn evaluate_select(select: &SelectQuery, graph: &Graph) -> Relation {
    Evaluator::new(graph).eval_select(select)
}

type Bindings = FxHashMap<Var, TermId>;

/// Convert a binding id into an output cell, recovering tagged numerics
/// (aggregate values that were joined back into bindings).
fn cell_of(id: TermId) -> Cell {
    match untag_num(id) {
        Some(n) => Cell::Num(n),
        None => Cell::Term(id),
    }
}

struct Evaluator<'g> {
    graph: &'g Graph,
    by_prop: FxHashMap<TermId, Vec<Triple>>,
}

impl<'g> Evaluator<'g> {
    fn new(graph: &'g Graph) -> Self {
        let mut by_prop: FxHashMap<TermId, Vec<Triple>> = FxHashMap::default();
        for t in &graph.triples {
            by_prop.entry(t.p).or_default().push(*t);
        }
        Evaluator {
            graph,
            by_prop,
        }
    }

    fn eval_select(&self, q: &SelectQuery) -> Relation {
        let rows = self.eval_group(&q.pattern);
        let rel = self.apply_grouping_and_projection(q, rows);
        if q.distinct {
            distinct(rel)
        } else {
            rel
        }
    }

    /// Evaluate a group graph pattern to a list of bindings.
    fn eval_group(&self, group: &GroupGraphPattern) -> Vec<Bindings> {
        let mut rows: Vec<Bindings> = vec![Bindings::default()];
        let mut filters: Vec<&FilterExpr> = Vec::new();
        for el in &group.elements {
            match el {
                PatternElement::Triple(tp) => {
                    rows = self.extend_by_pattern(rows, tp);
                }
                PatternElement::Filter(f) => filters.push(f),
                PatternElement::SubSelect(sub) => {
                    let sub_rel = self.eval_select(sub);
                    rows = join_with_relation(rows, &sub_rel);
                }
                PatternElement::Optional(inner) => {
                    rows = self.left_join_group(rows, inner);
                }
            }
        }
        // SPARQL applies FILTERs to the whole group.
        rows.retain(|b| filters.iter().all(|f| self.eval_filter(f, b)));
        rows
    }

    fn extend_by_pattern(&self, rows: Vec<Bindings>, tp: &TriplePattern) -> Vec<Bindings> {
        let mut out = Vec::new();
        for b in rows {
            let candidates: &[Triple] = match &tp.p {
                PatternTerm::Term(t) => match self.graph.dict.lookup(t) {
                    Some(pid) => self.by_prop.get(&pid).map(|v| v.as_slice()).unwrap_or(&[]),
                    None => &[],
                },
                PatternTerm::Var(pv) => match b.get(pv) {
                    Some(pid) => self.by_prop.get(pid).map(|v| v.as_slice()).unwrap_or(&[]),
                    None => &self.graph.triples,
                },
            };
            for t in candidates {
                if let Some(nb) = self.try_match(&b, tp, t) {
                    out.push(nb);
                }
            }
        }
        out
    }

    fn try_match(&self, b: &Bindings, tp: &TriplePattern, t: &Triple) -> Option<Bindings> {
        let mut nb = b.clone();
        for (slot, id) in [(&tp.s, t.s), (&tp.p, t.p), (&tp.o, t.o)] {
            match slot {
                PatternTerm::Term(term) => {
                    if self.graph.dict.lookup(term) != Some(id) {
                        return None;
                    }
                }
                PatternTerm::Var(v) => match nb.get(v) {
                    Some(&bound) if bound != id => return None,
                    Some(_) => {}
                    None => {
                        nb.insert(v.clone(), id);
                    }
                },
            }
        }
        Some(nb)
    }

    fn left_join_group(&self, rows: Vec<Bindings>, inner: &GroupGraphPattern) -> Vec<Bindings> {
        let mut out = Vec::new();
        for b in rows {
            // Evaluate the optional part with the current bindings in scope.
            let seeded = self.eval_group_seeded(inner, &b);
            if seeded.is_empty() {
                out.push(b);
            } else {
                out.extend(seeded);
            }
        }
        out
    }

    fn eval_group_seeded(&self, group: &GroupGraphPattern, seed: &Bindings) -> Vec<Bindings> {
        let mut rows = vec![seed.clone()];
        let mut filters: Vec<&FilterExpr> = Vec::new();
        for el in &group.elements {
            match el {
                PatternElement::Triple(tp) => rows = self.extend_by_pattern(rows, tp),
                PatternElement::Filter(f) => filters.push(f),
                PatternElement::SubSelect(sub) => {
                    let sub_rel = self.eval_select(sub);
                    rows = join_with_relation(rows, &sub_rel);
                }
                PatternElement::Optional(inner) => rows = self.left_join_group(rows, inner),
            }
        }
        rows.retain(|b| filters.iter().all(|f| self.eval_filter(f, b)));
        rows
    }

    fn eval_filter(&self, f: &FilterExpr, b: &Bindings) -> bool {
        match f {
            FilterExpr::Compare { left, op, right } => {
                self.eval_compare(left, *op, right, b)
            }
            FilterExpr::Regex {
                var,
                pattern,
                case_insensitive,
            } => match b.get(var) {
                None => false,
                Some(&id) => {
                    let num = untag_num(id).map(|n| format!("{n}"));
                    let Some(lex) = num.as_deref().or_else(|| self.graph.dict.lexical(id)) else {
                        return false;
                    };
                    if *case_insensitive {
                        lex.to_lowercase().contains(&pattern.to_lowercase())
                    } else {
                        lex.contains(pattern.as_str())
                    }
                }
            },
            FilterExpr::And(a, c) => self.eval_filter(a, b) && self.eval_filter(c, b),
            FilterExpr::Or(a, c) => self.eval_filter(a, b) || self.eval_filter(c, b),
            FilterExpr::Not(a) => !self.eval_filter(a, b),
        }
    }

    fn eval_compare(&self, left: &ValueExpr, op: CmpOp, right: &ValueExpr, b: &Bindings) -> bool {
        // Numeric comparison when both sides are numeric; otherwise term
        // identity for Eq/Ne, false for ordering operators.
        let lnum = self.value_num(left, b);
        let rnum = self.value_num(right, b);
        if let (Some(l), Some(r)) = (lnum, rnum) {
            return match op {
                CmpOp::Eq => l == r,
                CmpOp::Ne => l != r,
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
            };
        }
        let lid = self.value_id(left, b);
        let rid = self.value_id(right, b);
        match (lid, rid, op) {
            (Some(l), Some(r), CmpOp::Eq) => l == r,
            (Some(l), Some(r), CmpOp::Ne) => l != r,
            _ => false,
        }
    }

    fn value_num(&self, e: &ValueExpr, b: &Bindings) -> Option<f64> {
        match e {
            ValueExpr::Number(n) => Some(*n),
            ValueExpr::Var(v) => b
                .get(v)
                .and_then(|id| untag_num(*id).or_else(|| self.graph.dict.numeric_value(*id))),
            ValueExpr::Term(t) => t.numeric_value(),
        }
    }

    fn value_id(&self, e: &ValueExpr, b: &Bindings) -> Option<TermId> {
        match e {
            ValueExpr::Number(_) => None,
            ValueExpr::Var(v) => b.get(v).copied(),
            ValueExpr::Term(t) => self.graph.dict.lookup(t),
        }
    }

    fn apply_grouping_and_projection(&self, q: &SelectQuery, rows: Vec<Bindings>) -> Relation {
        if !q.has_aggregates() {
            // Plain projection.
            let vars: Vec<Var> = if q.projection.is_empty() {
                // SELECT * — all variables seen in any row, sorted for
                // determinism.
                let mut all: Vec<Var> = rows
                    .iter()
                    .flat_map(|b| b.keys().cloned())
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                all.sort();
                all
            } else {
                q.output_vars()
            };
            let out_rows = rows
                .iter()
                .map(|b| {
                    vars.iter()
                        .map(|v| b.get(v).map(|&id| cell_of(id)).unwrap_or(Cell::Null))
                        .collect()
                })
                .collect();
            return Relation {
                vars,
                rows: out_rows,
            };
        }

        // Group rows by the GROUP BY key.
        let mut groups: FxHashMap<Vec<Option<TermId>>, Vec<&Bindings>> = FxHashMap::default();
        for b in &rows {
            let key: Vec<Option<TermId>> =
                q.group_by.iter().map(|v| b.get(v).copied()).collect();
            groups.entry(key).or_default().push(b);
        }
        // "GROUP BY ALL" over zero rows still yields one (empty) group, per
        // SPARQL 1.1 implicit-grouping semantics.
        if q.group_by.is_empty() && groups.is_empty() {
            groups.insert(Vec::new(), Vec::new());
        }

        let vars = q.output_vars();
        let mut out_rows = Vec::with_capacity(groups.len());
        for (key, members) in groups {
            let mut row = Vec::with_capacity(vars.len());
            for item in &q.projection {
                match item {
                    ProjectionItem::Var(v) => {
                        // Must be a grouping key to be well-formed.
                        let cell = q
                            .group_by
                            .iter()
                            .position(|g| g == v)
                            .and_then(|i| key[i])
                            .map(cell_of)
                            .unwrap_or(Cell::Null);
                        row.push(cell);
                    }
                    ProjectionItem::Aggregate {
                        func,
                        arg,
                        distinct,
                        ..
                    } => {
                        row.push(self.compute_aggregate(*func, arg.as_ref(), *distinct, &members));
                    }
                }
            }
            out_rows.push(row);
        }
        Relation {
            vars,
            rows: out_rows,
        }
    }

    fn compute_aggregate(
        &self,
        func: AggFunc,
        arg: Option<&Var>,
        distinct: bool,
        members: &[&Bindings],
    ) -> Cell {
        // Collect the argument values (term ids) across member rows.
        let mut ids: Vec<TermId> = Vec::new();
        for b in members {
            match arg {
                None => {
                    // COUNT(*): every row counts; encode as a dummy presence.
                    ids.push(TermId(u64::MAX));
                }
                Some(v) => {
                    if let Some(&id) = b.get(v) {
                        ids.push(id);
                    }
                }
            }
        }
        if distinct {
            let mut seen = std::collections::BTreeSet::new();
            ids.retain(|id| seen.insert(*id));
        }
        // A numeric aggregate folds the numeric arguments; over none it is
        // unbound.
        let numeric = |fold: fn(&[f64]) -> f64| {
            let nums: Vec<f64> = ids
                .iter()
                .filter_map(|id| untag_num(*id).or_else(|| self.graph.dict.numeric_value(*id)))
                .collect();
            if nums.is_empty() {
                Cell::Null
            } else {
                Cell::Num(fold(&nums))
            }
        };
        match func {
            AggFunc::Count => Cell::Num(ids.len() as f64),
            AggFunc::Sum => numeric(|n| n.iter().sum()),
            AggFunc::Avg => numeric(|n| n.iter().sum::<f64>() / n.len() as f64),
            AggFunc::Min => numeric(|n| n.iter().cloned().fold(f64::INFINITY, f64::min)),
            AggFunc::Max => numeric(|n| n.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
        }
    }
}

/// Join a list of bindings with a relation on shared variables (hash join on
/// the full shared-variable vector; Null/unbound never matches, per SPARQL
/// compatibility over *bound* values in our numeric-free subset).
fn join_with_relation(rows: Vec<Bindings>, rel: &Relation) -> Vec<Bindings> {
    let mut out = Vec::new();
    for b in rows {
        for rel_row in &rel.rows {
            let mut nb = b.clone();
            let mut ok = true;
            for (i, v) in rel.vars.iter().enumerate() {
                match rel_row[i] {
                    Cell::Term(id) => match nb.get(v) {
                        Some(&bound) if bound != id => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            nb.insert(v.clone(), id);
                        }
                    },
                    Cell::Num(n) => {
                        // Aggregate outputs join only by being carried along;
                        // numeric cells are stored via a synthetic binding in
                        // the NUMERIC_NS space (they never collide with term
                        // ids because term ids are dense from 0 while these
                        // carry the bit pattern tagged in the high bit).
                        let tagged = TermId(tag_num(n));
                        match nb.get(v) {
                            Some(&bound) if bound != tagged => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                nb.insert(v.clone(), tagged);
                            }
                        }
                    }
                    Cell::Null => {}
                }
            }
            if ok {
                out.push(nb);
            }
        }
    }
    out
}

/// Tag a float's bit pattern so it can live in a `TermId` slot without
/// colliding with dictionary ids.
///
/// The tag repurposes the f64 sign bit (bit 63): aggregate values in this
/// system are always non-negative (counts, sums of prices, averages), so
/// the sign bit is free, and dictionary ids are dense from zero and never
/// approach 2^63.
pub(crate) fn tag_num(n: f64) -> u64 {
    debug_assert!(n >= 0.0, "tagged numerics must be non-negative");
    n.to_bits() | (1u64 << 63)
}

/// Recover a float from a tagged id if it is one.
pub(crate) fn untag_num(id: TermId) -> Option<f64> {
    const TAG: u64 = 1u64 << 63;
    if id.0 & TAG != 0 {
        Some(f64::from_bits(id.0 & !TAG))
    } else {
        None
    }
}

fn distinct(rel: Relation) -> Relation {
    let mut seen = std::collections::HashSet::new();
    let mut rows = Vec::new();
    for row in rel.rows {
        let key: Vec<String> = row
            .iter()
            .map(|c| match c {
                Cell::Term(id) => format!("t{}", id.0),
                Cell::Num(n) => format!("n{}", n.to_bits()),
                Cell::Null => "x".to_string(),
            })
            .collect();
        if seen.insert(key) {
            rows.push(row);
        }
    }
    Relation {
        vars: rel.vars,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use rapida_rdf::Term;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        // Three products, two with features, offers with prices.
        g.insert_terms(&iri("p1"), &Term::iri(rapida_rdf::vocab::RDF_TYPE), &iri("T1"));
        g.insert_terms(&iri("p2"), &Term::iri(rapida_rdf::vocab::RDF_TYPE), &iri("T1"));
        g.insert_terms(&iri("p3"), &Term::iri(rapida_rdf::vocab::RDF_TYPE), &iri("T2"));
        g.insert_terms(&iri("p1"), &iri("feature"), &iri("f1"));
        g.insert_terms(&iri("p2"), &iri("feature"), &iri("f1"));
        g.insert_terms(&iri("p2"), &iri("feature"), &iri("f2"));
        g.insert_terms(&iri("o1"), &iri("product"), &iri("p1"));
        g.insert_terms(&iri("o1"), &iri("price"), &Term::decimal(10.0));
        g.insert_terms(&iri("o2"), &iri("product"), &iri("p2"));
        g.insert_terms(&iri("o2"), &iri("price"), &Term::decimal(30.0));
        g.insert_terms(&iri("o3"), &iri("product"), &iri("p2"));
        g.insert_terms(&iri("o3"), &iri("price"), &Term::decimal(50.0));
        g
    }

    #[test]
    fn bgp_join_counts() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?p ?pr { ?p a ex:T1 . ?o ex:product ?p ; ex:price ?pr . }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        assert_eq!(rel.len(), 3); // o1->p1, o2->p2, o3->p2
    }

    #[test]
    fn group_by_aggregation() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?p (SUM(?pr) AS ?total) (COUNT(?pr) AS ?n)
             { ?o ex:product ?p ; ex:price ?pr . } GROUP BY ?p",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        assert_eq!(rel.len(), 2);
        let dict = &g.dict;
        let p2 = dict.lookup(&iri("p2")).unwrap();
        let row = rel
            .rows
            .iter()
            .find(|r| r[0] == Cell::Term(p2))
            .expect("p2 group present");
        assert_eq!(row[1], Cell::Num(80.0));
        assert_eq!(row[2], Cell::Num(2.0));
    }

    #[test]
    fn group_by_all_single_group() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?pr) AS ?n) (AVG(?pr) AS ?avg) { ?o ex:price ?pr . }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows[0][0], Cell::Num(3.0));
        assert_eq!(rel.rows[0][1], Cell::Num(30.0));
    }

    #[test]
    fn empty_grouped_query_returns_no_rows() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?z (COUNT(?z) AS ?n) { ?a ex:nosuch ?z . } GROUP BY ?z",
        )
        .unwrap();
        assert!(evaluate(&q, &g).is_empty());
    }

    #[test]
    fn empty_ungrouped_aggregate_returns_one_row() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?z) AS ?n) { ?a ex:nosuch ?z . }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows[0][0], Cell::Num(0.0));
    }

    #[test]
    fn numeric_filter() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?o { ?o ex:price ?pr . FILTER(?pr > 20) }",
        )
        .unwrap();
        assert_eq!(evaluate(&q, &g).len(), 2);
    }

    #[test]
    fn regex_filter_case_insensitive() {
        let mut g = Graph::new();
        g.insert_terms(&iri("a"), &iri("name"), &Term::literal("MAPK Signaling Pathway"));
        g.insert_terms(&iri("b"), &iri("name"), &Term::literal("other"));
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?s { ?s ex:name ?n . FILTER regex(?n, \"mapk signaling\", \"i\") }",
        )
        .unwrap();
        assert_eq!(evaluate(&q, &g).len(), 1);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?p ?f { ?p a ex:T1 . OPTIONAL { ?p ex:feature ?f . } }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        // p1 has 1 feature, p2 has 2 -> 3 rows, all matched; add an
        // unfeatured product of T1 and it would surface with Null.
        assert_eq!(rel.len(), 3);

        let mut g2 = sample_graph();
        g2.insert_terms(&iri("p9"), &Term::iri(rapida_rdf::vocab::RDF_TYPE), &iri("T1"));
        let rel2 = evaluate(&q, &g2);
        assert_eq!(rel2.len(), 4);
        let fcol = rel2.col(&Var::new("f")).unwrap();
        assert!(rel2.rows.iter().any(|r| r[fcol] == Cell::Null));
    }

    #[test]
    fn nested_subselects_join_on_shared_keys() {
        let g = sample_graph();
        // Per-feature sum of prices vs overall sum: MG1 in miniature.
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?f ?sumF ?sumT {
               { SELECT ?f (SUM(?pr) AS ?sumF)
                 { ?p ex:feature ?f . ?o ex:product ?p ; ex:price ?pr . } GROUP BY ?f }
               { SELECT (SUM(?pr2) AS ?sumT)
                 { ?o2 ex:product ?p2 ; ex:price ?pr2 . } }
             }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        // f1: p1(10) + p2(30+50) = 90 ; f2: p2(30+50) = 80 ; total = 90.
        assert_eq!(rel.len(), 2);
        let dict = &g.dict;
        let f1 = dict.lookup(&iri("f1")).unwrap();
        let row = rel.rows.iter().find(|r| r[0] == Cell::Term(f1)).unwrap();
        assert_eq!(row[1], Cell::Num(90.0));
        assert_eq!(row[2], Cell::Num(90.0));
    }

    #[test]
    fn distinct_dedups() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT DISTINCT ?p { ?o ex:product ?p . }",
        )
        .unwrap();
        assert_eq!(evaluate(&q, &g).len(), 2);
    }

    #[test]
    fn count_distinct() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(DISTINCT ?p) AS ?n) { ?o ex:product ?p . }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        assert_eq!(rel.rows[0][0], Cell::Num(2.0));
    }

    #[test]
    fn count_star_counts_rows() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(*) AS ?n) { ?o ex:product ?p . }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        assert_eq!(rel.rows[0][0], Cell::Num(3.0));
    }

    #[test]
    fn min_max_aggregates() {
        let g = sample_graph();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (MIN(?pr) AS ?lo) (MAX(?pr) AS ?hi) { ?o ex:price ?pr . }",
        )
        .unwrap();
        let rel = evaluate(&q, &g);
        assert_eq!(rel.rows[0][0], Cell::Num(10.0));
        assert_eq!(rel.rows[0][1], Cell::Num(50.0));
    }

    #[test]
    fn tag_untag_roundtrip() {
        for v in [0.0, 1.0, 42.5, 1e9] {
            let id = TermId(tag_num(v));
            assert_eq!(untag_num(id), Some(v));
        }
        assert_eq!(untag_num(TermId(5)), None);
    }
}
