//! Structural analysis of basic graph patterns: subject-rooted star
//! decomposition, join-variable detection and role analysis.
//!
//! This module implements the Table 1 machinery of the paper — `var(tp)`,
//! `role(?v)`, `prop(tp)`, `props(Stp)` — on which overlap detection
//! (Defs 3.1/3.2, in `rapida-core`) is built.

use crate::ast::{TriplePattern, Var};
use rapida_rdf::{vocab, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The role a variable plays inside a triple pattern (Table 1: `role(?v)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Appears in subject position.
    Subject,
    /// Appears in property position (out of the paper's optimization scope).
    Property,
    /// Appears in object position.
    Object,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Subject => "subject",
            Role::Property => "property",
            Role::Object => "object",
        };
        f.write_str(s)
    }
}

/// The identity of a "property" for equivalence-class purposes.
///
/// Following the paper's treatment of `?s ty PT18` as a single pseudo-property
/// `ty18`, an `rdf:type` pattern with a **constant** object folds the object
/// into the key. All other patterns are identified by their property IRI.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropKey {
    /// The property IRI.
    pub prop: Term,
    /// For `rdf:type` with constant object: that object.
    pub type_object: Option<Term>,
}

impl PropKey {
    /// Derive the key of a triple pattern. `None` if the property slot is a
    /// variable (unbound-property patterns are out of scope, §3).
    pub fn of(tp: &TriplePattern) -> Option<PropKey> {
        let prop = tp.p.as_term()?.clone();
        let type_object = if prop == Term::iri(vocab::RDF_TYPE) {
            tp.o.as_term().cloned()
        } else {
            None
        };
        Some(PropKey { prop, type_object })
    }

    /// Is this key an `rdf:type`-with-constant pseudo-property?
    pub fn is_type_key(&self) -> bool {
        self.type_object.is_some()
    }
}

impl fmt::Display for PropKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.type_object {
            Some(o) => write!(f, "ty[{o}]"),
            None => write!(f, "{}", self.prop),
        }
    }
}

/// A subject-rooted star subpattern (Table 1: `Stp`).
#[derive(Debug, Clone, PartialEq)]
pub struct StarPattern {
    /// The shared subject variable.
    pub subject: Var,
    /// The triple patterns of this star, in source order.
    pub triples: Vec<TriplePattern>,
}

impl StarPattern {
    /// `props(Stp)` — the property-key set of this star.
    pub fn prop_keys(&self) -> BTreeSet<PropKey> {
        self.triples
            .iter()
            .filter_map(PropKey::of)
            .collect()
    }

    /// The triple pattern carrying a given property key, if any.
    pub fn triple_for(&self, key: &PropKey) -> Option<&TriplePattern> {
        self.triples
            .iter()
            .find(|tp| PropKey::of(tp).as_ref() == Some(key))
    }

    /// The `rdf:type` pattern with constant object, if present — used as the
    /// anchor `jtp` for subject-role joins (cf. Fig. 3 where `jtp_a` is the
    /// `ty` pattern).
    pub fn type_anchor(&self) -> Option<&TriplePattern> {
        self.triples.iter().find(|tp| {
            PropKey::of(tp).is_some_and(|k| k.is_type_key())
        })
    }
}

/// One side of a star-join edge: which star, the variable's role there, and
/// the property key of the joining triple pattern (`jtp`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSide {
    /// Index of the star in the decomposition.
    pub star: usize,
    /// Role of the join variable on this side.
    pub role: Role,
    /// Property key of the joining triple pattern. For subject-role sides
    /// this is the star's type anchor if present (`None` otherwise).
    pub prop: Option<PropKey>,
}

/// A join edge between two stars via a shared variable (Table 1: `jv`).
#[derive(Debug, Clone, PartialEq)]
pub struct StarJoin {
    /// The join variable.
    pub var: Var,
    /// The side with the smaller star index.
    pub left: JoinSide,
    /// The side with the larger star index.
    pub right: JoinSide,
}

impl StarJoin {
    /// Short description such as "subject-object" for test assertions.
    pub fn kind(&self) -> String {
        format!("{}-{}", self.left.role, self.right.role)
    }
}

/// Role-equivalence of two join sides (Def 3.2 prerequisite).
///
/// Two join variables are role-equivalent if the corresponding joining
/// triple patterns agree on the property component and the variables play
/// the same role. For subject-role sides the property comparison uses the
/// stars' type anchors (the convention of Fig. 3); two subject-role sides
/// with no anchors are considered property-compatible.
pub fn role_equivalent(a: &JoinSide, b: &JoinSide) -> bool {
    if a.role != b.role {
        return false;
    }
    match (&a.prop, &b.prop) {
        (Some(pa), Some(pb)) => pa == pb,
        (None, None) => a.role == Role::Subject,
        _ => a.role == Role::Subject,
    }
}

/// The result of star-decomposing a basic graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct StarDecomposition {
    /// The stars, in order of first appearance of their subject.
    pub stars: Vec<StarPattern>,
    /// Join edges between stars.
    pub joins: Vec<StarJoin>,
    /// Whether the join graph over stars is connected.
    pub connected: bool,
}

impl StarDecomposition {
    /// Index of the star rooted at `v`, if any.
    pub fn star_of(&self, v: &Var) -> Option<usize> {
        self.stars.iter().position(|s| &s.subject == v)
    }

    /// All join edges touching star `i`.
    pub fn joins_of(&self, i: usize) -> Vec<&StarJoin> {
        self.joins
            .iter()
            .filter(|j| j.left.star == i || j.right.star == i)
            .collect()
    }
}

/// Errors from structural analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// A triple pattern has a constant (non-variable) subject.
    ConstantSubject(String),
    /// A triple pattern has a variable in the property position.
    UnboundProperty(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::ConstantSubject(tp) => {
                write!(f, "constant subject not supported: {tp}")
            }
            AnalysisError::UnboundProperty(tp) => write!(
                f,
                "unbound-property triple patterns are out of scope (paper §3): {tp}"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Decompose a basic graph pattern into subject-rooted stars and join edges.
pub fn decompose(triples: &[TriplePattern]) -> Result<StarDecomposition, AnalysisError> {
    let mut stars: Vec<StarPattern> = Vec::new();
    for tp in triples {
        let subj = match tp.s.as_var() {
            Some(v) => v.clone(),
            None => return Err(AnalysisError::ConstantSubject(tp.to_string())),
        };
        if tp.p.is_var() {
            return Err(AnalysisError::UnboundProperty(tp.to_string()));
        }
        match stars.iter_mut().find(|s| s.subject == subj) {
            Some(star) => star.triples.push(tp.clone()),
            None => stars.push(StarPattern {
                subject: subj,
                triples: vec![tp.clone()],
            }),
        }
    }

    // Join detection: for every ordered star pair and shared variable.
    let vars: Vec<_> = stars.iter().map(join_vars).collect();
    let mut joins = Vec::new();
    for i in 0..stars.len() {
        for j in (i + 1)..stars.len() {
            for (&v, &left) in &vars[i] {
                if let Some(&right) = vars[j].get(v) {
                    joins.push(StarJoin {
                        var: v.clone(),
                        left: join_side(&stars[i], i, left),
                        right: join_side(&stars[j], j, right),
                    });
                }
            }
        }
    }

    // Connectivity over the star-join graph.
    let connected = if stars.is_empty() {
        true
    } else {
        let mut seen = vec![false; stars.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(s) = stack.pop() {
            for jn in &joins {
                let (a, b) = (jn.left.star, jn.right.star);
                for (x, y) in [(a, b), (b, a)] {
                    if x == s && !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
        }
        seen.iter().all(|&x| x)
    };

    Ok(StarDecomposition {
        stars,
        joins,
        connected,
    })
}

/// Every variable of `star` — its subject and its objects — with the
/// pattern a join on it goes through: none for the subject, else the first
/// pattern whose object it is (several joining patterns on one variable
/// behave alike).
fn join_vars(star: &StarPattern) -> BTreeMap<&Var, Option<&TriplePattern>> {
    let mut vars = BTreeMap::new();
    vars.insert(&star.subject, None);
    for tp in &star.triples {
        if let Some(v) = tp.o.as_var() {
            vars.entry(v).or_insert(Some(tp));
        }
    }
    vars
}

/// One side of a join on a variable of star `idx`, which goes through the
/// joining pattern `jtp` ([`join_vars`]).
fn join_side(star: &StarPattern, idx: usize, jtp: Option<&TriplePattern>) -> JoinSide {
    match jtp {
        None => JoinSide {
            star: idx,
            role: Role::Subject,
            prop: star.type_anchor().and_then(PropKey::of),
        },
        Some(tp) => JoinSide {
            star: idx,
            role: Role::Object,
            prop: PropKey::of(tp),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn bgp(q: &str) -> Vec<TriplePattern> {
        parse_query(q)
            .unwrap()
            .select
            .pattern
            .triples()
            .into_iter()
            .cloned()
            .collect()
    }

    /// AQ2 GP1 from Fig. 3: two stars joined subject-object.
    #[test]
    fn decomposes_aq2_gp1() {
        let tps = bgp(
            "PREFIX ex: <http://x/>
             SELECT ?s1 { ?s1 a ex:PT18 . ?s2 ex:pr ?s1 ; ex:pc ?o1 ; ex:ve ?o2 . }",
        );
        let d = decompose(&tps).unwrap();
        assert_eq!(d.stars.len(), 2);
        assert!(d.connected);
        assert_eq!(d.joins.len(), 1);
        let j = &d.joins[0];
        assert_eq!(j.var, Var::new("s1"));
        assert_eq!(j.kind(), "subject-object");
        // jtp on the subject side is the type anchor.
        assert!(j.left.prop.as_ref().unwrap().is_type_key());
    }

    /// AQ3 from Fig. 3: GP1 joins object-subject, GP2 joins object-object —
    /// the roles must come out differently so Def 3.2 can reject the overlap.
    #[test]
    fn aq3_join_roles_differ() {
        let gp1 = bgp(
            "PREFIX ex: <http://x/>
             SELECT ?s3 { ?s3 ex:pr ?s1 ; ex:pc ?o5 ; ex:ve ?s4 . ?s4 ex:cn ?o6 . }",
        );
        let gp2 = bgp(
            "PREFIX ex: <http://x/>
             SELECT ?s3 { ?s3 ex:pr ?s1 ; ex:pc ?o5 ; ex:ve ?o6 . ?s4 ex:cn ?o6 . }",
        );
        let d1 = decompose(&gp1).unwrap();
        let d2 = decompose(&gp2).unwrap();
        assert_eq!(d1.joins[0].kind(), "object-subject");
        assert_eq!(d2.joins[0].kind(), "object-object");
        // The second side of the joins is not role-equivalent.
        assert!(!role_equivalent(&d1.joins[0].right, &d2.joins[0].right));
        // The first side is (both object role via property ve).
        assert!(role_equivalent(&d1.joins[0].left, &d2.joins[0].left));
    }

    #[test]
    fn prop_key_folds_type_object() {
        let tps = bgp("PREFIX ex: <http://x/> SELECT ?s { ?s a ex:PT18 ; ex:pf ?f . }");
        let d = decompose(&tps).unwrap();
        let keys = d.stars[0].prop_keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.iter().any(|k| k.is_type_key()));
    }

    #[test]
    fn type_with_var_object_is_plain_property() {
        let tps = bgp("SELECT ?s { ?s a ?t . }");
        let d = decompose(&tps).unwrap();
        let keys = d.stars[0].prop_keys();
        assert!(!keys.iter().next().unwrap().is_type_key());
    }

    #[test]
    fn detects_disconnected_pattern() {
        let tps = bgp(
            "PREFIX ex: <http://x/> SELECT ?a { ?a ex:p ?x . ?b ex:q ?y . }",
        );
        let d = decompose(&tps).unwrap();
        assert_eq!(d.stars.len(), 2);
        assert!(!d.connected);
        assert!(d.joins.is_empty());
    }

    #[test]
    fn rejects_unbound_property() {
        let tps = bgp("SELECT ?s { ?s ?p ?o . }");
        assert!(matches!(
            decompose(&tps),
            Err(AnalysisError::UnboundProperty(_))
        ));
    }

    #[test]
    fn three_star_chain() {
        // The AQ1 composite shape: product -> offer -> vendor.
        let tps = bgp(
            "PREFIX ex: <http://x/>
             SELECT ?s1 {
               ?s1 a ex:PT18 ; ex:pf ?f .
               ?s2 ex:pr ?s1 ; ex:pc ?pc ; ex:ve ?v .
               ?v ex:cn ?c .
             }",
        );
        let d = decompose(&tps).unwrap();
        assert_eq!(d.stars.len(), 3);
        assert_eq!(d.joins.len(), 2);
        assert!(d.connected);
        let kinds: Vec<String> = d.joins.iter().map(|j| j.kind()).collect();
        assert!(kinds.contains(&"subject-object".to_string()));
        assert!(kinds.contains(&"object-subject".to_string()));
    }

    #[test]
    fn star_of_and_joins_of() {
        let tps = bgp(
            "PREFIX ex: <http://x/>
             SELECT ?a { ?a ex:p ?b . ?b ex:q ?c . }",
        );
        let d = decompose(&tps).unwrap();
        let ia = d.star_of(&Var::new("a")).unwrap();
        let ib = d.star_of(&Var::new("b")).unwrap();
        assert_eq!(d.joins_of(ia).len(), 1);
        assert_eq!(d.joins_of(ib).len(), 1);
        assert!(d.star_of(&Var::new("zzz")).is_none());
    }
}
