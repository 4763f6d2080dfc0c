//! Composite graph pattern construction (§3) and α-condition generation
//! (Table 2).
//!
//! Given the grouping blocks of an analytical query, this module verifies
//! pairwise overlap (Def 3.2), merges the patterns into one composite
//! pattern with primary (`P_prim` = intersection) and secondary
//! (`P_sec` = union − intersection) properties per star, and derives one
//! α-condition per original block: every secondary property must be present
//! iff the block's own pattern carries it.

use crate::aquery::{ExtractError, GroupingBlock};
use crate::filters::{compile_block_filters, StarFilter};
use crate::overlap::graphs_overlap;
use rapida_sparql::analysis::{PropKey, Role, StarDecomposition};
use rapida_sparql::ast::TriplePattern;
use std::collections::BTreeSet;

/// A secondary property of a composite star, with per-block presence flags.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondaryProp {
    /// The property key.
    pub prop: PropKey,
    /// `present[b]` — does block `b`'s star carry this property?
    pub present: Vec<bool>,
}

/// One composite star pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeStar {
    /// `P_prim` — properties shared by every block's star.
    pub primary: Vec<PropKey>,
    /// `P_sec` — properties carried by a strict subset of the blocks.
    pub secondary: Vec<SecondaryProp>,
}

/// One side of a composite join edge.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeKey {
    /// Join on the star's subject.
    Subject,
    /// Join on the objects of a property.
    ObjectOf(PropKey),
}

/// A join edge between composite stars.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeJoin {
    /// Left star index.
    pub left_star: usize,
    /// Right star index.
    pub right_star: usize,
    /// Key on the left star.
    pub left: EdgeKey,
    /// Key on the right star.
    pub right: EdgeKey,
}

/// The composite graph pattern with block α-conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositePattern {
    /// The composite stars (indexed like block 0's decomposition).
    pub stars: Vec<CompositeStar>,
    /// Join edges (from block 0's join structure, verified role-equivalent
    /// in every other block).
    pub joins: Vec<CompositeJoin>,
    /// `star_map[b][s]` — composite star index of block `b`'s star `s`.
    pub star_map: Vec<Vec<usize>>,
    /// Merged value filters, composite-star indexed. Primary-property
    /// filters are identical across blocks (checked); secondary-property
    /// filters come from their owning block.
    pub filters: Vec<StarFilter>,
    /// `alpha[b]` — the α-condition terms of block `b`:
    /// `(star, prop, required)` for every secondary property (Table 2).
    pub alpha: Vec<Vec<(usize, PropKey, bool)>>,
}

/// Outcome of attempting composite construction.
#[derive(Debug)]
pub enum CompositeOutcome {
    /// The blocks overlap; a composite pattern was built.
    Composite(CompositePattern),
    /// The blocks do not overlap (Def 3.2 fails, or filters conflict) —
    /// engines fall back to per-pattern evaluation.
    NotOverlapping(String),
}

/// Build the composite pattern of an analytical query's blocks.
///
/// A single block trivially yields a composite with no secondary properties
/// and one empty α-condition.
pub fn build_composite(blocks: &[GroupingBlock]) -> Result<CompositeOutcome, ExtractError> {
    assert!(!blocks.is_empty());
    let decs: Vec<StarDecomposition> = blocks
        .iter()
        .map(|b| b.decomposition())
        .collect::<Result<_, _>>()?;
    for d in &decs {
        if !d.connected && d.stars.len() > 1 {
            return Err(ExtractError::Unsupported(
                "disconnected graph pattern in a grouping block".into(),
            ));
        }
    }

    // Map every block onto block 0's star layout.
    let mut star_map: Vec<Vec<usize>> = vec![(0..decs[0].stars.len()).collect()];
    for d in &decs[1..] {
        match graphs_overlap(d, &decs[0]) {
            Some(ov) => star_map.push(ov.mapping),
            None => {
                return Ok(CompositeOutcome::NotOverlapping(
                    "graph patterns fail Def 3.2".into(),
                ))
            }
        }
    }

    let n_stars = decs[0].stars.len();
    let n_blocks = blocks.len();

    // Property sets per (composite star, block).
    let mut props: Vec<Vec<BTreeSet<PropKey>>> = vec![Vec::with_capacity(n_blocks); n_stars];
    for (b, d) in decs.iter().enumerate() {
        for (s, star) in d.stars.iter().enumerate() {
            let cs = star_map[b][s];
            while props[cs].len() < b {
                // A block star missing for this composite star cannot happen
                // under a bijective mapping, but keep indexes aligned.
                props[cs].push(BTreeSet::new());
            }
            props[cs].push(star.prop_keys());
        }
    }

    let mut stars = Vec::with_capacity(n_stars);
    for per_block in &props {
        let mut primary: BTreeSet<PropKey> = per_block[0].clone();
        for p in &per_block[1..] {
            primary = primary.intersection(p).cloned().collect();
        }
        let mut union: BTreeSet<PropKey> = BTreeSet::new();
        for p in per_block {
            union.extend(p.iter().cloned());
        }
        let secondary: Vec<SecondaryProp> = union
            .iter()
            .filter(|k| !primary.contains(k))
            .map(|k| SecondaryProp {
                prop: k.clone(),
                present: per_block.iter().map(|p| p.contains(k)).collect(),
            })
            .collect();
        stars.push(CompositeStar {
            primary: primary.into_iter().collect(),
            secondary,
        });
    }

    // Join edges from block 0 (role-equivalence across blocks already
    // verified by `graphs_overlap`).
    let joins = joins_of(&decs[0]);

    // α-conditions (Table 2): block b requires secondary (star, prop) iff
    // its own star carries prop.
    let mut alpha: Vec<Vec<(usize, PropKey, bool)>> = vec![Vec::new(); n_blocks];
    for (cs, star) in stars.iter().enumerate() {
        for sec in &star.secondary {
            for (b, cond) in alpha.iter_mut().enumerate() {
                cond.push((cs, sec.prop.clone(), sec.present[b]));
            }
        }
    }

    // Constant-object compatibility: a shared (primary, non-type) property
    // whose object is constant in one block must carry the *same* constant
    // in every block (e.g. `pub_type "News"` in both MG16 blocks); a
    // constant-vs-variable or constant-vs-different-constant mismatch means
    // the patterns do not describe a shared substructure.
    for (cs, star) in stars.iter().enumerate() {
        for key in &star.primary {
            if key.is_type_key() {
                continue; // type constants are folded into the key itself
            }
            let mut consts: Vec<Option<&rapida_rdf::Term>> = Vec::new();
            for (b, d) in decs.iter().enumerate() {
                let bs = star_map[b].iter().position(|&c| c == cs).expect("bijective");
                let tp = d.stars[bs].triple_for(key).expect("primary prop present");
                consts.push(tp.o.as_term());
            }
            if consts.windows(2).any(|w| w[0] != w[1]) {
                return Ok(CompositeOutcome::NotOverlapping(format!(
                    "conflicting constant objects on shared property {key}"
                )));
            }
        }
    }

    // Filters: compile per block against its own star indexes, remap to
    // composite indexes, and check primary-property filter compatibility.
    let mut filters: Vec<StarFilter> = Vec::new();
    let mut per_block_filters: Vec<Vec<StarFilter>> = Vec::with_capacity(n_blocks);
    for (b, block) in blocks.iter().enumerate() {
        let fs = compile_block_filters(block, &decs[b])?
            .into_iter()
            .map(|f| StarFilter {
                star: star_map[b][f.star],
                prop: f.prop,
                pred: f.pred,
            })
            .collect::<Vec<_>>();
        per_block_filters.push(fs);
    }
    for (b, fs) in per_block_filters.iter().enumerate() {
        for f in fs {
            let on_primary = stars[f.star].primary.contains(&f.prop);
            if on_primary {
                // Every other block must carry the identical predicate.
                let all_match = per_block_filters.iter().enumerate().all(|(ob, ofs)| {
                    ob == b
                        || ofs
                            .iter()
                            .any(|of| of.star == f.star && of.prop == f.prop && of.pred == f.pred)
                });
                if !all_match {
                    return Ok(CompositeOutcome::NotOverlapping(format!(
                        "conflicting filters on shared property {}",
                        f.prop
                    )));
                }
            }
            if !filters.contains(f) {
                filters.push(f.clone());
            }
        }
    }

    Ok(CompositeOutcome::Composite(CompositePattern {
        stars,
        joins,
        star_map,
        filters,
        alpha,
    }))
}

/// The star-join edges of one block's decomposition in composite form — a
/// block's own pattern is the composite of itself.
pub fn joins_of(dec: &StarDecomposition) -> Vec<CompositeJoin> {
    dec.joins
        .iter()
        .map(|j| CompositeJoin {
            left_star: j.left.star,
            right_star: j.right.star,
            left: edge_key(dec, j.left.star, j.left.role, &j.left.prop, &j.var),
            right: edge_key(dec, j.right.star, j.right.role, &j.right.prop, &j.var),
        })
        .collect()
}

fn edge_key(
    dec: &StarDecomposition,
    star: usize,
    role: Role,
    prop: &Option<PropKey>,
    var: &rapida_sparql::ast::Var,
) -> EdgeKey {
    match role {
        Role::Subject => EdgeKey::Subject,
        Role::Object => EdgeKey::ObjectOf(prop.clone().unwrap_or_else(|| {
            // The joining tp is the one whose object is the join variable.
            dec.stars[star]
                .triples
                .iter()
                .find(|tp| tp.o.as_var() == Some(var))
                .and_then(PropKey::of)
                .expect("object-role join side has a carrying pattern")
        })),
        Role::Property => unreachable!("property-role joins are out of scope"),
    }
}

impl CompositePattern {
    /// The *positive* α-terms of block `b`: the secondary properties the
    /// block's own pattern requires present. Engines use these for join-time
    /// pruning and per-block aggregation validity; the negative (`= ∅`)
    /// terms of Table 2 are intentionally omitted because SPARQL pattern
    /// semantics ignores extra properties (a subject with `a,b,c,d,e,f`
    /// matches both `abc:de` and `ab:def`), and correctness is defined by
    /// the reference evaluator.
    pub fn alpha_positive(&self, block: usize) -> Vec<(usize, PropKey)> {
        self.alpha[block]
            .iter()
            .filter(|(_, _, required)| *required)
            .map(|(s, p, _)| (*s, p.clone()))
            .collect()
    }

    /// Block `b`'s triple pattern carrying `prop` in composite star `cs`.
    pub fn pattern_of<'d>(
        &self,
        decs: &'d [StarDecomposition],
        b: usize,
        cs: usize,
        prop: &PropKey,
    ) -> Option<&'d TriplePattern> {
        let bs = self.star_map[b].iter().position(|&c| c == cs)?;
        decs[b].stars[bs].triple_for(prop)
    }

    /// The constant object of `prop` in the composite star `cs`, taken from
    /// the first block that carries one.
    pub fn const_object(
        &self,
        decs: &[StarDecomposition],
        cs: usize,
        prop: &PropKey,
    ) -> Option<rapida_rdf::Term> {
        (0..decs.len()).find_map(|b| self.pattern_of(decs, b, cs, prop)?.o.as_term().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aquery::extract;
    use rapida_sparql::parse_query;

    fn blocks(q: &str) -> Vec<GroupingBlock> {
        extract(&parse_query(q).unwrap()).unwrap().blocks
    }

    /// AQ1 (Fig. 1): the composite must have ty18+pf star (pf secondary to
    /// block 0... block order: GP with feature first) and pr/pc/ve star.
    const AQ1: &str = "
        PREFIX ex: <http://x/>
        SELECT ?f ?c ?sumF ?sumT {
          { SELECT ?f ?c (SUM(?pr2) AS ?sumF)
            { ?p2 a ex:PT18 ; ex:pf ?f .
              ?o2 ex:pr ?p2 ; ex:pc ?pr2 ; ex:ve ?v2 . ?v2 ex:cn ?c . }
            GROUP BY ?f ?c }
          { SELECT ?c (SUM(?pr) AS ?sumT)
            { ?p1 a ex:PT18 .
              ?o1 ex:pr ?p1 ; ex:pc ?pr ; ex:ve ?v1 . ?v1 ex:cn ?c . }
            GROUP BY ?c }
        }";

    #[test]
    fn aq1_composite_structure() {
        let bs = blocks(AQ1);
        let out = build_composite(&bs).unwrap();
        let CompositeOutcome::Composite(c) = out else {
            panic!("AQ1 blocks overlap");
        };
        assert_eq!(c.stars.len(), 3);
        // Star 0 (product): primary {ty18}, secondary {pf} present only in
        // block 0.
        let s0 = &c.stars[0];
        assert_eq!(s0.primary.len(), 1);
        assert!(s0.primary[0].is_type_key());
        assert_eq!(s0.secondary.len(), 1);
        assert_eq!(s0.secondary[0].present, vec![true, false]);
        // Star 1 (offer): all primary {pr, pc, ve}.
        assert_eq!(c.stars[1].primary.len(), 3);
        assert!(c.stars[1].secondary.is_empty());
        // Star 2 (vendor): primary {cn}.
        assert_eq!(c.stars[2].primary.len(), 1);
        // Joins: subject-object (product/offer) and object-subject
        // (offer/vendor).
        assert_eq!(c.joins.len(), 2);
        // α: block 0 requires pf present, block 1 requires it absent.
        assert_eq!(c.alpha[0], vec![(0, s0.secondary[0].prop.clone(), true)]);
        assert_eq!(c.alpha[1], vec![(0, s0.secondary[0].prop.clone(), false)]);
    }

    /// Table 2 row 2: ab:de vs ab:def → composite ab:de(f), α1 = f=∅,
    /// α2 = f≠∅.
    #[test]
    fn table2_row2() {
        let q = "
            PREFIX ex: <http://x/>
            SELECT ?x ?n1 ?n2 {
              { SELECT ?x (COUNT(?e1) AS ?n1)
                { ?s1 ex:a ?x ; ex:b ?b1 . ?t1 ex:d ?s1 ; ex:e ?e1 . } GROUP BY ?x }
              { SELECT ?x (COUNT(?e2) AS ?n2)
                { ?s2 ex:a ?x ; ex:b ?b2 . ?t2 ex:d ?s2 ; ex:e ?e2 ; ex:f ?f2 . } GROUP BY ?x }
            }";
        let bs = blocks(q);
        let CompositeOutcome::Composite(c) = build_composite(&bs).unwrap() else {
            panic!("row 2 patterns overlap");
        };
        let sec: Vec<_> = c
            .stars
            .iter()
            .flat_map(|s| s.secondary.iter())
            .collect();
        assert_eq!(sec.len(), 1, "only f is secondary");
        assert_eq!(c.alpha[0].len(), 1);
        assert!(!c.alpha[0][0].2, "block 1: f = ∅");
        assert!(c.alpha[1][0].2, "block 2: f ≠ ∅");
    }

    /// Table 2 row 4: abc:de vs ab:def → α1 = c≠∅ ∧ f=∅, α2 = c=∅ ∧ f≠∅.
    #[test]
    fn table2_row4() {
        let q = "
            PREFIX ex: <http://x/>
            SELECT ?x ?n1 ?n2 {
              { SELECT ?x (COUNT(?e1) AS ?n1)
                { ?s1 ex:a ?x ; ex:b ?b1 ; ex:c ?c1 . ?t1 ex:d ?s1 ; ex:e ?e1 . } GROUP BY ?x }
              { SELECT ?x (COUNT(?f2) AS ?n2)
                { ?s2 ex:a ?x ; ex:b ?b2 . ?t2 ex:d ?s2 ; ex:e ?e2 ; ex:f ?f2 . } GROUP BY ?x }
            }";
        let bs = blocks(q);
        let CompositeOutcome::Composite(c) = build_composite(&bs).unwrap() else {
            panic!("row 4 patterns overlap");
        };
        let mut a0 = c.alpha[0].clone();
        let mut a1 = c.alpha[1].clone();
        a0.sort_by(|x, y| x.1.cmp(&y.1));
        a1.sort_by(|x, y| x.1.cmp(&y.1));
        assert_eq!(a0.len(), 2);
        // Block 0 has c, lacks f.
        assert!(a0.iter().any(|(_, p, r)| p.prop.lexical().ends_with("/c") && *r));
        assert!(a0.iter().any(|(_, p, r)| p.prop.lexical().ends_with("/f") && !*r));
        // Block 1 lacks c, has f.
        assert!(a1.iter().any(|(_, p, r)| p.prop.lexical().ends_with("/c") && !*r));
        assert!(a1.iter().any(|(_, p, r)| p.prop.lexical().ends_with("/f") && *r));
    }

    #[test]
    fn non_overlapping_blocks_fall_back() {
        let q = "
            PREFIX ex: <http://x/>
            SELECT ?x ?n1 ?n2 {
              { SELECT ?x (COUNT(?y1) AS ?n1) { ?s1 ex:a ?x ; ex:p ?y1 . } GROUP BY ?x }
              { SELECT ?x (COUNT(?y2) AS ?n2) { ?s2 ex:zz ?x ; ex:qq ?y2 . } GROUP BY ?x }
            }";
        let bs = blocks(q);
        assert!(matches!(
            build_composite(&bs).unwrap(),
            CompositeOutcome::NotOverlapping(_)
        ));
    }

    #[test]
    fn single_block_is_trivially_composite() {
        let q = "PREFIX ex: <http://x/>
                 SELECT ?x (COUNT(?y) AS ?n) { ?s ex:a ?x ; ex:b ?y . } GROUP BY ?x";
        let bs = blocks(q);
        let CompositeOutcome::Composite(c) = build_composite(&bs).unwrap() else {
            panic!()
        };
        assert_eq!(c.stars.len(), 1);
        assert!(c.stars[0].secondary.is_empty());
        assert_eq!(c.alpha, vec![Vec::new()]);
    }

    #[test]
    fn identical_filters_on_shared_property_compose() {
        let q = "
            PREFIX ex: <http://x/>
            SELECT ?x ?n1 ?n2 {
              { SELECT ?x (COUNT(?p1) AS ?n1)
                { ?s1 ex:a ?x ; ex:price ?p1 . FILTER(?p1 > 100) } GROUP BY ?x }
              { SELECT ?x (COUNT(?p2) AS ?n2)
                { ?s2 ex:a ?x ; ex:price ?p2 ; ex:extra ?e2 . FILTER(?p2 > 100) } GROUP BY ?x }
            }";
        let bs = blocks(q);
        let CompositeOutcome::Composite(c) = build_composite(&bs).unwrap() else {
            panic!("identical filters must compose");
        };
        assert_eq!(c.filters.len(), 1);
    }

    #[test]
    fn conflicting_filters_on_shared_property_fall_back() {
        let q = "
            PREFIX ex: <http://x/>
            SELECT ?x ?n1 ?n2 {
              { SELECT ?x (COUNT(?p1) AS ?n1)
                { ?s1 ex:a ?x ; ex:price ?p1 . FILTER(?p1 > 100) } GROUP BY ?x }
              { SELECT ?x (COUNT(?p2) AS ?n2)
                { ?s2 ex:a ?x ; ex:price ?p2 . FILTER(?p2 > 500) } GROUP BY ?x }
            }";
        let bs = blocks(q);
        assert!(matches!(
            build_composite(&bs).unwrap(),
            CompositeOutcome::NotOverlapping(_)
        ));
    }
}
