//! Result relations: the uniform output representation shared by the
//! reference evaluator and all query engines, plus canonicalization helpers
//! used by the 4-way engine-agreement tests.

use crate::ast::Var;
use rapida_rdf::{Dictionary, TermId};
use std::fmt;

/// One output cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A dictionary-encoded term.
    Term(TermId),
    /// A computed numeric value (aggregate results).
    Num(f64),
    /// Unbound.
    Null,
}

impl Cell {
    /// The numeric interpretation, via the dictionary for term cells.
    pub fn as_num(&self, dict: &Dictionary) -> Option<f64> {
        match self {
            Cell::Num(n) => Some(*n),
            Cell::Term(id) => dict.numeric_value(*id),
            Cell::Null => None,
        }
    }

    /// Render for canonical comparison: terms by lexical form, numbers with
    /// fixed precision so f64 noise does not break equality.
    pub fn canonical(&self, dict: &Dictionary) -> String {
        match self {
            Cell::Term(id) => format!("t:{}", dict.term(*id)),
            Cell::Num(n) => {
                // Round to the printed precision BEFORE testing integrality;
                // otherwise 36516.0 and 36516.0000000000004 (the same sum
                // accumulated in different orders) take different branches
                // and canonicalization stops absorbing f64 noise.
                let r = if n.abs() < 9e15 { (n * 1e6).round() / 1e6 } else { *n };
                if r.fract() == 0.0 && r.abs() < 9e15 {
                    format!("n:{}", r as i64)
                } else {
                    format!("n:{r:.6}")
                }
            }
            Cell::Null => "∅".to_string(),
        }
    }
}

/// A named-column multiset of rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Column variables, in order.
    pub vars: Vec<Var>,
    /// Rows; each row has exactly `vars.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(vars: Vec<Var>) -> Self {
        Relation { vars, rows: Vec::new() }
    }

    /// Column index of a variable.
    pub fn col(&self, v: &Var) -> Option<usize> {
        self.vars.iter().position(|x| x == v)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Canonical, order-insensitive form for multiset comparison across
    /// engines: one string per row, sorted. Columns are reordered into the
    /// lexicographic order of variable names so engines may differ in column
    /// order.
    pub fn canonicalized(&self, dict: &Dictionary) -> Vec<String> {
        let mut order: Vec<usize> = (0..self.vars.len()).collect();
        order.sort_by(|&a, &b| self.vars[a].0.cmp(&self.vars[b].0));
        let mut out: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                order
                    .iter()
                    .map(|&i| format!("{}={}", self.vars[i].0, row[i].canonical(dict)))
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        out.sort();
        out
    }

    /// Pretty-print with resolved terms (for examples and debugging).
    pub fn pretty(&self, dict: &Dictionary) -> String {
        let mut s = String::new();
        s.push_str(
            &self
                .vars
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\t"),
        );
        s.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|c| match c {
                    Cell::Term(id) => dict.lexical(*id).map_or_else(|| id.to_string(), str::to_owned),
                    Cell::Num(n) => format!("{n}"),
                    Cell::Null => "-".to_string(),
                })
                .collect();
            s.push_str(&cells.join("\t"));
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation[{} cols x {} rows]", self.vars.len(), self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapida_rdf::Term;

    #[test]
    fn canonicalization_is_column_order_insensitive() {
        let mut dict = Dictionary::new();
        let a = dict.intern(&Term::iri("http://x/a"));
        let b = dict.intern(&Term::iri("http://x/b"));
        let r1 = Relation {
            vars: vec![Var::new("x"), Var::new("y")],
            rows: vec![vec![Cell::Term(a), Cell::Term(b)]],
        };
        let r2 = Relation {
            vars: vec![Var::new("y"), Var::new("x")],
            rows: vec![vec![Cell::Term(b), Cell::Term(a)]],
        };
        assert_eq!(r1.canonicalized(&dict), r2.canonicalized(&dict));
    }

    #[test]
    fn canonicalization_is_row_order_insensitive() {
        let dict = Dictionary::new();
        let r1 = Relation {
            vars: vec![Var::new("x")],
            rows: vec![vec![Cell::Num(1.0)], vec![Cell::Num(2.0)]],
        };
        let r2 = Relation {
            vars: vec![Var::new("x")],
            rows: vec![vec![Cell::Num(2.0)], vec![Cell::Num(1.0)]],
        };
        assert_eq!(r1.canonicalized(&dict), r2.canonicalized(&dict));
    }

    #[test]
    fn integral_floats_canonicalize_as_integers() {
        let dict = Dictionary::new();
        assert_eq!(Cell::Num(42.0).canonical(&dict), "n:42");
        assert_eq!(Cell::Num(42.5).canonical(&dict), "n:42.500000");
    }

    #[test]
    fn multiset_semantics_preserved() {
        let dict = Dictionary::new();
        let one = Relation {
            vars: vec![Var::new("x")],
            rows: vec![vec![Cell::Num(1.0)], vec![Cell::Num(1.0)]],
        };
        let dup = Relation {
            vars: vec![Var::new("x")],
            rows: vec![vec![Cell::Num(1.0)]],
        };
        assert_ne!(one.canonicalized(&dict), dup.canonicalized(&dict));
    }

    #[test]
    fn cell_as_num_resolves_terms() {
        let mut dict = Dictionary::new();
        let id = dict.intern(&Term::integer(7));
        assert_eq!(Cell::Term(id).as_num(&dict), Some(7.0));
        assert_eq!(Cell::Num(1.5).as_num(&dict), Some(1.5));
        assert_eq!(Cell::Null.as_num(&dict), None);
    }
}
