//! The correctness gate: every operation's result is compared with an
//! independently computed one, outside the timers.
//!
//! Two engines may add the same floats in a different order, so relations are
//! compared cell by cell with a relative tolerance — rounding to a printed
//! precision first would make a value that sits on a rounding boundary fail on
//! some seeds. The engines are deterministic, so once a slot's result has
//! matched the oracle its exact fingerprint is remembered, and later rounds
//! take the tolerant comparison only if the fingerprint ever changes.

use crate::inputs::Inputs;
use crate::workload::{Kind, RoundOut, State};
use rapida_core::{extract, QueryEngine};
use rapida_mapred::Engine;
use rapida_sparql::{parse_query, Cell, Relation};
use std::cmp::Ordering;

const REL_TOLERANCE: f64 = 1e-9;

/// A relation with columns ordered by variable name and rows sorted, so that
/// engines may differ in column and row order.
pub struct Canonical(Vec<Vec<Cell>>);

fn cell_rank(c: &Cell) -> u8 {
    match c {
        Cell::Null => 0,
        Cell::Term(_) => 1,
        Cell::Num(_) => 2,
    }
}

fn cmp_cells(a: &Cell, b: &Cell) -> Ordering {
    match (a, b) {
        (Cell::Term(x), Cell::Term(y)) => x.0.cmp(&y.0),
        (Cell::Num(x), Cell::Num(y)) => x.total_cmp(y),
        _ => cell_rank(a).cmp(&cell_rank(b)),
    }
}

fn cells_match(a: &Cell, b: &Cell) -> bool {
    match (a, b) {
        (Cell::Num(x), Cell::Num(y)) => (x - y).abs() <= REL_TOLERANCE * x.abs().max(y.abs()),
        _ => a == b,
    }
}

impl Canonical {
    pub fn of(rel: &Relation) -> Canonical {
        let mut order: Vec<usize> = (0..rel.vars.len()).collect();
        order.sort_by(|&a, &b| rel.vars[a].0.cmp(&rel.vars[b].0));
        let mut rows: Vec<Vec<Cell>> = rel
            .rows
            .iter()
            .map(|row| order.iter().map(|&i| row[i]).collect())
            .collect();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| cmp_cells(x, y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        Canonical(rows)
    }

    pub fn rows(&self) -> usize {
        self.0.len()
    }

    pub fn matches(&self, other: &Canonical) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cells_match(x, y)))
    }

    /// Make the oracle wrong on purpose (`--break-oracle`): the gate must then
    /// fail the run.
    pub fn break_it(&mut self) {
        self.0.push(vec![Cell::Null]);
    }
}

/// FNV-1a over the cells of each row, summed over rows: exact, cheap, and
/// independent of row order.
pub fn fingerprint(rel: &Relation) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut sum = rel.rows.len() as u64;
    for row in &rel.rows {
        let mut h = OFFSET;
        for cell in row {
            let (tag, bits) = match cell {
                Cell::Null => (0u8, 0u64),
                Cell::Term(t) => (1, t.0),
                Cell::Num(n) => (2, n.to_bits()),
            };
            for byte in std::iter::once(tag).chain(bits.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        }
        sum = sum.wrapping_add(h);
    }
    sum
}

/// Run every query of the workload on `engine` over the loaded catalog.
pub fn cross_engine_oracle(
    engine: &dyn QueryEngine,
    state: &State,
    inputs: &Inputs,
) -> Result<Vec<Canonical>, String> {
    let cat = &state.cat;
    let mr = Engine::new(cat.dfs.clone());
    inputs
        .queries
        .iter()
        .map(|q| {
            let query = parse_query(&q.sparql).map_err(|e| format!("oracle {}: {e}", q.id))?;
            let aq = extract(&query).map_err(|e| format!("oracle {}: {e}", q.id))?;
            let plan = engine
                .plan(&aq, cat)
                .map_err(|e| format!("oracle {}: {e}", q.id))?;
            let run = plan.try_execute(&mr, &aq, &cat.dict);
            plan.cleanup(&cat.dfs);
            cat.dfs.remove(&plan.output_dataset);
            let (rel, _) = run.map_err(|e| format!("oracle {}: {e}", q.id))?;
            Ok(Canonical::of(&rel))
        })
        .collect()
}

/// The reference evaluator's answers (`--check`, tiny data only).
pub fn reference_oracle(state: &State, inputs: &Inputs) -> Result<Vec<Canonical>, String> {
    inputs
        .queries
        .iter()
        .map(|q| {
            let query = parse_query(&q.sparql).map_err(|e| format!("reference {}: {e}", q.id))?;
            Ok(Canonical::of(&rapida_sparql::evaluate(
                &query,
                &state.graph,
            )))
        })
        .collect()
}

pub struct Gate {
    oracle: Vec<Canonical>,
    /// Per result slot of a round: the fingerprint that matched the oracle.
    validated: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn new(oracle: Vec<Canonical>) -> Gate {
        Gate {
            oracle,
            validated: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one round's results; failures are counted and the first few are
    /// explained on stderr.
    pub fn check(&mut self, kind: Kind, out: &RoundOut) {
        self.validated
            .resize(self.validated.len().max(out.results.len()), None);
        for (slot, (qi, res)) in out.results.iter().enumerate() {
            self.attempted += 1;
            let why = match res {
                Err(e) => e.clone(),
                Ok(rel) => {
                    let fp = fingerprint(rel);
                    if rel.len() == self.oracle[*qi].rows() && self.validated[slot] == Some(fp) {
                        continue;
                    }
                    if Canonical::of(rel).matches(&self.oracle[*qi]) {
                        self.validated[slot] = Some(fp);
                        continue;
                    }
                    format!(
                        "{} rows, oracle has {}, or cells differ",
                        rel.len(),
                        self.oracle[*qi].rows()
                    )
                }
            };
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!(
                    "{}: operation {slot} (query {qi}) FAILED: {why}",
                    kind.name()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapida_rdf::TermId;
    use rapida_sparql::ast::Var;

    fn rel(vars: &[&str], rows: Vec<Vec<Cell>>) -> Relation {
        Relation {
            vars: vars.iter().map(|v| Var(v.to_string())).collect(),
            rows,
        }
    }

    #[test]
    fn column_order_row_order_and_float_noise_do_not_matter() {
        let a = rel(
            &["k", "sum"],
            vec![
                vec![Cell::Term(TermId(2)), Cell::Num(36516.0)],
                vec![Cell::Term(TermId(1)), Cell::Num(0.1 + 0.2)],
            ],
        );
        let b = rel(
            &["sum", "k"],
            vec![
                vec![Cell::Num(0.3), Cell::Term(TermId(1))],
                vec![Cell::Num(36516.0000000000004), Cell::Term(TermId(2))],
            ],
        );
        assert!(Canonical::of(&a).matches(&Canonical::of(&b)));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn a_wrong_value_a_missing_row_or_a_broken_oracle_is_a_mismatch() {
        let a = rel(
            &["k", "n"],
            vec![vec![Cell::Term(TermId(1)), Cell::Num(5.0)]],
        );
        let wrong = rel(
            &["k", "n"],
            vec![vec![Cell::Term(TermId(1)), Cell::Num(5.001)]],
        );
        let null = rel(&["k", "n"], vec![vec![Cell::Term(TermId(1)), Cell::Null]]);
        let empty = rel(&["k", "n"], vec![]);
        let ca = Canonical::of(&a);
        assert!(!ca.matches(&Canonical::of(&wrong)));
        assert!(!ca.matches(&Canonical::of(&null)));
        assert!(!ca.matches(&Canonical::of(&empty)));
        let mut broken = Canonical::of(&a);
        broken.break_it();
        assert!(!ca.matches(&broken));
    }

    #[test]
    fn fingerprint_ignores_row_order_only() {
        let r1 = vec![Cell::Term(TermId(1)), Cell::Num(1.0)];
        let r2 = vec![Cell::Term(TermId(2)), Cell::Null];
        let a = rel(&["k", "n"], vec![r1.clone(), r2.clone()]);
        let b = rel(&["k", "n"], vec![r2.clone(), r1.clone()]);
        let c = rel(&["k", "n"], vec![r1.clone(), r1]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}
