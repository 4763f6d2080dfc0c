//! The generated document the ingest budgets (`alloc_budget`,
//! `memory_budget`) load.

use std::fmt::Write as _;

/// `triples` triples without escapes: IRI and blank-node subjects; IRI,
/// typed, language-tagged and plain objects; most terms repeat.
pub fn document(triples: usize) -> String {
    let mut doc = String::new();
    for i in 0..triples {
        let s = i / 4;
        let _ = match i % 4 {
            0 => writeln!(doc, "<http://x/s{s}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/T{}> .", s % 7),
            1 => writeln!(
                doc,
                "<http://x/s{s}> <http://x/price> \"{}.5\"^^<http://www.w3.org/2001/XMLSchema#decimal> .",
                i % 1000
            ),
            2 => writeln!(doc, "_:b{s} <http://x/label> \"label {s}\"@en ."),
            _ => writeln!(doc, "<http://x/s{s}> <http://x/note> \"note {}\" .", i % 50),
        };
    }
    doc
}
