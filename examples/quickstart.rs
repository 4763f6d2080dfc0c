//! Quickstart: load RDF data, run a SPARQL analytical query with the
//! paper's engine (RAPIDAnalytics), and inspect the MapReduce workflow it
//! compiled to.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rapida::prelude::*;

fn main() {
    // 1. Build an RDF graph. Any N-Triples source works; here we parse a
    //    small inline document about products and offers.
    let ntriples = r#"
<http://shop/p1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://shop/Phone> .
<http://shop/p1> <http://shop/feature> <http://shop/5G> .
<http://shop/p1> <http://shop/feature> <http://shop/OLED> .
<http://shop/p2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://shop/Phone> .
<http://shop/o1> <http://shop/product> <http://shop/p1> .
<http://shop/o1> <http://shop/price> "599.99" .
<http://shop/o2> <http://shop/product> <http://shop/p1> .
<http://shop/o2> <http://shop/price> "579.00" .
<http://shop/o3> <http://shop/product> <http://shop/p2> .
<http://shop/o3> <http://shop/price> "399.00" .
"#;
    //    The parsed document borrows its terms from the text; loading it
    //    interns each term straight from there.
    let doc = rapida::rdf::parse_ntriples(ntriples).expect("valid N-Triples");
    let mut graph = Graph::new();
    graph.insert_term_triples(&doc);
    println!("loaded {} triples", graph.len());

    // 2. Load the graph into the catalog: this materializes both storage
    //    layouts (vertical partitions for the Hive engines, subject
    //    triplegroups for the RAPID engines) into a simulated DFS.
    let cat = DataCatalog::load(&graph);
    let mr = MrEngine::new(cat.dfs.clone());

    // 3. An analytical query: average phone price per feature vs overall —
    //    two related groupings over overlapping graph patterns (the paper's
    //    AQ1 shape).
    let sparql = r#"
        PREFIX shop: <http://shop/>
        SELECT ?f ?cntF ?sumF ?cntT ?sumT {
          { SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
            { ?p2 a shop:Phone ; shop:feature ?f .
              ?o2 shop:product ?p2 ; shop:price ?pr2 . } GROUP BY ?f }
          { SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
            { ?p1 a shop:Phone .
              ?o1 shop:product ?p1 ; shop:price ?pr . } }
        }"#;

    // 4. Execute with RAPIDAnalytics.
    let engine = RapidAnalytics::default();
    let (result, metrics, plan) = run_query(&engine, sparql, &cat, &mr).expect("query runs");

    println!(
        "\n{} compiled the query into {} MR cycles ({} full, {} map-only):",
        engine.name(),
        plan.cycles(),
        metrics.full_cycles(),
        metrics.map_only_cycles()
    );
    for job in &metrics.jobs {
        println!("  {job}");
    }

    println!("\nresults:\n{}", result.pretty(&cat.dict));

    // 5. Compare against the direct in-memory reference evaluator.
    let reference = evaluate(&parse_query(sparql).unwrap(), &graph);
    assert_eq!(
        result.canonicalized(&cat.dict),
        reference.canonicalized(&graph.dict),
        "engine output matches the reference evaluator"
    );
    println!("verified against the reference evaluator ✓");
}
