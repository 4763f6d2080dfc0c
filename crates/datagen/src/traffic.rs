//! Seeded traffic generator for the serving front end.
//!
//! Produces a deterministic stream of query arrivals for N simulated
//! clients: each client draws Poisson-ish (exponential) interarrival
//! offsets from its own PRNG stream and picks a query template from a
//! weighted mix. The same `TrafficConfig` always yields the same event
//! stream, independent of how the consumer threads it — the serve bench
//! and the serve tests replay identical traffic from identical seeds.

use crate::queries;
use rapida_testkit::rng::{splitmix64, StdRng};

/// One simulated query arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficEvent {
    /// Arrival offset from the start of the run, in simulated ms.
    pub at_ms: u64,
    /// Client (tenant) index in `0..clients`.
    pub client: usize,
    /// Per-client arrival sequence number (0, 1, 2, …).
    pub seq: usize,
    /// Catalog query id (e.g. `"MG1"`); resolve via [`queries::query`].
    pub query_id: String,
}

/// Parameters of the simulated arrival process.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed; per-client streams are derived from it, so the same
    /// seed gives the same traffic regardless of client count order.
    pub seed: u64,
    /// Number of simulated clients.
    pub clients: usize,
    /// Length of the run in simulated ms; arrivals beyond it are dropped.
    pub duration_ms: u64,
    /// Mean interarrival gap per client in simulated ms (exponential).
    pub mean_interarrival_ms: f64,
    /// Weighted query-template mix: (catalog id, weight > 0).
    pub mix: Vec<(String, f64)>,
}

impl TrafficConfig {
    /// A BSBM-flavoured default mix: the four MG analytical templates plus
    /// two single-block G templates, weighted toward the overlapping MGs.
    pub fn bsbm_mix(seed: u64, clients: usize, duration_ms: u64) -> Self {
        TrafficConfig {
            seed,
            clients,
            duration_ms,
            mean_interarrival_ms: 40.0,
            mix: vec![
                ("MG1".into(), 3.0),
                ("MG2".into(), 3.0),
                ("MG3".into(), 2.0),
                ("MG4".into(), 2.0),
                ("G1".into(), 1.0),
                ("G2".into(), 1.0),
            ],
        }
    }
}

/// Generate the full arrival stream, sorted by `(at_ms, client, seq)`.
///
/// Each client's interarrival gaps are exponential with the configured
/// mean (inverse-CDF of a uniform draw), quantised to whole ms with a
/// 1 ms floor so two arrivals of one client never tie. Template choice
/// is an independent weighted draw per event.
pub fn generate(cfg: &TrafficConfig) -> Vec<TrafficEvent> {
    assert!(!cfg.mix.is_empty(), "traffic mix must not be empty");
    assert!(cfg.mean_interarrival_ms > 0.0, "mean interarrival must be positive");
    let total_weight: f64 = cfg.mix.iter().map(|(_, w)| *w).sum();
    assert!(total_weight > 0.0, "traffic mix weights must sum to > 0");

    let mut events = Vec::new();
    for client in 0..cfg.clients {
        // Independent per-client stream: mixing the client index through
        // SplitMix64 keeps streams decorrelated for adjacent indices.
        let mut derive = cfg.seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let stream_seed = splitmix64(&mut derive);
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let mut at = 0u64;
        let mut seq = 0usize;
        loop {
            // Exponential interarrival, floored at 1 ms after rounding.
            let u = rng.unit_f64();
            let gap = (-cfg.mean_interarrival_ms * (1.0 - u).ln()).round() as u64;
            at = at.saturating_add(gap.max(1));
            if at >= cfg.duration_ms {
                break;
            }
            let mut roll = rng.unit_f64() * total_weight;
            // What rounding leaves of the roll past every weight goes to the
            // last template (the mix is not empty, asserted above).
            let mut query_id = &cfg.mix[cfg.mix.len() - 1].0;
            for (id, w) in &cfg.mix {
                if roll < *w {
                    query_id = id;
                    break;
                }
                roll -= *w;
            }
            let query_id = query_id.clone();
            events.push(TrafficEvent { at_ms: at, client, seq, query_id });
            seq += 1;
        }
    }
    events.sort_by(|a, b| {
        (a.at_ms, a.client, a.seq).cmp(&(b.at_ms, b.client, b.seq))
    });
    events
}

/// Resolve an event to its catalog SPARQL text.
pub fn sparql_of(ev: &TrafficEvent) -> String {
    queries::query(&ev.query_id).sparql
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrafficConfig {
        TrafficConfig::bsbm_mix(7, 5, 2_000)
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(generate(&cfg()), generate(&cfg()));
    }

    #[test]
    fn different_seeds_differ() {
        let mut other = cfg();
        other.seed = 8;
        assert_ne!(generate(&cfg()), generate(&other));
    }

    #[test]
    fn events_sorted_and_in_bounds() {
        let c = cfg();
        let evs = generate(&c);
        assert!(!evs.is_empty());
        for w in evs.windows(2) {
            assert!((w[0].at_ms, w[0].client, w[0].seq) < (w[1].at_ms, w[1].client, w[1].seq));
        }
        for ev in &evs {
            assert!(ev.at_ms < c.duration_ms);
            assert!(ev.client < c.clients);
            assert!(c.mix.iter().any(|(id, _)| *id == ev.query_id));
        }
    }

    #[test]
    fn per_client_sequences_are_dense() {
        let evs = generate(&cfg());
        for client in 0..5 {
            let seqs: Vec<usize> =
                evs.iter().filter(|e| e.client == client).map(|e| e.seq).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..seqs.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mix_weights_are_respected_roughly() {
        let mut c = cfg();
        c.clients = 40;
        c.duration_ms = 10_000;
        let evs = generate(&c);
        let mg1 = evs.iter().filter(|e| e.query_id == "MG1").count();
        let g1 = evs.iter().filter(|e| e.query_id == "G1").count();
        // MG1 has 3x the weight of G1; allow a generous band.
        assert!(mg1 > g1, "expected MG1 ({mg1}) to dominate G1 ({g1})");
    }

    #[test]
    fn adding_a_client_preserves_existing_streams() {
        let a = generate(&cfg());
        let mut c = cfg();
        c.clients = 6;
        let b = generate(&c);
        let a_only: Vec<_> = a.iter().filter(|e| e.client < 5).collect();
        let b_only: Vec<_> = b.iter().filter(|e| e.client < 5).collect();
        assert_eq!(a_only, b_only);
    }

    #[test]
    fn events_resolve_to_catalog_sparql() {
        let evs = generate(&cfg());
        let text = sparql_of(&evs[0]);
        assert!(text.contains("SELECT"));
    }
}
