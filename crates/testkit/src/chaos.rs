//! Deterministic chaos-test harness: sweep fault seeds × worker counts and
//! assert every run reproduces the fault-free golden output.
//!
//! The harness is deliberately generic — it knows nothing about MapReduce.
//! A chaos test supplies one closure mapping a [`Scenario`] (an optional
//! fault seed plus a worker count) to any `PartialEq + Debug` value: the
//! output bytes of a workflow, a metrics signature, a whole result relation.
//! [`sweep`] runs the fault-free scenario first as the golden reference,
//! then every other scenario in the sweep, and fails on the first
//! divergence with a message naming the offending scenario.
//!
//! Sweep width is environment-tunable: `RAPIDA_CHAOS_SEEDS=<n>` selects how
//! many fault seeds to sweep (default 3). Seeds are derived from a fixed
//! base via SplitMix64 so the sweep itself is reproducible — the same `n`
//! always tests the same seeds.

use crate::rng::splitmix64;

/// One chaos scenario: which fault seed to inject (or none) at which
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Seed for the run's fault plan; `None` runs fault-free.
    pub fault_seed: Option<u64>,
    /// Worker thread count for the run.
    pub workers: usize,
}

impl Scenario {
    /// Human-readable label used in failure messages.
    pub fn label(&self) -> String {
        match self.fault_seed {
            Some(s) => format!("faults(seed={s:#x}) workers={}", self.workers),
            None => format!("fault-free workers={}", self.workers),
        }
    }
}

/// The sweep grid: fault seeds × worker counts (plus fault-free runs at
/// every worker count).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault seeds to sweep.
    pub seeds: Vec<u64>,
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
}

impl ChaosConfig {
    /// `n` derived fault seeds against the default worker grid `{1, 2, 8}`.
    pub fn with_seed_count(n: usize) -> Self {
        let mut state = 0xC4A0_5EED_0DDC_0FFE_u64;
        ChaosConfig {
            seeds: (0..n).map(|_| splitmix64(&mut state)).collect(),
            workers: vec![1, 2, 8],
        }
    }

    /// Read the sweep width from `RAPIDA_CHAOS_SEEDS` (default 3).
    pub fn from_env() -> Self {
        let n = std::env::var("RAPIDA_CHAOS_SEEDS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(3);
        Self::with_seed_count(n)
    }

    /// Every scenario in the grid, golden reference first: fault-free at
    /// each worker count, then each seed at each worker count.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &w in &self.workers {
            out.push(Scenario {
                fault_seed: None,
                workers: w,
            });
        }
        for &seed in &self.seeds {
            for &w in &self.workers {
                out.push(Scenario {
                    fault_seed: Some(seed),
                    workers: w,
                });
            }
        }
        out
    }
}

/// Run `run` over the whole sweep and assert every scenario reproduces the
/// fault-free golden value (taken at the grid's first worker count).
///
/// Panics with the scenario label on the first divergence.
pub fn sweep<T, F>(name: &str, cfg: &ChaosConfig, mut run: F)
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut(&Scenario) -> T,
{
    let scenarios = cfg.scenarios();
    assert!(
        !scenarios.is_empty(),
        "{name}: chaos sweep needs at least one worker count"
    );
    let golden_scenario = scenarios[0];
    let golden = run(&golden_scenario);
    for s in &scenarios[1..] {
        let got = run(s);
        assert!(
            got == golden,
            "{name}: [{}] diverged from golden [{}]\n  golden: {:?}\n  got:    {:?}",
            s.label(),
            golden_scenario.label(),
            golden,
            got,
        );
    }
}

/// Declare deterministic chaos tests: each `fn` body receives a
/// [`Scenario`] and returns the run's observable value; the generated
/// `#[test]` sweeps it via [`sweep`] under [`ChaosConfig::from_env`].
///
/// ```ignore
/// chaos! {
///     fn my_workflow(scenario) {
///         run_scenario(scenario.fault_seed, scenario.workers) // -> impl PartialEq + Debug
///     }
/// }
/// ```
#[macro_export]
macro_rules! chaos {
    ($(#[$attr:meta])* fn $name:ident($scenario:ident) $body:block $($rest:tt)*) => {
        $(#[$attr])*
        #[test]
        fn $name() {
            let cfg = $crate::chaos::ChaosConfig::from_env();
            $crate::chaos::sweep(
                stringify!($name),
                &cfg,
                |$scenario: &$crate::chaos::Scenario| $body,
            );
        }
        $crate::chaos! { $($rest)* }
    };
    () => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_golden_first() {
        let cfg = ChaosConfig::with_seed_count(2);
        let scenarios = cfg.scenarios();
        assert_eq!(scenarios.len(), 3 + 2 * 3);
        assert_eq!(
            scenarios[0],
            Scenario {
                fault_seed: None,
                workers: 1
            }
        );
        assert!(scenarios[..3].iter().all(|s| s.fault_seed.is_none()));
        assert!(scenarios[3..].iter().all(|s| s.fault_seed.is_some()));
    }

    #[test]
    fn seed_derivation_is_pinned() {
        // Same count → same seeds, and wider sweeps extend narrower ones.
        let a = ChaosConfig::with_seed_count(2);
        let b = ChaosConfig::with_seed_count(4);
        assert_eq!(a.seeds, b.seeds[..2]);
        assert_eq!(a.seeds, ChaosConfig::with_seed_count(2).seeds);
    }

    #[test]
    fn sweep_passes_on_agreement() {
        let cfg = ChaosConfig::with_seed_count(1);
        let mut calls = 0;
        sweep("agree", &cfg, |_s| {
            calls += 1;
            42u64
        });
        assert_eq!(calls, cfg.scenarios().len());
    }

    #[test]
    #[should_panic(expected = "diverged from golden")]
    fn sweep_fails_on_divergence() {
        let cfg = ChaosConfig::with_seed_count(1);
        sweep("diverge", &cfg, |s| s.fault_seed.map_or(0u64, |x| x));
    }

    chaos! {
        /// The macro itself, exercised end to end on a trivial body.
        fn macro_generates_a_sweeping_test(scenario) {
            // Scenario-independent value: always agrees with golden.
            let _ = scenario.workers;
            "ok"
        }
    }
}
