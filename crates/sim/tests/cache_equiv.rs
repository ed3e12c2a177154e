//! Cache-equivalence conformance: the result cache is only sound if a
//! cache hit is indistinguishable from a cold re-run. These tests pin
//! the sweep service's two headline guarantees at the library layer:
//!
//! 1. **Differential byte-identity** — a report served from the cache
//!    encodes (schema-1) to exactly the bytes a fresh
//!    `World::new(cfg).run()` produces, and re-submitting an
//!    identical sweep executes zero shards.
//! 2. **Overlap dedup** (property test) — across arbitrary overlapping
//!    sweeps submitted in arbitrary order, the executed shards are
//!    exactly the distinct novel `ShardKey`s, each run exactly once,
//!    and every submission still merges byte-identically.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use peas_des::time::SimTime;
use peas_sim::{
    config_fingerprint, encode_report, ResultCache, ScenarioConfig, ShardKey, SweepPlan, World,
};

/// The four grid points every test here sweeps over: 2 densities x 2
/// seeds of the fast small-field scenario.
const COUNTS: [usize; 2] = [25, 30];
const SEEDS: [u64; 2] = [1, 2];

fn tiny(count: usize, seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::small();
    c.node_count = count;
    c.horizon = SimTime::from_secs(300);
    c.with_seed(seed)
}

fn grid() -> Vec<(String, ScenarioConfig)> {
    let mut runs = Vec::new();
    for count in COUNTS {
        for seed in SEEDS {
            runs.push((format!("n={count} seed={seed}"), tiny(count, seed)));
        }
    }
    runs
}

/// Cold-run reference bytes per grid key, computed once: what an
/// uncached `World` run says each shard's schema-1 line must be.
fn reference() -> &'static BTreeMap<ShardKey, String> {
    static REFERENCE: OnceLock<BTreeMap<ShardKey, String>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        grid()
            .into_iter()
            .map(|(_, config)| {
                let key = ShardKey {
                    fingerprint: config_fingerprint(&config),
                    seed: config.seed,
                };
                (key, encode_report(&World::new(config).run()))
            })
            .collect()
    })
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("peas-equiv-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The differential test: serve a sweep through the cache, then check
/// every merged report byte-for-byte against an independent cold run,
/// and prove the resubmission path runs nothing.
#[test]
fn cache_served_reports_are_byte_identical_to_cold_runs() {
    let dir = temp_cache("diff");
    let cache = ResultCache::open(&dir).expect("open cache");
    let plan = SweepPlan::new(grid());

    let scan = cache.scan().expect("scan empty");
    let novel = plan.novel(&scan);
    assert_eq!(novel.len(), plan.len(), "empty cache: everything is novel");
    cache.execute(&novel, 2).expect("execute");

    let scan = cache.scan().expect("rescan");
    let merged = plan.merged(&scan).expect("complete");
    for (shard, report) in plan.shards().iter().zip(&merged) {
        let cold = reference()
            .get(&shard.key)
            .expect("every shard key has a reference run");
        assert_eq!(
            &encode_report(report),
            cold,
            "cache-served bytes diverge from a cold run for {}",
            shard.label
        );
    }

    // Re-submitting the identical sweep is a pure cache hit.
    let resubmitted = SweepPlan::new(grid());
    assert!(
        resubmitted.novel(&scan).is_empty(),
        "identical resubmission must execute zero shards"
    );
    assert_eq!(resubmitted.cached(&scan), resubmitted.len());
    let again = resubmitted.merged(&scan).expect("still complete");
    let bytes = |reports: &[peas_sim::RunReport]| -> Vec<String> {
        reports.iter().map(encode_report).collect()
    };
    assert_eq!(bytes(&again), bytes(&merged));

    let _ = fs::remove_dir_all(&dir);
}

/// A submission for the overlap property: indices into the 4-point grid
/// (duplicates allowed — a sweep may even repeat its own shard).
fn arb_submission() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..4, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random overlapping sweeps, submitted one after another against a
    /// shared cache: the executed shards are exactly the distinct novel
    /// keys (each exactly once, no matter how submissions overlap or
    /// which order they arrive in), and every submission's merged
    /// reports equal the cold-run reference byte for byte.
    #[test]
    fn overlapping_sweeps_execute_exactly_the_novel_keys(
        subs in prop::collection::vec(arb_submission(), 1..4),
        flip_order in any::<bool>(),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let all = grid();

        let mut subs = subs;
        if flip_order {
            subs.reverse();
        }

        let dir = temp_cache(&format!("overlap-{case}"));
        let cache = ResultCache::open(&dir).expect("open cache");
        let mut executed: Vec<ShardKey> = Vec::new();
        let mut expected_novel: Vec<ShardKey> = Vec::new();
        for sub in &subs {
            let runs: Vec<_> = sub.iter().map(|&i| all[i].clone()).collect();
            let plan = SweepPlan::new(runs);
            let scan = cache.scan().expect("scan");
            let novel = plan.novel(&scan);
            // Predict novelty independently: keys never seen by any
            // earlier submission (nor earlier in this one).
            for shard in plan.shards() {
                if !executed.contains(&shard.key)
                    && !expected_novel.contains(&shard.key)
                {
                    expected_novel.push(shard.key);
                }
            }
            cache.execute(&novel, 2).expect("execute");
            executed.extend(novel.iter().map(|s| s.key));
            prop_assert_eq!(&executed, &expected_novel,
                "executed set must track exactly the novel keys");

            // This submission is now fully served, byte-identically.
            let scan = cache.scan().expect("rescan");
            let merged = plan.merged(&scan).expect("complete");
            for (shard, report) in plan.shards().iter().zip(&merged) {
                prop_assert_eq!(
                    &encode_report(report),
                    reference().get(&shard.key).expect("reference"),
                    "submission {:?} shard {} diverged", sub, shard.label
                );
            }
        }

        // No key ever ran twice.
        let mut dedup = executed.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), executed.len(), "a key was executed twice");

        let _ = fs::remove_dir_all(&dir);
    }
}
