//! Cross-crate integration test of the serving subsystem: plan-cache
//! hit/miss semantics (memory and disk), deterministic batched outputs,
//! builder validation, and graceful shutdown draining the queue.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use tdc_repro::serve::{
    serving_descriptor, BatchingOptions, CacheOutcome, PlanCache, PlanKey, PlanningOptions,
    RuntimeOptions, ServeEngine, ServeError,
};
use tdc_repro::tensor::{init, Tensor};

fn engine(
    descriptor: &tdc_repro::nn::models::ModelDescriptor,
    cache: &PlanCache,
    workers: usize,
    max_batch: usize,
    delay_ms: u64,
) -> ServeEngine {
    ServeEngine::builder(descriptor)
        .batching(BatchingOptions {
            max_batch_size: max_batch,
            max_batch_delay: Duration::from_millis(delay_ms),
            ..BatchingOptions::default()
        })
        .runtime(RuntimeOptions {
            workers,
            ..RuntimeOptions::default()
        })
        .plan_cache(cache)
        .build()
        .expect("engine build")
}

#[test]
fn plan_cache_hit_miss_semantics_across_engines_and_processes() {
    let descriptor = serving_descriptor("it-cache", 12, 4, 8);
    let spill = std::env::temp_dir().join(format!("tdc-serve-it-{}", std::process::id()));
    let cache = PlanCache::new(4).with_spill_dir(&spill).unwrap();

    // Cold start misses, warm restart hits memory.
    let first = engine(&descriptor, &cache, 1, 4, 1);
    assert_eq!(first.plan_outcome(), CacheOutcome::Miss);
    let fingerprint = first.plan().fingerprint();
    drop(first);
    let second = engine(&descriptor, &cache, 1, 4, 1);
    assert_eq!(second.plan_outcome(), CacheOutcome::MemoryHit);
    assert_eq!(second.plan().fingerprint(), fingerprint);
    drop(second);

    // A different budget is a different key: miss again.
    let third = ServeEngine::builder(&descriptor)
        .planning(PlanningOptions {
            budget: 0.3,
            ..PlanningOptions::default()
        })
        .runtime(RuntimeOptions {
            workers: 1,
            ..RuntimeOptions::default()
        })
        .plan_cache(&cache)
        .build()
        .unwrap();
    assert_eq!(third.plan_outcome(), CacheOutcome::Miss);
    drop(third);

    // A different selection config (rank step) under the *same* budget is
    // also a different key — the cache must never serve a plan computed
    // under another configuration.
    let stepped = ServeEngine::builder(&descriptor)
        .planning(PlanningOptions {
            rank_step: 8,
            ..PlanningOptions::default()
        })
        .runtime(RuntimeOptions {
            workers: 1,
            ..RuntimeOptions::default()
        })
        .plan_cache(&cache)
        .build()
        .unwrap();
    assert_eq!(stepped.plan_outcome(), CacheOutcome::Miss);
    drop(stepped);

    // "Process restart": cold memory, warm disk -> disk hit, same plan.
    cache.clear_memory();
    let fourth = engine(&descriptor, &cache, 1, 4, 1);
    assert_eq!(fourth.plan_outcome(), CacheOutcome::DiskHit);
    assert_eq!(fourth.plan().fingerprint(), fingerprint);
    drop(fourth);

    let stats = cache.stats();
    assert_eq!(stats.memory_hits, 1);
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.misses, 3);

    // Direct key-level checks of the keying: budget quantization absorbs
    // float noise, and every selection input participates in the key.
    let cfg = tdc_repro::core::RankSelectionConfig::default();
    let noisy = tdc_repro::core::RankSelectionConfig {
        budget: cfg.budget + 1e-9,
        ..cfg.clone()
    };
    assert_eq!(
        PlanKey::new("m", "d", &cfg),
        PlanKey::new("m", "d", &noisy),
        "float noise below a micro-unit must not split keys"
    );
    let stepped = tdc_repro::core::RankSelectionConfig {
        rank_step: cfg.rank_step + 1,
        ..cfg.clone()
    };
    assert_ne!(
        PlanKey::new("m", "d", &cfg),
        PlanKey::new("m", "d", &stepped)
    );
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn outputs_are_deterministic_regardless_of_batch_composition() {
    let descriptor = serving_descriptor("it-determinism", 12, 4, 8);
    let mut rng = StdRng::seed_from_u64(77);
    let inputs: Vec<Tensor> = (0..12)
        .map(|_| init::uniform(vec![12, 12, 4], -1.0, 1.0, &mut rng))
        .collect();

    // Reference: an engine serving one request at a time (batch size 1).
    let cache = PlanCache::new(2);
    let solo = engine(&descriptor, &cache, 1, 1, 0);
    let reference: Vec<Tensor> = inputs
        .iter()
        .map(|x| solo.infer(x.clone()).unwrap().output)
        .collect();
    solo.shutdown();

    // Same inputs submitted concurrently through a batching engine: every
    // output must be bit-identical to the solo run, whatever batches formed.
    let batched = engine(&descriptor, &cache, 3, 4, 5);
    let pending: Vec<_> = inputs
        .iter()
        .map(|x| batched.submit(x.clone()).unwrap())
        .collect();
    let mut batch_sizes = Vec::new();
    for (p, expected) in pending.into_iter().zip(reference.iter()) {
        let response = p.wait().unwrap();
        batch_sizes.push(response.batch_size);
        assert_eq!(
            &response.output, expected,
            "batched output diverged from solo output"
        );
    }
    batched.shutdown();
    // Sanity: the engine did form real batches for at least part of the run.
    assert!(
        batch_sizes.iter().any(|&b| b > 1),
        "no batching happened: {batch_sizes:?}"
    );
}

#[test]
fn builder_validation_rejects_degenerate_options() {
    let descriptor = serving_descriptor("it-validate", 12, 4, 8);
    let cache = PlanCache::new(2);

    let zero_workers = ServeEngine::builder(&descriptor)
        .runtime(RuntimeOptions {
            workers: 0,
            ..RuntimeOptions::default()
        })
        .plan_cache(&cache)
        .build();
    assert!(matches!(zero_workers, Err(ServeError::BadConfig { .. })));

    let zero_batch = ServeEngine::builder(&descriptor)
        .batching(BatchingOptions {
            max_batch_size: 0,
            ..BatchingOptions::default()
        })
        .plan_cache(&cache)
        .build();
    assert!(matches!(zero_batch, Err(ServeError::BadConfig { .. })));

    for bad_budget in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
        let non_finite = ServeEngine::builder(&descriptor)
            .planning(PlanningOptions {
                budget: bad_budget,
                ..PlanningOptions::default()
            })
            .plan_cache(&cache)
            .build();
        assert!(
            matches!(non_finite, Err(ServeError::BadConfig { .. })),
            "budget {bad_budget} must be rejected"
        );
    }
    assert_eq!(
        cache.stats().misses,
        0,
        "validation must fire before any planning work"
    );
}

#[test]
fn shutdown_drains_the_queue_gracefully() {
    let descriptor = serving_descriptor("it-drain", 12, 4, 8);
    let cache = PlanCache::new(2);
    // One slow worker and a generous batch delay so a backlog builds up.
    let engine = Arc::new(engine(&descriptor, &cache, 1, 2, 1));

    let mut rng = StdRng::seed_from_u64(5);
    let pending: Vec<_> = (0..20)
        .map(|_| {
            engine
                .submit(init::uniform(vec![12, 12, 4], -1.0, 1.0, &mut rng))
                .unwrap()
        })
        .collect();

    // Shut down immediately: everything already queued must still be served.
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("engine still shared"));
    let report = engine.shutdown();
    assert_eq!(
        report.metrics.completed_requests, 20,
        "shutdown dropped queued requests"
    );

    for p in pending {
        let response = p
            .wait()
            .expect("queued request must be answered during drain");
        assert_eq!(response.output.dims(), &[8]);
    }
}
