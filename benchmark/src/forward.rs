//! `fwd_tucker` and `fwd_dense`: a closed loop of one thread calling
//! `CompressedModel::forward_in` on `svc-mid`, batch 1, one scratch arena,
//! no serving code. The two differ only in θ: 0 decomposes three of the
//! four layers, 0.999999 keeps every layer dense (the im2col path), so the
//! same `tdc-tensor`/`tdc-conv` kernels are driven at both shape classes
//! and `fwd_dense.p50_ms / fwd_tucker.p50_ms` is the paper's headline
//! ratio, measured.

use crate::bench::{arena_layer, ms_between, Bench, Fallible, Fingerprints, Layer, Window};
use crate::catalog::{planning, Workload, SVC_MID};
use crate::host;
use crate::inputs::{self, InputPool};
use crate::probes;
use crate::spans::Spans;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc::{CompressionPlan, TdcPipeline};
use tdc_serve::{BufferPool, CompressedModel, PoolStats, RuntimeOptions, ScratchArena};
use tdc_tensor::Tensor;

/// The forward-pass workload; `KEEP_DENSE` selects `fwd_dense`.
pub struct Forward<const KEEP_DENSE: bool> {
    plan: CompressionPlan,
    model: CompressedModel,
    pool: InputPool,
    references: Vec<Tensor>,
    arena: ScratchArena,
    next: usize,
}

impl<const KEEP_DENSE: bool> Forward<KEEP_DENSE> {
    fn workload() -> Workload {
        if KEEP_DENSE {
            Workload::FwdDense
        } else {
            Workload::FwdTucker
        }
    }

    /// One op: forward the next pool input through the arena path and
    /// compare the logits bit for bit. Returns whether they matched and
    /// when the forward call returned.
    fn op(&mut self) -> Fallible<(bool, Instant)> {
        let index = self.next % inputs::POOL_SIZE;
        self.next += 1;
        let output = self
            .model
            .forward_in(&self.pool.tensors[index], &mut self.arena)
            .map_err(|e| format!("forward_in failed: {e}"))?;
        let returned = Instant::now();
        let ok = inputs::same_bits(&output, &self.references[index]);
        self.arena.give(output.into_data());
        Ok((ok, returned))
    }

    fn pool_stats(&self) -> PoolStats {
        self.arena.pool().stats()
    }
}

impl<const KEEP_DENSE: bool> Bench for Forward<KEEP_DENSE> {
    fn set_up(seed: u64, notes: &mut Layer) -> Fallible<Self> {
        let pool = inputs::pool(seed, &SVC_MID);
        let descriptor = SVC_MID.descriptor();
        let options = planning(KEEP_DENSE);
        let pipeline = TdcPipeline::new(options.device.clone(), options.strategy);

        let started = Instant::now();
        let plan = pipeline
            .plan_with_config(&descriptor, &options.selection_config())
            .map_err(|e| format!("planning svc-mid failed: {e}"))?;
        notes.push(("core.plan_cold_ms", ms_between(started, Instant::now())));
        notes.push(("core.tiling_selections", tdc::tiling::cache_len() as f64));

        let model =
            CompressedModel::materialize(&descriptor, &plan, RuntimeOptions::default().seed)
                .map_err(|e| format!("materialising svc-mid failed: {e}"))?;
        if KEEP_DENSE && model.decomposed_layers() != 0 {
            return Err(format!(
                "fwd_dense must keep every layer, but {} were decomposed",
                model.decomposed_layers()
            ));
        }
        if !KEEP_DENSE && model.decomposed_layers() == 0 {
            return Err("fwd_tucker decomposed no layer".to_string());
        }

        let references = pool
            .tensors
            .iter()
            .map(|input| model.forward(input))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("reference forward failed: {e}"))?;

        let mut bench = Forward {
            plan,
            model,
            pool,
            references,
            arena: ScratchArena::new(Arc::new(BufferPool::new())),
            next: 0,
        };
        for _ in 0..Self::workload().warmup_ops() {
            if !bench.op()?.0 {
                return Err("warm-up output differs from the reference".to_string());
            }
        }
        Ok(bench)
    }

    fn window(&mut self, seconds: f64, mut spans: Option<&mut Spans>) -> Fallible<Window> {
        let mut window = Window::default();
        let pool_before = self.pool_stats();
        let cpu_before = host::process_cpu();
        let started = Instant::now();
        let until = started + Duration::from_secs_f64(seconds);
        // Zero think time: an op's latency runs from the end of the previous
        // one to its own verified output.
        let mut op_started = started;
        loop {
            let op_id = self.next as u64;
            let (ok, returned) = self.op()?;
            let verified = Instant::now();
            window.attempted += 1;
            if ok {
                window.latencies_ms.push(ms_between(op_started, verified));
            } else {
                window.failed += 1;
            }
            if let Some(spans) = spans.as_deref_mut() {
                let op = spans.record("op", op_started, verified, None, op_id);
                spans.record("model.forward_in", op_started, returned, Some(op), op_id);
            }
            op_started = verified;
            if verified >= until {
                break;
            }
        }
        window.wall_s = op_started.duration_since(started).as_secs_f64();
        // The generator thread *is* the program here: nothing to subtract.
        window.cpu_ms = host::program_cpu_ms(host::process_cpu() - cpu_before, &[]);
        arena_layer(
            &pool_before,
            &self.pool_stats(),
            window.latencies_ms.len(),
            &mut window.layer,
        );
        Ok(window)
    }

    fn probe_layers(&mut self, layer: &mut Layer) -> Fallible<()> {
        probes::model_layers(
            &SVC_MID,
            KEEP_DENSE,
            &self.plan,
            &self.model,
            &self.pool.tensors[0],
            layer,
        )
    }

    fn fingerprints(&self) -> Fingerprints {
        Fingerprints {
            inputs: self.pool.fingerprint,
            schedule: 0,
            outputs: inputs::output_fingerprint(&self.references),
        }
    }
}
