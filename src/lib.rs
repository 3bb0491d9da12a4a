//! # tdc-repro
//!
//! Umbrella crate of the TDC (PPoPP'23) reproduction workspace. It re-exports
//! the individual crates so the repository-level examples and integration
//! tests can use one coherent namespace:
//!
//! * [`tensor`] — dense tensors, GEMM, matricization, SVD (`tdc-tensor`)
//! * [`gpu_sim`] — the A100 / RTX 2080 Ti device simulator (`tdc-gpu-sim`)
//! * [`conv`] — the convolution algorithm zoo and cost models (`tdc-conv`)
//! * [`nn`] — the CNN training substrate and model zoo (`tdc-nn`)
//! * [`tucker`] — Tucker-2 decomposition and ADMM training (`tdc-tucker`)
//! * [`core`] — the TDC framework: performance model, tiling selection,
//!   code generation, rank selection, end-to-end pipeline (`tdc`)
//! * [`serve`] — batched inference serving with a compression-plan cache
//!   (`tdc-serve`)
//! * [`router`] — the replica-fleet router tier: health-driven ejection,
//!   Retry-After-aware failover, fleet control-plane fan-out (`tdc-router`)
//! * [`lab`] — the trace-driven workload engine and chaos harness
//!   (`tdc-lab`)
//!
//! See `README.md` for a quickstart.

pub use tdc as core;
pub use tdc_conv as conv;
pub use tdc_gpu_sim as gpu_sim;
pub use tdc_lab as lab;
pub use tdc_nn as nn;
pub use tdc_router as router;
pub use tdc_serve as serve;
pub use tdc_tensor as tensor;
pub use tdc_tucker as tucker;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        // Touch one item from each re-exported crate.
        let _ = crate::tensor::Tensor::zeros(vec![2, 2]);
        let _ = crate::gpu_sim::DeviceSpec::a100();
        let _ = crate::conv::ConvShape::same3x3(8, 8, 8, 8);
        let _ = crate::nn::models::resnet18_descriptor();
        let _ = crate::tucker::rank::RankPair::new(32, 32);
        let _ = crate::core::tiling::TilingStrategy::Model;
        let _ = crate::serve::PlanCache::new(2);
        let _ = crate::router::RoutingPolicy::parse("least-loaded");
        let _ = crate::lab::ReplayOptions::default();
    }
}
