//! Quickstart: decompose one convolution layer, pick a hardware-aware tiling
//! for its Tucker core, and look at the generated CUDA kernel.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::{rngs::StdRng, SeedableRng};
use tdc::codegen::generate_core_kernel;
use tdc::tiling::{select, TilingStrategy};
use tdc_conv::{direct, ConvShape};
use tdc_gpu_sim::DeviceSpec;
use tdc_tensor::init;
use tdc_tucker::flops;
use tdc_tucker::tkd::tucker2;
use tdc_tucker::tucker_conv::TuckerConv;

fn main() {
    // A typical mid-network convolution layer: 256 -> 256 channels, 14x14.
    let shape = ConvShape::same3x3(256, 256, 14, 14);
    let (d1, d2) = (64, 64);
    println!("Original layer : {shape}");
    println!("Tucker ranks   : D1={d1}, D2={d2}");
    println!("Parameter ratio γP = {:.2}", flops::gamma_p(&shape, d1, d2));
    println!("FLOPs ratio     γF = {:.2}", flops::gamma_f(&shape, d1, d2));

    // Decompose a (random, stand-in) kernel and check the factorised layer
    // computes the same thing as convolving with the reconstructed kernel.
    let mut rng = StdRng::seed_from_u64(42);
    let kernel = init::kaiming_normal(shape.kernel_dims(), shape.c * 9, &mut rng);
    let factors = tucker2(&kernel, d1, d2).expect("tucker decomposition");
    let layer = TuckerConv::from_factors(shape, &factors).expect("tucker layer");

    let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
    let tucker_out = layer.forward(&input).expect("tucker forward");
    let reconstructed = layer.reconstruct_kernel().expect("reconstruct");
    let dense_out = direct::conv2d(&input, &reconstructed, &shape).expect("dense forward");
    println!(
        "Tucker layer vs. dense-with-reconstructed-kernel relative error: {:.2e}",
        tucker_out.relative_error(&dense_out).unwrap()
    );

    // Hardware-aware tiling selection for the core convolution on the A100.
    let device = DeviceSpec::a100();
    let core_shape = shape.with_ranks(d1, d2);
    let model = select(&core_shape, &device, TilingStrategy::Model).expect("model tiling");
    let oracle = select(&core_shape, &device, TilingStrategy::Oracle).expect("oracle tiling");
    println!("\nCore convolution {core_shape} on {}", device.name);
    println!(
        "  model-selected tiling  {} -> {:.4} ms",
        model.tiling, model.latency_ms
    );
    println!(
        "  oracle-selected tiling {} -> {:.4} ms",
        oracle.tiling, oracle.latency_ms
    );

    // Generated CUDA kernel (first lines).
    let kernel_src = generate_core_kernel(&core_shape, &oracle.tiling);
    println!(
        "\nGenerated kernel `{}` ({} blocks x {} threads, {} B shared memory):",
        kernel_src.kernel_name,
        kernel_src.grid_blocks,
        kernel_src.threads_per_block,
        kernel_src.shared_mem_bytes
    );
    for line in kernel_src.source.lines().take(12) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", kernel_src.source.lines().count());
}
