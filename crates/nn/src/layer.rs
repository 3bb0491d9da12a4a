//! Layers, parameters and networks.
//!
//! Networks are explicit enums of layers rather than trait objects so that the
//! ADMM trainer (in `tdc-tucker`) and the compression pipeline (in `tdc`) can
//! walk a network and reach the convolution kernels directly. Activations are
//! NHWC (`[batch, height, width, channels]`); convolution kernels are CNRS.

use crate::{NnError, Result};
use rand::Rng;
use tdc_conv::{dispatch, im2col, ConvShape, CpuConvAlgorithm};
use tdc_tensor::{init, matmul, ops, Tensor};

/// A trainable parameter: its value and the gradient accumulated by the last
/// backward pass.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient of the loss with respect to the value.
    pub grad: Tensor,
}

impl Param {
    /// Wrap a tensor as a parameter with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims().to_vec());
        Param { value, grad }
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.dims().to_vec());
    }

    /// Number of scalar values in the parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

fn batch_dims(x: &Tensor, layer: &'static str) -> Result<(usize, usize, usize, usize)> {
    if x.rank() != 4 {
        return Err(NnError::BadInput {
            layer,
            expected: "[batch, h, w, c]".into(),
            actual: x.dims().to_vec(),
        });
    }
    Ok((x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]))
}

fn slice_sample(x: &Tensor, b: usize) -> Tensor {
    let (h, w, c) = (x.dims()[1], x.dims()[2], x.dims()[3]);
    let stride = h * w * c;
    Tensor::from_vec(
        vec![h, w, c],
        x.data()[b * stride..(b + 1) * stride].to_vec(),
    )
    .expect("sample slice")
}

fn stack_samples(samples: Vec<Tensor>) -> Tensor {
    let b = samples.len();
    let dims = samples[0].dims().to_vec();
    let stride: usize = dims.iter().product();
    let mut data = Vec::with_capacity(b * stride);
    for s in &samples {
        data.extend_from_slice(s.data());
    }
    let mut out_dims = vec![b];
    out_dims.extend_from_slice(&dims);
    Tensor::from_vec(out_dims, data).expect("stack")
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

/// 2-D convolution layer. The kernel is stored in the paper's `CNRS` layout.
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    /// Per-sample convolution shape.
    pub shape: ConvShape,
    /// Kernel parameter, `C × N × R × S`.
    pub kernel: Param,
    /// Optional per-output-channel bias.
    pub bias: Option<Param>,
    cached_input: Option<Tensor>,
}

impl Conv2dLayer {
    /// Create a convolution layer with Kaiming-normal initialised weights.
    pub fn new<R: Rng + ?Sized>(shape: ConvShape, with_bias: bool, rng: &mut R) -> Self {
        let fan_in = shape.c * shape.r * shape.s;
        let kernel = init::kaiming_normal(shape.kernel_dims(), fan_in, rng);
        let bias = with_bias.then(|| Param::new(Tensor::zeros(vec![shape.n])));
        Conv2dLayer {
            shape,
            kernel: Param::new(kernel),
            bias,
            cached_input: None,
        }
    }

    /// Create a layer from an existing kernel tensor (used when rebuilding a
    /// network from Tucker factors).
    pub fn from_kernel(shape: ConvShape, kernel: Tensor, bias: Option<Tensor>) -> Result<Self> {
        if kernel.dims() != shape.kernel_dims().as_slice() {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: format!("{:?}", shape.kernel_dims()),
                actual: kernel.dims().to_vec(),
            });
        }
        Ok(Conv2dLayer {
            shape,
            kernel: Param::new(kernel),
            bias: bias.map(Param::new),
            cached_input: None,
        })
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        let (b, h, w, c) = batch_dims(x, "conv2d")?;
        if h != self.shape.h || w != self.shape.w || c != self.shape.c {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: format!("[b, {}, {}, {}]", self.shape.h, self.shape.w, self.shape.c),
                actual: x.dims().to_vec(),
            });
        }
        let shape = self.shape;
        let kernel = self.kernel.value.clone();
        let outputs: Vec<Tensor> = (0..b)
            .map(|i| {
                let sample = slice_sample(x, i);
                dispatch(CpuConvAlgorithm::Im2col, &sample, &kernel, &shape).expect("conv forward")
            })
            .collect();
        let mut out = stack_samples(outputs);
        if let Some(bias) = &self.bias {
            let n = shape.n;
            let bv = bias.value.data();
            for (i, v) in out.data_mut().iter_mut().enumerate() {
                *v += bv[i % n];
            }
        }
        self.cached_input = Some(x.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or(NnError::Protocol {
            reason: "conv2d backward before forward",
        })?;
        let (b, ..) = batch_dims(x, "conv2d")?;
        let shape = self.shape;
        let kernel = self.kernel.value.clone();

        let per_sample: Vec<(Tensor, Tensor)> = (0..b)
            .map(|i| {
                let sample = slice_sample(x, i);
                let gout = slice_sample(grad_out, i);
                let gin = im2col::conv2d_input_grad(&gout, &kernel, &shape).expect("input grad");
                let gk = im2col::conv2d_kernel_grad(&sample, &gout, &shape).expect("kernel grad");
                (gin, gk)
            })
            .collect();

        let mut kernel_grad = Tensor::zeros(shape.kernel_dims());
        let mut input_grads = Vec::with_capacity(b);
        for (gin, gk) in per_sample {
            ops::axpy_inplace(&mut kernel_grad, 1.0, &gk)?;
            input_grads.push(gin);
        }
        self.kernel.grad = ops::add(&self.kernel.grad, &kernel_grad)?;

        if let Some(bias) = &mut self.bias {
            let n = shape.n;
            let mut bgrad = vec![0.0f32; n];
            for (i, v) in grad_out.data().iter().enumerate() {
                bgrad[i % n] += v;
            }
            let bgrad = Tensor::from_vec(vec![n], bgrad)?;
            bias.grad = ops::add(&bias.grad, &bgrad)?;
        }

        Ok(stack_samples(input_grads))
    }
}

// ---------------------------------------------------------------------------
// Batch normalisation
// ---------------------------------------------------------------------------

/// Per-channel batch normalisation over NHWC activations.
#[derive(Debug, Clone)]
pub struct BatchNorm2dLayer {
    /// Number of channels.
    pub channels: usize,
    /// Scale parameter γ.
    pub gamma: Param,
    /// Shift parameter β.
    pub beta: Param,
    /// Running mean used at evaluation time.
    pub running_mean: Vec<f32>,
    /// Running variance used at evaluation time.
    pub running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cached: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    normalized: Tensor,
    std_inv: Vec<f32>,
    count: usize,
}

impl BatchNorm2dLayer {
    /// Create a batch-norm layer with γ = 1, β = 0.
    pub fn new(channels: usize) -> Self {
        BatchNorm2dLayer {
            channels,
            gamma: Param::new(Tensor::ones(vec![channels])),
            beta: Param::new(Tensor::zeros(vec![channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cached: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let (b, h, w, c) = batch_dims(x, "batchnorm2d")?;
        if c != self.channels {
            return Err(NnError::BadInput {
                layer: "batchnorm2d",
                expected: format!("[b, h, w, {}]", self.channels),
                actual: x.dims().to_vec(),
            });
        }
        let count = b * h * w;
        let (mean, var) = if train {
            let mut mean = vec![0.0f64; c];
            let mut var = vec![0.0f64; c];
            for (i, &v) in x.data().iter().enumerate() {
                mean[i % c] += v as f64;
            }
            for m in mean.iter_mut() {
                *m /= count as f64;
            }
            for (i, &v) in x.data().iter().enumerate() {
                let d = v as f64 - mean[i % c];
                var[i % c] += d * d;
            }
            for v in var.iter_mut() {
                *v /= count as f64;
            }
            // Update running statistics.
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch] as f32;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch] as f32;
            }
            (mean, var)
        } else {
            (
                self.running_mean.iter().map(|&v| v as f64).collect(),
                self.running_var.iter().map(|&v| v as f64).collect(),
            )
        };

        let std_inv: Vec<f32> = var
            .iter()
            .map(|&v| (1.0 / (v + self.eps as f64).sqrt()) as f32)
            .collect();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        let mut out = x.clone();
        let mut normalized = x.clone();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            let ch = i % c;
            let norm = (*v - mean[ch] as f32) * std_inv[ch];
            normalized.data_mut()[i] = norm;
            *v = gamma[ch] * norm + beta[ch];
        }
        if train {
            self.cached = Some(BnCache {
                normalized,
                std_inv,
                count,
            });
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.cached.as_ref().ok_or(NnError::Protocol {
            reason: "batchnorm backward before forward",
        })?;
        let c = self.channels;
        let m = cache.count as f32;
        let gamma = self.gamma.value.data();

        // Per-channel sums needed by the standard BN backward formula.
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for (i, &dy) in grad_out.data().iter().enumerate() {
            let ch = i % c;
            sum_dy[ch] += dy as f64;
            sum_dy_xhat[ch] += dy as f64 * cache.normalized.data()[i] as f64;
        }

        let mut gamma_grad = vec![0.0f32; c];
        let mut beta_grad = vec![0.0f32; c];
        for ch in 0..c {
            gamma_grad[ch] = sum_dy_xhat[ch] as f32;
            beta_grad[ch] = sum_dy[ch] as f32;
        }
        self.gamma.grad = ops::add(&self.gamma.grad, &Tensor::from_vec(vec![c], gamma_grad)?)?;
        self.beta.grad = ops::add(&self.beta.grad, &Tensor::from_vec(vec![c], beta_grad)?)?;

        let mut grad_in = grad_out.clone();
        for (i, g) in grad_in.data_mut().iter_mut().enumerate() {
            let ch = i % c;
            let dy = grad_out.data()[i];
            let xhat = cache.normalized.data()[i];
            *g = gamma[ch] * cache.std_inv[ch] / m
                * (m * dy - sum_dy[ch] as f32 - xhat * sum_dy_xhat[ch] as f32);
        }
        Ok(grad_in)
    }
}

// ---------------------------------------------------------------------------
// Activations, pooling, reshaping
// ---------------------------------------------------------------------------

/// ReLU activation.
#[derive(Debug, Clone, Default)]
pub struct ReluLayer {
    cached_input: Option<Tensor>,
}

impl ReluLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if train {
            self.cached_input = Some(x.clone());
        }
        Ok(ops::relu(x))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or(NnError::Protocol {
            reason: "relu backward before forward",
        })?;
        let mask = ops::relu_grad_mask(x);
        Ok(ops::mul(grad_out, &mask)?)
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2dLayer {
    cached_argmax: Option<(Vec<usize>, Vec<usize>)>, // (input dims flat argmax, input dims)
}

impl MaxPool2dLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let (b, h, w, c) = batch_dims(x, "maxpool2d")?;
        if h < 2 || w < 2 {
            return Err(NnError::BadInput {
                layer: "maxpool2d",
                expected: "spatial dims >= 2".into(),
                actual: x.dims().to_vec(),
            });
        }
        let (oh, ow) = (h / 2, w / 2);
        let mut out = vec![0.0f32; b * oh * ow * c];
        let mut argmax = vec![0usize; b * oh * ow * c];
        let xd = x.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    for ch in 0..c {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                let idx = ((bi * h + iy) * w + ix) * c + ch;
                                if xd[idx] > best {
                                    best = xd[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((bi * oh + oy) * ow + ox) * c + ch;
                        out[oidx] = best;
                        argmax[oidx] = best_idx;
                    }
                }
            }
        }
        if train {
            self.cached_argmax = Some((argmax, x.dims().to_vec()));
        }
        Ok(Tensor::from_vec(vec![b, oh, ow, c], out)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (argmax, in_dims) = self.cached_argmax.as_ref().ok_or(NnError::Protocol {
            reason: "maxpool backward before forward",
        })?;
        let mut grad_in = Tensor::zeros(in_dims.clone());
        for (o, &src) in argmax.iter().enumerate() {
            grad_in.data_mut()[src] += grad_out.data()[o];
        }
        Ok(grad_in)
    }
}

/// Global average pooling: `[b, h, w, c] -> [b, c]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPoolLayer {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPoolLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let (b, h, w, c) = batch_dims(x, "global_avg_pool")?;
        let mut out = vec![0.0f32; b * c];
        for bi in 0..b {
            for yy in 0..h {
                for xx in 0..w {
                    for ch in 0..c {
                        out[bi * c + ch] += x.data()[((bi * h + yy) * w + xx) * c + ch];
                    }
                }
            }
        }
        let scale = 1.0 / (h * w) as f32;
        out.iter_mut().for_each(|v| *v *= scale);
        if train {
            self.cached_dims = Some(x.dims().to_vec());
        }
        Ok(Tensor::from_vec(vec![b, c], out)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self.cached_dims.as_ref().ok_or(NnError::Protocol {
            reason: "avgpool backward before forward",
        })?;
        let (b, h, w, c) = (dims[0], dims[1], dims[2], dims[3]);
        let scale = 1.0 / (h * w) as f32;
        let mut grad_in = Tensor::zeros(dims.clone());
        for bi in 0..b {
            for yy in 0..h {
                for xx in 0..w {
                    for ch in 0..c {
                        grad_in.data_mut()[((bi * h + yy) * w + xx) * c + ch] =
                            grad_out.data()[bi * c + ch] * scale;
                    }
                }
            }
        }
        Ok(grad_in)
    }
}

/// Flatten `[b, h, w, c] -> [b, h·w·c]`.
#[derive(Debug, Clone, Default)]
pub struct FlattenLayer {
    cached_dims: Option<Vec<usize>>,
}

impl FlattenLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let (b, h, w, c) = batch_dims(x, "flatten")?;
        if train {
            self.cached_dims = Some(x.dims().to_vec());
        }
        Ok(x.clone().reshape(vec![b, h * w * c])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self.cached_dims.as_ref().ok_or(NnError::Protocol {
            reason: "flatten backward before forward",
        })?;
        Ok(grad_out.clone().reshape(dims.clone())?)
    }
}

// ---------------------------------------------------------------------------
// Fully connected
// ---------------------------------------------------------------------------

/// Fully-connected layer: `y = x W + b` with `W: in × out`.
#[derive(Debug, Clone)]
pub struct LinearLayer {
    /// Weight matrix, `in_features × out_features`.
    pub weight: Param,
    /// Bias vector, `out_features`.
    pub bias: Param,
    cached_input: Option<Tensor>,
}

impl LinearLayer {
    /// Create a linear layer with Xavier-uniform initialised weights.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let w = init::xavier_uniform(
            vec![in_features, out_features],
            in_features,
            out_features,
            rng,
        );
        LinearLayer {
            weight: Param::new(w),
            bias: Param::new(Tensor::zeros(vec![out_features])),
            cached_input: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if x.rank() != 2 || x.dims()[1] != self.weight.value.dims()[0] {
            return Err(NnError::BadInput {
                layer: "linear",
                expected: format!("[b, {}]", self.weight.value.dims()[0]),
                actual: x.dims().to_vec(),
            });
        }
        let mut out = matmul::matmul(x, &self.weight.value)?;
        let nf = self.bias.value.numel();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v += self.bias.value.data()[i % nf];
        }
        if train {
            self.cached_input = Some(x.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.as_ref().ok_or(NnError::Protocol {
            reason: "linear backward before forward",
        })?;
        // dW = x^T g, dx = g W^T, db = column sums of g.
        let dw = matmul::matmul_at_b(x, grad_out)?;
        self.weight.grad = ops::add(&self.weight.grad, &dw)?;
        let db = ops::col_sums(grad_out)?;
        self.bias.grad = ops::add(&self.bias.grad, &db)?;
        Ok(matmul::matmul_a_bt(grad_out, &self.weight.value)?)
    }
}

// ---------------------------------------------------------------------------
// Residual blocks and the layer enum
// ---------------------------------------------------------------------------

/// A residual block: `y = relu(main(x) + shortcut(x))`. An empty shortcut is
/// the identity.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    /// Main path layers.
    pub main: Vec<LayerKind>,
    /// Shortcut path layers (empty = identity).
    pub shortcut: Vec<LayerKind>,
    cached_sum: Option<Tensor>,
}

impl ResidualBlock {
    /// Create a residual block.
    pub fn new(main: Vec<LayerKind>, shortcut: Vec<LayerKind>) -> Self {
        ResidualBlock {
            main,
            shortcut,
            cached_sum: None,
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let mut main_out = x.clone();
        for layer in self.main.iter_mut() {
            main_out = layer.forward(&main_out, train)?;
        }
        let mut short_out = x.clone();
        for layer in self.shortcut.iter_mut() {
            short_out = layer.forward(&short_out, train)?;
        }
        let sum = ops::add(&main_out, &short_out)?;
        if train {
            self.cached_sum = Some(sum.clone());
        }
        Ok(ops::relu(&sum))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let sum = self.cached_sum.as_ref().ok_or(NnError::Protocol {
            reason: "residual backward before forward",
        })?;
        let mut grad = ops::mul(grad_out, &ops::relu_grad_mask(sum))?;

        let mut main_grad = grad.clone();
        for layer in self.main.iter_mut().rev() {
            main_grad = layer.backward(&main_grad)?;
        }
        let mut short_grad = grad.clone();
        for layer in self.shortcut.iter_mut().rev() {
            short_grad = layer.backward(&short_grad)?;
        }
        grad = ops::add(&main_grad, &short_grad)?;
        Ok(grad)
    }
}

/// Every layer kind the substrate supports.
#[derive(Debug, Clone)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv(Conv2dLayer),
    /// Batch normalisation.
    BatchNorm(BatchNorm2dLayer),
    /// ReLU activation.
    Relu(ReluLayer),
    /// 2×2 max pooling.
    MaxPool(MaxPool2dLayer),
    /// Global average pooling.
    GlobalAvgPool(GlobalAvgPoolLayer),
    /// Flatten to a matrix.
    Flatten(FlattenLayer),
    /// Fully-connected layer.
    Linear(LinearLayer),
    /// Residual block.
    Residual(ResidualBlock),
}

impl LayerKind {
    /// Forward pass. `train` enables caching for backward and batch statistics.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        match self {
            LayerKind::Conv(l) => l.forward(x, train),
            LayerKind::BatchNorm(l) => l.forward(x, train),
            LayerKind::Relu(l) => l.forward(x, train),
            LayerKind::MaxPool(l) => l.forward(x, train),
            LayerKind::GlobalAvgPool(l) => l.forward(x, train),
            LayerKind::Flatten(l) => l.forward(x, train),
            LayerKind::Linear(l) => l.forward(x, train),
            LayerKind::Residual(l) => l.forward(x, train),
        }
    }

    /// Backward pass, returning the gradient with respect to the layer input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        match self {
            LayerKind::Conv(l) => l.backward(grad_out),
            LayerKind::BatchNorm(l) => l.backward(grad_out),
            LayerKind::Relu(l) => l.backward(grad_out),
            LayerKind::MaxPool(l) => l.backward(grad_out),
            LayerKind::GlobalAvgPool(l) => l.backward(grad_out),
            LayerKind::Flatten(l) => l.backward(grad_out),
            LayerKind::Linear(l) => l.backward(grad_out),
            LayerKind::Residual(l) => l.backward(grad_out),
        }
    }

    /// Mutable references to every trainable parameter in this layer
    /// (recursing into residual blocks).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            LayerKind::Conv(l) => {
                let mut p = vec![&mut l.kernel];
                if let Some(b) = &mut l.bias {
                    p.push(b);
                }
                p
            }
            LayerKind::BatchNorm(l) => vec![&mut l.gamma, &mut l.beta],
            LayerKind::Linear(l) => vec![&mut l.weight, &mut l.bias],
            LayerKind::Residual(l) => l
                .main
                .iter_mut()
                .chain(l.shortcut.iter_mut())
                .flat_map(|layer| layer.params_mut())
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Mutable references to every convolution layer (recursing into residual
    /// blocks) — the hook the ADMM trainer and Tucker decomposition use.
    pub fn conv_layers_mut(&mut self) -> Vec<&mut Conv2dLayer> {
        match self {
            LayerKind::Conv(l) => vec![l],
            LayerKind::Residual(l) => l
                .main
                .iter_mut()
                .chain(l.shortcut.iter_mut())
                .flat_map(|layer| layer.conv_layers_mut())
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Immutable convolution-shape walk (same order as [`LayerKind::conv_layers_mut`]).
    pub fn conv_shapes(&self) -> Vec<ConvShape> {
        match self {
            LayerKind::Conv(l) => vec![l.shape],
            LayerKind::Residual(l) => l
                .main
                .iter()
                .chain(l.shortcut.iter())
                .flat_map(|layer| layer.conv_shapes())
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// A feed-forward network: an ordered list of layers.
#[derive(Debug, Clone, Default)]
pub struct Network {
    /// The layers, applied in order.
    pub layers: Vec<LayerKind>,
}

impl Network {
    /// Create a network from layers.
    pub fn new(layers: Vec<LayerKind>) -> Self {
        Network { layers }
    }

    /// Forward pass through every layer.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let mut out = x.clone();
        for layer in self.layers.iter_mut() {
            out = layer.forward(&out, train)?;
        }
        Ok(out)
    }

    /// Backward pass through every layer in reverse, accumulating parameter
    /// gradients. Returns the gradient with respect to the network input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(grad)
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Zero every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// All convolution layers, in forward order.
    pub fn conv_layers_mut(&mut self) -> Vec<&mut Conv2dLayer> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.conv_layers_mut())
            .collect()
    }

    /// All convolution shapes, in forward order.
    pub fn conv_shapes(&self) -> Vec<ConvShape> {
        self.layers.iter().flat_map(|l| l.conv_shapes()).collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_input(rng: &mut StdRng, b: usize, h: usize, w: usize, c: usize) -> Tensor {
        init::uniform(vec![b, h, w, c], -1.0, 1.0, rng)
    }

    #[test]
    fn conv_layer_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let shape = ConvShape::same3x3(3, 8, 6, 6);
        let mut layer = Conv2dLayer::new(shape, true, &mut rng);
        let x = small_input(&mut rng, 2, 6, 6, 3);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 6, 6, 8]);
        // Setting the bias shifts every output of that channel.
        layer.bias.as_mut().unwrap().value.data_mut()[0] = 100.0;
        let y2 = layer.forward(&x, false).unwrap();
        assert!((y2.get(&[0, 0, 0, 0]) - y.get(&[0, 0, 0, 0]) - 100.0).abs() < 1e-4);
    }

    #[test]
    fn conv_layer_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let shape = ConvShape::core(2, 3, 5, 5);
        let mut layer = Conv2dLayer::new(shape, false, &mut rng);
        let x = small_input(&mut rng, 1, 5, 5, 2);
        let y = layer.forward(&x, true).unwrap();
        let grad_out = Tensor::ones(y.dims().to_vec());
        layer.kernel.zero_grad();
        let gin = layer.backward(&grad_out).unwrap();
        assert_eq!(gin.dims(), x.dims());

        let eps = 1e-2f32;
        // Kernel gradient check at one coordinate.
        let probe = [1usize, 2, 1, 1];
        let mut plus = layer.clone();
        plus.kernel
            .value
            .set(&probe, plus.kernel.value.get(&probe) + eps);
        let mut minus = layer.clone();
        minus
            .kernel
            .value
            .set(&probe, minus.kernel.value.get(&probe) - eps);
        let fp = plus.forward(&x, false).unwrap().sum();
        let fm = minus.forward(&x, false).unwrap().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!((numeric - layer.kernel.grad.get(&probe)).abs() < 3e-2);
    }

    #[test]
    fn batchnorm_normalises_then_backprops() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm2dLayer::new(4);
        let x = init::uniform(vec![3, 5, 5, 4], 2.0, 6.0, &mut rng);
        let y = bn.forward(&x, true).unwrap();
        // Per-channel output should be ~zero-mean, ~unit-variance.
        let c = 4;
        for ch in 0..c {
            let vals: Vec<f32> = y
                .data()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % c == ch)
                .map(|(_, &v)| v)
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
        // Gradients flow and have the right shape.
        let gin = bn.backward(&Tensor::ones(y.dims().to_vec())).unwrap();
        assert_eq!(gin.dims(), x.dims());
        assert!(gin.is_finite());
        // Eval mode uses running stats and requires no cache.
        let mut bn_eval = bn.clone();
        let y_eval = bn_eval.forward(&x, false).unwrap();
        assert!(y_eval.is_finite());
    }

    #[test]
    fn relu_and_maxpool_and_flatten() {
        let mut relu = ReluLayer::default();
        let x = Tensor::from_vec(vec![1, 2, 2, 1], vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = relu.backward(&Tensor::ones(vec![1, 2, 2, 1])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);

        let mut pool = MaxPool2dLayer::default();
        let x = Tensor::from_vec(vec![1, 2, 2, 1], vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.get(&[0, 0, 0, 0]), 5.0);
        let g = pool.backward(&Tensor::ones(vec![1, 1, 1, 1])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);

        let mut flat = FlattenLayer::default();
        let x = Tensor::zeros(vec![2, 3, 3, 2]);
        let y = flat.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 18]);
        let g = flat.backward(&Tensor::ones(vec![2, 18])).unwrap();
        assert_eq!(g.dims(), &[2, 3, 3, 2]);
    }

    #[test]
    fn global_avg_pool_and_backward() {
        let mut pool = GlobalAvgPoolLayer::default();
        let x = Tensor::from_fn(vec![1, 2, 2, 2], |i| (i[3] + 1) as f32);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert!((y.get(&[0, 0]) - 1.0).abs() < 1e-6);
        assert!((y.get(&[0, 1]) - 2.0).abs() < 1e-6);
        let g = pool.backward(&Tensor::ones(vec![1, 2])).unwrap();
        assert!(g.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn linear_layer_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = LinearLayer::new(6, 3, &mut rng);
        let x = init::uniform(vec![4, 6], -1.0, 1.0, &mut rng);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[4, 3]);
        layer.weight.zero_grad();
        layer.bias.zero_grad();
        let gin = layer.backward(&Tensor::ones(vec![4, 3])).unwrap();
        assert_eq!(gin.dims(), &[4, 6]);
        // Bias gradient for sum loss is the batch size per output.
        assert!(layer
            .bias
            .grad
            .data()
            .iter()
            .all(|&v| (v - 4.0).abs() < 1e-5));
        // Weight gradient check at one coordinate.
        let eps = 1e-2f32;
        let probe = [2usize, 1];
        let mut plus = layer.clone();
        plus.weight
            .value
            .set(&probe, plus.weight.value.get(&probe) + eps);
        let mut minus = layer.clone();
        minus
            .weight
            .value
            .set(&probe, minus.weight.value.get(&probe) - eps);
        let numeric = (plus.forward(&x, false).unwrap().sum()
            - minus.forward(&x, false).unwrap().sum())
            / (2.0 * eps);
        assert!((numeric - layer.weight.grad.get(&probe)).abs() < 3e-2);
    }

    #[test]
    fn residual_block_identity_shortcut() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = ConvShape::same3x3(4, 4, 6, 6);
        let block = ResidualBlock::new(
            vec![
                LayerKind::Conv(Conv2dLayer::new(shape, false, &mut rng)),
                LayerKind::Relu(ReluLayer::default()),
                LayerKind::Conv(Conv2dLayer::new(shape, false, &mut rng)),
            ],
            vec![],
        );
        let mut layer = LayerKind::Residual(block);
        let x = small_input(&mut rng, 2, 6, 6, 4);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.dims(), x.dims());
        let g = layer.backward(&Tensor::ones(y.dims().to_vec())).unwrap();
        assert_eq!(g.dims(), x.dims());
        assert!(g.is_finite());
        // The block exposes its two convolutions.
        assert_eq!(layer.conv_layers_mut().len(), 2);
        assert_eq!(layer.conv_shapes().len(), 2);
    }

    #[test]
    fn network_walks_params_and_convs() {
        let mut rng = StdRng::seed_from_u64(6);
        let shape = ConvShape::same3x3(3, 4, 8, 8);
        let mut net = Network::new(vec![
            LayerKind::Conv(Conv2dLayer::new(shape, false, &mut rng)),
            LayerKind::BatchNorm(BatchNorm2dLayer::new(4)),
            LayerKind::Relu(ReluLayer::default()),
            LayerKind::MaxPool(MaxPool2dLayer::default()),
            LayerKind::Flatten(FlattenLayer::default()),
            LayerKind::Linear(LinearLayer::new(4 * 4 * 4, 5, &mut rng)),
        ]);
        let x = small_input(&mut rng, 2, 8, 8, 3);
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 5]);
        let g = net.backward(&Tensor::ones(vec![2, 5])).unwrap();
        assert_eq!(g.dims(), x.dims());
        assert_eq!(net.conv_layers_mut().len(), 1);
        assert_eq!(net.conv_shapes(), vec![shape]);
        // conv kernel + bn gamma/beta + linear weight/bias
        assert_eq!(net.params_mut().len(), 5);
        assert!(net.num_params() > 0);
        net.zero_grad();
        assert!(net
            .params_mut()
            .iter()
            .all(|p| p.grad.frobenius_norm() == 0.0));
    }

    #[test]
    fn layers_error_on_backward_before_forward() {
        let mut relu = ReluLayer::default();
        assert!(relu.backward(&Tensor::ones(vec![1, 1, 1, 1])).is_err());
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2dLayer::new(ConvShape::core(1, 1, 3, 3), false, &mut rng);
        assert!(conv.backward(&Tensor::ones(vec![1, 1, 1, 1])).is_err());
    }

    #[test]
    fn conv_layer_rejects_wrong_input_channels() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2dLayer::new(ConvShape::same3x3(3, 4, 8, 8), false, &mut rng);
        let bad = Tensor::zeros(vec![1, 8, 8, 5]);
        assert!(conv.forward(&bad, true).is_err());
        let not_batched = Tensor::zeros(vec![8, 8, 3]);
        assert!(conv.forward(&not_batched, true).is_err());
    }
}
