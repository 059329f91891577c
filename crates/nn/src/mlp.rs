//! Multi-layer perceptron with backprop and Adam.

use crate::matrix::{transpose_into, Matrix};
use crate::simd::{self, AdamStep, KernelWidth};
use autophase_telemetry::faultfs::fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One dense layer. `W` and everything shaped like it — its gradient
/// and both Adam moments — are stored **k-major**, `Wᵀ[in×out]`: row `k`
/// holds every output's weight for input `k`, contiguously. That is the
/// slab the batched forward ([`simd::gemm_kt`]) reads as it lies; Adam
/// works element by element and does not care. Only construction,
/// [`Mlp::parameters`] / [`Mlp::set_parameters`] and the codec see the
/// row-major `W`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    wt: Matrix,
    b: Vec<f64>,
    // Accumulated gradients.
    gwt: Matrix,
    gb: Vec<f64>,
    // Adam moments.
    mwt: Matrix,
    vwt: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn zeros(inputs: usize, outputs: usize) -> Dense {
        Dense {
            wt: Matrix::zeros(inputs, outputs),
            b: vec![0.0; outputs],
            gwt: Matrix::zeros(inputs, outputs),
            gb: vec![0.0; outputs],
            mwt: Matrix::zeros(inputs, outputs),
            vwt: Matrix::zeros(inputs, outputs),
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
        }
    }

    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Dense {
        // Drawn row-major: a seed gives the weights it always gave.
        let w = Matrix::xavier(outputs, inputs, rng);
        Dense {
            wt: w.transposed(),
            ..Dense::zeros(inputs, outputs)
        }
    }

    fn inputs(&self) -> usize {
        self.wt.rows()
    }

    fn outputs(&self) -> usize {
        self.wt.cols()
    }
}

/// A feed-forward network with dense layers, `tanh` hidden activations
/// (the ported glibc [`crate::tanh::tanh`]), and a linear output layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Adam step counter.
    t: u64,
    /// Samples accumulated since the last [`Mlp::step`].
    pending: usize,
}

impl Mlp {
    /// Build a network with the given layer sizes, e.g. `[56, 256, 256, 46]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], seed: u64) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            t: 0,
            pending: 0,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("nonempty").outputs()
    }

    /// `[input_dim, hidden..., output_dim]`.
    fn dims(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.input_dim()).chain(self.layers.iter().map(Dense::outputs))
    }

    /// Forward pass in plain scalar loops: the reference the batched
    /// kernels are held to bit for bit. Only tests call it; every
    /// trainer and the daemon hold a [`BatchWorkspace`] and call
    /// [`Mlp::forward_one`] or [`Mlp::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "forward dimension mismatch");
        self.forward_cached(x).pop().expect("an MLP has a layer")
    }

    /// Forward pass returning every layer's activation (last = output).
    fn forward_cached(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate() {
            let input: &[f64] = if li == 0 {
                x
            } else {
                acts.last().expect("nonempty")
            };
            let mut y = layer.wt.matvec_t(input);
            for (yi, bi) in y.iter_mut().zip(&layer.b) {
                *yi += bi;
            }
            if li + 1 < self.layers.len() {
                for v in &mut y {
                    *v = crate::tanh::tanh(*v);
                }
            }
            acts.push(y);
        }
        acts
    }

    /// Accumulate gradients for one sample given `dLoss/dOutput`, in
    /// plain scalar loops: the reference [`Mlp::backward_batch`] is held
    /// to bit for bit. Only tests call it; a trainer stages its batch
    /// and calls [`Mlp::backward_batch`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward(&mut self, x: &[f64], dl_dy: &[f64]) {
        assert_eq!(dl_dy.len(), self.output_dim(), "output grad mismatch");
        let acts = self.forward_cached(x);
        let mut delta = dl_dy.to_vec();
        for li in (0..self.layers.len()).rev() {
            // Input to this layer:
            let input: &[f64] = if li == 0 { x } else { &acts[li - 1] };
            // Hidden layers: `tanh' = 1 − y²`, from the layer's output.
            if li + 1 < self.layers.len() {
                let out = &acts[li];
                for (d, &o) in delta.iter_mut().zip(out) {
                    *d *= 1.0 - o * o;
                }
            }
            // gwᵀ += x·δᵀ, and the hand-off δ·W is `Wᵀ δ`: the row-major
            // dot product over `Wᵀ`'s rows.
            self.layers[li].gwt.add_outer(input, &delta);
            for (g, d) in self.layers[li].gb.iter_mut().zip(&delta) {
                *g += d;
            }
            if li > 0 {
                delta = self.layers[li].wt.matvec(&delta);
            }
        }
        self.pending += 1;
    }

    /// Run one batched forward over every observation staged in `ws`
    /// (via [`BatchWorkspace::begin`] + [`BatchWorkspace::push_input`]),
    /// straight off the network's own k-major weights.
    ///
    /// Results land in the workspace: [`BatchWorkspace::logits`] for the
    /// output layer, [`BatchWorkspace::activation`] for hidden layers
    /// (consumed by [`Mlp::backward_batch`]). Every row is bit-identical
    /// to [`Mlp::forward`] at every [`KernelWidth`].
    ///
    /// # Panics
    ///
    /// Panics if `ws` was staged for a different network shape.
    pub fn forward_batch(&self, ws: &mut BatchWorkspace) {
        assert!(
            ws.dims.iter().copied().eq(self.dims()),
            "workspace staged for a different network shape"
        );
        let (batch, width) = (ws.batch, ws.width);
        for (li, layer) in self.layers.iter().enumerate() {
            let hidden = li + 1 < self.layers.len();
            let out = layer.outputs();
            let (prev, rest) = ws.acts.split_at_mut(li + 1);
            let ys = &mut rest[0];
            ys.clear();
            ys.resize(batch * out, 0.0);
            // One row-blocked GEMM for the whole batch: each weight load
            // is shared across batch rows instead of re-streaming the
            // slab per observation.
            simd::gemm_kt(layer.wt.data(), &prev[li], ys, batch, width);
            for b in 0..batch {
                simd::add_assign(&mut ys[b * out..(b + 1) * out], &layer.b, width);
            }
            if hidden {
                simd::tanh_in_place(ys, width);
            }
        }
    }

    /// Single-observation convenience over [`Mlp::forward_batch`]: no
    /// allocation once `ws` has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    pub fn forward_one<'w>(&self, x: &[f64], ws: &'w mut BatchWorkspace) -> &'w [f64] {
        ws.begin(self);
        ws.push_input(x);
        self.forward_batch(ws);
        ws.logits(0)
    }

    /// Accumulate gradients for a whole batch using the activations a
    /// [`Mlp::forward_batch`] already cached in `ws`.
    ///
    /// Bit-identical to calling [`Mlp::backward`] once per staged sample
    /// in order, but layer-major over the whole batch: per layer the
    /// weight gradient is one `gwᵀ += Xᵀ·Δ` ([`simd::gemm_kt_acc`], the
    /// deltas as the k-major slab, so each `gwᵀ` element sees its samples
    /// in ascending order) and the hand-off to the layer below one `Δ·W`
    /// ([`simd::gemm_rt`], reading `Wᵀ` row by row: its rows are the
    /// product's outputs). `gwᵀ` and `Wᵀ` are passed over once per batch,
    /// not once per sample.
    ///
    /// `dl_dy` is row-major `[batch × output_dim]`.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was staged for a different shape or
    /// `dl_dy.len() != ws.batch() * output_dim()`.
    pub fn backward_batch(
        &mut self,
        ws: &BatchWorkspace,
        dl_dy: &[f64],
        scratch: &mut GradScratch,
    ) {
        let batch = ws.batch;
        let last = self.layers.len() - 1;
        assert!(
            ws.dims.iter().copied().eq(self.dims()),
            "workspace staged for a different network shape"
        );
        assert_eq!(
            dl_dy.len(),
            batch * self.output_dim(),
            "batch grad mismatch"
        );
        if batch == 0 {
            return;
        }
        let width = scratch.width;
        let GradScratch {
            delta,
            next,
            inputs_t,
            stage,
            ..
        } = scratch;
        // `delta` and `next` trade places at every hand-off, so which one
        // ends a call holding the wide buffer depends on the layer count:
        // size all three for the widest layer up front, or the narrow one
        // re-allocates on a later call.
        let widest = batch * self.dims().max().expect("nonempty");
        for buf in [&mut *delta, &mut *next, &mut *inputs_t] {
            buf.clear();
            buf.reserve(widest);
        }
        delta.extend_from_slice(dl_dy);
        for li in (0..=last).rev() {
            let layer = &mut self.layers[li];
            let (inputs, outputs) = (layer.inputs(), layer.outputs());
            if li < last {
                for (d, &o) in delta.iter_mut().zip(&ws.acts[li + 1]) {
                    *d *= 1.0 - o * o;
                }
            }
            for row in delta.chunks_exact(outputs) {
                simd::add_assign(&mut layer.gb, row, width);
            }
            // Activations, not weights, are transposed: `Xᵀ[in×B]`.
            inputs_t.resize(batch * inputs, 0.0);
            transpose_into(&ws.acts[li], batch, inputs, inputs_t);
            simd::gemm_kt_acc(delta, inputs_t, layer.gwt.data_mut(), inputs, width);
            if li > 0 {
                next.clear();
                next.resize(batch * inputs, 0.0);
                simd::gemm_rt(layer.wt.data(), delta, next, batch, stage, width);
                std::mem::swap(delta, next);
            }
        }
        self.pending += batch;
    }

    /// Apply one Adam update from the accumulated (mean) gradients, then
    /// clear them. No-op when nothing is pending.
    pub fn step(&mut self, lr: f64) {
        if self.pending == 0 {
            return;
        }
        self.t += 1;
        let coeffs = AdamStep::new(lr, self.pending, self.t);
        let width = simd::picked();
        for layer in &mut self.layers {
            simd::adam_step(
                layer.wt.data_mut(),
                layer.gwt.data_mut(),
                layer.mwt.data_mut(),
                layer.vwt.data_mut(),
                &coeffs,
                width,
            );
            simd::adam_step(
                &mut layer.b,
                &mut layer.gb,
                &mut layer.mb,
                &mut layer.vb,
                &coeffs,
                width,
            );
        }
        self.pending = 0;
    }

    /// Flatten all parameters (used by the evolution-strategies agent):
    /// per layer the row-major `W[out×in]`, then the bias.
    pub fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for layer in &self.layers {
            out.extend_from_slice(layer.wt.transposed().data());
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` does not match [`Mlp::parameters`].
    pub fn set_parameters(&mut self, params: &[f64]) {
        let mut off = 0;
        for layer in &mut self.layers {
            let (inputs, outputs) = (layer.inputs(), layer.outputs());
            let wlen = inputs * outputs;
            transpose_into(
                &params[off..off + wlen],
                outputs,
                inputs,
                layer.wt.data_mut(),
            );
            off += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&params[off..off + blen]);
            off += blen;
        }
        assert_eq!(off, params.len(), "parameter vector length mismatch");
    }

    /// Whether every weight and bias is finite (no NaN/Inf poisoning).
    pub fn is_finite(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.wt.data().iter().chain(&l.b).all(|p| p.is_finite()))
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.wt.data().len() + l.b.len())
            .sum()
    }

    // ---- binary codec ----
    //
    // The vendored serde is a marker-trait stub (derives expand to nothing),
    // so persistence is a hand-rolled, versioned little-endian format:
    //
    //   "APNN" | version u32 | activation u8 (0: tanh) | adam_t u64 | n_sizes u32 |
    //   sizes (u32 each) | per layer: w, b, mw, vw, mb, vb (f64 LE each) |
    //   fnv1a-64 checksum of everything before it
    //
    // Weights and Adam moments are saved (so a reloaded net resumes training
    // identically); accumulated gradients are transient and are not. `w`,
    // `mw` and `vw` are row-major `[out×in]` on disk, the layout the
    // format was written in; the codec transposes at the boundary.

    /// Serialize the network (weights + Adam state) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CODEC_MAGIC);
        out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        out.push(ACTIVATION_TANH);
        out.extend_from_slice(&self.t.to_le_bytes());
        let mut sizes = vec![self.input_dim() as u32];
        sizes.extend(self.layers.iter().map(|l| l.outputs() as u32));
        out.extend_from_slice(&(sizes.len() as u32).to_le_bytes());
        for s in &sizes {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for layer in &self.layers {
            for field in [
                layer.wt.transposed().data(),
                &layer.b,
                layer.mwt.transposed().data(),
                layer.vwt.transposed().data(),
                &layer.mb,
                &layer.vb,
            ] {
                for &v in field {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserialize a network previously written by [`Mlp::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, bad magic/version, checksum
    /// mismatch, or implausible dimensions. Never panics on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Mlp, DecodeError> {
        if bytes.len() < CODEC_MAGIC.len() + 8 {
            return Err(DecodeError("truncated header".into()));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(sum_bytes);
        if fnv1a(body) != u64::from_le_bytes(sum) {
            return Err(DecodeError("checksum mismatch".into()));
        }
        let mut r = Reader { buf: body, pos: 0 };
        if r.take(CODEC_MAGIC.len())? != CODEC_MAGIC {
            return Err(DecodeError("bad magic".into()));
        }
        let version = r.u32()?;
        if version != CODEC_VERSION {
            return Err(DecodeError(format!("unsupported version {version}")));
        }
        let activation = r.u8()?;
        if activation != ACTIVATION_TANH {
            return Err(DecodeError(format!("unknown activation tag {activation}")));
        }
        let t = r.u64()?;
        let n_sizes = r.u32()? as usize;
        if !(2..=64).contains(&n_sizes) {
            return Err(DecodeError(format!("implausible layer count {n_sizes}")));
        }
        let mut sizes = Vec::with_capacity(n_sizes);
        for _ in 0..n_sizes {
            let s = r.u32()? as usize;
            if s == 0 || s > 1 << 20 {
                return Err(DecodeError(format!("implausible layer size {s}")));
            }
            sizes.push(s);
        }
        // Every layer holds `w`, `mw`, `vw` (in·out each) and `b`, `mb`,
        // `vb` (out each): check the body holds exactly that before
        // sizing anything from the header.
        let declared = sizes.windows(2).try_fold(0usize, |acc, w| {
            let (inputs, outputs) = (w[0], w[1]);
            let layer = inputs.checked_mul(outputs)?.checked_add(outputs)?;
            acc.checked_add(layer.checked_mul(3)?)
        });
        if declared.and_then(|n| n.checked_mul(8)) != Some(body.len() - r.pos) {
            return Err(DecodeError("body does not hold the declared layers".into()));
        }
        let mut layers = Vec::with_capacity(n_sizes - 1);
        for w in sizes.windows(2) {
            let (inputs, outputs) = (w[0], w[1]);
            let mut layer = Dense::zeros(inputs, outputs);
            layer.wt = r.matrix_t(outputs, inputs)?;
            r.f64_into(&mut layer.b)?;
            layer.mwt = r.matrix_t(outputs, inputs)?;
            layer.vwt = r.matrix_t(outputs, inputs)?;
            r.f64_into(&mut layer.mb)?;
            r.f64_into(&mut layer.vb)?;
            layers.push(layer);
        }
        if r.pos != body.len() {
            return Err(DecodeError("trailing bytes".into()));
        }
        Ok(Mlp {
            layers,
            t,
            pending: 0,
        })
    }
}

/// Caller-owned scratch for [`Mlp::forward_batch`]: staged inputs,
/// every layer's activations for the current batch, and the kernel width
/// the forward runs at.
///
/// Buffers are reused across batches — after warm-up (capacity for the
/// largest batch seen), staging and forwarding allocate nothing; the
/// `no_alloc` integration test asserts this.
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    /// `[input_dim, hidden..., output_dim]` of the staged network.
    dims: Vec<usize>,
    batch: usize,
    /// `acts[0]` = staged inputs; `acts[l + 1]` = layer `l` output.
    /// `acts[i].len() == batch * dims[i]`.
    acts: Vec<Vec<f64>>,
    width: KernelWidth,
}

impl BatchWorkspace {
    /// An empty workspace at the auto-selected kernel width
    /// ([`simd::picked`]); buffers grow on first use.
    pub fn new() -> BatchWorkspace {
        BatchWorkspace::with_width(simd::picked())
    }

    /// An empty workspace with an explicit kernel width (tests and
    /// benches).
    pub fn with_width(width: KernelWidth) -> BatchWorkspace {
        BatchWorkspace {
            dims: Vec::new(),
            batch: 0,
            acts: Vec::new(),
            width,
        }
    }

    /// Reset for a new batch against `net`, keeping buffer capacity.
    pub fn begin(&mut self, net: &Mlp) {
        self.dims.clear();
        self.dims.extend(net.dims());
        self.batch = 0;
        self.acts.resize(self.dims.len(), Vec::new());
        for a in &mut self.acts {
            a.clear();
        }
    }

    /// Stage one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the staged input dimension.
    pub fn push_input(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dims[0], "observation length mismatch");
        self.acts[0].extend_from_slice(x);
        self.batch += 1;
    }

    /// Number of staged observations.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Post-activation output of layer `li` for batch row `b` (the last
    /// layer's rows are the logits).
    pub fn activation(&self, li: usize, b: usize) -> &[f64] {
        let d = self.dims[li + 1];
        &self.acts[li + 1][b * d..(b + 1) * d]
    }

    /// Output-layer row `b` after [`Mlp::forward_batch`].
    pub fn logits(&self, b: usize) -> &[f64] {
        self.activation(self.dims.len() - 2, b)
    }
}

impl Default for BatchWorkspace {
    fn default() -> BatchWorkspace {
        BatchWorkspace::new()
    }
}

/// Caller-owned scratch for [`Mlp::backward_batch`]: the batch's deltas
/// `Δ[batch × out]` for the current layer, the buffer the layer below's
/// are written to, the layer's transposed inputs `Xᵀ[in × batch]`, and
/// the hand-off's staging ([`simd::gemm_rt`]); plus the kernel width the
/// products run at.
#[derive(Debug, Clone)]
pub struct GradScratch {
    delta: Vec<f64>,
    next: Vec<f64>,
    inputs_t: Vec<f64>,
    stage: Vec<f64>,
    width: KernelWidth,
}

impl GradScratch {
    /// An empty scratch at the auto-selected kernel width
    /// ([`simd::picked`]); buffers grow on first use.
    pub fn new() -> GradScratch {
        GradScratch::with_width(simd::picked())
    }

    /// An empty scratch with an explicit kernel width (tests and benches).
    pub fn with_width(width: KernelWidth) -> GradScratch {
        GradScratch {
            delta: Vec::new(),
            next: Vec::new(),
            inputs_t: Vec::new(),
            stage: Vec::new(),
            width,
        }
    }
}

impl Default for GradScratch {
    fn default() -> GradScratch {
        GradScratch::new()
    }
}

const CODEC_MAGIC: &[u8] = b"APNN";
const CODEC_VERSION: u32 = 1;
/// The codec's activation byte: every network is `tanh`, tag 0.
const ACTIVATION_TANH: u8 = 0;

/// Failure decoding a serialized [`Mlp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mlp decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError("truncated".into()));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// A row-major `rows × cols` matrix, returned k-major (transposed).
    fn matrix_t(&mut self, rows: usize, cols: usize) -> Result<Matrix, DecodeError> {
        let mut m = Matrix::zeros(rows, cols);
        self.f64_into(m.data_mut())?;
        Ok(m.transposed())
    }

    fn f64_into(&mut self, out: &mut [f64]) -> Result<(), DecodeError> {
        let raw = self.take(out.len() * 8)?;
        for (i, v) in out.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&raw[i * 8..i * 8 + 8]);
            *v = f64::from_le_bytes(b);
        }
        Ok(())
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut probs = Vec::with_capacity(logits.len());
    softmax_into(logits, &mut probs);
    probs
}

/// [`softmax`] into a caller-owned buffer (no allocation once `probs`
/// has the capacity).
pub fn softmax_into(logits: &[f64], probs: &mut Vec<f64>) {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    probs.clear();
    probs.extend(logits.iter().map(|&l| (l - max).exp()));
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_matches_finite_differences() {
        let mut net = Mlp::new(&[3, 5, 2], 7);
        let x = [0.3, -0.7, 1.1];
        // Loss = sum of outputs (dL/dy = 1).
        let loss = |n: &Mlp| -> f64 { n.forward(&x).iter().sum() };

        net.backward(&x, &[1.0, 1.0]);
        // Analytic gradient of first-layer weight W[1][2] (stored at
        // Wᵀ[2][1], element 2·5 + 1 of the 3 × 5 `Wᵀ`), checked by
        // probing that same weight.
        let analytic = net.layers[0].gwt.data()[2 * 5 + 1];

        let eps = 1e-6;
        let mut plus = net.clone();
        plus.layers[0].wt.data_mut()[2 * 5 + 1] += eps;
        let mut minus = net.clone();
        minus.layers[0].wt.data_mut()[2 * 5 + 1] -= eps;
        let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-6,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn bias_gradient_matches_finite_differences() {
        let mut net = Mlp::new(&[2, 4, 3], 9);
        let x = [0.9, 0.4];
        let loss = |n: &Mlp| -> f64 {
            let y = n.forward(&x);
            y.iter().map(|v| v * v).sum::<f64>() * 0.5
        };
        let y = net.forward(&x);
        net.backward(&x, &y); // dL/dy = y for 0.5*||y||^2
        let analytic = net.layers[1].gb[1];
        let eps = 1e-6;
        let mut plus = net.clone();
        plus.layers[1].b[1] += eps;
        let mut minus = net.clone();
        minus.layers[1].b[1] -= eps;
        let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-6);
    }

    #[test]
    fn learns_linear_function() {
        let mut net = Mlp::new(&[2, 16, 1], 3);
        for _ in 0..600 {
            for (a, b) in [(0.1, 0.9), (0.5, -0.5), (-0.3, 0.2), (0.8, 0.4)] {
                let target = a - b;
                let y = net.forward(&[a, b]);
                net.backward(&[a, b], &[y[0] - target]);
                net.step(5e-3);
            }
        }
        let y = net.forward(&[0.2, 0.1]);
        assert!((y[0] - 0.1).abs() < 0.05, "got {}", y[0]);
    }

    #[test]
    fn parameter_roundtrip() {
        let net = Mlp::new(&[4, 8, 3], 5);
        let p = net.parameters();
        assert_eq!(p.len(), net.num_parameters());
        let mut other = Mlp::new(&[4, 8, 3], 99);
        other.set_parameters(&p);
        let x = [1.0, -1.0, 0.5, 0.0];
        assert_eq!(net.forward(&x), other.forward(&x));
    }

    #[test]
    fn softmax_properties() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability with huge logits.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn step_without_backward_is_noop() {
        let mut net = Mlp::new(&[2, 4, 1], 11);
        let before = net.parameters();
        net.step(1e-2);
        assert_eq!(before, net.parameters());
    }

    #[test]
    fn deterministic_construction() {
        let a = Mlp::new(&[3, 8, 2], 42);
        let b = Mlp::new(&[3, 8, 2], 42);
        assert_eq!(a.parameters(), b.parameters());
    }

    #[test]
    fn codec_roundtrip_is_bit_identical() {
        // Train a few steps so Adam moments and t are nonzero.
        let mut net = Mlp::new(&[3, 8, 2], 21);
        for _ in 0..5 {
            net.backward(&[0.1, -0.2, 0.3], &[1.0, -1.0]);
            net.step(1e-3);
        }
        let bytes = net.to_bytes();
        let back = Mlp::from_bytes(&bytes).unwrap();
        assert_eq!(
            back.parameters()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            net.parameters()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        // Re-encoding is byte-identical (Adam state included).
        assert_eq!(back.to_bytes(), bytes);
        // Training after reload matches training the original — Adam state
        // survived the roundtrip.
        let mut orig = net.clone();
        let mut loaded = back;
        orig.backward(&[0.5, 0.5, 0.5], &[0.2, 0.4]);
        orig.step(1e-3);
        loaded.backward(&[0.5, 0.5, 0.5], &[0.2, 0.4]);
        loaded.step(1e-3);
        assert_eq!(orig.parameters(), loaded.parameters());
    }

    #[test]
    fn codec_rejects_corruption() {
        let net = Mlp::new(&[2, 4, 1], 1);
        let bytes = net.to_bytes();
        assert!(Mlp::from_bytes(&[]).is_err());
        assert!(Mlp::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut flipped = bytes.clone();
        flipped[20] ^= 0xff;
        assert!(Mlp::from_bytes(&flipped).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(Mlp::from_bytes(&bad_magic).is_err());
        // The activation byte (after magic and version) is always 0; a
        // checksummed blob with any other tag is refused.
        assert_eq!(bytes[8], ACTIVATION_TANH);
        let mut relabeled = bytes[..bytes.len() - 8].to_vec();
        relabeled[8] = 1;
        let sum = fnv1a(&relabeled);
        relabeled.extend_from_slice(&sum.to_le_bytes());
        assert!(Mlp::from_bytes(&relabeled).is_err());
    }

    /// A checksummed 37-byte header declaring one `2²⁰ × 2²⁰` layer and
    /// no body is refused before anything is sized from it (the layer
    /// alone would be 8 TiB).
    #[test]
    fn codec_refuses_sizes_the_body_does_not_hold() {
        let mut blob = Vec::new();
        blob.extend_from_slice(CODEC_MAGIC);
        blob.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        blob.push(0);
        blob.extend_from_slice(&0u64.to_le_bytes());
        blob.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            blob.extend_from_slice(&(1u32 << 20).to_le_bytes());
        }
        let sum = fnv1a(&blob);
        blob.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(blob.len(), 37);
        assert!(Mlp::from_bytes(&blob).is_err());
    }
}
