//! Structure-of-arrays MLP mirror for batched SIMD inference.
//!
//! [`SoaMlp`] holds each dense layer's weights **k-major** (input-index
//! major, i.e. transposed from [`crate::Matrix`]'s row-major layout), so
//! the forward GEMV vectorizes across *outputs* while each output still
//! accumulates over the inputs in ascending order — bit-identical to the
//! scalar [`crate::Mlp::forward`] (see [`crate::simd`] for the
//! order-of-operations contract).
//!
//! A [`BatchWorkspace`] owns every intermediate activation buffer, so a
//! warmed-up engine performs zero heap allocation per batch; the cached
//! per-layer activations also feed [`crate::Mlp::backward_batch`], which
//! lets PPO/A2C skip the second forward pass the scalar `backward` does.

use crate::mlp::{Activation, Mlp};
use crate::simd::{self, KernelWidth};

/// One dense layer in k-major (transposed) layout.
#[derive(Debug, Clone)]
struct SoaLayer {
    /// `wt[k * out + n] = W[n][k]` — row `k` holds every output's weight
    /// for input `k`, contiguously.
    wt: Vec<f64>,
    bias: Vec<f64>,
    inp: usize,
    out: usize,
}

/// A read-only, batched-inference view of an [`Mlp`] in SoA layout.
///
/// Build with [`SoaMlp::from_mlp`], re-sync after optimizer steps with
/// [`SoaMlp::refresh`]. Forward passes go through a caller-owned
/// [`BatchWorkspace`] and are bit-identical to [`Mlp::forward`] at every
/// [`KernelWidth`].
#[derive(Debug, Clone)]
pub struct SoaMlp {
    layers: Vec<SoaLayer>,
    activation: Activation,
    width: KernelWidth,
}

impl SoaMlp {
    /// Mirror `mlp` using the auto-selected kernel width
    /// ([`simd::picked`]).
    pub fn from_mlp(mlp: &Mlp) -> SoaMlp {
        SoaMlp::with_width(mlp, simd::picked())
    }

    /// Mirror `mlp` with an explicit kernel width (tests and benches).
    pub fn with_width(mlp: &Mlp, width: KernelWidth) -> SoaMlp {
        let layers = (0..mlp.num_layers())
            .map(|li| {
                let (w, b) = mlp.layer_weights(li);
                let (out, inp) = (w.rows(), w.cols());
                let mut wt = vec![0.0; out * inp];
                transpose_into(w.data(), out, inp, &mut wt);
                SoaLayer {
                    wt,
                    bias: b.to_vec(),
                    inp,
                    out,
                }
            })
            .collect();
        SoaMlp {
            layers,
            activation: mlp.activation(),
            width,
        }
    }

    /// Re-copy weights from `mlp` in place (no allocation). Call after
    /// each optimizer step when training with the SoA forward path.
    ///
    /// # Panics
    ///
    /// Panics if `mlp`'s shape differs from the mirrored one.
    pub fn refresh(&mut self, mlp: &Mlp) {
        assert_eq!(mlp.num_layers(), self.layers.len(), "layer count changed");
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let (w, b) = mlp.layer_weights(li);
            assert_eq!(
                (w.rows(), w.cols()),
                (layer.out, layer.inp),
                "layer shape changed"
            );
            transpose_into(w.data(), layer.out, layer.inp, &mut layer.wt);
            layer.bias.copy_from_slice(b);
        }
    }

    /// Kernel width this mirror dispatches to.
    pub fn width(&self) -> KernelWidth {
        self.width
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inp
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out
    }

    /// Hidden activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    fn dims(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.layers[0].inp).chain(self.layers.iter().map(|l| l.out))
    }

    /// Run one batched forward over every observation staged in `ws`
    /// (via [`BatchWorkspace::begin`] + [`BatchWorkspace::push_input`]).
    ///
    /// Results land in the workspace: [`BatchWorkspace::logits`] for the
    /// output layer, [`BatchWorkspace::activation`] for hidden layers
    /// (consumed by [`Mlp::backward_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if `ws` was staged for a different network shape.
    pub fn forward_batch(&self, ws: &mut BatchWorkspace) {
        assert!(
            ws.dims.iter().copied().eq(self.dims()),
            "workspace staged for a different network shape"
        );
        let batch = ws.batch;
        for (li, layer) in self.layers.iter().enumerate() {
            let hidden = li + 1 < self.layers.len();
            let (prev, rest) = ws.acts.split_at_mut(li + 1);
            let xs = &prev[li];
            let ys = &mut rest[0];
            ys.clear();
            ys.resize(batch * layer.out, 0.0);
            // One row-blocked GEMM for the whole batch: each weight load
            // is shared across batch rows instead of re-streaming the
            // slab per observation.
            simd::gemm_kt(&layer.wt, xs, ys, batch, self.width);
            for b in 0..batch {
                let y = &mut ys[b * layer.out..(b + 1) * layer.out];
                simd::add_assign(y, &layer.bias, self.width);
                if hidden {
                    // Per-lane libm tanh/relu keeps the zero-tolerance
                    // contract (no polynomial approximation).
                    for v in y.iter_mut() {
                        *v = self.activation.apply(*v);
                    }
                }
            }
        }
    }

    /// Single-observation convenience over [`SoaMlp::forward_batch`].
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
}

/// `wt[k·rows + n] = w[n·cols + k]`, walked in square tiles: a tile's
/// reads and writes each stay within `TILE` cache lines, where a plain
/// row sweep writes every element of a 256-wide layer to another line
/// (2 KiB apart, a handful of L1 sets).
pub(crate) fn transpose_into(w: &[f64], rows: usize, cols: usize, wt: &mut [f64]) {
    const TILE: usize = 8;
    assert_eq!(w.len(), rows * cols);
    assert_eq!(wt.len(), rows * cols);
    for n0 in (0..rows).step_by(TILE) {
        let n1 = (n0 + TILE).min(rows);
        for k0 in (0..cols).step_by(TILE) {
            let k1 = (k0 + TILE).min(cols);
            for k in k0..k1 {
                let dst = &mut wt[k * rows + n0..k * rows + n1];
                for (d, n) in dst.iter_mut().zip(n0..n1) {
                    *d = w[n * cols + k];
                }
            }
        }
    }
}

/// Caller-owned scratch for [`SoaMlp::forward_batch`]: staged inputs and
/// every layer's activations for the current batch.
///
/// Buffers are reused across batches — after warm-up (capacity for the
/// largest batch seen), staging and forwarding allocate nothing; the
/// `no_alloc` integration test asserts this.
#[derive(Debug, Default, Clone)]
pub struct BatchWorkspace {
    /// `[input_dim, hidden..., output_dim]` of the staged network.
    dims: Vec<usize>,
    batch: usize,
    /// `acts[0]` = staged inputs; `acts[l + 1]` = layer `l` output.
    /// `acts[i].len() == batch * dims[i]`.
    acts: Vec<Vec<f64>>,
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> BatchWorkspace {
        BatchWorkspace::default()
    }

    /// Reset for a new batch against `net`, keeping buffer capacity.
    pub fn begin(&mut self, net: &SoaMlp) {
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

    /// `[input_dim, hidden..., output_dim]` of the staged network.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// All rows entering layer `li`, row-major `[batch × dims[li]]`: the
    /// staged inputs for layer 0, else layer `li - 1`'s activations.
    pub(crate) fn layer_input(&self, li: usize) -> &[f64] {
        &self.acts[li]
    }

    /// Staged input row `b`.
    pub fn input(&self, b: usize) -> &[f64] {
        let d = self.dims[0];
        &self.acts[0][b * d..(b + 1) * d]
    }

    /// Post-activation output of layer `li` for batch row `b` (the last
    /// layer's rows are the logits).
    pub fn activation(&self, li: usize, b: usize) -> &[f64] {
        let d = self.dims[li + 1];
        &self.acts[li + 1][b * d..(b + 1) * d]
    }

    /// Output-layer row `b` after [`SoaMlp::forward_batch`].
    pub fn logits(&self, b: usize) -> &[f64] {
        self.activation(self.dims.len() - 2, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_forward_matches_scalar_forward_bitwise() {
        for act in [Activation::Tanh, Activation::Relu] {
            let mlp = Mlp::new(&[7, 11, 5], act, 42);
            let soa = SoaMlp::from_mlp(&mlp);
            let mut ws = BatchWorkspace::new();
            ws.begin(&soa);
            let obs: Vec<Vec<f64>> = (0..5)
                .map(|b| (0..7).map(|i| ((b * 7 + i) as f64 * 0.3).sin()).collect())
                .collect();
            for o in &obs {
                ws.push_input(o);
            }
            soa.forward_batch(&mut ws);
            for (b, o) in obs.iter().enumerate() {
                let want = mlp.forward(o);
                let got = ws.logits(b);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn refresh_tracks_weight_updates() {
        let mut mlp = Mlp::new(&[4, 6, 3], Activation::Tanh, 7);
        let mut soa = SoaMlp::from_mlp(&mlp);
        let x = [0.2, -0.4, 0.6, -0.8];
        mlp.backward(&x, &[1.0, -1.0, 0.5]);
        mlp.step(1e-2);
        let mut ws = BatchWorkspace::new();
        // Stale mirror differs, refreshed mirror matches.
        let stale = soa.forward_one(&x, &mut ws).to_vec();
        assert_ne!(stale, mlp.forward(&x));
        soa.refresh(&mlp);
        let fresh = soa.forward_one(&x, &mut ws).to_vec();
        assert_eq!(fresh, mlp.forward(&x));
    }

    #[test]
    #[should_panic(expected = "observation length mismatch")]
    fn workspace_rejects_bad_observation() {
        let mlp = Mlp::new(&[4, 3], Activation::Tanh, 1);
        let soa = SoaMlp::from_mlp(&mlp);
        let mut ws = BatchWorkspace::new();
        ws.begin(&soa);
        ws.push_input(&[1.0, 2.0]);
    }
}
