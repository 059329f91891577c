//! A minimal dense neural-network library for the RL agents.
//!
//! The paper's agents are small tanh MLPs (two 256-unit hidden layers,
//! §6.2) trained with stochastic gradient methods; RLlib supplies them
//! there, this crate supplies them here: [`mlp`] the multi-layer
//! perceptron with `tanh` hidden layers, its batched forward and
//! backward, and an Adam optimizer, [`simd`] the kernels those run, and
//! [`tanh`] a bit-exact port of glibc's `tanh`. The per-sample
//! [`Mlp::forward`] / [`Mlp::backward`] are plain scalar loops, the
//! reference the batched kernels are held to bit for bit. Everything is
//! deterministic in the construction seed.
//!
//! # Example
//!
//! ```
//! use autophase_nn::{BatchWorkspace, GradScratch, Mlp};
//!
//! // Learn y = 2x on a few points, one batch per step.
//! let mut net = Mlp::new(&[1, 16, 1], 1);
//! let (mut ws, mut scratch) = (BatchWorkspace::new(), GradScratch::new());
//! let xs = [-1.0f64, -0.5, 0.0, 0.5, 1.0];
//! for _ in 0..400 {
//!     ws.begin(&net);
//!     for x in xs {
//!         ws.push_input(&[x]);
//!     }
//!     net.forward_batch(&mut ws);
//!     // d/dy of 0.5*(y-2x)^2, one row per sample.
//!     let grad: Vec<f64> = (0..xs.len())
//!         .map(|b| ws.logits(b)[0] - 2.0 * xs[b])
//!         .collect();
//!     net.backward_batch(&ws, &grad, &mut scratch);
//!     net.step(1e-2);
//! }
//! let y = net.forward_one(&[0.25], &mut ws)[0];
//! assert!((y - 0.5).abs() < 0.1);
//! ```
#![warn(missing_docs)]

mod matrix;
pub mod mlp;
pub mod simd;
pub mod soa;
pub mod tanh;

pub use mlp::{softmax, softmax_into, BatchWorkspace, GradScratch, Mlp};
pub use simd::KernelWidth;
pub use soa::SoaMlp;
