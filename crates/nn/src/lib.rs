//! A minimal dense neural-network library for the RL agents.
//!
//! The paper's agents are small MLPs (two 256-unit hidden layers, §6.2)
//! trained with stochastic gradient methods; RLlib supplies them there,
//! this crate supplies them here: [`matrix`] holds the (tiny) linear
//! algebra, [`mlp`] the multi-layer perceptron with tanh/ReLU activations,
//! backpropagation, and an Adam optimizer, [`simd`] its kernels, and
//! [`tanh`] a bit-exact port of glibc's `tanh`. Everything is
//! deterministic in the construction seed.
//!
//! # Example
//!
//! ```
//! use autophase_nn::{Mlp, Activation};
//!
//! // Learn y = 2x on a few points.
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, 1);
//! for _ in 0..400 {
//!     for x in [-1.0f64, -0.5, 0.0, 0.5, 1.0] {
//!         let y = net.forward(&[x]);
//!         let grad = vec![y[0] - 2.0 * x]; // d/dy of 0.5*(y-2x)^2
//!         net.backward(&[x], &grad);
//!         net.step(1e-2);
//!     }
//! }
//! let y = net.forward(&[0.25]);
//! assert!((y[0] - 0.5).abs() < 0.1);
//! ```
#![warn(missing_docs)]

pub mod matrix;
pub mod mlp;
pub mod simd;
pub mod soa;
pub mod tanh;

pub use matrix::Matrix;
pub use mlp::{softmax, softmax_into, Activation, BatchWorkspace, GradScratch, Mlp};
pub use simd::KernelWidth;
pub use soa::SoaMlp;
