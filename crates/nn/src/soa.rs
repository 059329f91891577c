//! The batched-inference name the frozen `benchmark/` package forwards
//! through.
//!
//! Every [`Mlp`] stores its weights k-major and runs the batched forward
//! itself ([`Mlp::forward_batch`], [`Mlp::forward_one`]), so there is no
//! mirror to build or refresh. [`SoaMlp`] remains because the frozen
//! `benchmark/` package constructs one and forwards through it: a copy of
//! the network that dereferences to it.

use crate::mlp::Mlp;

/// A copy of an [`Mlp`], dereferencing to it (see the module docs).
#[derive(Debug, Clone)]
pub struct SoaMlp(Mlp);

impl SoaMlp {
    /// Copy `mlp` (a clone: the layout is already the one the batched
    /// forward reads).
    pub fn from_mlp(mlp: &Mlp) -> SoaMlp {
        SoaMlp(mlp.clone())
    }
}

impl std::ops::Deref for SoaMlp {
    type Target = Mlp;

    fn deref(&self) -> &Mlp {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::BatchWorkspace;

    #[test]
    fn batched_forward_matches_scalar_forward_bitwise() {
        let mlp = Mlp::new(&[7, 11, 5], 42);
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
            assert_eq!(
                ws.logits(b).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        for o in &obs {
            assert_eq!(soa.forward_one(o, &mut ws), &mlp.forward(o)[..]);
        }
    }

    #[test]
    #[should_panic(expected = "observation length mismatch")]
    fn workspace_rejects_bad_observation() {
        let soa = SoaMlp::from_mlp(&Mlp::new(&[4, 3], 1));
        let mut ws = BatchWorkspace::new();
        ws.begin(&soa);
        ws.push_input(&[1.0, 2.0]);
    }
}
