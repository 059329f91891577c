//! The serving shape, shared by the inference engine and the online
//! learner.
//!
//! The serve daemon and the background learner must agree *exactly* on
//! how wide an observation is — feature block first, then the action
//! histogram — and on the network shapes that implies. [`ObsLayout`]
//! carries those dimensions: the serve crate reads them off the one step
//! built from its environment configuration (`autophase_core::step`,
//! which also owns how an observation is *filled*), and the engine, the
//! learner and the promotion armor all shape-check through it.
//!
//! The layout is dimension-parameterized rather than importing the
//! feature tables directly because the rl crate sits *below* the crates
//! that own them (`autophase-core`, `autophase-features`) in the
//! dependency graph.

use crate::checkpoint::PolicyCheckpoint;
use autophase_nn::mlp::Mlp;
use std::fmt;

/// A layout violation: a network or observation that does not match the
/// serving configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutError(pub String);

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serving layout error: {}", self.0)
    }
}

impl std::error::Error for LayoutError {}

/// The serving observation layout: `feature_dim` static features
/// followed by a `num_actions`-wide action histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsLayout {
    feature_dim: usize,
    num_actions: usize,
    episode_len: usize,
}

impl ObsLayout {
    /// Build a layout from the serving configuration's widths.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero — a zero-width layout cannot
    /// describe a servable policy and would only hide a broken caller.
    pub fn new(feature_dim: usize, num_actions: usize, episode_len: usize) -> ObsLayout {
        assert!(
            feature_dim > 0 && num_actions > 0 && episode_len > 0,
            "degenerate serving layout {feature_dim}x{num_actions}x{episode_len}"
        );
        ObsLayout {
            feature_dim,
            num_actions,
            episode_len,
        }
    }

    /// Size of the action space (and of the histogram slice).
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Steps per serving rollout / training episode.
    pub fn episode_len(&self) -> usize {
        self.episode_len
    }

    /// Full observation width: features plus the action histogram.
    pub fn obs_dim(&self) -> usize {
        self.feature_dim + self.num_actions
    }

    /// Compose one observation from its two slices, in the canonical
    /// order. The product composes through `autophase_core::step`; this
    /// stays for the frozen `benchmark/` package's hand-written rollout.
    ///
    /// # Panics
    ///
    /// Panics if either slice has the wrong width — that is a caller
    /// bug (mismatched feature tables), not a runtime condition.
    pub fn compose(&self, feats: &[f64], histogram: &[f64]) -> Vec<f64> {
        assert_eq!(
            feats.len(),
            self.feature_dim,
            "feature slice does not match the serving layout"
        );
        assert_eq!(
            histogram.len(),
            self.num_actions,
            "histogram slice does not match the serving layout"
        );
        let mut obs = Vec::with_capacity(self.obs_dim());
        obs.extend_from_slice(feats);
        obs.extend_from_slice(histogram);
        obs
    }

    /// Check that `net` can serve as the policy under this layout: its
    /// shape matches and every parameter is finite. A NaN-poisoned
    /// policy decodes cleanly (a checkpoint checksum only proves the
    /// bytes survived disk) yet emits NaN logits on every request, so
    /// finiteness is part of what "can serve" means — at boot as much as
    /// at a swap.
    ///
    /// # Errors
    ///
    /// [`LayoutError`] naming both shapes when they disagree, or the
    /// non-finite parameters.
    pub fn check_policy(&self, net: &Mlp) -> Result<(), LayoutError> {
        self.check_net("policy", net, self.num_actions)
    }

    /// `net` in `role` must read this layout's observation, have
    /// `outputs` outputs (the value network has one) and finite weights.
    fn check_net(&self, role: &str, net: &Mlp, outputs: usize) -> Result<(), LayoutError> {
        if net.input_dim() != self.obs_dim() || net.output_dim() != outputs {
            return Err(LayoutError(format!(
                "{role} is {}x{}, serving layout needs {}x{outputs}",
                net.input_dim(),
                net.output_dim(),
                self.obs_dim(),
            )));
        }
        if !net.is_finite() {
            return Err(LayoutError(format!("{role} has non-finite parameters")));
        }
        Ok(())
    }

    /// Full promotion armor for a candidate checkpoint: both networks
    /// must pass [`check_policy`](ObsLayout::check_policy)'s shape and
    /// finiteness checks.
    ///
    /// # Errors
    ///
    /// [`LayoutError`] describing the first violation found.
    pub fn validate_checkpoint(&self, ckpt: &PolicyCheckpoint) -> Result<(), LayoutError> {
        self.check_policy(&ckpt.policy)?;
        self.check_net("value net", &ckpt.value, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppo::{PpoAgent, PpoConfig};
    use autophase_nn::mlp::Activation;

    fn layout() -> ObsLayout {
        ObsLayout::new(5, 3, 4)
    }

    #[test]
    fn obs_dim_and_compose_agree() {
        let l = layout();
        assert_eq!(l.obs_dim(), 8);
        let obs = l.compose(&[1.0, 2.0, 3.0, 4.0, 5.0], &[0.0, 1.0, 0.0]);
        assert_eq!(obs, vec![1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "feature slice")]
    fn compose_rejects_wrong_feature_width() {
        layout().compose(&[1.0], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn shape_checks_accept_matching_networks() {
        let l = layout();
        let policy = Mlp::new(&[8, 4, 3], Activation::Tanh, 1);
        let value = Mlp::new(&[8, 4, 1], Activation::Tanh, 2);
        assert!(l.check_policy(&policy).is_ok());
        assert!(l.check_net("value net", &value, 1).is_ok());
        assert!(l.check_policy(&value).is_err());
        assert!(l.check_net("value net", &policy, 1).is_err());
    }

    #[test]
    fn validate_checkpoint_rejects_nan_poisoning() {
        let l = layout();
        let cfg = PpoConfig {
            hidden: vec![4],
            ..PpoConfig::default()
        };
        let agent = PpoAgent::new(l.obs_dim(), l.num_actions(), &cfg, 7);
        let mut ckpt = crate::checkpoint::PolicyCheckpoint::from_ppo(&agent);
        assert!(l.validate_checkpoint(&ckpt).is_ok());
        let mut params = ckpt.policy.parameters();
        params[3] = f64::NAN;
        ckpt.policy.set_parameters(&params);
        let err = l.validate_checkpoint(&ckpt).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn validate_checkpoint_rejects_wrong_shape() {
        let l = layout();
        let cfg = PpoConfig {
            hidden: vec![4],
            ..PpoConfig::default()
        };
        let agent = PpoAgent::new(l.obs_dim() + 1, l.num_actions(), &cfg, 7);
        let ckpt = crate::checkpoint::PolicyCheckpoint::from_ppo(&agent);
        assert!(l.validate_checkpoint(&ckpt).is_err());
    }
}
