//! The observation recipe, stated from scratch.
//!
//! For every `ObservationKind × FeatureNorm × filtered` configuration
//! (18), walk `reset` + six passes — changing passes, no-ops, a repeat
//! that has become a no-op, and `-inline` then `-globaldce`, which
//! removes the inlined callees (a structural change set) — through the
//! public [`Environment`] API and compare every returned observation
//! **bit for bit** with the recipe written out here: `extract` of
//! `env.module()` → normalise → filter → append a histogram this file
//! keeps itself. The walk names passes by Table-1 id; a filtered
//! environment takes the ones in its 18-pass action table, at the action
//! index `action_passes()` gives them, and skips the rest.
//!
//! Each configuration runs on a two-program environment, twice per
//! program (the second pass over a program starts from the cloned reset
//! template and a warm profile memo, so reused state is checked too).
//! Nothing here reads how
//! the environment builds its observation; it only reads what §5.1 and
//! §5.3 say it is.

use autophase_core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase_features::{extract, filter_features, log_normalize, normalize_to_inst_count};
use autophase_ir::Module;
use autophase_rl::env::Environment;

/// Table-1 ids of -mem2reg, -loweratomic (never changes anything),
/// -inline, -globaldce, -loop-rotate, -mem2reg again. On single-function
/// `gsm` only the first and fifth change anything; on `dhrystone` -inline
/// and -globaldce do too. The §4 table has all but -loweratomic and
/// -globaldce.
const WALK: [usize; 6] = [38, 44, 25, 9, 23, 38];

fn programs() -> Vec<Module> {
    let wanted = ["gsm", "dhrystone"];
    let out: Vec<Module> = autophase_benchmarks::suite()
        .into_iter()
        .filter(|b| wanted.contains(&b.name))
        .map(|b| b.module)
        .collect();
    assert_eq!(out.len(), wanted.len(), "suite lost a program");
    out
}

/// The recipe: what `cfg` says an observation of `m` with `histogram` is.
fn from_scratch(cfg: &EnvConfig, m: &Module, histogram: &[f64]) -> Vec<f64> {
    let raw = extract(m);
    let normed: Vec<f64> = match cfg.feature_norm {
        FeatureNorm::Raw => raw.iter().map(|&x| x as f64).collect(),
        FeatureNorm::Log => log_normalize(&raw),
        FeatureNorm::InstCount => normalize_to_inst_count(&raw),
    };
    let mut feats = if cfg.filtered {
        filter_features(&normed)
    } else {
        normed
    };
    match cfg.observation {
        ObservationKind::ProgramFeatures => feats,
        ObservationKind::ActionHistory => histogram.to_vec(),
        ObservationKind::Combined => {
            feats.extend_from_slice(histogram);
            feats
        }
    }
}

fn assert_bits(got: &[f64], want: &[f64], dim: usize, at: &str) {
    assert_eq!(got.len(), dim, "{at}: length is not observation_dim()");
    assert_eq!(want.len(), dim, "{at}: the recipe disagrees on the width");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{at}: slot {i}: {g} vs {w}");
    }
}

#[test]
fn every_configuration_observes_the_from_scratch_recipe() {
    let programs = programs();
    let mut configurations = 0;
    for observation in [
        ObservationKind::ProgramFeatures,
        ObservationKind::ActionHistory,
        ObservationKind::Combined,
    ] {
        for feature_norm in [FeatureNorm::Raw, FeatureNorm::Log, FeatureNorm::InstCount] {
            for filtered in [false, true] {
                configurations += 1;
                let cfg = EnvConfig {
                    observation,
                    feature_norm,
                    filtered,
                    // The reward never enters an observation.
                    reward: RewardKind::Raw,
                    ..EnvConfig::default()
                };
                walk(&programs, &cfg);
            }
        }
    }
    assert_eq!(configurations, 18);
}

fn walk(programs: &[Module], cfg: &EnvConfig) {
    let mut env = PhaseOrderEnv::new(programs.to_vec(), cfg.clone());
    let dim = env.observation_dim();
    // Each walked pass's action index; `None` outside the action table.
    let actions: Vec<Option<usize>> = WALK
        .iter()
        .map(|&pass| env.action_passes().iter().position(|&p| p == pass))
        .collect();
    let (mut steps, mut changed_steps, mut functions_removed) = (0, 0, false);
    for episode in 0..2 * programs.len() {
        let at = |step: &str| format!("{cfg:?} episode {episode} {step}");
        let mut histogram = vec![0.0f64; env.num_actions()];
        let obs = env.reset();
        let functions = env.module().func_ids().count();
        assert_bits(
            &obs,
            &from_scratch(cfg, env.module(), &histogram),
            dim,
            &at("reset"),
        );
        for (i, (&pass, &action)) in WALK.iter().zip(&actions).enumerate() {
            let Some(action) = action else { continue };
            let before = autophase_ir::printer::print_module(env.module());
            let r = env.step(action);
            histogram[action] += 1.0;
            steps += 1;
            changed_steps +=
                usize::from(autophase_ir::printer::print_module(env.module()) != before);
            assert_bits(
                &r.observation,
                &from_scratch(cfg, env.module(), &histogram),
                dim,
                &at(&format!("step {i} (pass {pass})")),
            );
        }
        functions_removed |= env.module().func_ids().count() < functions;
    }
    // The walk really mixes the kinds of step it claims to. The filtered
    // table lacks -globaldce, so only the unfiltered walk removes a
    // function.
    assert!(
        0 < changed_steps && changed_steps < steps,
        "walk stopped mixing changing and no-op steps: {changed_steps}/{steps}"
    );
    if !cfg.filtered {
        assert_eq!(steps, 2 * programs.len() * WALK.len());
        assert!(functions_removed, "no step removed a function");
    }
}
