//! The semantic-check sweep (`make semcheck`): CHStone plus
//! `program_batch(&GenConfig::default(), 31_337, 2000)`, 2 009 programs,
//! compiled through `Input::compile` under one, two and four rounds of `-O3`.
//! Each compiled module runs on the interpreter and its result is
//! compared with its input's. No finite score may come from a module whose
//! result differs, and no module's result may differ: the mismatch counts
//! are printed per round count and must all be 0. Release only: a debug
//! build skips it.

use autophase_core::compile::{Input, UNPROFILEABLE_CYCLES};
use autophase_hls::HlsConfig;
use autophase_ir::interp::run_main;
use autophase_ir::Module;
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::FuelBudget;
use autophase_progen::{program_batch, GenConfig};

#[test]
#[cfg_attr(debug_assertions, ignore = "release sweep: make semcheck")]
fn no_finite_score_comes_from_a_wrong_module() {
    let (hls, fuel) = (HlsConfig::default(), FuelBudget::default());
    let mut programs: Vec<Module> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| b.module)
        .collect();
    programs.extend(program_batch(&GenConfig::default(), 31_337, 2000));
    assert_eq!(programs.len(), 2009);
    let result = |m: &Module| run_main(m, hls.profile_fuel).ok().map(|t| t.return_value);
    for rounds in [1, 2, 4] {
        let seq = O3_SEQUENCE.repeat(rounds);
        let mut changed = Vec::new();
        for program in &programs {
            let (module, _, cycles) = Input::new(program, &hls).compile(&seq, &fuel);
            if result(&module) != result(program) {
                assert_eq!(
                    cycles, UNPROFILEABLE_CYCLES,
                    "{}: -O3 x{rounds} changes its result, yet scored",
                    program.name
                );
                changed.push(program.name.clone());
            }
        }
        println!(
            "-O3 x{rounds}: {} of {} programs change their result {changed:?}",
            changed.len(),
            programs.len()
        );
        assert!(changed.is_empty(), "-O3 x{rounds} miscompiles {changed:?}");
    }
}
