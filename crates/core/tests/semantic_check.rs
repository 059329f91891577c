//! A compiled module scores only if it still computes its input's answer.
//!
//! The reward the paper optimizes is the profiler's cycle count, so an
//! ordering that miscompiles a program into less work reads as a speedup
//! unless the scorer compares results. These seven programs of
//! `program_batch(&GenConfig::default(), 31_337, 2000)` changed `main`'s
//! result under two rounds of `-O3` while `-loop-deletion` gave its exit
//! φs `undef` (`random_720290` went from 4583099 to 88130). They must now
//! keep their result and score their own cycles; `tests/chaos.rs`'s
//! `FaultKind::WrongResult` cases keep the refusal of a wrong module
//! tested.

use autophase_core::compile::{Input, UNPROFILEABLE_CYCLES};
use autophase_hls::profile::profile_module;
use autophase_hls::HlsConfig;
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::FuelBudget;
use autophase_progen::{generate_valid, GenConfig};

const BATCH_SEED: u64 = 31_337;
/// `program_batch`'s seed stride: program `i` is `generate_valid` at
/// `BATCH_SEED + i * 7919`.
const BATCH_STRIDE: u64 = 7919;

/// `(batch index, name)` of every program the two-round sweep breaks.
const BROKEN_BY_TWO_ROUNDS: [(u64, &str); 7] = [
    (87, "random_720290"),
    (316, "random_2533741"),
    (737, "random_5867640"),
    (804, "random_6398213"),
    (950, "random_7554387"),
    (1252, "random_9945925"),
    (1770, "random_14047967"),
];

#[test]
fn two_rounds_of_o3_never_score_a_wrong_module() {
    let (hls, fuel) = (HlsConfig::default(), FuelBudget::default());
    let twice = [O3_SEQUENCE, O3_SEQUENCE].concat();
    for (index, name) in BROKEN_BY_TWO_ROUNDS {
        let program = generate_valid(&GenConfig::default(), BATCH_SEED + index * BATCH_STRIDE);
        assert_eq!(program.name, name, "batch program {index}");
        let input = profile_module(&program, &hls).expect("the input runs");
        let (module, _, cycles) = Input::new(&program, &hls).compile(&twice, &fuel);
        let output = profile_module(&module, &hls).expect("the compiled module runs");
        assert_eq!(
            output.return_value, input.return_value,
            "{name}: -O3 x2 changes its result"
        );
        assert_eq!(
            cycles, output.cycles,
            "{name}: a right module scores its cycles"
        );
        assert_ne!(cycles, UNPROFILEABLE_CYCLES);
    }
}
