//! `check-determinism`: which counts and quality numbers repeat exactly?
//!
//! Runs the `cold-corpus` list against two fresh daemons and `train-ppo`
//! twice, and compares bit for bit. Only a number that passes here may
//! be read as an exact count when two commits are compared; a timing
//! never is.

use crate::host::{calibrate_spin_ms, Scratch};
use crate::inputs::{chstone, o3_reference};
use crate::replay::Replay;
use crate::workloads::{
    chstone_rows, prepare, quality, replay_sample, serve_round, serve_rows, train_round, train_set,
    MeasuredRound, Prepared, RunArgs, Workload,
};
use autophase_serve::client::CompileReply;
use autophase_serve::protocol::Source;

/// Everything one cold-corpus pass produces that should repeat exactly.
#[derive(Debug, PartialEq)]
struct ColdFacts {
    answers: Vec<Option<(Vec<usize>, u64)>>,
    speedup_bits: u64,
    one_compilation_bits: u64,
    apply_calls_bits: u64,
    infer_calls_bits: u64,
    insert_ratio_bits: u64,
}

fn cold_facts(
    prep: &Prepared,
    round: &MeasuredRound,
    o3: &[u64],
    scratch: &Scratch,
    seed: u64,
    sample: usize,
) -> ColdFacts {
    let programs = &prep.inputs.programs;
    let mut first: Vec<Option<CompileReply>> = vec![None; programs.len()];
    let mut policy = 0usize;
    for s in &round.round.samples {
        if let Ok(r) = &s.reply {
            policy += usize::from(r.source == Source::Policy);
            first[s.program].get_or_insert_with(|| r.clone());
        }
    }
    let rows = serve_rows(programs, &first, o3, &vec![Vec::new(); programs.len()]);
    let (speedup, rate) = quality(&rows);
    let requests = replay_sample(&prep.inputs, &first, seed, sample);
    let mut replay = Replay::new(&prep.policy);
    replay.serve_requests(&requests, &scratch.fresh_dir("replay"));
    let layers = replay.layers();
    ColdFacts {
        answers: first
            .iter()
            .map(|r| r.as_ref().map(|r| (r.passes.clone(), r.cycles)))
            .collect(),
        speedup_bits: speedup.to_bits(),
        one_compilation_bits: rate.to_bits(),
        apply_calls_bits: layers["passes.apply_calls"].to_bits(),
        infer_calls_bits: layers["serve.engine.infer_calls"].to_bits(),
        insert_ratio_bits: (round.store_len as f64 / policy.max(1) as f64).to_bits(),
    }
}

fn verdict(name: &str, a: u64, b: u64, all: &mut bool) {
    let same = a == b;
    *all &= same;
    println!(
        "  {name:<34} {:>22.12} {:>22.12}  {}",
        f64::from_bits(a),
        f64::from_bits(b),
        if same { "bit-equal" } else { "DIFFERS" }
    );
}

/// Run the check; `true` when everything compared is bit-equal.
pub fn check(seed: u64, smoke: bool) -> bool {
    let args = RunArgs {
        workload: Workload::ColdCorpus,
        seed,
        seconds: 0.0,
        trace: false,
        smoke,
    };
    let sizes = args.sizes();
    let scratch = Scratch::new("determinism");
    let spin = calibrate_spin_ms();
    let mut all = true;

    println!("check-determinism: seed {seed} smoke {smoke}");
    println!("cold-corpus against two fresh daemons:");
    let prep = prepare(&args, &scratch);
    let o3 = o3_reference(&prep.inputs.programs);
    let facts: Vec<ColdFacts> = (0..2)
        .map(|_| {
            let round = serve_round(&prep, &scratch, false, None, spin);
            cold_facts(&prep, &round, &o3, &scratch, seed, sizes.replay_sample)
        })
        .collect();
    let (a, b) = (&facts[0], &facts[1]);
    let differing = a
        .answers
        .iter()
        .zip(&b.answers)
        .filter(|(x, y)| x != y)
        .count();
    all &= differing == 0 && a.answers.iter().all(Option::is_some);
    println!(
        "  per-program (passes, cycles): {} programs, {} differ, {} unanswered",
        a.answers.len(),
        differing,
        a.answers.iter().filter(|x| x.is_none()).count()
    );
    verdict(
        "speedup_vs_o3_geomean",
        a.speedup_bits,
        b.speedup_bits,
        &mut all,
    );
    verdict(
        "quality.one_compilation_rate",
        a.one_compilation_bits,
        b.one_compilation_bits,
        &mut all,
    );
    verdict(
        "passes.apply_calls",
        a.apply_calls_bits,
        b.apply_calls_bits,
        &mut all,
    );
    verdict(
        "serve.engine.infer_calls",
        a.infer_calls_bits,
        b.infer_calls_bits,
        &mut all,
    );
    verdict(
        "serve.store.insert_ratio",
        a.insert_ratio_bits,
        b.insert_ratio_bits,
        &mut all,
    );

    println!("train-ppo twice:");
    let chs = chstone();
    let train = train_set(seed);
    let o3 = o3_reference(&chs);
    let rounds: Vec<_> = (0..2)
        .map(|_| train_round(&train, &chs, seed, &sizes, spin))
        .collect();
    let q: Vec<(f64, f64)> = rounds
        .iter()
        .map(|r| quality(&chstone_rows(&chs, &r.chstone_cycles, &o3)))
        .collect();
    let cycles_same = rounds[0].chstone_cycles == rounds[1].chstone_cycles;
    all &= cycles_same;
    println!(
        "  per-program served cycles: {}",
        if cycles_same { "bit-equal" } else { "DIFFER" }
    );
    verdict(
        "speedup_vs_o3_geomean",
        q[0].0.to_bits(),
        q[1].0.to_bits(),
        &mut all,
    );
    verdict(
        "quality.one_compilation_rate",
        q[0].1.to_bits(),
        q[1].1.to_bits(),
        &mut all,
    );
    verdict(
        "env steps",
        (rounds[0].steps as f64).to_bits(),
        (rounds[1].steps as f64).to_bits(),
        &mut all,
    );
    // Two workers race on the shared cache: whether a lookup hits depends
    // on which of them profiled a state first, so this one is reported
    // but allowed to differ (it is not listed as an exact count).
    let mut advisory = true;
    verdict(
        "core.evalcache.hit_ratio (advisory)",
        rounds[0].hit_ratio.to_bits(),
        rounds[1].hit_ratio.to_bits(),
        &mut advisory,
    );
    println!(
        "{}",
        if all {
            "deterministic: every gated number is bit-equal"
        } else {
            "NOT deterministic: see DIFFERS above"
        }
    );
    all
}
