//! Seeded inputs and set-up: the program lists, the trained policy, the
//! `-O3` reference, and the frozen sizes of every workload.
//!
//! The same `--seed` gives the same programs, request order and policy;
//! the system under test receives only these generated inputs.

use crate::spans::Recorder;
use autophase_core::env::o3_cycles;
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::EvalCache;
use autophase_corpus::{build_corpus, CorpusConfig};
use autophase_hls::HlsConfig;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_nn::Mlp;
use autophase_rl::checkpoint::PolicyCheckpoint;
use autophase_rl::env::Environment;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_rl::rollout::{collect_episodes_parallel, episode_seed};
use autophase_serve::engine::{serve_env, serve_num_actions, serve_obs_dim, SERVE_EPISODE_LEN};
use std::path::Path;
use std::sync::Arc;

/// Threads for the benchmark's own CPU-bound work (rollout workers, the
/// `-O3` reference, the oracle): the box has 2 cores.
pub const LANES: usize = 2;

/// Corpus programs in a training set, next to the nine CHStone programs.
pub const TRAIN_CORPUS: usize = 16;

/// Seed of the reference policy: its initial weights, its rollouts and
/// its 16 corpus training programs. The policy is part of the system
/// under test, like a shipped checkpoint; `--seed` varies the traffic
/// (which programs, in what order), not the model. An RL run's outcome is
/// chaotic in its seed, so a per-seed policy would bury every quality
/// difference between two commits under seed-to-seed noise.
pub const POLICY_SEED: u64 = 12;

/// The frozen sizes of one run. Work is a fixed list per round, so counts
/// (passes applied, infer calls, store inserts) repeat exactly and a
/// faster commit serves the same programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// PPO iterations the reference policy trains for during set-up.
    pub policy_iters: usize,
    /// Episodes collected per iteration of the reference policy's training.
    pub episodes_per_iter: usize,
    /// Distinct corpus programs per `cold-corpus` round (plus CHStone).
    pub cold_programs: usize,
    /// Programs seeded into the store for `warm-replay`.
    pub warm_programs: usize,
    /// Times the seeded list is replayed per `warm-replay` round.
    pub warm_replays: usize,
    /// Programs seeded into the store for `mixed-ir`.
    pub mixed_seeded: usize,
    /// Requests per `mixed-ir` round.
    pub mixed_requests: usize,
    /// Client connections (and daemon workers) of `cold-corpus` and
    /// `warm-replay`: twice the cores. These requests are CPU-bound, but a
    /// worker sleeps through every hand-off to the inference thread; with
    /// only one connection per core both cores then idle, and the numbers
    /// follow the hypervisor's vCPU wake-up latency instead of the code.
    pub connections: usize,
    /// Connections of `mixed-ir`, whose large replies wait ~40 ms on the
    /// network (Nagle x delayed ACK) rather than on the CPU: more of them,
    /// so the cores stay busy while some connections are stalled.
    pub mixed_connections: usize,
    /// Offered rate of the traced run's open-loop round of `mixed-ir`.
    pub open_rate: usize,
    /// Requests per hundred that are never-seen programs.
    pub mixed_miss_per_100: usize,
    /// Requests per hundred that ask for the optimized IR back.
    pub mixed_ir_per_100: usize,
    /// PPO iterations per `train-ppo` round: four segments' worth.
    pub ppo_iters: usize,
    /// Episodes collected per `train-ppo` iteration. One (12 steps) keeps
    /// an iteration near 20 ms, so a run's few hundred of them support a
    /// p95; collect and update run the same code as with larger batches.
    pub ppo_episodes_per_iter: usize,
    /// Requests the layer replay samples.
    pub replay_sample: usize,
    /// One program in this many is re-requested for the output oracle.
    pub oracle_stride: usize,
    /// Rounds a run performs at least, however short `--seconds` is.
    pub min_rounds: usize,
    /// Requests per segment of a `cold-corpus` round. A segment is the
    /// unit whose CPU time is compared across rounds: about half a second
    /// of CPU, so the clock's resolution and the user/system split (sampled
    /// at the kernel's tick) are a few percent of it at most.
    pub cold_segment: usize,
    /// Requests per segment of a `warm-replay` round.
    pub warm_segment: usize,
    /// Requests per segment of a `mixed-ir` round.
    pub mixed_segment: usize,
    /// Iterations per segment of a `train-ppo` round.
    pub ppo_segment: usize,
    /// Times the whole set-up is performed; `setup_s` is the cheapest.
    pub setups: usize,
}

impl Sizes {
    /// The sizes every committed number refers to.
    pub const FULL: Sizes = Sizes {
        policy_iters: 45,
        episodes_per_iter: 4,
        cold_programs: 441,
        warm_programs: 450,
        warm_replays: 20,
        mixed_seeded: 520,
        mixed_requests: 1200,
        connections: 4,
        mixed_connections: 8,
        open_rate: 120,
        mixed_miss_per_100: 15,
        mixed_ir_per_100: 30,
        ppo_iters: 100,
        ppo_episodes_per_iter: 1,
        replay_sample: 200,
        oracle_stride: 20,
        min_rounds: 3,
        cold_segment: 150,
        warm_segment: 3000,
        mixed_segment: 400,
        ppo_segment: 25,
        setups: 2,
    };

    /// `--smoke`: every workload in a few seconds; numbers are not
    /// comparable with full-scale ones and are stamped `"smoke": true`.
    pub const SMOKE: Sizes = Sizes {
        policy_iters: 1,
        episodes_per_iter: 2,
        cold_programs: 15,
        warm_programs: 12,
        warm_replays: 4,
        mixed_seeded: 22,
        mixed_requests: 24,
        connections: 4,
        mixed_connections: 8,
        open_rate: 120,
        mixed_miss_per_100: 15,
        mixed_ir_per_100: 30,
        ppo_iters: 3,
        ppo_episodes_per_iter: 1,
        replay_sample: 30,
        oracle_stride: 4,
        min_rounds: 2,
        cold_segment: 8,
        warm_segment: 16,
        mixed_segment: 8,
        ppo_segment: 1,
        setups: 1,
    };

    /// The sizes as the inside of a JSON object (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"policy_iters\":{},\"episodes_per_iter\":{},\"cold_programs\":{},\
             \"warm_programs\":{},\"warm_replays\":{},\"mixed_seeded\":{},\
             \"mixed_requests\":{},\"connections\":{},\"mixed_connections\":{},\
             \"open_rate\":{},\"mixed_miss_per_100\":{},\
             \"mixed_ir_per_100\":{},\"ppo_iters\":{},\"ppo_episodes_per_iter\":{},\"replay_sample\":{},\"oracle_stride\":{},\"min_rounds\":{},\
             \"cold_segment\":{},\"warm_segment\":{},\"mixed_segment\":{},\"ppo_segment\":{},\"setups\":{}",
            self.policy_iters,
            self.episodes_per_iter,
            self.cold_programs,
            self.warm_programs,
            self.warm_replays,
            self.mixed_seeded,
            self.mixed_requests,
            self.connections,
            self.mixed_connections,
            self.open_rate,
            self.mixed_miss_per_100,
            self.mixed_ir_per_100,
            self.ppo_iters,
            self.ppo_episodes_per_iter,
            self.replay_sample,
            self.oracle_stride,
            self.min_rounds,
            self.cold_segment,
            self.warm_segment,
            self.mixed_segment,
            self.ppo_segment,
            self.setups
        )
    }
}

/// SplitMix64: the benchmark's only random source, so a seed means the
/// same thing on every toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One input program as the client sees it.
#[derive(Debug, Clone)]
pub struct Program {
    /// CHStone name or `corpus<index>`.
    pub name: String,
    /// The parsed module (the oracle's reference input).
    pub module: Module,
    /// Wire-format IR, as a compiler client would send it.
    pub ir: String,
    /// Structural fingerprint (the store key).
    pub fingerprint: u64,
}

impl Program {
    fn new(name: String, module: Module) -> Program {
        Program {
            ir: print_module(&module),
            fingerprint: fingerprint_module(&module),
            name,
            module,
        }
    }
}

/// The paper's nine CHStone-style programs.
pub fn chstone() -> Vec<Program> {
    autophase_benchmarks::suite()
        .into_iter()
        .map(|b| Program::new(b.name.to_string(), b.module))
        .collect()
}

/// Corpus base seed for a benchmark seed (distinct seeds, disjoint-looking
/// candidate streams).
fn corpus_base_seed(seed: u64) -> u64 {
    SplitMix(seed ^ 0xC0_2B05).next_u64()
}

/// `count` distinct corpus programs for `seed`.
pub fn corpus_programs(seed: u64, count: usize) -> Vec<Program> {
    let corpus = build_corpus(&CorpusConfig {
        base_seed: corpus_base_seed(seed),
        target: count,
        workers: LANES,
        ..CorpusConfig::default()
    });
    assert_eq!(corpus.programs.len(), count, "corpus dedup fell short");
    corpus
        .programs
        .into_iter()
        .map(|p| Program::new(format!("corpus{}", p.index), p.module))
        .collect()
}

/// The reference policy's training set: CHStone plus [`TRAIN_CORPUS`]
/// corpus programs drawn from [`POLICY_SEED`].
pub fn policy_training_set() -> Vec<Program> {
    let mut set = chstone();
    set.extend(corpus_programs(POLICY_SEED, TRAIN_CORPUS));
    set
}

/// `count` corpus programs for `seed` that the reference policy never
/// trained on: measured programs are unseen (the paper's §6.2 protocol).
pub fn unseen_corpus(seed: u64, count: usize, trained_on: &[Program]) -> Vec<Program> {
    let mut programs = corpus_programs(seed, count + TRAIN_CORPUS);
    programs.retain(|p| trained_on.iter().all(|t| t.fingerprint != p.fingerprint));
    programs.truncate(count);
    assert_eq!(
        programs.len(),
        count,
        "too many collisions with the training set"
    );
    programs
}

/// The HLS settings the daemon profiles with; the client-side reference
/// uses the same ones so cycle counts are comparable.
pub fn serve_hls() -> HlsConfig {
    HlsConfig::default().with_profile_fuel(autophase_serve::ServerConfig::default().profile_fuel)
}

/// `-O3` cycle count of every program, computed client-side on
/// [`LANES`] threads: the benchmark judges the daemon, the daemon does
/// not judge itself.
pub fn o3_reference(programs: &[Program]) -> Vec<u64> {
    let hls = serve_hls();
    let mut out = vec![0u64; programs.len()];
    let chunk = programs.len().div_ceil(LANES).max(1);
    std::thread::scope(|scope| {
        for (ps, os) in programs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let hls = &hls;
            scope.spawn(move || {
                for (p, o) in ps.iter().zip(os.iter_mut()) {
                    *o = o3_cycles(&p.module, hls);
                }
            });
        }
    });
    out
}

/// What one PPO iteration cost.
#[derive(Debug, Clone, Copy)]
pub struct IterCost {
    /// Nanoseconds in `collect_episodes_parallel`.
    pub collect_ns: u64,
    /// Nanoseconds in `PpoAgent::update`.
    pub update_ns: u64,
    /// Environment steps (transitions) collected.
    pub steps: usize,
}

/// The paper's training loop over the serving configuration: [`LANES`]
/// rollout workers sharing one [`EvalCache`], `collect_episodes_parallel`
/// then `PpoAgent::update`. Used both to train the served policy during
/// set-up and as the `train-ppo` workload.
pub struct Trainer {
    /// The agent being trained.
    pub agent: PpoAgent,
    envs: Vec<Box<dyn Environment + Send>>,
    /// The cache the workers share.
    pub cache: Arc<EvalCache>,
    seed: u64,
    iterations: u64,
    episodes: u64,
}

impl Trainer {
    /// A fresh seeded agent (`PpoConfig::default()`, 256x256) over
    /// `programs` in `serve_env_config()`; shapes come from the serve
    /// crate so a layout change needs no benchmark edit.
    pub fn new(programs: &[Module], seed: u64) -> Trainer {
        let cache = Arc::new(EvalCache::default());
        let envs = (0..LANES)
            .map(|_| {
                let mut env = serve_env(programs.to_vec());
                env.set_cache(Arc::clone(&cache));
                Box::new(env) as Box<dyn Environment + Send>
            })
            .collect();
        Trainer {
            agent: PpoAgent::new(
                serve_obs_dim(),
                serve_num_actions(),
                &PpoConfig::default(),
                seed,
            ),
            envs,
            cache,
            seed,
            iterations: 0,
            episodes: 0,
        }
    }

    /// One collect-then-update iteration over `episodes` episodes, with a
    /// span around each phase (request id = iteration index). Episode
    /// indices keep counting across iterations, so the environments
    /// rotate through the programs.
    pub fn iterate(&mut self, episodes: usize, rec: &mut Recorder) -> IterCost {
        let id = self.iterations as usize;
        let (batch, collect_ns) = rec.time("collect_episodes_parallel", "", id, || {
            collect_episodes_parallel(
                &mut self.envs,
                &self.agent.policy,
                &self.agent.value,
                episodes,
                self.episodes,
                SERVE_EPISODE_LEN,
                episode_seed(self.seed, self.iterations),
            )
        });
        let (_, update_ns) = rec.time("PpoAgent::update", "", id, || self.agent.update(&batch));
        self.iterations += 1;
        self.episodes += episodes as u64;
        IterCost {
            collect_ns,
            update_ns,
            steps: batch.transitions.len(),
        }
    }
}

/// Train the reference policy ([`POLICY_SEED`], `sizes.policy_iters`
/// iterations) and round-trip it through a checkpoint file: the daemon
/// runs off the reloaded weights, as a production daemon would. Returns
/// the trained agent and the reloaded policy network.
pub fn reference_policy(train: &[Program], sizes: &Sizes, ckpt: &Path) -> (PpoAgent, Mlp) {
    let modules: Vec<Module> = train.iter().map(|p| p.module.clone()).collect();
    let mut trainer = Trainer::new(&modules, POLICY_SEED);
    let mut rec = Recorder::new();
    for _ in 0..sizes.policy_iters {
        trainer.iterate(sizes.episodes_per_iter, &mut rec);
    }
    PolicyCheckpoint::from_ppo(&trainer.agent)
        .save(ckpt)
        .expect("save the policy checkpoint");
    let policy = PolicyCheckpoint::load(ckpt)
        .expect("reload the policy checkpoint")
        .policy;
    (trainer.agent, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_fixed_sequence() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs[0], xs[1]);
        let mut v: Vec<usize> = (0..10).collect();
        SplitMix(1).shuffle(&mut v);
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }
}
