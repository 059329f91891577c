//! The online-learning half of the daemon, behind one type: `Online`
//! holds the model registry, the background learner, the per-version
//! outcome ledger the `MODEL` verb reads, and the armed `CHAOS swap=`
//! count — and it owns the one promotion gate.
//!
//! **The learner.** Every policy-served cold compile already produced
//! exactly one training episode — the rollout's observations/actions and
//! the profiled cycle counts. The request path hands that [`Experience`]
//! and the program it ran on to `Online::record`, which pushes them onto
//! a *bounded* queue: when the queue is full the oldest episode is shed
//! (`serve.learn{shed}`) so a slow learner can never apply back-pressure
//! to serving. The learner thread drains the queue, feeds an
//! [`OnlineTrainer`] (incremental PPO on the batched backward),
//! remembers the last `REPLAY_PROGRAMS` (16) distinct programs, and every
//! `PUBLISH_EVERY` (2) successful updates publishes a versioned checkpoint
//! into the [`ModelRegistry`].
//!
//! **One starting point: the policy serving.** The trainer descends from
//! a serving version, its *base*. At every drain the learner compares
//! the base with what the engine serves; when they differ — at start,
//! after a supervisor respawn, after an operator `PROMOTE` — it rebuilds
//! the trainer from the serving network and a fresh value network
//! (`serve.learn{reseed}`). Its own acked auto-promotion just becomes
//! the new base, so the lineage continues. The thread runs under a
//! supervisor: a panic anywhere in the loop is caught and the loop
//! respawned, reseeding from the serving policy (`serve.learn{respawn}`),
//! so one pathological batch cannot end online learning for the daemon's
//! lifetime.
//!
//! **The promotion gate** (`admit`). `PROMOTE` (once the server has
//! checked `admin`) and the learner's `auto_promote` both call it: the
//! armored load (corrupt bytes are quarantined on disk), validation
//! against the serving layout (shape and finite weights; a failure
//! quarantines the version too), then — for auto-promotion only — the
//! replay, then the swap, the registry's active pointer and the
//! `serve.swap{...}` count. The replay greedy-rolls the candidate and the
//! serving policy over the remembered programs and passes the candidate
//! only if its Σ ln cycles is strictly lower: its geomean speedup over
//! serving is above 1, which is "beats serving's geomean vs -O3" with the
//! -O3 term cancelled. A candidate that does not beat serving stays
//! listed (it is valid, just not better) and counts
//! `serve.swap{rejected_replay}`. `PROMOTE` is the operator's override
//! and replays nothing. A refused candidate leaves the old policy
//! serving. The boot policy gets the same shape and finiteness check
//! from [`InferenceEngine::start`], so no network becomes a serving
//! mirror unchecked.

use crate::engine::{
    policy_entry, serve_layout, take_armed, InferenceEngine, PolicyEntry, PolicyFault,
};
use crate::protocol::{refuse, ErrKind, Reply};
use crate::server::{ServerConfig, StartError};
use autophase_core::compile::Input;
use autophase_core::Quarantine;
use autophase_hls::HlsConfig;
use autophase_ir::Module;
use autophase_nn::mlp::Mlp;
use autophase_passes::checked::FuelBudget;
use autophase_rl::checkpoint::ArmoredLoad;
use autophase_rl::online::{Experience, OnlineConfig, OnlineTrainer};
use autophase_rl::registry::{ModelRegistry, VersionInfo};
use autophase_telemetry::{self as telemetry, lock_recover};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The in-daemon learner's one knob.
#[derive(Debug, Clone, Default)]
pub struct LearnerConfig {
    /// Hot-swap each published version into the engine through the
    /// promotion gate `PROMOTE` uses.
    pub auto_promote: bool,
}

/// Publish a registry version every this many successful updates. The
/// trainer runs on `OnlineConfig::default()`: an update waits for 96
/// transitions (eight serving episodes), and the fresh value network is
/// `PpoConfig::small()`'s 32×32.
const PUBLISH_EVERY: u64 = 2;

/// Experience-queue capacity; beyond it the oldest episode is shed.
const CHANNEL_CAP: usize = 256;

/// Registry versions the learner keeps (the active version always
/// survives).
const KEEP_VERSIONS: usize = 8;

/// Seed of the fresh value network (and the updates' shuffles) each
/// reseeded trainer starts with.
const SEED: u64 = 0x0911_11E5;

/// Distinct programs the replay gate runs a candidate over: the last
/// this many fingerprints the policy served.
const REPLAY_PROGRAMS: usize = 16;

/// Per-policy-version outcome counters behind the `MODEL` verb: the win
/// rate and mean improvement over -O3, and the store-insert rate — what
/// an operator reads before a manual `PROMOTE`. Wins and the improvement
/// sum only grow for `compared` requests, the ones with an -O3 reference.
#[derive(Debug, Clone, Copy, Default)]
struct ModelStats {
    requests: u64,
    compared: u64,
    wins: u64,
    store_inserts: u64,
    improvement_sum: f64,
}

/// One policy-served cold compile as the learner receives it: the
/// episode to train on and the program, for the replay ring.
struct Episode {
    fp: u64,
    module: Module,
    exp: Experience,
}

/// The online-learning half of the daemon (see module docs).
pub(crate) struct Online {
    engine: Arc<InferenceEngine>,
    /// Versioned checkpoint store; `None` when online learning is off.
    registry: Option<Arc<Mutex<ModelRegistry>>>,
    /// Background learner thread; `None` unless configured.
    learner: Option<Learner>,
    /// Per-version outcome counters (`MODEL` verb).
    ledger: Mutex<HashMap<u64, ModelStats>>,
    /// Armed `CHAOS swap=` injections: each pending count corrupts the
    /// next `PROMOTE` candidate on disk before its armored load.
    chaos_swaps: AtomicU32,
}

impl Online {
    /// Open the registry and start the learner `cfg` asks for; its replay
    /// gate profiles under `hls`, the daemon's profiler configuration.
    ///
    /// # Errors
    ///
    /// An unopenable registry, or a learner without one.
    pub(crate) fn start(
        cfg: &ServerConfig,
        engine: &Arc<InferenceEngine>,
        hls: &HlsConfig,
    ) -> Result<Online, StartError> {
        let registry = match &cfg.registry_dir {
            Some(dir) => Some(Arc::new(Mutex::new(
                ModelRegistry::open(dir)
                    .map_err(|e| StartError(format!("registry {}: {e}", dir.display())))?,
            ))),
            None => None,
        };
        if cfg.learner.is_some() && registry.is_none() {
            let msg = "learner requires a model registry (set registry_dir)";
            return Err(StartError(msg.into()));
        }
        let learner = cfg.learner.clone().zip(registry.clone()).map(|(lc, reg)| {
            let replay = Replay {
                fuel: cfg.fuel.clone(),
                hls: hls.clone(),
                ..Replay::default()
            };
            Learner::start(lc, Arc::clone(engine), reg, replay)
        });
        Ok(Online {
            engine: Arc::clone(engine),
            registry,
            learner,
            ledger: Mutex::new(HashMap::new()),
            chaos_swaps: AtomicU32::new(0),
        })
    }

    /// Arm `n` `CHAOS swap=` injections.
    pub(crate) fn arm_chaos_swaps(&self, n: u32) {
        self.chaos_swaps.fetch_add(n, Ordering::Relaxed);
    }

    /// Handle an admitted `PROMOTE v=<n>`: the registry check, any armed
    /// chaos, then the gate — armor only, no replay: the operator's
    /// explicit override.
    pub(crate) fn promote(&self, version: u64) -> Reply {
        let Some(registry) = &self.registry else {
            return refuse(ErrKind::BadRequest, None, "no model registry configured");
        };
        // Armed chaos corrupts the candidate on disk *before* the armored
        // load, so the armor is proven against real on-disk damage.
        if take_armed(&self.chaos_swaps) {
            if let Some(path) = lock_recover(registry).checkpoint_path(version) {
                corrupt_checkpoint(&path);
                telemetry::incr("serve.swap", "chaos_corrupted", 1);
            }
        }
        admit(&self.engine, registry, version, None, "promoted")
    }

    /// The cold path's one hook, called after the answer is computed:
    /// attribute a policy-served compile to the `version` that produced
    /// it, and queue its episode and program `module` for the learner, if
    /// one runs (never blocks: a full queue sheds its oldest entry; the
    /// module clone shares its functions). Requests and store-inserts are
    /// always counted; the improvement-over-`-O3` win rate needs the
    /// program's `-O3` cycles, which `o3` computes, only when the registry
    /// is enabled. A request without them is not `compared`. (No memo: a
    /// program compiles cold once, then the store answers it.)
    pub(crate) fn record(
        &self,
        version: u64,
        fp: u64,
        module: &Module,
        exp: Experience,
        inserted: bool,
        o3: impl FnOnce() -> Option<u64>,
    ) {
        let cycles = exp.cycles;
        if let Some(learner) = self.learner.as_ref().filter(|_| !exp.steps.is_empty()) {
            learner.offer(Episode {
                fp,
                module: module.clone(),
                exp,
            });
        }
        let o3c = self.registry.as_ref().and_then(|_| o3());
        let mut ledger = lock_recover(&self.ledger);
        let stat = ledger.entry(version).or_default();
        stat.requests += 1;
        stat.store_inserts += u64::from(inserted);
        if let Some(o3c) = o3c {
            stat.compared += 1;
            stat.improvement_sum += (o3c as f64 - cycles as f64) / o3c.max(1) as f64;
            stat.wins += u64::from(cycles <= o3c);
        }
    }

    /// The `MODEL` body: one JSONL line per registry version (plus the
    /// live-serving version if the registry does not know it, e.g. the
    /// boot policy's v0), then a summary line with what the engine is
    /// serving right now.
    pub(crate) fn listing(&self) -> String {
        let serving = self.engine.active_version();
        let stats = lock_recover(&self.ledger).clone();
        let line = |version: u64, info: Option<&VersionInfo>| {
            let st = stats.get(&version).copied().unwrap_or_default();
            // Over the compared requests only: the sum grows with nothing else.
            let mean_improvement = st.improvement_sum / st.compared.max(1) as f64;
            format!(
                "{{\"type\":\"model\",\"version\":{version},\"samples\":{},\"updates\":{},\
                 \"serving\":{},\"requests\":{},\"compared\":{},\"wins\":{},\
                 \"store_inserts\":{},\"mean_improvement\":{mean_improvement:.6}}}\n",
                info.map_or(0, |i| i.samples),
                info.map_or(0, |i| i.updates),
                u8::from(serving == Some(version)),
                st.requests,
                st.compared,
                st.wins,
                st.store_inserts,
            )
        };
        let mut body = String::new();
        let mut listed = BTreeSet::new();
        if let Some(registry) = &self.registry {
            for v in lock_recover(registry).versions() {
                listed.insert(v.version);
                body.push_str(&line(v.version, Some(v)));
            }
        }
        if let Some(v) = serving.filter(|v| !listed.contains(v)) {
            body.push_str(&line(v, None));
        }
        body.push_str(&format!(
            "{{\"type\":\"model_summary\",\"serving\":{},\"swaps\":{},\"registry\":{}}}\n",
            serving.map_or(-1, |v| v as i64),
            self.engine.swap_count(),
            u8::from(self.registry.is_some()),
        ));
        body
    }

    /// Stop the learner, if one runs: it trains on what is already
    /// queued, then exits. Idempotent.
    pub(crate) fn stop(&self) {
        if let Some(learner) = &self.learner {
            learner.stop();
        }
    }
}

/// Chaos injection for `CHAOS swap=`: truncate the candidate on disk so
/// the next armored load must fail to decode and quarantine it. Real
/// bytes are destroyed — this exercises the promotion armor against
/// genuine corruption, not a simulated flag.
fn corrupt_checkpoint(path: &Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        bytes.truncate(bytes.len() / 2);
        let _ = std::fs::write(path, &bytes);
    }
}

/// The one promotion gate: the only way a registry version reaches
/// serving. The candidate is read back through the registry's armored
/// load (corrupt bytes are quarantined on disk), then shape- and
/// finiteness-validated against the serving layout *before* the engine
/// ever sees it; a decodable but invalid candidate is quarantined too,
/// so no later promotion trips over it. With a `replay` set the
/// candidate must then beat the serving policy on it ([`Replay::gate`]).
/// `label` is the `serve.swap{...}` counter a success bumps. Answers
/// `Ack` or the typed refusal; on refusal the old policy keeps serving.
fn admit(
    engine: &InferenceEngine,
    registry: &Mutex<ModelRegistry>,
    version: u64,
    replay: Option<&Replay>,
    label: &'static str,
) -> Reply {
    let mut reg = lock_recover(registry);
    let ckpt = match reg.load_armored(version) {
        ArmoredLoad::Loaded(c) => c,
        ArmoredLoad::Quarantined { error, .. } => {
            telemetry::incr("serve.swap", "quarantined", 1);
            let msg = format!("candidate v{version} quarantined: {error}");
            return refuse(ErrKind::Internal, None, msg);
        }
        ArmoredLoad::Unreadable(e) => {
            let msg = format!("no loadable version v{version}: {e}");
            return refuse(ErrKind::BadRequest, None, msg);
        }
    };
    if let Err(e) = serve_layout().validate_checkpoint(&ckpt) {
        let _ = reg.quarantine(version);
        telemetry::incr("serve.swap", "rejected_invalid", 1);
        let msg = format!("candidate v{version} invalid: {e}");
        return refuse(ErrKind::Internal, None, msg);
    }
    // The replay runs without the registry lock, so `MODEL` and `PROMOTE`
    // are not held up by it.
    drop(reg);
    if let Some(Err(refusal)) = replay.map(|r| r.gate(engine, &ckpt.policy, version)) {
        telemetry::incr("serve.swap", "rejected_replay", 1);
        return refusal;
    }
    let mut reg = lock_recover(registry);
    if let Err(e) = engine.swap_policy(ckpt.policy, version) {
        telemetry::incr("serve.swap", "swap_error", 1);
        return refuse(ErrKind::Internal, None, format!("swap failed: {e}"));
    }
    let _ = reg.set_active(version);
    telemetry::incr("serve.swap", label, 1);
    Reply::Ack
}

/// The replay gate's program set — the last [`REPLAY_PROGRAMS`] distinct
/// programs the policy served, oldest first, owned by the learner thread
/// — and the daemon's pass fuel and profile budget they replay under.
#[derive(Default)]
struct Replay {
    programs: VecDeque<(u64, Module)>,
    fuel: FuelBudget,
    hls: HlsConfig,
}

impl Replay {
    /// Remember a served program as the newest, forgetting the oldest
    /// past [`REPLAY_PROGRAMS`]; a fingerprint already held moves to the
    /// back instead of taking a second slot.
    fn remember(&mut self, fp: u64, module: Module) {
        self.programs.retain(|(held, _)| *held != fp);
        if self.programs.len() == REPLAY_PROGRAMS {
            self.programs.pop_front();
        }
        self.programs.push_back((fp, module));
    }

    /// Σ ln cycles of `policy`'s greedy answers over the set: the engine's
    /// one rollout under a fresh quarantine, each answer scored against
    /// its program by the one rule
    /// (`autophase_core::compile::Input::score`): a wrong or unprofileable
    /// answer costs what it costs the env.
    fn cost(&self, engine: &InferenceEngine, policy: &PolicyEntry) -> Result<f64, PolicyFault> {
        let quarantine = Quarantine::default();
        self.programs
            .iter()
            .map(|(fp, program)| {
                let mut m = program.clone();
                engine.rollout(policy, &mut m, *fp, &quarantine, &self.fuel)?;
                let cycles = Input::new(program, &self.hls).score(&m);
                Ok((cycles.max(1) as f64).ln())
            })
            .sum()
    }

    /// Pass `candidate` (registry version `v`) only if its Σ ln cycles
    /// over the set is strictly below that of the policy serving now — a
    /// tie, an empty set included, keeps what serves. Otherwise the typed
    /// refusal: not better, or a fault in either replay.
    fn gate(&self, engine: &InferenceEngine, candidate: &Mlp, v: u64) -> Result<(), Reply> {
        let fault = |e| refuse(ErrKind::Internal, None, format!("v{v} replay: {e}"));
        // Validated by `admit` already: the layout check cannot fail here.
        let candidate =
            policy_entry(candidate.clone(), v).map_err(|_| fault(PolicyFault::Inference))?;
        let serving = engine.serving().map_err(fault)?;
        let ours = self.cost(engine, &candidate).map_err(fault)?;
        let theirs = self.cost(engine, &serving).map_err(fault)?;
        if ours < theirs {
            return Ok(());
        }
        let msg = format!(
            "candidate v{v} does not beat serving v{} on {} replayed programs \
             (sum of ln cycles {ours:.4} vs {theirs:.4})",
            serving.version,
            self.programs.len()
        );
        Err(refuse(ErrKind::BadRequest, None, msg))
    }
}

struct Channel {
    queue: Mutex<VecDeque<Episode>>,
    cv: Condvar,
    stop: AtomicBool,
}

/// Handle to the learner thread (see module docs).
struct Learner {
    channel: Arc<Channel>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Learner {
    /// Spawn the learner thread, which owns `replay`. Its trainer starts
    /// from the policy the engine serves.
    fn start(
        cfg: LearnerConfig,
        engine: Arc<InferenceEngine>,
        registry: Arc<Mutex<ModelRegistry>>,
        mut replay: Replay,
    ) -> Learner {
        let channel = Arc::new(Channel {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&channel);
        let thread = std::thread::Builder::new()
            .name("serve-learn".into())
            .spawn(move || {
                // Supervisor: a panicking learner loop is respawned, and
                // reseeds from the serving policy; never fatal to the daemon.
                loop {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        learner_loop(&worker, &cfg, &engine, &registry, &mut replay)
                    }));
                    if run.is_ok() {
                        return;
                    }
                    telemetry::incr("serve.learn", "respawn", 1);
                }
            })
            .expect("spawn learner thread");
        Learner {
            channel,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Queue one cold-path episode for training. Never blocks: a full
    /// queue sheds its *oldest* entry (fresh experience reflects the
    /// current policy better than stale experience does).
    fn offer(&self, episode: Episode) {
        let mut q = lock_recover(&self.channel.queue);
        if q.len() >= CHANNEL_CAP {
            q.pop_front();
            telemetry::incr("serve.learn", "shed", 1);
        }
        q.push_back(episode);
        telemetry::incr("serve.learn", "offered", 1);
        drop(q);
        self.channel.cv.notify_one();
    }

    /// Stop the learner thread: it finishes draining what is already
    /// queued, then exits. Idempotent.
    fn stop(&self) {
        self.channel.stop.store(true, Ordering::SeqCst);
        self.channel.cv.notify_all();
        if let Some(t) = lock_recover(&self.thread).take() {
            let _ = t.join();
        }
    }
}

impl Drop for Learner {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A trainer descending from `serving` — its network and a fresh value
/// net — paired with the version it descends from, its base.
fn reseed(serving: &PolicyEntry) -> (u64, OnlineTrainer) {
    telemetry::incr("serve.learn", "reseed", 1);
    let policy = serving.policy.clone();
    let trainer = OnlineTrainer::new(serve_layout(), policy, &OnlineConfig::default(), SEED)
        .expect("the engine serves only policies the serving layout accepts");
    (serving.version, trainer)
}

fn learner_loop(
    channel: &Channel,
    cfg: &LearnerConfig,
    engine: &InferenceEngine,
    registry: &Mutex<ModelRegistry>,
    replay: &mut Replay,
) {
    // The trainer and the serving version it descends from (its base).
    let mut lineage: Option<(u64, OnlineTrainer)> = None;
    let mut updates_since_publish = 0u64;
    loop {
        let drained: Vec<Episode> = {
            let mut q = lock_recover(&channel.queue);
            while q.is_empty() && !channel.stop.load(Ordering::SeqCst) {
                q = channel.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.is_empty() {
                return; // stop requested and nothing left to drain
            }
            q.drain(..).collect()
        };
        telemetry::incr("serve.learn", "ingested", drained.len() as u64);
        // A baseline-only engine serves no policy to learn from.
        let Ok(serving) = engine.serving() else {
            continue;
        };
        if lineage
            .as_ref()
            .is_some_and(|(base, _)| *base != serving.version)
        {
            lineage = None;
            updates_since_publish = 0;
        }
        let (base, trainer) = lineage.get_or_insert_with(|| reseed(&serving));
        for Episode { fp, module, exp } in drained {
            trainer.ingest(&exp);
            replay.remember(fp, module);
        }

        while let Some(report) = trainer.try_update() {
            if report.rejected {
                telemetry::incr("serve.learn", "update_rejected", 1);
                continue;
            }
            telemetry::incr("serve.learn", "update", 1);
            updates_since_publish += 1;
            if updates_since_publish < PUBLISH_EVERY {
                continue;
            }
            updates_since_publish = 0;
            let mut reg = lock_recover(registry);
            let Ok(version) =
                reg.publish(&trainer.checkpoint(), trainer.samples(), trainer.updates())
            else {
                telemetry::incr("serve.learn", "publish_error", 1);
                continue;
            };
            telemetry::incr("serve.learn", "publish", 1);
            let _ = reg.retain_last(KEEP_VERSIONS);
            drop(reg);
            if cfg.auto_promote
                && admit(engine, registry, version, Some(replay), "promoted_auto") == Reply::Ack
            {
                *base = version;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serve_num_actions, serve_obs_dim, EngineConfig};
    use crate::stats::ModelsSnapshot;
    use autophase_core::eval_cache::fingerprint_module;
    use autophase_nn::mlp::Activation;
    use autophase_rl::checkpoint::{Algo, PolicyCheckpoint};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "autophase_serve_online_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The serving shape `tests/online.rs` boots: one hidden layer of 32.
    fn policy(seed: u64) -> Mlp {
        let shape = [serve_obs_dim(), 32, serve_num_actions()];
        Mlp::new(&shape, Activation::Tanh, seed)
    }

    fn ckpt(policy: Mlp) -> PolicyCheckpoint {
        let value = Mlp::new(&[serve_obs_dim(), 8, 1], Activation::Tanh, 1);
        PolicyCheckpoint {
            algo: Algo::Ppo,
            policy,
            value,
        }
    }

    /// The learner's auto-promotion goes through the gate `PROMOTE` uses:
    /// a NaN-poisoned version is refused *and quarantined*, the old
    /// policy keeps serving, and a healthy version then promotes.
    #[test]
    fn the_gate_quarantines_a_non_finite_auto_promotion() {
        let dir = tmp_dir("gate");
        let mut poisoned = policy(1);
        let mut params = poisoned.parameters();
        params[0] = f64::NAN;
        poisoned.set_parameters(&params);
        let mut reg = ModelRegistry::open(&dir).expect("registry opens");
        let bad = reg.publish(&ckpt(poisoned), 1, 1).expect("publish");
        let good = reg.publish(&ckpt(policy(2)), 2, 2).expect("publish");
        let registry = Mutex::new(reg);
        let engine = InferenceEngine::start(policy(3), EngineConfig::default()).unwrap();

        let Reply::Err { kind, .. } = admit(&engine, &registry, bad, None, "promoted_auto") else {
            panic!("a NaN candidate must be refused");
        };
        assert_eq!(kind, ErrKind::Internal);
        assert_eq!(lock_recover(&registry).checkpoint_path(bad), None);
        assert!(dir.join(format!("v{bad}.ckpt.quarantined")).exists());
        assert_eq!(engine.active_version(), Some(0));

        assert_eq!(
            admit(&engine, &registry, good, None, "promoted_auto"),
            Reply::Ack
        );
        assert_eq!(engine.active_version(), Some(good));
        assert_eq!(lock_recover(&registry).active(), Some(good));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The replay gate over the nine CHStone programs, through `admit`.
    /// Σ ln cycles: zero weights 72.23 (the unoptimized programs), seed 7
    /// 71.83, seed 22 68.94. A worse candidate and an equal one are
    /// refused, counted, and stay listed while serving is unchanged; with
    /// nothing to replay, nothing promotes; a better one promotes.
    #[test]
    fn the_replay_gate_admits_only_a_candidate_that_beats_serving() {
        telemetry::enable();
        let rejected = telemetry::counter("serve.swap", "rejected_replay");
        let dir = tmp_dir("replay_gate");
        let mut zero = policy(22);
        zero.set_parameters(&vec![0.0; zero.parameters().len()]);
        let mut reg = ModelRegistry::open(&dir).expect("registry opens");
        let v_zero = reg.publish(&ckpt(zero), 1, 1).expect("publish");
        let v22 = reg.publish(&ckpt(policy(22)), 2, 2).expect("publish");
        let registry = Mutex::new(reg);
        let mut chstone = Replay::default();
        for b in autophase_benchmarks::suite() {
            chstone.remember(fingerprint_module(&b.module), b.module);
        }
        let gate = |engine: &InferenceEngine, v, replay: &Replay| {
            admit(engine, &registry, v, Some(replay), "promoted_auto")
        };

        let serving22 = InferenceEngine::start(policy(22), EngineConfig::default()).unwrap();
        for (candidate, why) in [(v_zero, "worse"), (v22, "a tie")] {
            let before = rejected.value();
            let reply = gate(&serving22, candidate, &chstone);
            assert!(matches!(reply, Reply::Err { .. }), "{why}: {reply:?}");
            assert_eq!(rejected.value(), before + 1, "{why}");
            assert!(lock_recover(&registry).checkpoint_path(candidate).is_some());
            assert_eq!(serving22.active_version(), Some(0), "{why}");
        }

        let serving7 = InferenceEngine::start(policy(7), EngineConfig::default()).unwrap();
        let reply = gate(&serving7, v22, &Replay::default());
        assert!(matches!(reply, Reply::Err { .. }), "{reply:?}");
        assert_eq!(gate(&serving7, v22, &chstone), Reply::Ack);
        assert_eq!(serving7.active_version(), Some(v22));
        assert_eq!(lock_recover(&registry).active(), Some(v22));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Twenty programs, then the fifth again: the ring holds the last
    /// sixteen, and the repeat moved to the back instead of taking a slot.
    #[test]
    fn the_replay_ring_keeps_the_last_distinct_programs() {
        let mut replay = Replay::default();
        for fp in (0..REPLAY_PROGRAMS as u64 + 4).chain([4]) {
            replay.remember(fp, Module::new(format!("p{fp}")));
        }
        let held: Vec<u64> = replay.programs.iter().map(|(fp, _)| *fp).collect();
        let want: Vec<u64> = (5..REPLAY_PROGRAMS as u64 + 4).chain([4]).collect();
        assert_eq!(held, want);
    }

    /// Wins and the mean improvement are over the requests that had an
    /// -O3 reference, so a version whose references all failed reads
    /// "0 of 0 compared", not "0 wins of N".
    #[test]
    fn the_ledger_compares_only_requests_with_an_o3_reference() {
        let registry = tmp_dir("compared");
        let cfg = ServerConfig {
            registry_dir: Some(registry.clone()),
            ..ServerConfig::default()
        };
        let engine = Arc::new(InferenceEngine::start(policy(3), EngineConfig::default()).unwrap());
        let online = Online::start(&cfg, &engine, &HlsConfig::default()).expect("online starts");
        let module = Module::new("m");
        // Half the cycles of -O3 every time, but only one request has the
        // -O3 reference: one compared win, a mean of 0.5 over that one.
        for (fp, o3) in [(0, None), (1, None), (2, Some(1_000)), (3, None)] {
            let exp = Experience {
                steps: Vec::new(),
                cycles: 500,
                baseline_cycles: 0,
            };
            online.record(0, fp, &module, exp, false, || o3);
        }
        let snap = ModelsSnapshot::parse(&online.listing());
        let v0 = snap.version(0).expect("the boot policy is listed");
        assert_eq!((v0.requests, v0.compared, v0.wins), (4, 1, 1));
        assert!((v0.mean_improvement - 0.5).abs() < 1e-9, "{v0:?}");
        let _ = std::fs::remove_dir_all(&registry);
    }
}
