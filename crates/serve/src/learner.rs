//! The online-learning half of the daemon, behind one type: `Online`
//! holds the model registry, the background learner, the per-version
//! outcome ledger the `MODEL` verb reads, and the armed `CHAOS swap=`
//! count — and it owns the one promotion gate.
//!
//! **The learner.** Every cold compile already produced exactly one
//! training episode — the rollout's observations/actions and the
//! profiled cycle counts. The request path hands that [`Experience`] to
//! `Online::record`, which pushes it onto a *bounded* queue: when the
//! queue is full the oldest experience is shed (`serve.learn{shed}`) so
//! a slow learner can never apply back-pressure to serving. The learner
//! thread drains the queue, feeds an [`OnlineTrainer`] (incremental PPO
//! on the SoA batched backward), and every `publish_every` successful
//! updates publishes a versioned checkpoint into the [`ModelRegistry`].
//! The thread runs under a supervisor: a panic anywhere in the loop is
//! caught and the loop respawned with a fresh trainer re-seeded from the
//! registry's active version (`serve.learn{respawn}`), so one
//! pathological batch cannot end online learning for the daemon's
//! lifetime.
//!
//! **The promotion gate** (`admit`). `PROMOTE` (once the server has
//! checked `admin`) and the learner's `auto_promote` both call it: the
//! armored load (corrupt bytes are
//! quarantined on disk), validation against the serving layout (shape
//! and finite weights; a failure quarantines the version too), then the
//! swap, the registry's active pointer and the `serve.swap{...}` count.
//! A refused candidate leaves the old policy serving. The boot policy
//! gets the same shape and finiteness check from
//! [`InferenceEngine::start`], so no network becomes a serving mirror
//! unchecked.

use crate::engine::{serve_layout, take_armed, InferenceEngine};
use crate::protocol::{refuse, ErrKind, Reply};
use crate::server::{ServerConfig, StartError};
use autophase_rl::checkpoint::ArmoredLoad;
use autophase_rl::online::{Experience, OnlineConfig, OnlineTrainer};
use autophase_rl::ppo::PpoConfig;
use autophase_rl::registry::{ModelRegistry, VersionInfo};
use autophase_telemetry::{self as telemetry, lock_recover, BoundedMap, MapCounters};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Knobs for the in-daemon learner.
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Transitions to accumulate before an incremental PPO update.
    pub min_batch: usize,
    /// Publish a registry version every this many successful updates.
    pub publish_every: u64,
    /// Hot-swap each published version into the engine through the
    /// promotion gate `PROMOTE` uses.
    pub auto_promote: bool,
}

impl Default for LearnerConfig {
    fn default() -> LearnerConfig {
        LearnerConfig {
            min_batch: 96,
            publish_every: 2,
            auto_promote: false,
        }
    }
}

/// Experience-queue capacity; beyond it the oldest episode is shed.
const CHANNEL_CAP: usize = 256;

/// Registry versions the learner keeps (the active version always
/// survives).
const KEEP_VERSIONS: usize = 8;

/// Seed of a freshly initialized agent (a warm start from the
/// registry's active version ignores it).
const SEED: u64 = 0x0911_11E5;

/// Entries `Online::o3_cycles` keeps: 64 KiB of fingerprints, and an
/// evicted program costs one more `-O3` run if it ever compiles cold again.
const O3_CYCLES_BUDGET: usize = 4_096;

/// Per-policy-version outcome counters behind the `MODEL` verb: the
/// win rate (improvement over -O3) and store-insert rate are the A/B
/// signals a promotion decision reads.
#[derive(Debug, Clone, Copy, Default)]
struct ModelStats {
    requests: u64,
    wins: u64,
    store_inserts: u64,
    improvement_sum: f64,
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
    /// `-O3` cycles by fingerprint, so the per-version win rate costs
    /// one extra apply+profile per *unique* program, not per request.
    o3_cycles: Mutex<BoundedMap<u64, u64>>,
    /// Armed `CHAOS swap=` injections: each pending count corrupts the
    /// next `PROMOTE` candidate on disk before its armored load.
    chaos_swaps: AtomicU32,
}

impl Online {
    /// Open the registry and start the learner `cfg` asks for.
    ///
    /// # Errors
    ///
    /// An unopenable registry, or a learner without one.
    pub(crate) fn start(
        cfg: &ServerConfig,
        engine: &Arc<InferenceEngine>,
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
        let learner = cfg.learner.clone().zip(registry.clone());
        let learner = learner.map(|(lc, reg)| Learner::start(lc, Arc::clone(engine), reg));
        Ok(Online {
            engine: Arc::clone(engine),
            registry,
            learner,
            ledger: Mutex::new(HashMap::new()),
            o3_cycles: Mutex::new(BoundedMap::new(
                O3_CYCLES_BUDGET,
                MapCounters::family("serve.o3_cycles"),
            )),
            chaos_swaps: AtomicU32::new(0),
        })
    }

    /// Arm `n` `CHAOS swap=` injections.
    pub(crate) fn arm_chaos_swaps(&self, n: u32) {
        self.chaos_swaps.fetch_add(n, Ordering::Relaxed);
    }

    /// Handle an admitted `PROMOTE v=<n> [ab=1]`: the registry check, any
    /// armed chaos, then the gate. `ab=1` installs the version as the
    /// B-side challenger instead of replacing the active policy.
    pub(crate) fn promote(&self, version: u64, ab: bool) -> Reply {
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
        let label = if ab { "promoted_ab" } else { "promoted" };
        admit(&self.engine, registry, version, ab, label)
    }

    /// The cold path's one hook, called after the answer is computed:
    /// attribute a policy-served compile to the `version` that produced
    /// it, and queue its episode for the learner, if one runs (never
    /// blocks: a full queue sheds its oldest entry). Requests and
    /// store-inserts are always counted; the improvement-over-`-O3` win
    /// rate needs the program's `-O3` cycles, which `o3` computes — once
    /// per fingerprint, and only when the registry is enabled.
    pub(crate) fn record(
        &self,
        version: u64,
        fp: u64,
        exp: Experience,
        inserted: bool,
        o3: impl FnOnce() -> Option<u64>,
    ) {
        let cycles = exp.cycles;
        if let Some(learner) = self.learner.as_ref().filter(|_| !exp.steps.is_empty()) {
            learner.offer(exp);
        }
        let o3c = self.registry.as_ref().and_then(|_| {
            // The probe is its own statement: its guard must be gone before
            // the `-O3` run and the insert below.
            let cached = lock_recover(&self.o3_cycles).lookup(&fp).copied();
            cached.or_else(|| {
                let cycles = o3()?;
                lock_recover(&self.o3_cycles).insert(fp, cycles);
                Some(cycles)
            })
        });
        let mut ledger = lock_recover(&self.ledger);
        let stat = ledger.entry(version).or_default();
        stat.requests += 1;
        stat.store_inserts += u64::from(inserted);
        if let Some(o3c) = o3c {
            stat.improvement_sum += (o3c as f64 - cycles as f64) / o3c.max(1) as f64;
            stat.wins += u64::from(cycles <= o3c);
        }
    }

    /// The `MODEL` body: one JSONL line per registry version (plus any
    /// live-serving version the registry does not know, e.g. the boot
    /// policy's v0), then a summary line with what the engine is serving
    /// right now.
    pub(crate) fn listing(&self) -> String {
        let (serving, challenger) = match self.engine.active_versions() {
            Some((a, b)) => (Some(a), b),
            None => (None, None),
        };
        let stats = lock_recover(&self.ledger).clone();
        let line = |version: u64, info: Option<&VersionInfo>| {
            let st = stats.get(&version).copied().unwrap_or_default();
            let mean_improvement = if st.requests > 0 {
                st.improvement_sum / st.requests as f64
            } else {
                0.0
            };
            format!(
                "{{\"type\":\"model\",\"version\":{version},\"samples\":{},\"updates\":{},\
                 \"serving\":{},\"challenger\":{},\"requests\":{},\"wins\":{},\
                 \"store_inserts\":{},\"mean_improvement\":{mean_improvement:.6}}}\n",
                info.map_or(0, |i| i.samples),
                info.map_or(0, |i| i.updates),
                u8::from(serving == Some(version)),
                u8::from(challenger == Some(version)),
                st.requests,
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
        for v in [serving, challenger].into_iter().flatten() {
            if listed.insert(v) {
                body.push_str(&line(v, None));
            }
        }
        body.push_str(&format!(
            "{{\"type\":\"model_summary\",\"serving\":{},\"challenger\":{},\"swaps\":{},\"registry\":{}}}\n",
            serving.map_or(-1, |v| v as i64),
            challenger.map_or(-1, |v| v as i64),
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
/// so no later promotion trips over it. `ab` installs it as the A/B
/// challenger instead of the active policy; `label` is the
/// `serve.swap{...}` counter a success bumps. Answers `Ack` or the
/// typed refusal; on refusal the old policy keeps serving.
fn admit(
    engine: &InferenceEngine,
    registry: &Mutex<ModelRegistry>,
    version: u64,
    ab: bool,
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
    let swapped = if ab {
        engine.swap_ab(ckpt.policy, version)
    } else {
        engine.swap_policy(ckpt.policy, version)
    };
    if let Err(e) = swapped {
        telemetry::incr("serve.swap", "swap_error", 1);
        return refuse(ErrKind::Internal, None, format!("swap failed: {e}"));
    }
    if !ab {
        let _ = reg.set_active(version);
    }
    telemetry::incr("serve.swap", label, 1);
    Reply::Ack
}

struct Channel {
    queue: Mutex<VecDeque<Experience>>,
    cv: Condvar,
    stop: AtomicBool,
}

/// Handle to the learner thread (see module docs).
struct Learner {
    channel: Arc<Channel>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Learner {
    /// Spawn the learner thread. It warm-starts from the registry's
    /// active version when one loads and validates, otherwise from a
    /// fresh agent.
    fn start(
        cfg: LearnerConfig,
        engine: Arc<InferenceEngine>,
        registry: Arc<Mutex<ModelRegistry>>,
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
                // Supervisor: a panicking learner loop is respawned with a
                // fresh trainer, never fatal to the daemon.
                loop {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        learner_loop(&worker, &cfg, &engine, &registry)
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
    fn offer(&self, exp: Experience) {
        let mut q = lock_recover(&self.channel.queue);
        if q.len() >= CHANNEL_CAP {
            q.pop_front();
            telemetry::incr("serve.learn", "shed", 1);
        }
        q.push_back(exp);
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

/// Build the trainer this loop incarnation starts from: the registry's
/// active version when it loads and validates, else a fresh agent.
fn seed_trainer(cfg: &LearnerConfig, registry: &Mutex<ModelRegistry>) -> OnlineTrainer {
    let layout = serve_layout();
    let online = OnlineConfig {
        min_batch: cfg.min_batch,
        ppo: PpoConfig::small(),
        seed: SEED,
    };
    let active = {
        let mut reg = lock_recover(registry);
        reg.active().map(|v| reg.load_armored(v))
    };
    if let Some(ArmoredLoad::Loaded(ckpt)) = active {
        match OnlineTrainer::from_checkpoint(layout, &online, &ckpt) {
            Ok(t) => {
                telemetry::incr("serve.learn", "warm_start", 1);
                return t;
            }
            Err(_) => telemetry::incr("serve.learn", "warm_start_rejected", 1),
        }
    }
    OnlineTrainer::new(layout, &online)
}

fn learner_loop(
    channel: &Channel,
    cfg: &LearnerConfig,
    engine: &InferenceEngine,
    registry: &Mutex<ModelRegistry>,
) {
    let mut trainer = seed_trainer(cfg, registry);
    let mut updates_since_publish = 0u64;
    loop {
        let drained: Vec<Experience> = {
            let mut q = lock_recover(&channel.queue);
            while q.is_empty() && !channel.stop.load(Ordering::SeqCst) {
                q = channel.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.is_empty() {
                return; // stop requested and nothing left to drain
            }
            q.drain(..).collect()
        };
        for exp in &drained {
            trainer.ingest(exp);
        }
        telemetry::incr("serve.learn", "ingested", drained.len() as u64);

        while let Some(report) = trainer.try_update() {
            if report.rejected {
                telemetry::incr("serve.learn", "update_rejected", 1);
                continue;
            }
            telemetry::incr("serve.learn", "update", 1);
            updates_since_publish += 1;
            if updates_since_publish < cfg.publish_every {
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
            if cfg.auto_promote {
                admit(engine, registry, version, false, "promoted_auto");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serve_num_actions, serve_obs_dim, EngineConfig};
    use autophase_nn::mlp::{Activation, Mlp};
    use autophase_rl::checkpoint::{Algo, PolicyCheckpoint};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "autophase_serve_online_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `o3_cycles` memoizes a pure function in a bounded map: a daemon
    /// that sees more distinct programs than its budget forgets the oldest
    /// and recomputes them on demand, and the per-version accounting the
    /// `MODEL` verb reads cannot tell.
    #[test]
    fn o3_cycles_stays_inside_its_budget_and_the_win_rate_cannot_tell() {
        let registry = tmp_dir("o3_budget");
        let cfg = ServerConfig {
            registry_dir: Some(registry.clone()),
            ..ServerConfig::default()
        };
        let engine = Arc::new(InferenceEngine::start_baseline_only());
        let online = Online::start(&cfg, &engine).expect("online starts");
        let o3 = 1_000;

        // Every other request loses to `-O3` by one cycle.
        let n = O3_CYCLES_BUDGET as u64 + 100;
        let exp = |cycles| Experience {
            steps: Vec::new(),
            cycles,
            baseline_cycles: 0,
        };
        for fp in 0..n {
            online.record(7, fp, exp(o3 + fp % 2), false, || Some(o3));
        }
        // Fingerprint 0 went with the first rotation; asked again, it is
        // recomputed to the same cycles and still wins.
        online.record(7, 0, exp(o3), false, || Some(o3));

        let memo = lock_recover(&online.o3_cycles).stats();
        assert!(memo.len <= O3_CYCLES_BUDGET, "{memo:?}");
        assert!(memo.evictions > 0, "{memo:?}");
        assert_eq!((memo.hits, memo.misses), (0, n + 1));
        let stat = lock_recover(&online.ledger)[&7];
        assert_eq!((stat.requests, stat.wins), (n + 1, n / 2 + 1));
        let _ = std::fs::remove_dir_all(&registry);
    }

    /// The learner's auto-promotion goes through the gate `PROMOTE` uses:
    /// a NaN-poisoned version is refused *and quarantined*, the old
    /// policy keeps serving, and a healthy version then promotes.
    #[test]
    fn the_gate_quarantines_a_non_finite_auto_promotion() {
        let dir = tmp_dir("gate");
        let net = |outputs, seed| Mlp::new(&[serve_obs_dim(), 8, outputs], Activation::Tanh, seed);
        let ckpt = |seed| PolicyCheckpoint {
            algo: Algo::Ppo,
            policy: net(serve_num_actions(), seed),
            value: net(1, seed),
        };
        let mut poisoned = ckpt(1);
        let mut params = poisoned.policy.parameters();
        params[0] = f64::NAN;
        poisoned.policy.set_parameters(&params);
        let mut reg = ModelRegistry::open(&dir).expect("registry opens");
        let bad = reg.publish(&poisoned, 1, 1).expect("publish");
        let good = reg.publish(&ckpt(2), 2, 2).expect("publish");
        let registry = Mutex::new(reg);
        let engine = InferenceEngine::start(ckpt(3).policy, EngineConfig::default()).unwrap();

        let Reply::Err { kind, .. } = admit(&engine, &registry, bad, false, "promoted_auto") else {
            panic!("a NaN candidate must be refused");
        };
        assert_eq!(kind, ErrKind::Internal);
        assert_eq!(lock_recover(&registry).checkpoint_path(bad), None);
        assert!(dir.join(format!("v{bad}.ckpt.quarantined")).exists());
        assert_eq!(engine.active_versions(), Some((0, None)));

        assert_eq!(
            admit(&engine, &registry, good, false, "promoted_auto"),
            Reply::Ack
        );
        assert_eq!(engine.active_versions(), Some((good, None)));
        assert_eq!(lock_recover(&registry).active(), Some(good));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
