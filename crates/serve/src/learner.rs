//! The background learner: cold-path outcomes in, versioned policies out.
//!
//! Every cold compile already produced exactly one training episode —
//! the rollout's observations/actions and the profiled cycle counts.
//! The request path hands that [`Experience`] to [`Learner::offer`],
//! which pushes it onto a *bounded* queue: when the queue is full the
//! oldest experience is shed (`serve.learn{shed}`) so a slow learner
//! can never apply back-pressure to serving. The learner thread drains
//! the queue, feeds an [`OnlineTrainer`] (incremental PPO on the SoA
//! batched backward), and every `publish_every` successful updates
//! publishes a versioned checkpoint into the [`ModelRegistry`]. With
//! `auto_promote` it then validates the candidate (shape + finite
//! weights) and hot-swaps it into the engine — the same armor the
//! `PROMOTE` verb applies, so a poisoned update can never reach
//! serving even from inside the daemon.
//!
//! The thread runs under a supervisor: a panic anywhere in the loop is
//! caught and the loop respawned with a fresh trainer re-seeded from
//! the registry's active version (`serve.learn{respawn}`), so one
//! pathological batch cannot end online learning for the daemon's
//! lifetime.

use crate::engine::{serve_layout, InferenceEngine};
use autophase_rl::checkpoint::ArmoredLoad;
use autophase_rl::online::{Experience, OnlineConfig, OnlineTrainer};
use autophase_rl::ppo::PpoConfig;
use autophase_rl::registry::ModelRegistry;
use autophase_telemetry::{self as telemetry, lock_recover};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Knobs for the in-daemon learner.
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Experience-queue capacity; beyond it the oldest episode is shed.
    pub channel_cap: usize,
    /// Transitions to accumulate before an incremental PPO update.
    pub min_batch: usize,
    /// Publish a registry version every this many successful updates.
    pub publish_every: u64,
    /// Hot-swap each published version into the engine (after the same
    /// validation `PROMOTE` applies).
    pub auto_promote: bool,
    /// Registry versions to keep (the active version always survives).
    pub keep_versions: usize,
    /// Seed for a freshly initialized agent (ignored when warm-starting
    /// from the registry's active version).
    pub seed: u64,
    /// PPO hyperparameters for the incremental updates.
    pub ppo: PpoConfig,
}

impl Default for LearnerConfig {
    fn default() -> LearnerConfig {
        LearnerConfig {
            channel_cap: 256,
            min_batch: 96,
            publish_every: 2,
            auto_promote: false,
            keep_versions: 8,
            seed: 0x0911_11E5,
            ppo: PpoConfig::small(),
        }
    }
}

struct Channel {
    queue: Mutex<VecDeque<Experience>>,
    cv: Condvar,
    cap: usize,
    stop: AtomicBool,
}

/// Handle to the learner thread (see module docs).
pub struct Learner {
    channel: Arc<Channel>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Learner {
    /// Spawn the learner thread. It warm-starts from the registry's
    /// active version when one loads and validates, otherwise from a
    /// fresh agent.
    pub fn start(
        cfg: LearnerConfig,
        engine: Arc<InferenceEngine>,
        registry: Arc<Mutex<ModelRegistry>>,
    ) -> Learner {
        let channel = Arc::new(Channel {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap: cfg.channel_cap.max(1),
            stop: AtomicBool::new(false),
        });
        let thread = {
            let channel = Arc::clone(&channel);
            std::thread::Builder::new()
                .name("serve-learn".into())
                .spawn(move || {
                    // Supervisor: a panicking learner loop is respawned
                    // with a fresh trainer, never fatal to the daemon.
                    loop {
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            learner_loop(&channel, &cfg, &engine, &registry)
                        }));
                        if run.is_ok() {
                            return;
                        }
                        telemetry::incr("serve.learn", "respawn", 1);
                    }
                })
                .expect("spawn learner thread")
        };
        Learner {
            channel,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Queue one cold-path episode for training. Never blocks: a full
    /// queue sheds its *oldest* entry (fresh experience reflects the
    /// current policy better than stale experience does).
    pub fn offer(&self, exp: Experience) {
        {
            let mut q = lock_recover(&self.channel.queue);
            if q.len() >= self.channel.cap {
                q.pop_front();
                telemetry::incr("serve.learn", "shed", 1);
            }
            q.push_back(exp);
            telemetry::incr("serve.learn", "offered", 1);
        }
        self.channel.cv.notify_one();
    }

    /// Stop the learner thread: it finishes draining what is already
    /// queued, then exits. Idempotent.
    pub fn stop(&self) {
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
        ppo: cfg.ppo.clone(),
        seed: cfg.seed,
    };
    let active = {
        let mut reg = lock_recover(registry);
        reg.active().map(|v| (v, reg.load_armored(v)))
    };
    if let Some((version, ArmoredLoad::Loaded(ckpt))) = active {
        match OnlineTrainer::from_checkpoint(layout, &online, &ckpt) {
            Ok(t) => {
                telemetry::incr("serve.learn", "warm_start", 1);
                return t;
            }
            Err(_) => {
                telemetry::incr("serve.learn", "warm_start_rejected", 1);
                let _ = version;
            }
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
    let layout = serve_layout();
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
            let ckpt = trainer.checkpoint();
            let published = {
                let mut reg = lock_recover(registry);
                let r = reg.publish(&ckpt, trainer.samples(), trainer.updates());
                if r.is_ok() {
                    let _ = reg.retain_last(cfg.keep_versions);
                }
                r
            };
            let version = match published {
                Ok(v) => {
                    telemetry::incr("serve.learn", "publish", 1);
                    v
                }
                Err(_) => {
                    telemetry::incr("serve.learn", "publish_error", 1);
                    continue;
                }
            };
            if !cfg.auto_promote {
                continue;
            }
            // Same promotion armor as the wire verb: never swap in a
            // candidate that fails shape/finiteness validation — the
            // old policy keeps serving.
            if layout.validate_checkpoint(&ckpt).is_err() {
                telemetry::incr("serve.swap", "rejected_invalid", 1);
                continue;
            }
            match engine.swap_policy(ckpt.policy.clone(), version) {
                Ok(()) => {
                    let _ = lock_recover(registry).set_active(version);
                    telemetry::incr("serve.swap", "promoted_auto", 1);
                }
                Err(_) => telemetry::incr("serve.swap", "swap_error", 1),
            }
        }
    }
}
