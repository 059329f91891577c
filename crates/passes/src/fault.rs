//! Deterministic, seeded fault injection for chaos testing.
//!
//! Compiled only under `cfg(any(test, feature = "fault-injection"))` —
//! production builds contain none of this. The harness answers one
//! question for the rest of the workspace: *does the evaluation stack
//! survive a misbehaving pass?* A [`FaultPlan`] describes exactly which
//! checked applications fault and how ([`FaultKind`]: panic, IR
//! corruption, fuel exhaustion); [`install_plan`] arms it process-wide;
//! [`crate::checked::apply_checked`] and the phase-ordering environment
//! poll it on every application.
//!
//! # Determinism
//!
//! Injection must not depend on thread interleaving, or the chaos suite
//! could never assert that non-faulted episodes stay bit-identical across
//! worker counts. Two mechanisms guarantee that:
//!
//! * Application counts are **thread-local** and scoped to an *episode
//!   context* ([`set_episode`], called by the environment on every
//!   reset). An episode always runs on a single worker thread, so "the
//!   Nth apply of pass P in episode E" is the same application no matter
//!   how many workers exist or which one runs the episode.
//! * A spec with `episode: None` matches any context and counts applies
//!   since the context was last reset — the right mode for single-thread
//!   unit tests driving [`crate::checked::apply_checked`] directly.
//!
//! Plans are either hand-written ([`FaultPlan::new`]) or generated from a
//! seed ([`FaultPlan::seeded`]) with a SplitMix64 stream, so a chaos run
//! is reproducible from one `u64`.

use crate::checked::{FaultKind, INJECTED_PANIC_MSG};
use crate::registry::PassId;
use autophase_telemetry::lock_recover;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};

/// One planned fault: the `nth` (1-based) checked application of `pass`
/// within a matching context faults with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which pass to sabotage.
    pub pass: PassId,
    /// Which application of that pass within the context (1-based).
    pub nth: u32,
    /// Restrict to one episode context (`None` matches any context).
    pub episode: Option<u64>,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A set of planned faults plus a fired-count for assertions.
#[derive(Debug)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// A plan from explicit specs.
    pub fn new(specs: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan {
            specs,
            fired: AtomicU64::new(0),
        }
    }

    /// A reproducible plan derived from `seed`: one fault per entry of
    /// `passes`, cycling through the three [`FaultKind`]s, targeting a
    /// pseudo-random episode in `0..episodes` (or any context when
    /// `episodes` is 0) at a pseudo-random `nth` in `1..=3`.
    pub fn seeded(seed: u64, passes: &[PassId], episodes: u64) -> FaultPlan {
        const KINDS: [FaultKind; 3] = [
            FaultKind::Panic,
            FaultKind::CorruptIr,
            FaultKind::ExhaustFuel,
        ];
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let specs = passes
            .iter()
            .enumerate()
            .map(|(i, &pass)| FaultSpec {
                pass,
                nth: (next() % 3) as u32 + 1,
                episode: if episodes == 0 {
                    None
                } else {
                    Some(next() % episodes)
                },
                kind: KINDS[i % KINDS.len()],
            })
            .collect();
        FaultPlan::new(specs)
    }

    /// The planned faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// How many planned faults have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Episode indices this plan targets (specs with `episode: None`
    /// contribute nothing — they match any context).
    pub fn target_episodes(&self) -> Vec<u64> {
        let mut eps: Vec<u64> = self.specs.iter().filter_map(|s| s.episode).collect();
        eps.sort_unstable();
        eps.dedup();
        eps
    }
}

/// Fast "is any plan armed?" flag so [`poll`] is one relaxed load when
/// the harness is idle.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
    &SLOT
}

/// Arm `plan` process-wide. Returns the shared handle so the caller can
/// later assert on [`FaultPlan::fired`]. Replaces any previous plan.
pub fn install_plan(plan: FaultPlan) -> Arc<FaultPlan> {
    let plan = Arc::new(plan);
    *lock_recover(plan_slot()) = Some(Arc::clone(&plan));
    ACTIVE.store(true, Ordering::Release);
    plan
}

/// Disarm the harness (subsequent [`poll`]s return `None`).
pub fn clear_plan() {
    ACTIVE.store(false, Ordering::Release);
    *lock_recover(plan_slot()) = None;
}

struct Ctx {
    episode: Option<u64>,
    counts: HashMap<PassId, u32>,
}

thread_local! {
    static CTX: RefCell<Ctx> = RefCell::new(Ctx {
        episode: None,
        counts: HashMap::new(),
    });
}

/// Enter an episode context on this thread (the phase-ordering
/// environment calls this from every reset). Resets the per-pass
/// application counts, which is what keeps "the Nth apply of pass P in
/// episode E" independent of worker count and scheduling.
pub fn set_episode(episode: Option<u64>) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        c.episode = episode;
        c.counts.clear();
    });
}

/// Count one attempted application of `pass` in the current context and
/// return the fault planned for it, if any. Cheap when no plan is armed.
pub fn poll(pass: PassId) -> Option<FaultKind> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    let plan = lock_recover(plan_slot()).clone()?;
    let (episode, count) = CTX.with(|c| {
        let mut c = c.borrow_mut();
        let count = c.counts.entry(pass).or_insert(0);
        *count += 1;
        let count = *count;
        (c.episode, count)
    });
    let hit = plan.specs.iter().find(|s| {
        s.pass == pass && s.nth == count && (s.episode.is_none() || s.episode == episode)
    })?;
    plan.fired.fetch_add(1, Ordering::Relaxed);
    Some(hit.kind)
}

/// Install (once) a panic hook that swallows *injected* panics — payloads
/// equal to [`INJECTED_PANIC_MSG`] — and delegates everything else to the
/// previous hook. Chaos tests inject thousands of panics on purpose; this
/// keeps their stderr readable without hiding real failures.
pub fn quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_PANIC_MSG);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Serialize tests that install a plan: the plan is process-global, so
/// concurrently running `#[test]`s that arm different plans would race.
/// Hold the returned guard for the duration of the test.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    lock_recover(&GUARD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_counts_per_pass_and_fires_on_nth() {
        let _g = test_guard();
        set_episode(None);
        let plan = install_plan(FaultPlan::new(vec![FaultSpec {
            pass: 15,
            nth: 2,
            episode: None,
            kind: FaultKind::Panic,
        }]));
        assert_eq!(poll(15), None); // 1st apply
        assert_eq!(poll(7), None); // other pass does not advance 15's count
        assert_eq!(poll(15), Some(FaultKind::Panic)); // 2nd apply
        assert_eq!(poll(15), None); // 3rd
        assert_eq!(plan.fired(), 1);
        clear_plan();
    }

    #[test]
    fn episode_filter_and_context_reset() {
        let _g = test_guard();
        let plan = install_plan(FaultPlan::new(vec![FaultSpec {
            pass: 33,
            nth: 1,
            episode: Some(4),
            kind: FaultKind::ExhaustFuel,
        }]));
        set_episode(Some(3));
        assert_eq!(poll(33), None);
        set_episode(Some(4));
        assert_eq!(poll(33), Some(FaultKind::ExhaustFuel));
        // Re-entering the same episode (a retry) re-arms the count.
        set_episode(Some(4));
        assert_eq!(poll(33), Some(FaultKind::ExhaustFuel));
        assert_eq!(plan.fired(), 2);
        clear_plan();
        set_episode(None);
    }

    #[test]
    fn no_plan_means_no_faults() {
        let _g = test_guard();
        clear_plan();
        set_episode(None);
        for pass in 0..46 {
            assert_eq!(poll(pass), None);
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_cover_kinds() {
        let a = FaultPlan::seeded(9, &[15, 24, 33], 8);
        let b = FaultPlan::seeded(9, &[15, 24, 33], 8);
        assert_eq!(a.specs(), b.specs());
        let c = FaultPlan::seeded(10, &[15, 24, 33], 8);
        assert_ne!(a.specs(), c.specs());
        let kinds: Vec<FaultKind> = a.specs().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Panic,
                FaultKind::CorruptIr,
                FaultKind::ExhaustFuel
            ]
        );
        for s in a.specs() {
            assert!((1..=3).contains(&s.nth));
            assert!(s.episode.unwrap() < 8);
        }
        assert!(FaultPlan::seeded(9, &[1], 0).specs()[0].episode.is_none());
    }
}
