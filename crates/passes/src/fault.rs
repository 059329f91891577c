//! Deterministic, seeded fault injection for chaos testing.
//!
//! The harness answers one question for the rest of the workspace:
//! *does the evaluation stack survive a misbehaving pass?* A
//! [`FaultPlan`] describes exactly which checked applications fault and
//! how ([`FaultKind`]: panic, IR corruption, fuel exhaustion, or a wrong
//! result the verifier accepts); [`PLAN`] arms it process-wide;
//! [`crate::checked::apply_checked`], the phase-ordering environment and
//! the serving walk poll it on every application, which costs one
//! acquire load while nothing is armed.
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

use crate::checked::FaultKind;
use crate::registry::PassId;
use autophase_telemetry::{splitmix64, Armed};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// `passes`, cycling through panic, IR corruption and fuel exhaustion
    /// (the three faults the checked layer itself catches), targeting a
    /// pseudo-random episode in `0..episodes` (or any context when
    /// `episodes` is 0) at a pseudo-random `nth` in `1..=3`.
    pub fn seeded(seed: u64, passes: &[PassId], episodes: u64) -> FaultPlan {
        const KINDS: [FaultKind; 3] = [
            FaultKind::Panic,
            FaultKind::CorruptIr,
            FaultKind::ExhaustFuel,
        ];
        let mut state = seed;
        let mut next = || splitmix64(&mut state);
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
}

/// The armed pass-fault plan, polled by every checked apply and env
/// step.
pub static PLAN: Armed<FaultPlan> = Armed::new();

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
    let plan = PLAN.current()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_telemetry::test_guard;

    #[test]
    fn poll_counts_per_pass_and_fires_on_nth() {
        let _g = test_guard();
        set_episode(None);
        let plan = PLAN.install(FaultPlan::new(vec![FaultSpec {
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
        PLAN.clear();
    }

    #[test]
    fn episode_filter_and_context_reset() {
        let _g = test_guard();
        let plan = PLAN.install(FaultPlan::new(vec![FaultSpec {
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
        PLAN.clear();
        set_episode(None);
    }

    #[test]
    fn no_plan_means_no_faults() {
        let _g = test_guard();
        PLAN.clear();
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

    /// The seeded stream, pinned spec for spec: a chaos run named by its
    /// seed must keep sabotaging the same applications.
    #[test]
    fn seeded_plans_are_pinned() {
        let spec = |pass, nth, episode, kind| FaultSpec {
            pass,
            nth,
            episode,
            kind,
        };
        use FaultKind::{CorruptIr, ExhaustFuel, Panic};
        assert_eq!(
            FaultPlan::seeded(0xC0FFEE, &[38, 25, 31, 15, 24], 8).specs(),
            [
                spec(38, 2, Some(1), Panic),
                spec(25, 1, Some(4), CorruptIr),
                spec(31, 2, Some(3), ExhaustFuel),
                spec(15, 1, Some(7), Panic),
                spec(24, 1, Some(2), CorruptIr),
            ]
        );
        assert_eq!(
            FaultPlan::seeded(0x5EED, &[2, 40, 33, 11], 0).specs(),
            [
                spec(2, 2, None, Panic),
                spec(40, 3, None, CorruptIr),
                spec(33, 3, None, ExhaustFuel),
                spec(11, 2, None, Panic),
            ]
        );
    }
}
