//! Open-loop load generation: requests are due on a fixed schedule whether
//! or not earlier ones have completed.
//!
//! Request `i` is due at `t0 + i / rate`. Latency is counted from the
//! *due* time, so a stall charges every request that had to wait behind
//! it, and how late the generator itself ran is reported separately. The
//! clock is a trait so the accounting is tested on a fake one.

use std::time::{Duration, Instant};

/// A monotonic clock the generator can wait on.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Block until `now_ns() >= t_ns` (returns at once if already past).
    fn wait_until(&self, t_ns: u64);
}

/// The wall clock, counted from when it was created.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now. Lanes of one round share one clock,
    /// so their due times line up.
    pub fn start() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        // Sleep most of the way, then yield: `sleep` alone overshoots by
        // up to a scheduler tick, which would read as generator lateness.
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            let left = t_ns - now;
            if left > 200_000 {
                std::thread::sleep(Duration::from_nanos(left - 100_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Due time of request `i` at `rate_per_s`, in nanoseconds after `t0`.
pub fn due_ns(i: usize, rate_per_s: f64) -> u64 {
    (i as f64 * 1e9 / rate_per_s).round() as u64
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSample {
    /// Position in the round's schedule.
    pub index: usize,
    /// When the request was due.
    pub due_ns: u64,
    /// When the generator actually started sending it.
    pub sent_ns: u64,
    /// When its reply had been read.
    pub done_ns: u64,
}

impl OpenSample {
    /// Client-observed latency, counted from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Drive one connection's share of the schedule: for each `(index, due)`
/// in order, wait until it is due, then call `send` (which blocks until
/// the reply is read). A request whose predecessor on this connection is
/// still in flight when it falls due is sent late, never dropped.
pub fn run_lane<C: Clock>(
    clock: &C,
    schedule: &[(usize, u64)],
    mut send: impl FnMut(usize),
) -> Vec<OpenSample> {
    let mut out = Vec::with_capacity(schedule.len());
    for &(index, due_ns) in schedule {
        clock.wait_until(due_ns);
        let sent_ns = clock.now_ns();
        send(index);
        out.push(OpenSample {
            index,
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
        });
    }
    out
}

/// Largest number of requests that were due but not yet sent at any send
/// instant, over all lanes of a round: 0 while the system keeps up, and
/// growing when the offered rate exceeds what it can serve.
pub fn backlog_max(samples: &[OpenSample]) -> usize {
    samples
        .iter()
        .map(|s| {
            samples
                .iter()
                .filter(|o| o.due_ns <= s.sent_ns && o.sent_ns > s.sent_ns)
                .count()
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when someone waits on it or a fake
    /// request "takes" time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 120.0), 0);
        assert_eq!(due_ns(120, 120.0), 1_000_000_000);
        assert_eq!(due_ns(3, 1000.0), 3_000_000);
    }

    #[test]
    fn a_fast_server_is_never_late() {
        let clock = FakeClock(Cell::new(0));
        let schedule: Vec<(usize, u64)> = (0..5).map(|i| (i, due_ns(i, 100.0))).collect();
        let samples = run_lane(&clock, &schedule, |_| {
            clock.0.set(clock.0.get() + 2_000_000)
        });
        for s in &samples {
            assert_eq!(s.late_ns(), 0);
            assert_eq!(s.latency_ns(), 2_000_000);
        }
        assert_eq!(backlog_max(&samples), 0);
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        // 10 ms apart; request 1 takes 35 ms, the rest 1 ms.
        let clock = FakeClock(Cell::new(0));
        let schedule: Vec<(usize, u64)> = (0..6).map(|i| (i, due_ns(i, 100.0))).collect();
        let samples = run_lane(&clock, &schedule, |i| {
            let service = if i == 1 { 35_000_000 } else { 1_000_000 };
            clock.0.set(clock.0.get() + service);
        });
        // Request 1: due 10, done 45.
        assert_eq!(samples[1].latency_ns(), 35_000_000);
        // Request 2: due 20, sent 45 (25 late), done 46: latency from due.
        assert_eq!(samples[2].late_ns(), 25_000_000);
        assert_eq!(samples[2].latency_ns(), 26_000_000);
        // Request 3: due 30, sent 46, done 47.
        assert_eq!(samples[3].late_ns(), 16_000_000);
        assert_eq!(samples[3].latency_ns(), 17_000_000);
        // Request 4: due 40, sent 47, done 48. Request 5 (due 50) is on time.
        assert_eq!(samples[4].late_ns(), 7_000_000);
        assert_eq!(samples[5].late_ns(), 0);
        // When request 2 was finally sent at t=45, requests 3 and 4 were
        // already due and still waiting.
        assert_eq!(backlog_max(&samples), 2);
    }
}
