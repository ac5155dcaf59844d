//! Capped exponential backoff with deterministic seeded jitter and an
//! overall deadline — the one retry discipline every blocking path in the
//! serve tier shares: client-side ingest retries, the supervisor's shard
//! restart delays, and the router's coordinated-checkpoint waits.
//!
//! Jitter is seeded (SplitMix64, the same mixer the router hashes users
//! with) rather than sampled from the OS so a failing run replays exactly:
//! two processes given the same seed sleep the same schedule. Each sleep
//! draws from `[backoff/2, backoff)` — half deterministic floor, half
//! seeded spread — which desynchronizes N retriers hammering one queue
//! without ever sleeping longer than the cap.

use std::time::{Duration, Instant};

/// SplitMix64 — stable across platforms, one step per draw.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A retry policy: exponential backoff from `base` doubling to `cap`, with
/// seeded jitter and an overall `deadline` after which the caller gives up.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First sleep.
    pub base: Duration,
    /// Sleeps never exceed this.
    pub cap: Duration,
    /// Total time budget across every attempt; `None` retries forever.
    pub deadline: Option<Duration>,
    /// Seed for the jitter stream (same seed → same sleep schedule).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(64),
            deadline: Some(Duration::from_secs(60)),
            jitter_seed: 0x5eed_5a4d,
        }
    }
}

impl RetryPolicy {
    /// The default policy with a different overall deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Starts a backoff sequence under this policy.
    pub fn start(&self) -> Backoff {
        Backoff {
            policy: *self,
            current: self.base,
            jitter: self.jitter_seed,
            started: Instant::now(),
            attempts: 0,
            rejections: 0,
        }
    }
}

/// One in-flight backoff sequence.
#[derive(Debug)]
pub struct Backoff {
    policy: RetryPolicy,
    current: Duration,
    jitter: u64,
    started: Instant,
    attempts: u64,
    rejections: u64,
}

impl Backoff {
    /// Attempts made so far (one per [`sleep`](Self::sleep) call).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Time elapsed since the sequence started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the overall deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.policy
            .deadline
            .is_some_and(|d| self.started.elapsed() >= d)
    }

    /// Records one backpressure rejection for the accounting in
    /// [`stats`](Self::stats).
    pub fn record_rejection(&mut self) {
        self.rejections += 1;
    }

    /// The sequence's accounting so far. `attempts` counts wire
    /// round-trips: every recorded rejection plus the final success.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            attempts: self.rejections + 1,
            rejections: self.rejections,
            elapsed_nanos: self.started.elapsed().as_nanos() as u64,
        }
    }

    /// The next sleep duration (jittered, capped), advancing the sequence
    /// without actually sleeping — exposed so tests can pin the schedule.
    pub fn next_delay(&mut self) -> Duration {
        self.attempts += 1;
        let backoff = self.current;
        self.current = (self.current * 2).min(self.policy.cap);
        let nanos = backoff.as_nanos() as u64;
        if nanos < 2 {
            return backoff;
        }
        let half = nanos / 2;
        Duration::from_nanos(half + splitmix64(&mut self.jitter) % half)
    }

    /// Sleeps for the next jittered backoff, clipped so the sleep never
    /// overshoots the overall deadline. Returns `false` once the deadline
    /// is exhausted (the caller should stop retrying).
    pub fn sleep(&mut self) -> bool {
        if self.deadline_exceeded() {
            return false;
        }
        let mut delay = self.next_delay();
        if let Some(deadline) = self.policy.deadline {
            let left = deadline.saturating_sub(self.started.elapsed());
            if left.is_zero() {
                return false;
            }
            delay = delay.min(left);
        }
        std::thread::sleep(delay);
        true
    }
}

/// What a blocking client call did to get its answer: surfaced so callers
/// (and the bench's faulted row) can see retry pressure instead of just
/// waiting through it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Wire round-trips made (1 = first try succeeded).
    pub attempts: u64,
    /// How many of those were answered with backpressure `Rejected`.
    pub rejections: u64,
    /// Total wall-clock time spent, sleeps included, in nanoseconds.
    pub elapsed_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let policy = RetryPolicy {
            base: Duration::from_millis(4),
            cap: Duration::from_millis(32),
            deadline: None,
            jitter_seed: 42,
        };
        let a: Vec<_> = {
            let mut b = policy.start();
            (0..6).map(|_| b.next_delay()).collect()
        };
        let b: Vec<_> = {
            let mut b = policy.start();
            (0..6).map(|_| b.next_delay()).collect()
        };
        assert_eq!(a, b, "same seed, same schedule");
        let c: Vec<_> = {
            let mut b = RetryPolicy {
                jitter_seed: 43,
                ..policy
            }
            .start();
            (0..6).map(|_| b.next_delay()).collect()
        };
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn delays_stay_within_half_to_full_backoff_and_cap() {
        let policy = RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(16),
            deadline: None,
            jitter_seed: 7,
        };
        let mut b = policy.start();
        let mut expected = policy.base;
        for _ in 0..10 {
            let d = b.next_delay();
            assert!(
                d >= expected / 2,
                "jitter floor: {d:?} < {:?}",
                expected / 2
            );
            assert!(d < expected, "jitter ceiling: {d:?} >= {expected:?}");
            expected = (expected * 2).min(policy.cap);
        }
        assert_eq!(b.attempts(), 10);
    }

    #[test]
    fn deadline_stops_the_sequence() {
        let mut b = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            deadline: Some(Duration::ZERO),
            jitter_seed: 1,
        }
        .start();
        assert!(b.deadline_exceeded());
        assert!(!b.sleep(), "zero deadline refuses to sleep");
    }

    #[test]
    fn sleep_clips_to_the_remaining_deadline() {
        let mut b = RetryPolicy {
            base: Duration::from_millis(500),
            cap: Duration::from_secs(5),
            deadline: Some(Duration::from_millis(30)),
            jitter_seed: 9,
        }
        .start();
        let t0 = Instant::now();
        while b.sleep() {}
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(300),
            "sleeps clipped to the ~30ms budget, not the 250ms+ backoff: {elapsed:?}"
        );
    }
}
