//! Service configuration: the epoch loop's supervision settings.

use std::time::Duration;

/// Tuning of the epoch loop's supervision machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Upper bound on one rebuild attempt's wall-clock time. An attempt
    /// exceeding it is abandoned (the service keeps serving its
    /// last-known-good image) and counts as a recoverable failure.
    pub watchdog: Duration,
    /// Recoverable rebuild failures retried per epoch (0 = one attempt).
    pub max_retries: u32,
    /// Consecutive failed epochs after which the service freezes (≥ 1).
    pub freeze_after: u32,
    /// Base backoff; see [`ServeConfig::backoff_before`]
    /// (`Duration::ZERO` disables sleeping — what the tests use).
    pub backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            watchdog: Duration::from_millis(30_000),
            max_retries: 2,
            freeze_after: 3,
            backoff: Duration::from_millis(25),
        }
    }
}

impl ServeConfig {
    /// The backoff slept before retry number `retry`: `backoff << (retry -
    /// 1)`, so the sleep preceding the second attempt (`retry = 1`) is the
    /// base. No sleep precedes the first attempt (`retry = 0`). Purely
    /// arithmetic — two services configured identically back off
    /// identically — and saturating instead of overflowing for absurd
    /// retry counts.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        if retry == 0 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let shift = (retry - 1).min(16);
        self.backoff
            .checked_mul(1u32 << shift)
            .unwrap_or(Duration::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.freeze_after >= 1);
        assert!(cfg.watchdog > Duration::ZERO);
    }

    #[test]
    fn backoff_doubles_deterministically() {
        let cfg = ServeConfig {
            backoff: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        assert_eq!(cfg.backoff_before(0), Duration::ZERO);
        assert_eq!(cfg.backoff_before(1), Duration::from_millis(10));
        assert_eq!(cfg.backoff_before(2), Duration::from_millis(20));
        assert_eq!(cfg.backoff_before(3), Duration::from_millis(40));
        // Same configuration, same schedule.
        assert_eq!(cfg.backoff_before(3), cfg.backoff_before(3));
    }

    #[test]
    fn zero_backoff_never_sleeps_and_huge_retries_saturate() {
        let cfg = ServeConfig {
            backoff: Duration::ZERO,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.backoff_before(7), Duration::ZERO);
        let cfg = ServeConfig {
            backoff: Duration::from_secs(u64::MAX / 2),
            ..ServeConfig::default()
        };
        assert_eq!(cfg.backoff_before(40), Duration::MAX);
    }
}
