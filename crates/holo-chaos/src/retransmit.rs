//! Selective whole-frame retransmission with RTO + exponential backoff.
//!
//! The transport's built-in `RetransmitOnce` resends lost fragments
//! immediately — fine for thin links, but it gives up after one round
//! and cannot outlast an outage. This layer is the *schedule* for
//! re-offering a whole frame (`rto · backoff^attempt`), which is what
//! actually rides out a link flap: the first attempts die inside the
//! outage window, a later one lands after it. The stream simulator
//! ([`crate::stream`]) executes it, re-offers queued in virtual-time
//! order behind whatever else the link owes by then.

use std::time::Duration;

/// Retransmission schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitConfig {
    /// Base retransmission timeout (delay before the first retry).
    pub rto: Duration,
    /// Multiplier applied to the timeout after every failed attempt.
    pub backoff: f64,
    /// Retries after the initial attempt (0 disables retransmission).
    pub max_retries: u32,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        Self { rto: Duration::from_millis(50), backoff: 2.0, max_retries: 3 }
    }
}

/// Delay before retry number `attempt + 1`: `rto * backoff^attempt`,
/// clamped so the conversion to `Duration` can never panic. Backoff
/// multipliers below 1 are lifted to 1 (a shrinking schedule is a
/// typo, not a strategy), NaN lifts to 1 the same way, the exponent is
/// capped, and the delay saturates at one virtual hour — far beyond
/// any stream this workspace simulates, but finite, so a hostile
/// `backoff` or a large `max_retries` degrades to "retry hourly"
/// instead of `Duration::from_secs_f64` aborting the process.
pub fn backoff_delay(config: &RetransmitConfig, attempt: u32) -> Duration {
    const MAX_DELAY_SECS: f64 = 3600.0;
    let factor = config.backoff.max(1.0).powi(attempt.min(64) as i32);
    let secs = (config.rto.as_secs_f64() * factor).min(MAX_DELAY_SECS);
    Duration::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_saturates_instead_of_panicking() {
        // Hostile configs degrade to the hourly cap, never to a panic.
        let hostile = [
            RetransmitConfig { backoff: f64::MAX, ..Default::default() },
            RetransmitConfig { backoff: f64::INFINITY, ..Default::default() },
            RetransmitConfig { backoff: f64::NAN, ..Default::default() },
            RetransmitConfig { backoff: -3.0, ..Default::default() },
            RetransmitConfig { rto: Duration::from_secs(u32::MAX as u64), ..Default::default() },
        ];
        for cfg in &hostile {
            for attempt in [0, 1, 31, 64, 65, u32::MAX] {
                let d = backoff_delay(cfg, attempt);
                assert!(d <= Duration::from_secs(3600), "{cfg:?} attempt {attempt} -> {d:?}");
            }
        }
        // NaN and sub-1 multipliers behave as backoff = 1 (flat RTO).
        let flat = RetransmitConfig { backoff: f64::NAN, ..Default::default() };
        assert_eq!(backoff_delay(&flat, 7), flat.rto);
        let shrink = RetransmitConfig { backoff: 0.5, ..Default::default() };
        assert_eq!(backoff_delay(&shrink, 3), shrink.rto);

        // The sane default schedule is untouched by the clamps.
        let dflt = RetransmitConfig::default();
        assert_eq!(backoff_delay(&dflt, 0), Duration::from_millis(50));
        assert_eq!(backoff_delay(&dflt, 1), Duration::from_millis(100));
        assert_eq!(backoff_delay(&dflt, 2), Duration::from_millis(200));
        // Monotone non-decreasing across the whole attempt range.
        let mut prev = Duration::ZERO;
        for attempt in 0..300 {
            let d = backoff_delay(&dflt, attempt);
            assert!(d >= prev);
            prev = d;
        }
    }
}
