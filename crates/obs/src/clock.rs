//! The observability layer's only wall-clock site.
//!
//! The workspace `clippy.toml` bans `Instant::now`, `SystemTime::now`
//! and this module's `now_micros` everywhere; `ckpt-obs` carries the one
//! crate-level exception, so every timestamp the recorder sees flows
//! through here. Timestamps are
//! microseconds since a process-wide origin captured on first use,
//! which keeps span math in small integers and chrome-trace `ts` fields
//! compact.

use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process clock origin (first call wins).
pub fn now_micros() -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    #[test]
    fn monotone_nonnegative() {
        let a = super::now_micros();
        let b = super::now_micros();
        assert!(b >= a);
    }
}
