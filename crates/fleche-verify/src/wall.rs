//! The one place in the verifier allowed to read the wall clock.
//!
//! Exploration itself is deterministic and clock-free; wall times exist
//! only to report how long each property took, and they go to the JSON
//! bench record — never to the byte-diffed stdout report.
//! The `no-wall-clock` analyzer allow for this file is reviewed in
//! `fleche-analyzer.toml`.

use std::time::Instant;

/// A started stopwatch.
#[derive(Debug)]
pub struct WallTimer {
    start: Instant,
}

impl WallTimer {
    /// Starts the stopwatch.
    #[allow(clippy::new_without_default)]
    pub fn new() -> WallTimer {
        WallTimer {
            start: Instant::now(),
        }
    }

    /// Elapsed milliseconds since the start.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}
