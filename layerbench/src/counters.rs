//! The one adapter onto the program's own counters.
//!
//! It reads only work that no public return value exposes: LP pivots,
//! scheduler units, steals, claim spread, queue depth and the arithmetic
//! fast-path tallies. Cells are matched by name pattern rather than named
//! one by one, so deleting an LP route (or its pivot counter) needs no edit
//! here; a cell that no longer exists simply reads as zero. Everything else
//! the harness reports comes from public return values.

/// A reading of the counters this harness uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// LP pivots, summed over every kernel.
    pub pivots: u64,
    /// (pair, probe-index) units claimed by scheduler workers.
    pub units: u64,
    /// Unit chunks claimed from a pair another worker started.
    pub steals: u64,
    /// High-water mark of the busiest-minus-idlest worker claim spread.
    pub claim_spread_max: u64,
    /// High-water mark of jobs in flight between feeder and workers.
    pub queue_depth_max: u64,
    /// Arithmetic operations served on the machine-word fast path.
    pub arith_small: u64,
    /// Arithmetic operations that fell back to limbs.
    pub arith_big: u64,
}

/// Reads the counters now.
pub fn read() -> Work {
    let mut work = Work::default();
    for cell in dioph_obs::counters() {
        let (name, value) = (cell.name(), cell.get());
        match name {
            "engine.units_claimed" => work.units = value,
            "engine.steals" => work.steals = value,
            "engine.claim_spread.max" => work.claim_spread_max = value,
            "engine.batch.queue_depth.max" => work.queue_depth_max = value,
            _ if name.starts_with("lp.") && name.ends_with(".pivots") => work.pivots += value,
            _ if name.starts_with("arith.") && name.ends_with("small_hits") => {
                work.arith_small += value;
            }
            _ if name.starts_with("arith.") && name.ends_with("fallbacks") => {
                work.arith_big += value;
            }
            _ => {}
        }
    }
    work
}

impl Work {
    /// The work done since `earlier`. The two high-water marks are not
    /// differenced; they are only meaningful when a single pass ran since
    /// process start.
    pub fn since(&self, earlier: &Work) -> Work {
        Work {
            pivots: self.pivots - earlier.pivots,
            units: self.units - earlier.units,
            steals: self.steals - earlier.steals,
            claim_spread_max: self.claim_spread_max,
            queue_depth_max: self.queue_depth_max,
            arith_small: self.arith_small - earlier.arith_small,
            arith_big: self.arith_big - earlier.arith_big,
        }
    }
}
