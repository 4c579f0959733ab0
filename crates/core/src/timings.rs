//! Timing breakdowns matching the paper's reported quantities.
//!
//! §7 (simple-linear): `t-parse`, `t-graph`, `t-comp`; `t-total` is their
//! sum. §8 (linear): additionally `t-shapes` — the db-dependent component —
//! while `t-parse + t-graph + t-comp` form the db-independent component.
//!
//! Since the `soct_obs` refactor these structs are *projections*: the
//! checkers accumulate phase durations through [`soct_obs::Phases`]
//! (which also feeds the global `soct_core_phase_us{phase=…}` histogram
//! and the span layer), and each struct's `from_phases` selects the
//! fields the paper reports.

use soct_obs::Phases;
use std::time::Duration;

/// Timing breakdown of `IsChaseFinite[SL]` (§7).
#[derive(Clone, Copy, Debug, Default)]
pub struct SlTimings {
    /// Time to parse the TGDs from an input file (zero when the caller
    /// passes pre-parsed TGDs).
    pub t_parse: Duration,
    /// Time to build the dependency graph.
    pub t_graph: Duration,
    /// Time to find the special SCCs.
    pub t_comp: Duration,
    /// Time for the `Supports` check — reported separately because Remark 1
    /// argues it is negligible; our numbers let the reader verify that.
    pub t_supports: Duration,
}

impl SlTimings {
    /// Projects §7's quantities out of a phase accumulator.
    pub fn from_phases(phases: &Phases) -> Self {
        SlTimings {
            t_parse: phases.duration("parse"),
            t_graph: phases.duration("graph"),
            t_comp: phases.duration("comp"),
            t_supports: phases.duration("supports"),
        }
    }

    /// End-to-end runtime (`t-total` of Figure 1).
    pub fn total(&self) -> Duration {
        self.t_parse + self.t_graph + self.t_comp + self.t_supports
    }
}

/// Timing breakdown of `IsChaseFinite[L]` (§8).
#[derive(Clone, Copy, Debug, Default)]
pub struct LTimings {
    /// The db-dependent component: time to find the database shapes.
    pub t_shapes: Duration,
    /// Time to parse the TGDs (zero when pre-parsed).
    pub t_parse: Duration,
    /// Time to dynamically simplify and build the dependency graph of the
    /// simplified set (the paper folds simplification into `t-graph`).
    pub t_graph: Duration,
    /// Time to find the special SCCs.
    pub t_comp: Duration,
}

impl LTimings {
    /// Projects §8's quantities out of a phase accumulator.
    pub fn from_phases(phases: &Phases) -> Self {
        LTimings {
            t_shapes: phases.duration("shapes"),
            t_parse: phases.duration("parse"),
            t_graph: phases.duration("graph"),
            t_comp: phases.duration("comp"),
        }
    }

    /// The db-independent component (`t-total` of Figure 5).
    pub fn db_independent(&self) -> Duration {
        self.t_parse + self.t_graph + self.t_comp
    }

    /// Full end-to-end runtime (`t-total` of Table 2).
    pub fn total(&self) -> Duration {
        self.t_shapes + self.db_independent()
    }
}

/// Timing breakdown of a cache-aware check
/// ([`crate::check_termination`] with a cache): the request-side counterpart of
/// the paper's phase split — fingerprinting replaces the db-dependent
/// phase on a hit, and `t_check` is zero exactly when the verdict came
/// from the cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheTimings {
    /// Time to compute the canonical ruleset/database fingerprints.
    pub t_fingerprint: Duration,
    /// Time spent probing the verdict cache.
    pub t_lookup: Duration,
    /// Time spent running the actual checker (zero on a cache hit).
    pub t_check: Duration,
}

impl CacheTimings {
    /// Projects the request-side quantities out of a phase accumulator.
    /// Every field is recorded on hits *and* misses (`t_check` is simply
    /// zero on a hit, when the phase never ran).
    pub fn from_phases(phases: &Phases) -> Self {
        CacheTimings {
            t_fingerprint: phases.duration("fingerprint"),
            t_lookup: phases.duration("lookup"),
            t_check: phases.duration("check"),
        }
    }

    /// End-to-end time of the cached check.
    pub fn total(&self) -> Duration {
        self.t_fingerprint + self.t_lookup + self.t_check
    }
}

/// Milliseconds with fractional part, the unit of Table 2.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = SlTimings {
            t_parse: Duration::from_millis(5),
            t_graph: Duration::from_millis(3),
            t_comp: Duration::from_millis(2),
            t_supports: Duration::from_millis(1),
        };
        assert_eq!(t.total(), Duration::from_millis(11));

        let l = LTimings {
            t_shapes: Duration::from_millis(100),
            t_parse: Duration::from_millis(5),
            t_graph: Duration::from_millis(3),
            t_comp: Duration::from_millis(2),
        };
        assert_eq!(l.db_independent(), Duration::from_millis(10));
        assert_eq!(l.total(), Duration::from_millis(110));
    }

    #[test]
    fn cache_timings_total() {
        let c = CacheTimings {
            t_fingerprint: Duration::from_millis(2),
            t_lookup: Duration::from_micros(10),
            t_check: Duration::ZERO,
        };
        assert_eq!(c.total(), Duration::from_micros(2010));
    }

    #[test]
    fn ms_converts() {
        assert!((ms(Duration::from_micros(1500)) - 1.5).abs() < 1e-9);
    }
}
