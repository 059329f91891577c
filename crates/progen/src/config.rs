//! Generator configuration.

/// Knobs for random program generation.
///
/// Defaults produce programs in the complexity range the paper's filtered
/// CSmith corpus occupies: a handful of loops with double-digit trip
/// counts, a few arrays, one or two helper functions, total dynamic work
/// well under the runtime filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum number of helper functions besides `main`.
    pub max_helpers: usize,
    /// Maximum statements per block scope.
    pub max_stmts: usize,
    /// Maximum loop nesting depth.
    pub max_loop_depth: usize,
    /// Loop trip counts are drawn from `4..=max_trip`.
    pub max_trip: i64,
    /// Maximum expression tree depth.
    pub max_expr_depth: usize,
    /// Number of scalar locals per function.
    pub num_locals: usize,
    /// Array lengths are drawn from `4..=max_array`.
    pub max_array: u32,
    /// Interpreter fuel used by the validity filter (the "runs in under
    /// five minutes on CPU" filter of §3.4, scaled to the simulator).
    pub filter_fuel: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_helpers: 2,
            max_stmts: 6,
            max_loop_depth: 2,
            max_trip: 24,
            max_expr_depth: 3,
            num_locals: 4,
            max_array: 16,
            filter_fuel: 2_000_000,
        }
    }
}

impl GenConfig {
    /// Larger programs (used for the 12,874-program generalization sweep's
    /// "harder" tail).
    pub fn large() -> GenConfig {
        GenConfig {
            max_helpers: 3,
            max_stmts: 10,
            max_loop_depth: 3,
            max_trip: 32,
            max_expr_depth: 4,
            num_locals: 6,
            max_array: 32,
            filter_fuel: 8_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GenConfig::default();
        assert!(c.max_trip >= 4);
        assert!(c.max_loop_depth >= 1);
        assert!(GenConfig::large().max_stmts > c.max_stmts);
    }
}
