//! The quantitative experiment suite (E1–E17).
//!
//! The paper presents no measurements (it is a data-model paper), so each
//! experiment operationalizes one of its *qualitative* claims; the mapping
//! and expected shapes are recorded in `DESIGN.md` §4 and the measured
//! outcomes in `EXPERIMENTS.md`. Every experiment returns a [`Table`] so the
//! `experiments` binary prints the full suite.

pub mod e10_configuration;
pub mod e11_rescache;
pub mod e12_server;
pub mod e13_readpath;
pub mod e14_phases;
pub mod e15_wire;
pub mod e16_telemetry;
pub mod e17_mvcc;
pub mod e1_propagation;
pub mod e2_resolution;
pub mod e3_permeability;
pub mod e4_locking;
pub mod e5_versions;
pub mod e6_expansion;
pub mod e7_constraints;
pub mod e8_storage;
pub mod e9_storage_amp;

use crate::table::Table;

/// Run every experiment. `quick` shrinks the sweeps (used by tests).
pub fn run_all(quick: bool) -> Vec<Table> {
    vec![
        e1_propagation::run(quick),
        e2_resolution::run(quick),
        e3_permeability::run(quick),
        e4_locking::run(quick),
        e5_versions::run(quick),
        e6_expansion::run(quick),
        e7_constraints::run(quick),
        e8_storage::run(quick),
        e9_storage_amp::run(quick),
        e10_configuration::run(quick),
        e11_rescache::run(quick),
        e11_rescache::run_threads(quick),
        e12_server::run(quick),
        e13_readpath::run(quick),
        e13_readpath::run_select(quick),
        e13_readpath::run_batch(quick),
        e14_phases::run(quick),
        e15_wire::run(quick),
        e15_wire::run_idle(quick),
        e16_telemetry::run(quick),
        e17_mvcc::run(quick),
    ]
}

/// Median-of-runs timing helper: runs `f` `iters` times, returns ns/iter.
pub fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_run_quickly_and_produce_rows() {
        for table in run_all(true) {
            assert!(!table.rows.is_empty(), "{} produced no rows", table.title);
            assert!(!table.render().is_empty());
        }
    }
}
