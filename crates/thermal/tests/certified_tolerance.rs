//! The solver's `tolerance` is a certified max-norm error in kelvin: a
//! solve at the paper tolerance must land within it of a much tighter
//! solve of the same system, and a solve that cannot certify its
//! tolerance must say so with a finite bound instead of returning a
//! field.

use rmt3d_floorplan::{BlockId, ChipFloorplan};
use rmt3d_power::CoreBlock;
use rmt3d_telemetry::{Event, RecordingSink};
use rmt3d_thermal::{solve, solve_traced, PowerMap, ThermalConfig, ThermalError};
use rmt3d_units::Watts;

/// A hotspot map on the paper's 3D chip: a 15 W checker on the upper
/// die above the leader's integer execution unit.
fn hotspot() -> PowerMap {
    let mut m = PowerMap::new();
    m.set(BlockId::Checker, Watts(15.0));
    m.set(BlockId::Leader(CoreBlock::ExecInt), Watts(20.0));
    m
}

fn paper_grid(tolerance: f64) -> ThermalConfig {
    ThermalConfig {
        grid: 50,
        tolerance,
        ..ThermalConfig::paper()
    }
}

#[test]
fn paper_tolerance_bounds_the_peak_error() {
    let plan = ChipFloorplan::three_d_2a();
    let paper = ThermalConfig {
        grid: 50,
        ..ThermalConfig::paper()
    };
    let tight = paper_grid(1e-9);
    let coarse = solve(&plan, &hotspot(), &paper).unwrap().peak().0;
    let reference = solve(&plan, &hotspot(), &tight).unwrap().peak().0;
    let err = (coarse - reference).abs();
    assert!(
        err <= paper.tolerance + tight.tolerance,
        "peak {coarse} is {err:e} K from the converged {reference}, \
         beyond the claimed {} K",
        paper.tolerance
    );
}

#[test]
fn iteration_cap_is_an_honest_error() {
    let cfg = ThermalConfig {
        max_iters: 1,
        ..paper_grid(1e-4)
    };
    match solve(&ChipFloorplan::three_d_2a(), &hotspot(), &cfg) {
        Err(ThermalError::NotConverged { residual }) => {
            assert!(
                residual.is_finite() && residual > cfg.tolerance,
                "{residual}"
            );
        }
        other => panic!("expected NotConverged, got {other:?}"),
    }
}

#[test]
fn tolerance_below_the_rounding_floor_is_an_honest_error() {
    let cfg = paper_grid(1e-13);
    for plan in [ChipFloorplan::two_d_a(), ChipFloorplan::three_d_2a()] {
        match solve(&plan, &hotspot(), &cfg) {
            Err(ThermalError::NotConverged { residual }) => {
                assert!(
                    residual.is_finite() && residual > cfg.tolerance,
                    "{residual}"
                );
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }
}

#[test]
fn traced_solve_reports_each_iterations_bound() {
    let cfg = paper_grid(1e-4);
    let mut sink = RecordingSink::new();
    let r = solve_traced(&ChipFloorplan::three_d_2a(), &hotspot(), &cfg, &mut sink).unwrap();
    let bounds: Vec<(u64, f64)> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::SolverIteration {
                iteration,
                residual,
            } => Some((*iteration, *residual)),
            _ => None,
        })
        .collect();
    assert_eq!(bounds.len(), r.iterations());
    assert!(bounds.iter().map(|b| b.0).eq(1..=r.iterations() as u64));
    let last = bounds.last().expect("a hotspot needs iterations").1;
    assert!(last <= cfg.tolerance, "last bound {last}");
    assert!(bounds[0].1 > cfg.tolerance, "first bound {}", bounds[0].1);
}
