//! HotSpot-lite: steady-state thermal modelling of 2D and 3D-stacked
//! chips (paper §3.1-3.2, Table 3).
//!
//! The model follows HotSpot-3.1's grid mode: each layer of the package
//! stack is discretized into a 50×50 grid of finite-volume cells with
//! lateral conduction inside layers, vertical conduction between them,
//! and convection from the bottom face into a 47 °C ambient. Layer
//! thicknesses and resistivities are the paper's Table 3 values; the
//! single calibrated constant is the effective sink coefficient
//! (`ThermalConfig::sink_h`).
//!
//! [`solve`] runs multigrid-preconditioned conjugate gradients on the
//! grid's linear system and returns only once a certified bound on the
//! max-norm temperature error is below `ThermalConfig::tolerance` (K);
//! [`solve_traced`] also reports each iteration's bound to a telemetry
//! sink.
//!
//! # Examples
//!
//! ```
//! use rmt3d_thermal::{solve, PowerMap, ThermalConfig};
//! use rmt3d_floorplan::{BlockId, ChipFloorplan};
//! use rmt3d_units::Watts;
//!
//! let plan = ChipFloorplan::three_d_2a();
//! let mut power = PowerMap::new();
//! power.set(BlockId::Checker, Watts(7.0));
//! let result = solve(&plan, &power, &ThermalConfig::fast())?;
//! assert!(result.peak().0 > 47.0);
//! # Ok::<(), rmt3d_thermal::ThermalError>(())
//! ```

mod model;
mod result;
mod solver;

pub use model::{layer_stack, table3, LayerSpec, PowerMap, ThermalConfig};
pub use result::ThermalResult;
pub use solver::{solve, solve_traced, ThermalError};
