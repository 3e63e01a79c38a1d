//! Layer stacks and thermal configuration (paper Table 3).

use rmt3d_floorplan::{BlockId, ChipFloorplan};
use rmt3d_units::{Celsius, Watts};
use std::collections::BTreeMap;

/// Thermal conductivity of one stack layer.
///
/// Table 3 lists thermal *resistivities* in (m·K)/W; conductivity is the
/// reciprocal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// Layer name for diagnostics.
    pub name: &'static str,
    /// Thickness in micrometres.
    pub thickness_um: f64,
    /// Thermal conductivity in W/(m·K).
    pub conductivity: f64,
    /// Index of the die whose power is injected into this layer, if any.
    pub injects_die: Option<usize>,
}

/// Table 3 material constants.
pub mod table3 {
    /// Bulk silicon thickness of the die next to the heat sink (µm).
    pub const BULK_DIE1_UM: f64 = 750.0;
    /// Bulk silicon thickness of the stacked die (µm).
    pub const BULK_DIE2_UM: f64 = 20.0;
    /// Active-layer thickness (µm).
    pub const ACTIVE_UM: f64 = 1.0;
    /// Copper metal-stack thickness per die (µm).
    pub const METAL_UM: f64 = 12.0;
    /// Die-to-die via layer thickness (µm).
    pub const D2D_UM: f64 = 10.0;
    /// Silicon conductivity: 1 / 0.01 (m·K)/W.
    pub const K_SI: f64 = 100.0;
    /// Effective metal-stack conductivity: 1 / 0.0833 (m·K)/W.
    pub const K_METAL: f64 = 12.0;
    /// D2D via layer conductivity: 1 / 0.0166 (m·K)/W (accounts for air
    /// cavities and via density).
    pub const K_D2D: f64 = 60.24;
    /// Ambient temperature (°C).
    pub const AMBIENT_C: f64 = 47.0;
    /// HotSpot grid resolution.
    pub const GRID: usize = 50;
}

/// Solver and boundary-condition parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Grid resolution per layer (cells per side).
    pub grid: usize,
    /// Ambient temperature.
    pub ambient: Celsius,
    /// Effective heat-sink convection coefficient under the spreader,
    /// W/(m²·K). This is the single calibrated constant of the model
    /// (see `calib` docs): it folds the real sink's fin/spreading
    /// resistance into a per-area coefficient, so a larger die
    /// automatically gets a proportionally better sink — matching the
    /// paper's note that the 2d-2a chip has a larger heat sink.
    pub sink_h: f64,
    /// Copper spreader thickness under the bottom die (µm).
    pub spreader_um: f64,
    /// Effective spreader conductivity, W/(m·K). Set above bulk copper
    /// (400) to emulate the lateral relief of HotSpot's
    /// larger-than-die spreader and sink base, which a die-sized grid
    /// cannot represent geometrically.
    pub spreader_k: f64,
    /// Certified accuracy, K: a solve returns only once
    /// `max(G⁻¹·1)·‖P − G·T‖∞ ≤ tolerance`, which bounds the max-norm
    /// error of every cell's temperature against the exact solution of
    /// the discrete system (up to f64 rounding in the residual). The
    /// bound cannot go below the f64 floor, about 1e-9 K at grid 50.
    pub tolerance: f64,
    /// Cap on conjugate-gradient iterations.
    pub max_iters: usize,
}

impl ThermalConfig {
    /// The calibrated paper configuration (50×50 grid, 47 °C ambient).
    ///
    /// `sink_h` is calibrated once so the 2d-a baseline's mean peak
    /// temperature lands in the paper's ~72 °C band (Fig. 5); every
    /// other number in this crate is Table 3 physics.
    pub fn paper() -> ThermalConfig {
        ThermalConfig {
            grid: table3::GRID,
            ambient: Celsius(table3::AMBIENT_C),
            sink_h: 250_000.0,
            spreader_um: 6000.0,
            spreader_k: 3000.0,
            tolerance: 1e-4,
            max_iters: 1_000,
        }
    }

    /// A coarser/faster configuration for tests (25×25 grid).
    pub fn fast() -> ThermalConfig {
        ThermalConfig {
            grid: 25,
            tolerance: 5e-4,
            ..ThermalConfig::paper()
        }
    }

    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns an error message for degenerate grids or non-physical
    /// parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid < 4 {
            return Err("grid must be at least 4x4".to_string());
        }
        if self.sink_h <= 0.0 || self.spreader_um <= 0.0 || self.spreader_k <= 0.0 {
            return Err("sink and spreader must be positive".to_string());
        }
        if self.tolerance.is_nan() || self.tolerance <= 0.0 {
            return Err("tolerance must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for ThermalConfig {
    fn default() -> ThermalConfig {
        ThermalConfig::paper()
    }
}

/// Builds the layer stack for a chip (2D: 3 layers; 3D F2F stack:
/// 6 layers, Fig. 2b). Heat sink side first.
pub fn layer_stack(plan: &ChipFloorplan, cfg: &ThermalConfig) -> Vec<LayerSpec> {
    use table3::*;
    let mut layers = vec![
        LayerSpec {
            name: "spreader",
            thickness_um: cfg.spreader_um,
            conductivity: cfg.spreader_k,
            injects_die: None,
        },
        LayerSpec {
            name: "bulk-si-1",
            thickness_um: BULK_DIE1_UM,
            conductivity: K_SI,
            injects_die: None,
        },
        LayerSpec {
            name: "active+metal-1",
            thickness_um: ACTIVE_UM + METAL_UM,
            conductivity: K_METAL,
            injects_die: Some(0),
        },
    ];
    if plan.dies.len() > 1 {
        layers.push(LayerSpec {
            name: "d2d-vias",
            thickness_um: D2D_UM,
            conductivity: K_D2D,
            injects_die: None,
        });
        layers.push(LayerSpec {
            name: "metal+active-2",
            thickness_um: METAL_UM + ACTIVE_UM,
            conductivity: K_METAL,
            injects_die: Some(1),
        });
        layers.push(LayerSpec {
            name: "bulk-si-2",
            thickness_um: BULK_DIE2_UM,
            conductivity: K_SI,
            injects_die: None,
        });
    }
    layers
}

/// Per-block power assignment for a thermal solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerMap {
    // BTreeMap: deterministic iteration keeps floating-point summation
    // order (and therefore whole-pipeline results) bit-reproducible.
    powers: BTreeMap<BlockId, Watts>,
}

impl PowerMap {
    /// Empty map.
    pub fn new() -> PowerMap {
        PowerMap::default()
    }

    /// Sets (replacing) a block's power.
    pub fn set(&mut self, id: BlockId, power: Watts) -> &mut PowerMap {
        self.powers.insert(id, power);
        self
    }

    /// Adds power onto a block.
    pub fn add(&mut self, id: BlockId, power: Watts) -> &mut PowerMap {
        let e = self.powers.entry(id).or_insert(Watts::ZERO);
        *e += power;
        self
    }

    /// A block's power (zero if unset).
    pub fn get(&self, id: BlockId) -> Watts {
        self.powers.get(&id).copied().unwrap_or(Watts::ZERO)
    }

    /// Total power in the map.
    pub fn total(&self) -> Watts {
        self.powers.values().copied().sum()
    }

    /// Iterates `(block, power)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, Watts)> + '_ {
        self.powers.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reciprocals() {
        assert!((1.0 / table3::K_SI - 0.01).abs() < 1e-9);
        assert!((1.0 / table3::K_METAL - 0.0833).abs() < 3e-4);
        assert!((1.0 / table3::K_D2D - 0.0166).abs() < 1e-5);
    }

    #[test]
    fn stack_depth_matches_die_count() {
        let cfg = ThermalConfig::paper();
        assert_eq!(layer_stack(&ChipFloorplan::two_d_a(), &cfg).len(), 3);
        assert_eq!(layer_stack(&ChipFloorplan::three_d_2a(), &cfg).len(), 6);
    }

    #[test]
    fn injection_layers_cover_all_dies() {
        let cfg = ThermalConfig::paper();
        let stack = layer_stack(&ChipFloorplan::three_d_2a(), &cfg);
        let dies: Vec<usize> = stack.iter().filter_map(|l| l.injects_die).collect();
        assert_eq!(dies, vec![0, 1]);
    }

    #[test]
    fn config_validation() {
        assert!(ThermalConfig::paper().validate().is_ok());
        assert!(ThermalConfig {
            grid: 2,
            ..ThermalConfig::paper()
        }
        .validate()
        .is_err());
        assert!(ThermalConfig {
            tolerance: 0.0,
            ..ThermalConfig::paper()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn power_map_accumulates() {
        let mut m = PowerMap::new();
        m.set(BlockId::Checker, Watts(7.0));
        m.add(BlockId::Checker, Watts(1.0));
        assert_eq!(m.get(BlockId::Checker), Watts(8.0));
        assert_eq!(m.total(), Watts(8.0));
        assert_eq!(m.get(BlockId::IntercoreBuffers), Watts::ZERO);
    }
}
