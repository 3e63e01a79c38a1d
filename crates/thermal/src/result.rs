//! Solved temperature fields and block-level queries.

use rmt3d_floorplan::{BlockId, ChipFloorplan};
use rmt3d_units::Celsius;

/// The steady-state temperature solution for a chip.
#[derive(Debug, Clone)]
pub struct ThermalResult {
    plan: ChipFloorplan,
    grid: usize,
    /// Active-layer temperature fields, one per die, row-major
    /// `grid x grid`, in °C.
    die_fields: Vec<Vec<f64>>,
    ambient: Celsius,
    iterations: usize,
}

impl ThermalResult {
    pub(crate) fn new(
        plan: ChipFloorplan,
        grid: usize,
        die_fields: Vec<Vec<f64>>,
        ambient: Celsius,
        iterations: usize,
    ) -> ThermalResult {
        ThermalResult {
            plan,
            grid,
            die_fields,
            ambient,
            iterations,
        }
    }

    /// Grid resolution.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Ambient temperature used in the solve.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Conjugate-gradient iterations the solve took (0 when the
    /// initial field already met the tolerance, e.g. at zero power).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The chip-wide peak temperature (the paper's Fig. 4/5 metric).
    pub fn peak(&self) -> Celsius {
        let m = self
            .die_fields
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Celsius(m)
    }

    /// Peak temperature on one die.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn die_peak(&self, die: usize) -> Celsius {
        let m = self.die_fields[die]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Celsius(m)
    }

    /// Mean active-layer temperature across all dies.
    pub fn mean(&self) -> Celsius {
        let (sum, count) = self
            .die_fields
            .iter()
            .flatten()
            .fold((0.0, 0usize), |(s, c), &t| (s + t, c + 1));
        Celsius(sum / count.max(1) as f64)
    }

    /// Peak temperature within one block's footprint.
    ///
    /// Returns `None` when the block does not exist on this chip.
    pub fn block_peak(&self, id: BlockId) -> Option<Celsius> {
        let (die_idx, block) = self.plan.find(id)?;
        let die = &self.plan.dies[die_idx];
        let n = self.grid;
        let cw = die.width / n as f64;
        let ch = die.height / n as f64;
        let i0 = (block.rect.x / cw).floor() as usize;
        let i1 = ((block.rect.right() / cw).ceil() as usize).min(n);
        let j0 = (block.rect.y / ch).floor() as usize;
        let j1 = ((block.rect.top() / ch).ceil() as usize).min(n);
        let mut m = f64::NEG_INFINITY;
        for j in j0..j1 {
            for i in i0..i1 {
                m = m.max(self.die_fields[die_idx][j * n + i]);
            }
        }
        Some(Celsius(m))
    }

    /// The raw active-layer temperature field of one die (row-major
    /// `grid x grid`, °C) — for plotting and heat-map rendering.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn die_field(&self, die: usize) -> &[f64] {
        &self.die_fields[die]
    }

    /// The hottest cell's `(die, x cell, y cell)` location.
    pub fn hottest_cell(&self) -> (usize, usize, usize) {
        let mut best = (0, 0, 0);
        let mut best_t = f64::NEG_INFINITY;
        for (d, field) in self.die_fields.iter().enumerate() {
            for (k, &t) in field.iter().enumerate() {
                if t > best_t {
                    best_t = t;
                    best = (d, k % self.grid, k / self.grid);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(fields: Vec<Vec<f64>>, grid: usize) -> ThermalResult {
        let plan = if fields.len() == 1 {
            ChipFloorplan::two_d_a()
        } else {
            ChipFloorplan::three_d_2a()
        };
        ThermalResult::new(plan, grid, fields, Celsius(47.0), 1)
    }

    #[test]
    fn peak_and_mean() {
        let r = result_with(vec![vec![50.0, 60.0, 70.0, 80.0]], 2);
        assert_eq!(r.peak(), Celsius(80.0));
        assert_eq!(r.mean(), Celsius(65.0));
        assert_eq!(r.die_peak(0), Celsius(80.0));
    }

    #[test]
    fn hottest_cell_location() {
        let r = result_with(vec![vec![50.0, 60.0, 70.0, 80.0]], 2);
        assert_eq!(r.hottest_cell(), (0, 1, 1));
    }

    #[test]
    fn missing_block_returns_none() {
        let r = result_with(vec![vec![50.0; 4]], 2);
        // 2d-a has no checker.
        assert!(r.block_peak(BlockId::Checker).is_none());
    }

    #[test]
    fn multi_die_peak_spans_dies() {
        let r = result_with(vec![vec![50.0; 4], vec![55.0, 90.0, 55.0, 55.0]], 2);
        assert_eq!(r.peak(), Celsius(90.0));
        assert_eq!(r.die_peak(0), Celsius(50.0));
        assert_eq!(r.die_peak(1), Celsius(90.0));
    }
}
