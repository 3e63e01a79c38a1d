//! Steady-state 3D thermal grid solver (HotSpot-style finite volumes).
//!
//! Each stack layer is discretized into `grid x grid` cells. Cells
//! conduct laterally within a layer and vertically to the layers above
//! and below; the bottom face convects into the ambient through the
//! calibrated sink coefficient; all other outer faces are adiabatic
//! (standard HotSpot secondary-path simplification). The resulting
//! linear system `G·θ = P` for the rise `θ = T − ambient` is solved by
//! conjugate gradients preconditioned with one geometric-multigrid
//! V-cycle per iteration.
//!
//! The V-cycle smooths with z-line Gauss-Seidel (an exact tridiagonal
//! solve per vertical column: forward column order before coarsening,
//! backward after, so the preconditioner is symmetric) and coarsens
//! 2×2 lateral aggregates whose links are the sums of the fine links
//! they replace (the Galerkin operator of piecewise-constant
//! interpolation), down to a single column that the smoother solves
//! exactly.
//!
//! The solve stops on a certified bound rather than on step size. `G`
//! is an irreducible M-matrix, so `G⁻¹ ≥ 0` entrywise and the error of
//! an iterate satisfies `‖θ − θ*‖∞ ≤ ‖G⁻¹‖∞·‖P − G·θ‖∞`, where
//! `‖G⁻¹‖∞ = max(G⁻¹·1)`. With 1 W in every cell each column carries
//! the same heat, so `G⁻¹·1` is laterally uniform and its maximum has
//! the closed form [`Conductances::inverse_norm`]. The residual is
//! recomputed from `θ` every iteration.

use crate::model::{layer_stack, LayerSpec, PowerMap, ThermalConfig};
use crate::result::ThermalResult;
use rmt3d_floorplan::ChipFloorplan;
use rmt3d_telemetry::{emit, Event, NullSink, Sink};
use rmt3d_units::Celsius;

/// Errors from a thermal solve.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The configuration failed validation.
    BadConfig(String),
    /// The certified error bound did not reach `tolerance`: the
    /// iteration cap was hit, the bound stopped improving (the f64
    /// rounding floor, about 1e-9 K at grid 50), or conjugate gradients
    /// broke down.
    NotConverged {
        /// The best error bound reached, in kelvin (always finite).
        residual: f64,
    },
}

impl std::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThermalError::BadConfig(msg) => write!(f, "invalid thermal configuration: {msg}"),
            ThermalError::NotConverged { residual } => {
                write!(
                    f,
                    "thermal solver did not converge (error bound {residual:.2e} K)"
                )
            }
        }
    }
}

impl std::error::Error for ThermalError {}

/// Iterations without a new best bound after which a solve is declared
/// stalled at the rounding floor.
const STALL_ITERS: usize = 10;

/// Solves the steady-state temperature field of `plan` under `power`.
///
/// # Errors
///
/// Returns [`ThermalError::BadConfig`] for invalid configurations and
/// [`ThermalError::NotConverged`] if the error bound cannot reach
/// `cfg.tolerance`.
pub fn solve(
    plan: &ChipFloorplan,
    power: &PowerMap,
    cfg: &ThermalConfig,
) -> Result<ThermalResult, ThermalError> {
    solve_traced(plan, power, cfg, &mut NullSink)
}

/// Like [`solve`], additionally reporting each iteration's certified
/// error bound (K) to `sink` as an [`Event::SolverIteration`] (for
/// convergence plots).
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_traced<S: Sink>(
    plan: &ChipFloorplan,
    power: &PowerMap,
    cfg: &ThermalConfig,
    sink: &mut S,
) -> Result<ThermalResult, ThermalError> {
    cfg.validate().map_err(ThermalError::BadConfig)?;
    let n = cfg.grid;
    let layers = layer_stack(plan, cfg);
    let nl = layers.len();

    // Geometry in metres.
    let die_w = plan.dies[0].width * 1e-3;
    let die_h = plan.dies[0].height * 1e-3;
    let cw = die_w / n as f64;
    let ch = die_h / n as f64;
    let g = Conductances::new(&layers, cw, ch, cfg.sink_h);

    // Rasterize power onto the injection layers. Unknowns are stored
    // column-major: the `nl` layers of cell (i, j) are contiguous.
    let mut p = vec![0.0f64; nl * n * n];
    for (li, layer) in layers.iter().enumerate() {
        let Some(die_idx) = layer.injects_die else {
            continue;
        };
        let die = &plan.dies[die_idx];
        for block in &die.blocks {
            let w = power.get(block.id).0;
            if w == 0.0 {
                continue;
            }
            let density = w / (block.rect.w * block.rect.h); // W per mm^2
                                                             // Overlap of the block with each covered cell (mm units).
            let cw_mm = cw * 1e3;
            let ch_mm = ch * 1e3;
            let i0 = (block.rect.x / cw_mm).floor().max(0.0) as usize;
            let i1 = ((block.rect.right() / cw_mm).ceil() as usize).min(n);
            let j0 = (block.rect.y / ch_mm).floor().max(0.0) as usize;
            let j1 = ((block.rect.top() / ch_mm).ceil() as usize).min(n);
            for i in i0..i1 {
                for j in j0..j1 {
                    let ox = (block.rect.right().min((i + 1) as f64 * cw_mm)
                        - block.rect.x.max(i as f64 * cw_mm))
                    .max(0.0);
                    let oy = (block.rect.top().min((j + 1) as f64 * ch_mm)
                        - block.rect.y.max(j as f64 * ch_mm))
                    .max(0.0);
                    p[(j * n + i) * nl + li] += density * ox * oy;
                }
            }
        }
    }

    let (rise, iters) = pcg(&g, n, &p, cfg, sink)?;

    // Extract per-die active-layer temperature fields.
    let amb = cfg.ambient.0;
    let mut die_fields = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        if let Some(die_idx) = layer.injects_die {
            let field: Vec<f64> = rise.iter().skip(li).step_by(nl).map(|r| amb + r).collect();
            die_fields.push((die_idx, field));
        }
    }
    die_fields.sort_by_key(|(d, _)| *d);
    Ok(ThermalResult::new(
        plan.clone(),
        n,
        die_fields.into_iter().map(|(_, f)| f).collect(),
        Celsius(amb),
        iters,
    ))
}

/// Per-layer conductances of one fine-grid cell, W/K.
///
/// A grid level whose aggregate `I` spans `w[I]` fine cells per side
/// has the summed links: east-west `gx[l]·w[J]`, north-south
/// `gy[l]·w[I]`, vertical `gv[l]·w[I]·w[J]`, sink `sink·w[I]·w[J]`. The
/// fine grid is the level with every `w` equal to 1.
#[derive(Debug)]
struct Conductances {
    /// East-west link inside each layer.
    gx: Vec<f64>,
    /// North-south link inside each layer.
    gy: Vec<f64>,
    /// Link between layer `l` and `l + 1`.
    gv: Vec<f64>,
    /// Bottom face of layer 0 to the ambient.
    sink: f64,
}

impl Conductances {
    /// The conductances of `cw x ch` m cells in `layers`, with the
    /// bottom face convecting through a sink of `sink_h` W/(m²·K).
    fn new(layers: &[LayerSpec], cw: f64, ch: f64, sink_h: f64) -> Conductances {
        let cell_area = cw * ch;
        Conductances {
            // Lateral conductances per layer (uniform cells): `gx`
            // couples east-west neighbours, `gy` north-south.
            gx: layers
                .iter()
                .map(|l| l.conductivity * (l.thickness_um * 1e-6 * ch) / cw)
                .collect(),
            gy: layers
                .iter()
                .map(|l| l.conductivity * (l.thickness_um * 1e-6 * cw) / ch)
                .collect(),
            // Vertical conductance between layer l and l+1 (series of
            // half thicknesses).
            gv: layers
                .windows(2)
                .map(|w| {
                    let r = (w[0].thickness_um * 1e-6) / (2.0 * w[0].conductivity)
                        + (w[1].thickness_um * 1e-6) / (2.0 * w[1].conductivity);
                    cell_area / r
                })
                .collect(),
            // Bottom-face sink conductance per cell (through half the
            // spreader).
            sink: 1.0
                / (1.0 / (sink_h * cell_area)
                    + (layers[0].thickness_um * 1e-6) / (2.0 * layers[0].conductivity) / cell_area),
        }
    }

    fn layers(&self) -> usize {
        self.gx.len()
    }

    /// `‖G⁻¹‖∞ = max(G⁻¹·1)` in K/W. With 1 W per cell every column is
    /// alike, so no heat flows laterally: the sink carries `nl` W per
    /// column and the link above layer `k` carries `nl − 1 − k` W, and
    /// the top layer is hottest.
    fn inverse_norm(&self) -> f64 {
        let nl = self.layers();
        nl as f64 / self.sink
            + self
                .gv
                .iter()
                .enumerate()
                .map(|(k, g)| (nl - 1 - k) as f64 / g)
                .sum::<f64>()
    }

    /// `out = A·x` on the level with aggregate widths `w`.
    fn apply(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        let m = w.len();
        let nl = self.layers();
        // Vertical links and the sink, column by column.
        let mut columns = x.chunks_exact(nl).zip(out.chunks_exact_mut(nl));
        for wj in w {
            for (wi, (xc, oc)) in w.iter().zip(&mut columns) {
                let area = wi * wj;
                oc[0] = self.sink * area * xc[0];
                oc[1..].fill(0.0);
                for l in 0..nl - 1 {
                    let f = self.gv[l] * area * (xc[l] - xc[l + 1]);
                    oc[l] += f;
                    oc[l + 1] -= f;
                }
            }
        }
        // East-west links inside each row, then north-south links
        // between neighbouring rows.
        let row = m * nl;
        for (wj, (xr, or)) in w
            .iter()
            .zip(x.chunks_exact(row).zip(out.chunks_exact_mut(row)))
        {
            for a in (0..row - nl).step_by(nl) {
                for l in 0..nl {
                    let f = self.gx[l] * wj * (xr[a + l] - xr[a + nl + l]);
                    or[a + l] += f;
                    or[a + nl + l] -= f;
                }
            }
        }
        for j in 0..m.saturating_sub(1) {
            let (below, above) = out.split_at_mut((j + 1) * row);
            let (ob, oa) = (&mut below[j * row..], &mut above[..row]);
            let (xb, xa) = (&x[j * row..(j + 1) * row], &x[(j + 1) * row..(j + 2) * row]);
            for (a, wi) in (0..row).step_by(nl).zip(w) {
                for l in 0..nl {
                    let f = self.gy[l] * wi * (xb[a + l] - xa[a + l]);
                    ob[a + l] += f;
                    oa[a + l] -= f;
                }
            }
        }
    }
}

/// One multigrid level: the aggregate widths, the factorised column
/// solves of its z-line smoother, and the right-hand side and the
/// approximate solution of the V-cycle at this level.
struct Level {
    /// Fine cells per side of each aggregate, along either axis.
    w: Vec<f64>,
    /// Shape of each axis index (its width and how many lateral
    /// neighbours it has), as an index into the shapes `factors` holds.
    shape: Vec<usize>,
    /// Number of distinct shapes.
    shapes: usize,
    /// Per pair of shapes (row, column) and per layer: the reciprocal
    /// pivot and the upper multiplier of the column's tridiagonal
    /// factorisation (Thomas algorithm).
    factors: Vec<[f64; 2]>,
    b: Vec<f64>,
    x: Vec<f64>,
}

impl Level {
    fn new(g: &Conductances, w: Vec<f64>) -> Level {
        let (m, nl) = (w.len(), g.layers());
        let neighbours = |i: usize| f64::from(u8::from(i > 0) + u8::from(i + 1 < m));
        let mut keys: Vec<(f64, f64)> = Vec::new();
        let shape = (0..m)
            .map(|i| {
                let key = (w[i], neighbours(i));
                keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
            .collect();
        let mut factors = Vec::with_capacity(keys.len() * keys.len() * nl);
        for &(wj, nj) in &keys {
            for &(wi, ni) in &keys {
                let area = wi * wj;
                let mut upper = 0.0;
                for l in 0..nl {
                    // Row l: diag·x[l] − down·x[l−1] − up·x[l+1] = rhs.
                    let down = if l > 0 { g.gv[l - 1] } else { g.sink } * area;
                    let up = if l + 1 < nl { g.gv[l] * area } else { 0.0 };
                    let diag = g.gx[l] * wj * ni + g.gy[l] * wi * nj + down + up;
                    let coupled = if l > 0 { down } else { 0.0 };
                    let inv = 1.0 / (diag - coupled * upper);
                    upper = up * inv;
                    factors.push([inv, upper]);
                }
            }
        }
        Level {
            shape,
            shapes: keys.len(),
            factors,
            b: vec![0.0; m * m * nl],
            x: vec![0.0; m * m * nl],
            w,
        }
    }

    /// One z-line Gauss-Seidel sweep of `A·x = b` over the columns in
    /// row-major order, or in the reverse order when `backward` (the
    /// adjoint sweep, which keeps the V-cycle symmetric). Each column's
    /// layers are solved exactly with the lateral neighbours held at
    /// their latest values. `elim` is scratch of one entry per layer.
    fn sweep(&mut self, g: &Conductances, backward: bool, elim: &mut [f64]) {
        let (m, nl) = (self.w.len(), g.layers());
        let (w, b, x) = (&self.w, &self.b, &mut self.x);
        let order = |k: usize| if backward { m - 1 - k } else { k };
        let columns = (0..m).flat_map(|j| (0..m).map(move |i| (order(i), order(j))));
        for (i, j) in columns {
            let c = (j * m + i) * nl;
            let f = &self.factors[(self.shape[j] * self.shapes + self.shape[i]) * nl..][..nl];
            let area = w[i] * w[j];
            let mut below = 0.0;
            for l in 0..nl {
                let ex = g.gx[l] * w[j];
                let ny = g.gy[l] * w[i];
                let mut rhs = b[c + l];
                if i > 0 {
                    rhs += ex * x[c + l - nl];
                }
                if i + 1 < m {
                    rhs += ex * x[c + l + nl];
                }
                if j > 0 {
                    rhs += ny * x[c + l - m * nl];
                }
                if j + 1 < m {
                    rhs += ny * x[c + l + m * nl];
                }
                if l > 0 {
                    rhs += g.gv[l - 1] * area * below;
                }
                below = rhs * f[l][0];
                elim[l] = below;
            }
            let mut above = 0.0;
            for l in (0..nl).rev() {
                above = elim[l] + f[l][1] * above;
                x[c + l] = above;
            }
        }
    }
}

/// The multigrid hierarchy of an `n x n` grid, fine level first, down
/// to a single column. Allocated once per solve.
fn hierarchy(g: &Conductances, n: usize) -> Vec<Level> {
    let mut levels = vec![Level::new(g, vec![1.0; n])];
    while let Some(w) = levels.last().map(|l| &l.w).filter(|w| w.len() > 1) {
        let coarse = w.chunks(2).map(|c| c.iter().sum()).collect();
        levels.push(Level::new(g, coarse));
    }
    levels
}

/// Applies the V-cycle preconditioner: `levels[0].x ≈ A⁻¹·levels[0].b`.
/// `scratch` holds at least one vector of the finest level.
fn v_cycle(g: &Conductances, levels: &mut [Level], scratch: &mut [f64], elim: &mut [f64]) {
    let Some((fine, coarser)) = levels.split_first_mut() else {
        return;
    };
    fine.x.fill(0.0);
    fine.sweep(g, false, elim);
    let Some(coarse) = coarser.first_mut() else {
        // A single column: the sweep above solved it exactly.
        return;
    };
    let (m, mc, nl) = (fine.w.len(), coarse.w.len(), g.layers());
    let ax = &mut scratch[..fine.x.len()];
    g.apply(&fine.w, &fine.x, ax);
    coarse.b.fill(0.0);
    for j in 0..m {
        for i in 0..m {
            let k = (j * m + i) * nl;
            let kc = ((j / 2) * mc + i / 2) * nl;
            for l in 0..nl {
                coarse.b[kc + l] += fine.b[k + l] - ax[k + l];
            }
        }
    }
    v_cycle(g, coarser, scratch, elim);
    let coarse = &coarser[0];
    for j in 0..m {
        for i in 0..m {
            let k = (j * m + i) * nl;
            let kc = ((j / 2) * mc + i / 2) * nl;
            for l in 0..nl {
                fine.x[k + l] += coarse.x[kc + l];
            }
        }
    }
    fine.sweep(g, true, elim);
}

/// `‖a − b‖∞`, NaN if any entry is NaN (`f64::max` would drop it).
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = (x - y).abs();
        if d.is_nan() {
            return f64::NAN;
        }
        worst = worst.max(d);
    }
    worst
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `G·θ = p` on the `n x n` grid by multigrid-preconditioned
/// conjugate gradients from `θ = 0`. Returns the rise field and the
/// iteration count once `‖G⁻¹‖∞·‖p − G·θ‖∞ ≤ cfg.tolerance`.
fn pcg<S: Sink>(
    g: &Conductances,
    n: usize,
    p: &[f64],
    cfg: &ThermalConfig,
    sink: &mut S,
) -> Result<(Vec<f64>, usize), ThermalError> {
    let theta1 = g.inverse_norm();
    let mut levels = hierarchy(g, n);
    let mut elim = vec![0.0; g.layers()];
    let fine_w = levels[0].w.clone();
    let mut t = vec![0.0; p.len()];
    let mut q = vec![0.0; p.len()];
    // The CG residual lives in the fine level's `b`, the preconditioned
    // residual in its `x`. From `θ = 0` both `G·θ` (in `q`) and `p − r`
    // are zero.
    levels[0].b.copy_from_slice(p);
    let mut best = theta1 * max_abs_diff(p, &q);
    if best <= cfg.tolerance {
        return Ok((t, 0));
    }
    let (mut iters, mut best_at) = (0, 0);
    v_cycle(g, &mut levels, &mut q, &mut elim);
    let mut dir = levels[0].x.clone();
    let mut rz = dot(&levels[0].b, &levels[0].x);
    while iters < cfg.max_iters && iters - best_at < STALL_ITERS && rz.is_finite() && rz > 0.0 {
        g.apply(&fine_w, &dir, &mut q);
        let pq = dot(&dir, &q);
        if !(pq.is_finite() && pq > 0.0) {
            break;
        }
        let alpha = rz / pq;
        for ((tk, rk), (dk, qk)) in t.iter_mut().zip(&mut levels[0].b).zip(dir.iter().zip(&q)) {
            *tk += alpha * dk;
            *rk -= alpha * qk;
        }
        iters += 1;
        g.apply(&fine_w, &t, &mut q);
        let bound = theta1 * max_abs_diff(p, &q);
        emit(sink, || Event::SolverIteration {
            iteration: iters as u64,
            residual: bound,
        });
        if bound <= cfg.tolerance {
            return Ok((t, iters));
        }
        if !bound.is_finite() {
            break;
        }
        if bound < best {
            (best, best_at) = (bound, iters);
        }
        v_cycle(g, &mut levels, &mut q, &mut elim);
        let rz_next = dot(&levels[0].b, &levels[0].x);
        let beta = rz_next / rz;
        rz = rz_next;
        for (dk, zk) in dir.iter_mut().zip(&levels[0].x) {
            *dk = zk + beta * *dk;
        }
    }
    Err(ThermalError::NotConverged { residual: best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::table3;
    use rmt3d_floorplan::BlockId;
    use rmt3d_power::CoreBlock;

    use rmt3d_units::Watts;

    fn uniform_map(plan: &ChipFloorplan, total: f64) -> PowerMap {
        let mut m = PowerMap::new();
        let nblocks: usize = plan.dies.iter().map(|d| d.blocks.len()).sum();
        for die in &plan.dies {
            for b in &die.blocks {
                m.set(b.id, Watts(total / nblocks as f64));
            }
        }
        m
    }

    #[test]
    fn zero_power_sits_at_ambient() {
        let plan = ChipFloorplan::two_d_a();
        let r = solve(&plan, &PowerMap::new(), &ThermalConfig::fast()).unwrap();
        assert!((r.peak().0 - 47.0).abs() < 1e-3, "peak {}", r.peak());
    }

    #[test]
    fn uniform_power_heats_uniformly_above_ambient() {
        let plan = ChipFloorplan::two_d_a();
        let cfg = ThermalConfig::fast();
        let r = solve(&plan, &uniform_map(&plan, 45.0), &cfg).unwrap();
        assert!(r.peak().0 > 50.0, "heated: {}", r.peak());
        // Energy balance: under uniform power the mean active-layer rise
        // equals P times the series resistance of sink + spreader + bulk
        // (+ half the active/metal layer) over the die area.
        let area = plan.dies[0].area().0 * 1e-6;
        let r_stack = 1.0 / cfg.sink_h
            + cfg.spreader_um * 1e-6 / cfg.spreader_k
            + table3::BULK_DIE1_UM * 1e-6 / table3::K_SI
            + (table3::ACTIVE_UM + table3::METAL_UM) * 1e-6 / (2.0 * table3::K_METAL);
        let expected = 45.0 * r_stack / area;
        let mean_rise = r.mean().0 - 47.0;
        assert!(
            (mean_rise - expected).abs() / expected < 0.10,
            "mean rise {mean_rise} vs conservation estimate {expected}"
        );
    }

    #[test]
    fn doubling_power_doubles_the_rise() {
        // The system is linear in power.
        let plan = ChipFloorplan::two_d_a();
        let cfg = ThermalConfig::fast();
        let r1 = solve(&plan, &uniform_map(&plan, 20.0), &cfg).unwrap();
        let r2 = solve(&plan, &uniform_map(&plan, 40.0), &cfg).unwrap();
        let rise1 = r1.peak().0 - 47.0;
        let rise2 = r2.peak().0 - 47.0;
        assert!((rise2 / rise1 - 2.0).abs() < 0.05, "{rise1} -> {rise2}");
    }

    #[test]
    fn concentrated_power_is_hotter_than_spread_power() {
        let plan = ChipFloorplan::two_d_a();
        let cfg = ThermalConfig::fast();
        let mut hot = PowerMap::new();
        hot.set(BlockId::Leader(CoreBlock::ExecInt), Watts(20.0));
        let spread = uniform_map(&plan, 20.0);
        let r_hot = solve(&plan, &hot, &cfg).unwrap();
        let r_spread = solve(&plan, &spread, &cfg).unwrap();
        assert!(
            r_hot.peak().0 > r_spread.peak().0 + 2.0,
            "hotspot {} vs spread {}",
            r_hot.peak(),
            r_spread.peak()
        );
    }

    #[test]
    fn upper_die_power_heats_more_than_lower_die_power() {
        // Heat from the stacked die must traverse the d2d layer and the
        // lower die to reach the sink — the core 3D thermal penalty.
        let plan = ChipFloorplan::three_d_2a();
        let cfg = ThermalConfig::fast();
        // Same power on same-sized, vertically aligned footprints: bank
        // (0,1) sits at x[0,2.48] y[3.6..], bank (1,3) at x[0,2.48]
        // y[3.25..] directly above it.
        let mut lower = PowerMap::new();
        lower.set(BlockId::L2Bank { die: 0, index: 1 }, Watts(10.0));
        let mut upper = PowerMap::new();
        upper.set(BlockId::L2Bank { die: 1, index: 3 }, Watts(10.0));
        let rl = solve(&plan, &lower, &cfg).unwrap();
        let ru = solve(&plan, &upper, &cfg).unwrap();
        assert!(
            ru.peak().0 > rl.peak().0,
            "upper {} should exceed lower {}",
            ru.peak(),
            rl.peak()
        );
    }

    #[test]
    fn larger_die_runs_cooler_at_equal_power() {
        // 2d-2a has twice the area (and effectively a larger sink).
        let small = ChipFloorplan::two_d_a();
        let large = ChipFloorplan::two_d_2a();
        let cfg = ThermalConfig::fast();
        let rs = solve(&small, &uniform_map(&small, 45.0), &cfg).unwrap();
        let rl = solve(&large, &uniform_map(&large, 45.0), &cfg).unwrap();
        assert!(rl.peak().0 < rs.peak().0);
    }

    #[test]
    fn closed_form_inverse_norm_is_the_rise_under_one_watt_per_cell() {
        // `max(G⁻¹·1)` is the peak rise with 1 W in every cell of every
        // layer, which a tight solve must reproduce in every column.
        let plan = ChipFloorplan::three_d_2a();
        let cfg = ThermalConfig {
            grid: 12,
            tolerance: 1e-6,
            ..ThermalConfig::paper()
        };
        let layers = layer_stack(&plan, &cfg);
        let (n, nl) = (cfg.grid, layers.len());
        let cw = plan.dies[0].width * 1e-3 / n as f64;
        let ch = plan.dies[0].height * 1e-3 / n as f64;
        let g = Conductances::new(&layers, cw, ch, cfg.sink_h);
        let (rise, _) = pcg(&g, n, &vec![1.0; nl * n * n], &cfg, &mut NullSink).unwrap();
        let theta1 = g.inverse_norm();
        for top in rise.chunks_exact(nl).map(|column| column[nl - 1]) {
            assert!(
                (top - theta1).abs() <= cfg.tolerance,
                "top rise {top} vs closed form {theta1}"
            );
        }
        let peak = rise.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((peak - theta1).abs() <= cfg.tolerance);
    }

    #[test]
    fn bad_config_is_rejected() {
        let cfg = ThermalConfig {
            grid: 1,
            ..ThermalConfig::fast()
        };
        let e = solve(&ChipFloorplan::two_d_a(), &PowerMap::new(), &cfg).unwrap_err();
        assert!(matches!(e, ThermalError::BadConfig(_)));
        assert!(!e.to_string().is_empty());
    }
}
