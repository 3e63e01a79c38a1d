//! `fig4-paper-grid`: `fig4::run_with` on the CLI's default gzip/mcf/swim
//! set at the paper's 50×50 thermal grid, with `nproc` sweep workers.
//! Most host time is `thermal::solve` on the calling thread. This is
//! also the workload that measures thermal accuracy, against a
//! converged reference stored with the benchmark.

use crate::harness::{RunCfg, Unit, Workload};
use crate::sweep_cold::{busy_frac, JobSpans};
use crate::trace::Tracer;
use rmt3d::experiments::fig4::{self, Fig4Result, CHECKER_POWERS_W};
use rmt3d::floorplan::ChipFloorplan;
use rmt3d::power::CheckerPowerModel;
use rmt3d::telemetry::NullSink;
use rmt3d::thermal::{solve, ThermalConfig};
use rmt3d::units::Watts;
use rmt3d::workload::Benchmark;
use rmt3d::{
    build_power_map, override_checker_power, PerfResult, PowerMapConfig, ProcessorModel, RunScale,
    SimConfig, Simulator,
};
use rmt3d_sweep::{run_sweep, JobSpec, ParallelSimulator, SweepOptions};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// The CLI's default experiment set.
pub const BENCHMARKS: [Benchmark; 3] = [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim];

/// The CLI's default experiment scale: 50×50 grid, as in the paper.
pub const SCALE: RunScale = RunScale {
    warmup_instructions: 50_000,
    instructions: 250_000,
    thermal_grid: 50,
};

/// Fig. 4's model order; `simulate_batch` receives model-major jobs.
const MODELS: [ProcessorModel; 4] = [
    ProcessorModel::TwoDA,
    ProcessorModel::TwoD2A,
    ProcessorModel::ThreeD2A,
    ProcessorModel::ThreeDChecker,
];

/// Per-sweep max |ΔT| the reference solves stop at: six decades below
/// the paper tolerance of 1e-4 K.
pub const REFERENCE_TOLERANCE: f64 = 1e-10;

/// Converged peaks, one line per model, floorplan, checker power and
/// benchmark; regenerate with `rmtbench reference fig4`.
const REFERENCE: &str = include_str!("../reference/fig4_thermal.tsv");

/// The floorplan a point is solved on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Plan {
    Model,
    Corner,
    Dense,
}

impl Plan {
    fn name(self) -> &'static str {
        match self {
            Plan::Model => "model",
            Plan::Corner => "corner",
            Plan::Dense => "dense",
        }
    }

    fn floorplan(self, model: ProcessorModel) -> ChipFloorplan {
        match self {
            Plan::Model => model.floorplan(),
            Plan::Corner => ChipFloorplan::three_d_2a_corner_checker(),
            Plan::Dense => ChipFloorplan::three_d_2a_dense_checker(),
        }
    }
}

/// One Fig. 4 value: the benchmark-mean peak of `model`'s runs on
/// `plan` at checker power `watts`.
#[derive(Debug, Clone, Copy)]
struct Point {
    model: ProcessorModel,
    plan: Plan,
    watts: f64,
}

/// Every Fig. 4 value, in the order of [`values`].
fn points() -> Vec<Point> {
    let p = |model, plan, watts| Point { model, plan, watts };
    let mut v = vec![p(ProcessorModel::TwoDA, Plan::Model, 0.0)];
    for w in CHECKER_POWERS_W {
        v.push(p(ProcessorModel::TwoD2A, Plan::Model, w));
        v.push(p(ProcessorModel::ThreeD2A, Plan::Model, w));
    }
    for w in [7.0, 15.0] {
        v.push(p(ProcessorModel::ThreeD2A, Plan::Model, w));
        v.push(p(ProcessorModel::ThreeDChecker, Plan::Model, w));
        v.push(p(ProcessorModel::ThreeD2A, Plan::Corner, w));
        v.push(p(ProcessorModel::ThreeD2A, Plan::Dense, w));
    }
    v
}

/// A Fig. 4 result flattened in the order of [`points`].
fn values(r: &Fig4Result) -> Vec<f64> {
    let mut v = vec![r.baseline_2d_a.0];
    for p in &r.points {
        v.push(p.two_d_2a.0);
        v.push(p.three_d_2a.0);
    }
    for x in &r.variants {
        v.extend([
            x.default_3d.0,
            x.inactive_silicon.0,
            x.corner_checker.0,
            x.dense_checker.0,
        ]);
    }
    v
}

type Key = (String, &'static str, u64, String);

fn key(model: ProcessorModel, plan: Plan, watts: f64, b: Benchmark) -> Key {
    (
        model.name().to_string(),
        plan.name(),
        watts.to_bits(),
        b.name().to_string(),
    )
}

fn parse_reference(text: &str) -> Result<BTreeMap<Key, f64>, String> {
    let plans = [Plan::Model, Plan::Corner, Plan::Dense];
    let mut map = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [model, plan, watts, bench, peak] = f[..] else {
            return Err(format!("bad reference line {line:?}"));
        };
        let plan = plans
            .into_iter()
            .find(|p| p.name() == plan)
            .ok_or_else(|| format!("unknown plan in {line:?}"))?;
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
        map.insert(
            (
                model.to_string(),
                plan.name(),
                num(watts)?.to_bits(),
                bench.to_string(),
            ),
            num(peak)?,
        );
    }
    Ok(map)
}

/// Peak of one benchmark's run at one point, as `fig4` computes it.
fn peak(perf: &PerfResult, plan: Plan, watts: f64, cfg: &ThermalConfig) -> Result<f64, String> {
    let mut chip = build_power_map(
        perf,
        &PowerMapConfig::with_checker(CheckerPowerModel::with_peak(Watts(watts))),
    );
    if perf.model.has_checker() {
        override_checker_power(&mut chip, Watts(watts));
    }
    let r = solve(&plan.floorplan(perf.model), &chip.map, cfg).map_err(|e| e.to_string())?;
    Ok(r.peak().0)
}

fn reference_config() -> ThermalConfig {
    ThermalConfig {
        grid: SCALE.thermal_grid,
        tolerance: REFERENCE_TOLERANCE,
        max_iters: 2_000_000,
        ..ThermalConfig::paper()
    }
}

/// The reference value of every Fig. 4 point: the mean of the
/// converged per-benchmark peaks.
fn reference_points(reference: &BTreeMap<Key, f64>) -> Result<Vec<f64>, String> {
    points()
        .iter()
        .map(|p| {
            let mut acc = 0.0;
            for b in BENCHMARKS {
                acc += reference
                    .get(&key(p.model, p.plan, p.watts, b))
                    .ok_or_else(|| format!("no reference for {p:?} {}", b.name()))?;
            }
            Ok(acc / BENCHMARKS.len() as f64)
        })
        .collect()
}

/// The Fig. 4 bands of EXPERIMENTS.md: both sweeps monotone in checker
/// power, and 3d-2a hotter than 2d-2a from 7 W up.
fn band_failures(r: &Fig4Result) -> Vec<String> {
    let mut out = Vec::new();
    for w in r.points.windows(2) {
        if w[1].three_d_2a < w[0].three_d_2a || w[1].two_d_2a < w[0].two_d_2a {
            out.push(format!(
                "fig4 not monotone between {} W and {} W",
                w[0].checker_power.0, w[1].checker_power.0
            ));
        }
    }
    for p in r.points.iter().filter(|p| p.checker_power.0 >= 7.0) {
        if p.three_d_2a <= p.two_d_2a {
            out.push(format!(
                "fig4 at {} W: 3d-2a {} not hotter than 2d-2a {}",
                p.checker_power.0, p.three_d_2a.0, p.two_d_2a.0
            ));
        }
    }
    out
}

/// The `Simulator` handed to `fig4::run_with`: what a `ParallelSimulator`
/// does, with its batches timed and kept. Every batch goes through
/// `run_sweep` with the same options; traced, the sink records a span
/// per job instead of discarding the events.
pub struct BatchTimer<'a> {
    workers: usize,
    tracer: Option<(&'a Tracer, usize)>,
    batch_s: Cell<f64>,
    busy_frac: Cell<f64>,
    perfs: RefCell<Vec<PerfResult>>,
}

impl<'a> BatchTimer<'a> {
    /// A timer over `workers` workers; spans go under `tracer`'s span.
    pub fn new(workers: usize, tracer: Option<(&'a Tracer, usize)>) -> BatchTimer<'a> {
        BatchTimer {
            workers,
            tracer,
            batch_s: Cell::new(0.0),
            busy_frac: Cell::new(0.0),
            perfs: RefCell::new(Vec::new()),
        }
    }

    /// Host seconds spent inside `simulate_batch`.
    pub fn batch_s(&self) -> f64 {
        self.batch_s.get()
    }

    /// Busy share of the pool over the last batch.
    pub fn busy_frac(&self) -> f64 {
        self.busy_frac.get()
    }

    /// Every result the batches produced.
    pub fn take_perfs(&self) -> Vec<PerfResult> {
        self.perfs.take()
    }
}

impl Simulator for BatchTimer<'_> {
    fn simulate(&self, cfg: &SimConfig, benchmark: Benchmark) -> PerfResult {
        rmt3d::simulate(cfg, benchmark)
    }

    fn simulate_batch(&self, jobs: &[(SimConfig, Benchmark)]) -> Vec<PerfResult> {
        let t = Instant::now();
        let specs = jobs
            .iter()
            .enumerate()
            .map(|(index, (cfg, benchmark))| JobSpec {
                index,
                cfg: cfg.clone(),
                benchmark: *benchmark,
            })
            .collect();
        let opts = SweepOptions {
            jobs: self.workers,
            ..SweepOptions::default()
        };
        let report = match self.tracer {
            None => run_sweep(specs, &opts, &mut NullSink),
            Some((tr, parent)) => {
                let span = tr.begin("core.simulate_batch", Some(parent), None);
                let report = run_sweep(specs, &opts, &mut JobSpans::new(tr, span));
                tr.end(span);
                report
            }
        }
        .unwrap_or_else(|e| panic!("sweep engine: {e}"));
        let out = report.results().unwrap_or_else(|e| panic!("{e}"));
        self.batch_s
            .set(self.batch_s.get() + t.elapsed().as_secs_f64());
        self.busy_frac.set(busy_frac(&report, self.workers));
        self.perfs.borrow_mut().extend(out.iter().cloned());
        out
    }
}

/// Simulated instructions of a batch, warm-up included.
fn sim_instr(perfs: &[PerfResult], scale: RunScale) -> u64 {
    perfs
        .iter()
        .map(|p| p.leader.committed + scale.warmup_instructions)
        .sum()
}

/// Set-up output: the converged reference of every point.
pub struct State {
    reference: Vec<f64>,
}

/// The workload.
pub struct Fig4PaperGrid;

impl Workload for Fig4PaperGrid {
    type State = State;

    fn setup(&self, _cfg: &RunCfg, _rep: usize) -> Result<State, String> {
        Ok(State {
            reference: reference_points(&parse_reference(REFERENCE)?)?,
        })
    }

    fn unit(
        &self,
        st: &mut State,
        cfg: &RunCfg,
        _index: usize,
        tracer: Option<&Tracer>,
    ) -> Result<Unit, String> {
        let t = Instant::now();
        let window_start = tracer.map(Tracer::now_ns);
        let top = tracer.map(|tr| tr.begin("fig4.run_with", None, None));
        let sim = BatchTimer::new(cfg.workers, tracer.zip(top));
        let result = fig4::run_with(&sim, &BENCHMARKS, SCALE).map_err(|e| e.to_string())?;
        if let (Some(tr), Some(id)) = (tracer, top) {
            tr.end(id);
        }
        let wall_s = t.elapsed().as_secs_f64();

        let got = values(&result);
        let mut u = Unit {
            wall_s,
            jobs: got.len() as u64,
            sim_instr: sim_instr(&sim.take_perfs(), SCALE),
            window_ns: tracer.zip(window_start).map(|(tr, s)| (s, tr.now_ns())),
            ..Unit::default()
        };
        for _ in &got {
            u.ops.record(true);
        }
        for f in band_failures(&result) {
            u.fail(f);
        }
        u.thermal_err_k = Some(
            got.iter()
                .zip(&st.reference)
                .map(|(g, r)| (g - r).abs())
                .fold(0.0, f64::max),
        );
        if tracer.is_some() {
            u.layer.extend([
                ("core.simulate_batch_s", sim.batch_s()),
                ("thermal.self_frac", (wall_s - sim.batch_s()) / wall_s),
                ("sweep.busy_frac", sim.busy_frac()),
            ]);
        }
        Ok(u)
    }

    fn finish(&self, _st: State, _cfg: &RunCfg, _units: &mut [Unit]) -> Result<(), String> {
        Ok(())
    }
}

/// `thermal_peak_err_k` for workloads that solve no thermals: the same
/// error at one fixed point (3d-2a, gzip, 15 W checker, paper grid).
pub fn accuracy_probe() -> Result<f64, String> {
    let reference = parse_reference(REFERENCE)?;
    let model = ProcessorModel::ThreeD2A;
    let b = Benchmark::Gzip;
    let perf = rmt3d::simulate(&SimConfig::nominal(model, SCALE), b);
    let cfg = ThermalConfig {
        grid: SCALE.thermal_grid,
        ..ThermalConfig::paper()
    };
    let got = peak(&perf, Plan::Model, 15.0, &cfg)?;
    let want = reference
        .get(&key(model, Plan::Model, 15.0, b))
        .ok_or("no reference for the accuracy probe point")?;
    Ok((got - want).abs())
}

/// Regenerates the reference table: every distinct (model, floorplan,
/// checker power, benchmark) of Fig. 4, solved at
/// [`REFERENCE_TOLERANCE`]. Also reports on stderr how far the hottest
/// point still moves when the tolerance is tightened tenfold.
pub fn write_reference(workers: usize) -> Result<String, String> {
    let jobs: Vec<(SimConfig, Benchmark)> = MODELS
        .iter()
        .flat_map(|&m| BENCHMARKS.map(|b| (SimConfig::nominal(m, SCALE), b)))
        .collect();
    let perfs = ParallelSimulator::new(workers).simulate_batch(&jobs);
    let perf_of = |m: ProcessorModel, b: Benchmark| {
        perfs
            .iter()
            .find(|p| p.model == m && p.benchmark == b)
            .expect("every model × benchmark was simulated")
    };
    let cfg = reference_config();
    let mut done = BTreeMap::new();
    for p in points() {
        for b in BENCHMARKS {
            let k = key(p.model, p.plan, p.watts, b);
            if done.contains_key(&k) {
                continue;
            }
            let v = peak(perf_of(p.model, b), p.plan, p.watts, &cfg)?;
            eprintln!(
                "{} {} {} W {}: {v:.6} C",
                p.model.name(),
                p.plan.name(),
                p.watts,
                b.name()
            );
            done.insert(k, (p, b, v));
        }
    }
    let hottest = done
        .values()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("points exist");
    let tighter = ThermalConfig {
        tolerance: REFERENCE_TOLERANCE / 10.0,
        ..cfg
    };
    let again = peak(
        perf_of(hottest.0.model, hottest.1),
        hottest.0.plan,
        hottest.0.watts,
        &tighter,
    )?;
    let moved = (again - hottest.2).abs();
    eprintln!(
        "hottest point moves {moved:.3e} K at tolerance {:e}",
        tighter.tolerance
    );

    let mut out = format!(
        "# fig4-paper-grid converged reference: model, floorplan, checker W, benchmark, peak C\n\
         # thermal::solve at grid {} and tolerance {REFERENCE_TOLERANCE:e} K \
         (the hottest point moves {moved:.1e} K at a tenfold tighter tolerance)\n\
         # regenerate with `rmtbench reference fig4`\n",
        SCALE.thermal_grid
    );
    for (p, b, v) in done.values() {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{v}\n",
            p.model.name(),
            p.plan.name(),
            p.watts,
            b.name()
        ));
    }
    Ok(out)
}
