//! The run loop shared by every workload: repeated set-up, timed units
//! of fixed work, correctness accounting, and the traced variant.

use crate::stats::{median, Tally};
use crate::sys;
use crate::trace::{top_level_coverage, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest repeated set-ups after the timed units; `setup_s` is the
/// median of these and the set-up the units ran on.
pub const SETUP_MIN_REPS: usize = 6;
/// Cheap set-ups repeat until the repeats have taken this many host
/// seconds, so a set-up of a few milliseconds gets a median of many
/// samples.
pub const SETUP_MIN_S: f64 = 1.0;
/// Most repeated set-ups.
pub const SETUP_MAX_REPS: usize = 500;

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed; the only source of generated inputs.
    pub seed: u64,
    /// Host time to spend in timed units, to the nearest whole unit.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Worker threads and client connections the workload may use.
    pub workers: usize,
    /// Scratch directory for state, caches and span files.
    pub work_dir: PathBuf,
}

/// One execution of a workload's fixed work.
#[derive(Debug, Default)]
pub struct Unit {
    /// Host time of the fixed work, set-up and checks excluded.
    pub wall_s: f64,
    /// Jobs completed: sweep jobs, Fig. 4 points, daemon submissions or
    /// campaign trials.
    pub jobs: u64,
    /// Simulated leader-committed instructions, warm-up included.
    pub sim_instr: u64,
    /// Operations attempted and failed.
    pub ops: Tally,
    /// Descriptions of failed checks.
    pub failures: Vec<String>,
    /// Per-layer values measured on this unit (traced units only).
    pub layer: Vec<(&'static str, f64)>,
    /// Thermal accuracy against the converged reference, where the
    /// unit solves thermals.
    pub thermal_err_k: Option<f64>,
    /// The timed window on the tracer's clock (traced units only).
    pub window_ns: Option<(u64, u64)>,
    /// Peak resident set in MiB while the unit ran, where the kernel
    /// lets the high-water mark be reset before it.
    pub peak_rss_mb: Option<f64>,
    /// Per-operation samples a workload folds into layer values.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Unit {
    /// Records a failed check and counts it against an operation.
    pub fn fail(&mut self, msg: String) {
        self.ops.fail_counted();
        self.failures.push(msg);
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Whatever set-up produces and the units use.
    type State;

    /// Builds the state the timed units need. Timed as `setup_s`.
    ///
    /// # Errors
    ///
    /// Returns a message when set-up fails.
    fn setup(&self, cfg: &RunCfg, rep: usize) -> Result<Self::State, String>;

    /// Runs unit `index` of fixed work, with spans when `tracer` is set.
    ///
    /// # Errors
    ///
    /// Returns a message when the unit cannot run at all; failed
    /// operations and checks are reported in the [`Unit`] instead.
    fn unit(
        &self,
        st: &mut Self::State,
        cfg: &RunCfg,
        index: usize,
        tracer: Option<&Tracer>,
    ) -> Result<Unit, String>;

    /// Checks that need the whole run, then releases the state.
    ///
    /// # Errors
    ///
    /// Returns a message when the state cannot be released.
    fn finish(&self, st: Self::State, cfg: &RunCfg, units: &mut [Unit]) -> Result<(), String>;

    /// Per-layer values folded from the samples of every unit of a
    /// traced run, traced and untraced.
    fn fold(&self, _units: &[Unit]) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed over all units.
    pub ops: Tally,
    /// Failed checks.
    pub failures: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// One set-up: a binary start, then the workload's own. Appends its
/// host time in seconds to `times`.
fn set_up<W: Workload>(w: &W, cfg: &RunCfg, times: &mut Vec<f64>) -> Result<W::State, String> {
    let t = Instant::now();
    sys::time_binary_start()?;
    let st = w.setup(cfg, times.len())?;
    times.push(t.elapsed().as_secs_f64());
    Ok(st)
}

/// Repeats the set-up at least [`SETUP_MIN_REPS`] times and until the
/// repeats have taken [`SETUP_MIN_S`], at most [`SETUP_MAX_REPS`] times,
/// releasing each state.
fn repeat_set_up<W: Workload>(w: &W, cfg: &RunCfg, times: &mut Vec<f64>) -> Result<(), String> {
    let mut spent = 0.0;
    for reps in 0..SETUP_MAX_REPS {
        if reps >= SETUP_MIN_REPS && spent >= SETUP_MIN_S {
            break;
        }
        let st = set_up(w, cfg, times)?;
        spent += times.last().copied().unwrap_or(0.0);
        w.finish(st, cfg, &mut [])?;
    }
    Ok(())
}

/// Runs untraced units, at least one, until the timed host time is as
/// close to `seconds` as whole units get it: another unit starts only
/// while the time so far is more than half a (mean) unit short of
/// `seconds`. Records each unit's own peak resident set. Returns the
/// units and the timed seconds.
fn run_units<W: Workload>(
    w: &W,
    st: &mut W::State,
    cfg: &RunCfg,
    seconds: f64,
) -> Result<(Vec<Unit>, f64), String> {
    let mut units: Vec<Unit> = Vec::new();
    let mut timed = 0.0;
    while units.is_empty() || timed + timed / units.len() as f64 / 2.0 < seconds {
        let reset = sys::reset_peak_rss().is_ok();
        let mut u = w.unit(st, cfg, units.len(), None)?;
        if reset {
            u.peak_rss_mb = Some(sys::peak_rss_mib()?);
        }
        timed += u.wall_s;
        units.push(u);
    }
    Ok((units, timed))
}

/// An outcome holding every unit's operations and failed checks.
fn tally(units: &mut [Unit]) -> Outcome {
    let mut out = Outcome::default();
    for u in units {
        out.ops.merge(u.ops);
        out.failures.append(&mut u.failures);
    }
    out
}

/// Untraced run: one set-up, then units for about `cfg.seconds` of timed
/// work, then the whole-run checks, then the set-up repeated. The units
/// run in a process that has set up once, as a user's would, and
/// `setup_s` samples the host at both ends of the run. Reports the
/// end-to-end metrics;
/// `thermal_err_k` supplies the accuracy figure when no unit measured
/// one.
///
/// Host-time metrics are the run's totals over its units (timed work ÷
/// timed seconds), not a median of units: on a host whose second CPU
/// comes and goes, unit times are bimodal and a median of them jumps
/// between the modes from one run to the next.
///
/// # Errors
///
/// Returns a message when set-up, a unit or the teardown fails outright.
pub fn run_untraced<W: Workload>(
    w: &W,
    cfg: &RunCfg,
    thermal_err_k: impl FnOnce() -> Result<f64, String>,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut st = set_up(w, cfg, &mut setups)?;
    let (mut units, timed) = run_units(w, &mut st, cfg, cfg.seconds)?;
    w.finish(st, cfg, &mut units)?;
    // The peak resident set, like the host time, is the units' own: the
    // median of their peaks. Where the kernel cannot reset the peak, it
    // is the whole run's so far, taken before the repeated set-ups and the
    // accuracy probe.
    let unit_rss: Vec<f64> = units.iter().filter_map(|u| u.peak_rss_mb).collect();
    let (rss, rss_n, rss_note) = if unit_rss.len() == units.len() {
        (median(&unit_rss), unit_rss.len(), None)
    } else {
        let note = "peak_rss_mb is the whole run's, set-up included: the peak could not be reset";
        (sys::peak_rss_mib()?, 1, Some(note.to_string()))
    };
    repeat_set_up(w, cfg, &mut setups)?;

    let mut out = tally(&mut units);
    let jobs: u64 = units.iter().map(|u| u.jobs).sum();
    let instr: u64 = units.iter().map(|u| u.sim_instr).sum();
    let n = units.len();
    let unit_walls: Vec<String> = units.iter().map(|u| format!("{:.4}", u.wall_s)).collect();
    out.notes
        .push(format!("unit walls (s): {}", unit_walls.join(" ")));
    out.notes.extend(rss_note);
    let (lo, hi) = setups
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    out.notes.push(format!(
        "set-ups (s): {} from {lo:.4} to {hi:.4}, median {:.4}",
        setups.len(),
        median(&setups)
    ));
    let err = match units
        .iter()
        .filter_map(|u| u.thermal_err_k)
        .reduce(f64::max)
    {
        Some(e) => e,
        None => thermal_err_k()?,
    };
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    out.metrics = vec![
        metric("wall_s", timed / n as f64, "s", n),
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("peak_rss_mb", rss, "MiB", rss_n),
        metric(
            "sim_minstr_per_s",
            instr as f64 / 1e6 / timed,
            "Minstr/s",
            n,
        ),
        metric("jobs_per_s", jobs as f64 / timed, "jobs/s", n),
        metric("thermal_peak_err_k", err, "K", 1),
    ];
    Ok(out)
}

/// Untraced units for about `seconds` of timed work, then one traced
/// unit.
/// Returns every unit and the layer values the workload measured: the
/// traced unit's own, the fold over all units, the tracing overhead and
/// the share of the traced window its top-level spans cover.
///
/// # Errors
///
/// Returns a message when a unit fails outright.
pub fn layer_pass<W: Workload>(
    w: &W,
    st: &mut W::State,
    cfg: &RunCfg,
    seconds: f64,
    tracer: &Tracer,
) -> Result<(Vec<Unit>, BTreeMap<&'static str, f64>), String> {
    let (mut units, timed) = run_units(w, st, cfg, seconds)?;
    let plain = timed / units.len() as f64;
    let traced = w.unit(st, cfg, units.len(), Some(tracer))?;
    let mut layer: BTreeMap<&'static str, f64> = traced.layer.iter().copied().collect();
    layer.insert("trace.overhead_frac", (traced.wall_s - plain) / plain);
    let (start, end) = traced.window_ns.expect("a traced unit records its window");
    layer.insert(
        "trace.top_span_frac",
        top_level_coverage(&tracer.spans(), start, end),
    );
    units.push(traced);
    layer.extend(w.fold(&units));
    Ok((units, layer))
}

/// Traced run: set-up, a [`layer_pass`] over `cfg.seconds`, then the
/// isolated layer probes. Values the workload measured itself replace
/// the probes' values of the same name. The spans land in the work
/// directory.
///
/// # Errors
///
/// Returns a message when set-up, a unit, a probe or the teardown fails
/// outright.
pub fn run_traced<W: Workload>(
    w: &W,
    cfg: &RunCfg,
    name: &str,
    probes: impl FnOnce(&RunCfg) -> Result<Vec<(&'static str, f64)>, String>,
) -> Result<Outcome, String> {
    let mut st = set_up(w, cfg, &mut Vec::new())?;
    let tracer = Tracer::new();
    let (mut units, own) = layer_pass(w, &mut st, cfg, cfg.seconds, &tracer)?;
    w.finish(st, cfg, &mut units)?;
    let spans_path = cfg
        .work_dir
        .join(format!("spans-{name}-seed{}.jsonl", cfg.seed));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let mut layer: BTreeMap<&'static str, f64> = probes(cfg)?.into_iter().collect();
    layer.extend(own);
    let mut out = tally(&mut units);
    out.metrics = crate::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layer
                .get(name)
                .copied()
                .ok_or_else(|| format!("no value measured for {name}"))?;
            Ok(Metric {
                name,
                value,
                unit,
                samples: 1,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(out)
}
