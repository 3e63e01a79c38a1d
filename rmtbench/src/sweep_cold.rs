//! `sweep-cold`: `run_sweep` with the result cache off, over all four
//! models and a seeded subset of benchmark profiles. Nearly all host
//! time is the cycle engine.

use crate::harness::{RunCfg, Unit, Workload};
use crate::sys::Rng;
use crate::trace::Tracer;
use rmt3d::telemetry::{Event, NullSink, Sink};
use rmt3d::workload::Benchmark;
use rmt3d::{ProcessorModel, RunScale};
use rmt3d_sweep::{run_sweep, CacheMode, JobSpec, SweepOptions, SweepReport, SweepSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Instructions per job: fixed, so every seed does the same kind of work.
pub const SCALE: RunScale = RunScale {
    warmup_instructions: 20_000,
    instructions: 100_000,
    thermal_grid: 50,
};

/// Profile strata, each of profiles with nearly the same serial host
/// cost over the four models (measured with `rmtbench reference
/// sweep-cold`, which prints per-job times), costliest stratum first. A
/// seed draws one profile per stratum, so every seed holds two
/// memory-bound profiles (mcf and swim class) and two compute-bound ones
/// (vpr and gzip class) and does nearly the same amount of host work.
pub const STRATA: [&[Benchmark]; 4] = [
    &[Benchmark::Mcf, Benchmark::Art],
    &[Benchmark::Swim, Benchmark::Ammp],
    &[
        Benchmark::Vpr,
        Benchmark::Mesa,
        Benchmark::Bzip2,
        Benchmark::Gap,
    ],
    &[Benchmark::Gzip, Benchmark::Eon],
];

/// Models in the order their jobs are queued: the checker-less 2d-a,
/// about half the cost of the others, last.
const MODELS: [ProcessorModel; 4] = [
    ProcessorModel::TwoD2A,
    ProcessorModel::ThreeD2A,
    ProcessorModel::ThreeDChecker,
    ProcessorModel::TwoDA,
];

/// Recorded `(total_cycles, leader.committed)` of every model ×
/// benchmark at [`SCALE`]; regenerate with `rmtbench reference sweep-cold`.
const REFERENCE: &str = include_str!("../reference/sweep_cold.tsv");

/// The seed's profile subset: one profile per stratum, in stratum order.
pub fn profiles(seed: u64) -> Vec<Benchmark> {
    let mut rng = Rng::new(seed, 1);
    STRATA
        .iter()
        .map(|s| s[rng.below(s.len() as u64) as usize])
        .collect()
}

/// The seed's job list: every model × the seed's profiles, costliest
/// first. The pool hands out jobs in list order, so the last jobs are
/// short and the workers finish close together whatever the seed.
pub fn jobs(seed: u64) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = profiles(seed)
        .into_iter()
        .flat_map(|b| SweepSpec::new(&MODELS, &[b], SCALE).expand())
        .collect();
    for (index, job) in jobs.iter_mut().enumerate() {
        job.index = index;
    }
    jobs
}

type Reference = BTreeMap<(String, String), (u64, u64)>;

fn parse_reference(text: &str) -> Result<Reference, String> {
    let mut map = Reference::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [model, bench, cycles, committed] = f[..] else {
            return Err(format!("bad reference line {line:?}"));
        };
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
        map.insert(
            (model.to_string(), bench.to_string()),
            (num(cycles)?, num(committed)?),
        );
    }
    Ok(map)
}

/// Records a span per pool job, from the started and finished events
/// the sweep engine sends its sink, under span `parent`.
pub struct JobSpans<'a> {
    tracer: &'a Tracer,
    parent: usize,
    open: BTreeMap<u64, u64>,
}

impl<'a> JobSpans<'a> {
    /// A sink recording job spans under `parent`.
    pub fn new(tracer: &'a Tracer, parent: usize) -> JobSpans<'a> {
        JobSpans {
            tracer,
            parent,
            open: BTreeMap::new(),
        }
    }
}

impl Sink for JobSpans<'_> {
    fn record(&mut self, event: &Event) {
        match event {
            Event::JobStarted { job, .. } => {
                self.open.insert(*job, self.tracer.now_ns());
            }
            Event::JobFinished { job, .. } => {
                if let Some(start) = self.open.remove(job) {
                    let end = self.tracer.now_ns();
                    self.tracer
                        .record("sweep.job", start, end, Some(self.parent), Some(*job));
                }
            }
            _ => {}
        }
    }
}

/// Set-up output: the job list and the reference it is checked against.
pub struct State {
    jobs: Vec<JobSpec>,
    reference: Reference,
}

/// The workload.
pub struct SweepCold;

/// Σ busy job time ÷ (workers × wall) of a finished sweep.
pub fn busy_frac(report: &SweepReport, workers: usize) -> f64 {
    let busy: u64 = report.records.iter().map(|r| r.wall_nanos).sum();
    busy as f64 / (workers as f64 * report.wall_nanos.max(1) as f64)
}

impl Workload for SweepCold {
    type State = State;

    fn setup(&self, cfg: &RunCfg, _rep: usize) -> Result<State, String> {
        Ok(State {
            jobs: jobs(cfg.seed),
            reference: parse_reference(REFERENCE)?,
        })
    }

    fn unit(
        &self,
        st: &mut State,
        cfg: &RunCfg,
        _index: usize,
        tracer: Option<&Tracer>,
    ) -> Result<Unit, String> {
        let opts = SweepOptions {
            jobs: cfg.workers,
            cache: CacheMode::Disabled,
            ..SweepOptions::default()
        };
        let jobs = st.jobs.clone();
        let t = Instant::now();
        let (report, window) = match tracer {
            None => (run_sweep(jobs, &opts, &mut NullSink)?, None),
            Some(tr) => {
                let start = tr.now_ns();
                let top = tr.begin("sweep.run_sweep", None, None);
                let mut sink = JobSpans::new(tr, top);
                let report = run_sweep(jobs, &opts, &mut sink)?;
                tr.end(top);
                (report, Some((start, tr.now_ns())))
            }
        };
        let wall_s = t.elapsed().as_secs_f64();

        let mut u = Unit {
            wall_s,
            window_ns: window,
            ..Unit::default()
        };
        for rec in &report.records {
            let label = rec.job.label();
            let Ok(r) = &rec.outcome else {
                u.ops.record(false);
                u.failures.push(format!("{label}: job failed"));
                continue;
            };
            u.ops.record(true);
            u.jobs += 1;
            u.sim_instr += r.leader.committed + rec.job.cfg.scale.warmup_instructions;
            let key = (
                rec.job.cfg.model.name().to_string(),
                rec.job.benchmark.name().to_string(),
            );
            match st.reference.get(&key) {
                Some(&(cycles, committed))
                    if cycles == r.total_cycles && committed == r.leader.committed => {}
                Some(&(cycles, committed)) => u.fail(format!(
                    "{label}: cycles/committed {}/{} != reference {cycles}/{committed}",
                    r.total_cycles, r.leader.committed
                )),
                None => u.fail(format!("{label}: no reference")),
            }
        }
        if tracer.is_some() {
            u.layer
                .push(("sweep.busy_frac", busy_frac(&report, opts.worker_count())));
        }
        Ok(u)
    }

    fn finish(&self, _st: State, _cfg: &RunCfg, _units: &mut [Unit]) -> Result<(), String> {
        Ok(())
    }
}

/// Regenerates the reference table: every model × benchmark at
/// [`SCALE`], one line each.
///
/// Runs serially and prints each job's host time to stderr, which is
/// what [`STRATA`] is balanced on.
pub fn write_reference() -> Result<String, String> {
    let all = SweepSpec::new(&ProcessorModel::ALL, &Benchmark::ALL, SCALE).expand();
    let report = run_sweep(all, &SweepOptions::serial(), &mut NullSink)?;
    let mut out = format!(
        "# sweep-cold reference: model, benchmark, total_cycles, leader.committed\n\
         # at warmup {} + {} instructions; regenerate with `rmtbench reference sweep-cold`\n",
        SCALE.warmup_instructions, SCALE.instructions
    );
    for rec in &report.records {
        let r = rec
            .outcome
            .as_ref()
            .map_err(|e| format!("{}: {e}", rec.job.label()))?;
        eprintln!(
            "{:28} {:8.1} ms",
            rec.job.label(),
            rec.wall_nanos as f64 / 1e6
        );
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            rec.job.cfg.model.name(),
            rec.job.benchmark.name(),
            r.total_cycles,
            r.leader.committed
        ));
    }
    Ok(out)
}
