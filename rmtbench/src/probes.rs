//! Isolated layer probes for traced runs: each calls one layer's public
//! functions on the seed's inputs and times the call from here. The
//! cycle-loop layers run inside `simulate`, so they are rebuilt and
//! driven on their own, as `simulate` builds them.

use crate::daemon::DaemonMix;
use crate::fig4::{BatchTimer, BENCHMARKS};
use crate::harness::{layer_pass, RunCfg, Workload};
use crate::stats::median;
use crate::sweep_cold;
use crate::sys::Rng;
use crate::trace::Tracer;
use rmt3d::cache::{CacheHierarchy, NucaPolicy};
use rmt3d::cpu::{CoreConfig, OooCore};
use rmt3d::experiments::fig4;
use rmt3d::power::CheckerPowerModel;
use rmt3d::rmt::{RmtConfig, RmtSystem};
use rmt3d::thermal::{solve, ThermalConfig};
use rmt3d::units::Watts;
use rmt3d::workload::{Benchmark, TraceGenerator};
use rmt3d::{build_power_map, override_checker_power, PowerMapConfig, ProcessorModel, RunScale};
use rmt3d_campaign::{run_trial, CampaignSpec, Journal, Tally, CHECKPOINT_INTERVAL};
use rmt3d_sweep::{run_pool, ResultStore, SweepSpec};
use std::hint::black_box;
use std::time::Instant;

/// A layer value: metric name and measured value.
pub type Layer = (&'static str, f64);

/// Host seconds `f` takes, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = black_box(f());
    (t.elapsed().as_secs_f64(), r)
}

/// A leading core as `simulate` builds it, for `model` at 2 GHz.
fn leader(model: ProcessorModel, b: Benchmark) -> OooCore {
    let mut caches = CacheHierarchy::new(model.nuca_layout(), NucaPolicy::DistributedSets);
    // 150 ns memory at 2 GHz, as `simulate` sets it.
    caches.set_memory_cycles(300);
    OooCore::new(
        CoreConfig::leading_ev7_like(),
        TraceGenerator::new(b.profile()),
        caches,
    )
}

/// `workload`, `cache`, `cpu` and `rmt`: trace generation, prefill, the
/// 2d-a leader and the 3d-2a RMT system on the sweep-cold profiles.
fn cycle_layers(seed: u64) -> Vec<Layer> {
    const OPS: usize = 200_000;
    let scale = sweep_cold::SCALE;
    let mut gen_s = 0.0;
    let mut prefill_ms = Vec::new();
    let (mut leader_s, mut leader_cycles) = (0.0, 0u64);
    let (mut rmt_s, mut rmt_cycles) = (0.0, 0u64);
    let profiles = sweep_cold::profiles(seed);
    for &b in &profiles {
        let mut g = TraceGenerator::new(b.profile());
        gen_s += timed(|| g.take_ops(OPS).len()).0;

        let mut core = leader(ProcessorModel::TwoDA, b);
        prefill_ms.push(timed(|| core.prefill_caches()).0 * 1e3);
        core.run_instructions(scale.warmup_instructions);
        let c0 = core.activity().cycles;
        leader_s += timed(|| core.run_instructions(scale.instructions)).0;
        leader_cycles += core.activity().cycles - c0;

        let mut sys = RmtSystem::new(leader(ProcessorModel::ThreeD2A, b), RmtConfig::paper());
        prefill_ms.push(timed(|| sys.prefill_caches()).0 * 1e3);
        sys.run_instructions(scale.warmup_instructions);
        let c0 = sys.total_cycles();
        rmt_s += timed(|| sys.run_instructions(scale.instructions)).0;
        rmt_cycles += sys.total_cycles() - c0;
    }
    let leader_ns = leader_s * 1e9 / leader_cycles as f64;
    let rmt_ns = rmt_s * 1e9 / rmt_cycles as f64;
    vec![
        (
            "workload.trace_gen_ns_per_op",
            gen_s * 1e9 / (OPS * profiles.len()) as f64,
        ),
        ("cache.prefill_ms", median(&prefill_ms)),
        ("cpu.leader_ns_per_cycle", leader_ns),
        ("rmt.ns_per_cycle", rmt_ns),
        ("rmt.checker_ns_per_cycle", rmt_ns - leader_ns),
    ]
}

/// `core`, `power` and `thermal`: a traced Fig. 4 at test scale, then
/// power maps and single solves on its 3d-2a results at 15 W.
fn fig4_layers(workers: usize) -> Result<Vec<Layer>, String> {
    let quick = RunScale::quick();
    let tracer = Tracer::new();
    let top = tracer.begin("fig4.run_with", None, None);
    let sim = BatchTimer::new(workers, Some((&tracer, top)));
    let (wall, r) = timed(|| fig4::run_with(&sim, &BENCHMARKS, quick));
    r.map_err(|e| e.to_string())?;
    tracer.end(top);
    let perfs = sim.take_perfs();

    const MAPS: usize = 20;
    let cfg = PowerMapConfig::with_checker(CheckerPowerModel::with_peak(Watts(15.0)));
    let (map_s, _) = timed(|| {
        for _ in 0..MAPS {
            for p in &perfs {
                black_box(build_power_map(p, &cfg));
            }
        }
    });

    let mut out = vec![
        ("core.simulate_batch_s", sim.batch_s()),
        ("thermal.self_frac", (wall - sim.batch_s()) / wall),
        ("sweep.busy_frac", sim.busy_frac()),
        ("power.map_us", map_s * 1e6 / (MAPS * perfs.len()) as f64),
    ];
    let maps: Vec<_> = perfs
        .iter()
        .filter(|p| p.model == ProcessorModel::ThreeD2A)
        .map(|p| {
            let mut chip = build_power_map(p, &cfg);
            override_checker_power(&mut chip, Watts(15.0));
            chip.map
        })
        .collect();
    let plan = ProcessorModel::ThreeD2A.floorplan();
    for (grid, name) in [(25, "thermal.solve_ms_g25"), (50, "thermal.solve_ms_g50")] {
        let tcfg = ThermalConfig {
            grid,
            ..ThermalConfig::paper()
        };
        let mut ms = 0.0;
        let mut iters = 0;
        for m in &maps {
            let (s, r) = timed(|| solve(&plan, m, &tcfg));
            ms += s * 1e3;
            iters += r.map_err(|e| e.to_string())?.iterations();
        }
        out.push((name, ms / maps.len() as f64));
        if grid == 50 {
            out.push(("thermal.iters_g50", iters as f64 / maps.len() as f64));
        }
    }
    Ok(out)
}

/// `sweep`: pool dispatch per no-op job, and result-store save and load
/// of daemon-mix-sized results.
fn sweep_layers(cfg: &RunCfg) -> Result<Vec<Layer>, String> {
    const NOOPS: usize = 5_000;
    let items: Vec<u32> = (0..NOOPS as u32).collect();
    let (dispatch_s, _) = timed(|| {
        run_pool(
            &items,
            cfg.workers,
            |_| None,
            |&i| black_box(i),
            |_, _| {},
            None,
            |_, _, _| {},
            |_| {},
        )
    });

    let mut rng = Rng::new(cfg.seed, 7);
    let mut models = ProcessorModel::ALL;
    rng.shuffle(&mut models);
    let scale = RunScale {
        warmup_instructions: 600,
        instructions: 6_000,
        thermal_grid: 50,
    };
    let jobs = SweepSpec::new(&models[..2], &[Benchmark::Gzip, Benchmark::Vpr], scale).expand();
    let results: Vec<_> = jobs
        .iter()
        .map(|j| rmt3d::simulate(&j.cfg, j.benchmark))
        .collect();
    let dir = cfg.work_dir.join(format!("probe-store-seed{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).map_err(|e| format!("cannot open store: {e}"))?;
    const ROUNDS: usize = 25;
    let (mut save_s, mut load_s) = (0.0, 0.0);
    for _ in 0..ROUNDS {
        for (j, r) in jobs.iter().zip(&results) {
            save_s += timed(|| store.save(j, r)).0;
            let (s, loaded) = timed(|| store.load(j));
            load_s += s;
            if loaded.is_none() {
                return Err(format!("store lost {}", j.label()));
            }
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    let n = (ROUNDS * jobs.len()) as f64;
    Ok(vec![
        ("sweep.dispatch_us", dispatch_s * 1e6 / NOOPS as f64),
        ("sweep.store_save_us", save_s * 1e6 / n),
        ("sweep.store_load_us", load_s * 1e6 / n),
    ])
}

/// `campaign`: single trials of the seed's grid, and journal appends
/// as the engine makes them, on a scratch file.
fn campaign_layers(cfg: &RunCfg) -> Result<Vec<Layer>, String> {
    const TRIALS: usize = 24;
    let spec = CampaignSpec::default_grid(cfg.seed);
    let mut trials = spec.expand();
    Rng::new(cfg.seed, 8).shuffle(&mut trials);
    trials.truncate(TRIALS);
    let mut outcomes = Vec::new();
    let mut trial_s = 0.0;
    for t in &trials {
        let (s, r) = timed(|| run_trial(t));
        trial_s += s;
        outcomes.push(r);
    }

    let dir = cfg.work_dir.join(format!("probe-journal-seed{}", cfg.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("probe.journal.jsonl");
    let io = |e: std::io::Error| format!("journal probe: {e}");
    let mut journal = Journal::create(&path, &spec).map_err(io)?;
    let mut tally = Tally::default();
    let mut append_s = 0.0;
    for (done, (t, r)) in trials.iter().zip(outcomes).enumerate() {
        let outcome = Ok(r);
        tally.add(&outcome);
        let (s, w) = timed(|| -> std::io::Result<()> {
            journal.trial_started(t.index)?;
            journal.trial_done(t.index, &outcome)?;
            if (done + 1) % CHECKPOINT_INTERVAL == 0 {
                journal.checkpoint(done + 1, &tally)?;
            }
            Ok(())
        });
        w.map_err(io)?;
        append_s += s;
    }
    drop(journal);
    let bytes = std::fs::metadata(&path).map_err(io)?.len();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    let n = trials.len() as f64;
    Ok(vec![
        ("campaign.trial_ms", trial_s * 1e3 / n),
        ("campaign.journal_append_us", append_s * 1e6 / n),
        ("campaign.journal_bytes_per_trial", bytes as f64 / n),
    ])
}

/// Host seconds of daemon-mix units the daemon probe runs untraced
/// before its traced unit.
const DAEMON_PROBE_S: f64 = 3.0;

/// `serve` and the shared cache: a short daemon-mix run.
fn serve_layers(cfg: &RunCfg) -> Result<Vec<Layer>, String> {
    let w = DaemonMix;
    let mut st = w.setup(cfg, 0)?;
    let tracer = Tracer::new();
    let (mut units, layer) = layer_pass(&w, &mut st, cfg, DAEMON_PROBE_S, &tracer)?;
    w.finish(st, cfg, &mut units)?;
    if let Some(f) = units.iter().flat_map(|u| &u.failures).next() {
        return Err(format!("daemon probe: {f}"));
    }
    Ok(layer
        .into_iter()
        .filter(|(name, _)| name.starts_with("serve.") || *name == "sweep.cache_hit_ratio")
        .collect())
}

/// Every probe, in layer order.
///
/// # Errors
///
/// Returns a message when a probe cannot run or its outputs are wrong.
pub fn suite(cfg: &RunCfg) -> Result<Vec<Layer>, String> {
    let mut out = cycle_layers(cfg.seed);
    out.extend(fig4_layers(cfg.workers)?);
    out.extend(sweep_layers(cfg)?);
    out.extend(serve_layers(cfg)?);
    out.extend(campaign_layers(cfg)?);
    Ok(out)
}
