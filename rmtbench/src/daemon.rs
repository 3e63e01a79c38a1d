//! `daemon-mix`: `rmt3d_serve::serve` in-process on a loopback listener,
//! driven in a closed loop by two client threads through
//! `rmt3d_serve::client`. The seeded mix holds re-submissions of cached
//! small sweeps (reads), fresh small sweeps (writes: a tiny simulation,
//! a store write and a queue-journal append each) and `stats` calls.

use crate::harness::{RunCfg, Unit, Workload};
use crate::stats::{mean, median, tail};
use crate::sys::Rng;
use crate::trace::Tracer;
use rmt3d::telemetry::json::JsonValue;
use rmt3d::workload::Benchmark;
use rmt3d::ProcessorModel;
use rmt3d_serve::{client, serve, JobPayload, ServeOptions};
use rmt3d_sweep::codec;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct cached specs the reads re-submit.
const REPEAT_SPECS: u64 = 4;
/// Operations of one unit: reads, writes and `stats` calls. The mix is
/// chosen, not taken from recorded traffic: each kind gets about a third
/// of the clients' time, so a relative change in any one kind's latency
/// moves the unit's host time by the same amount. At the seed commit a
/// read or a write took about 75 ms (three accept polls) and a `stats`
/// call about 25 ms (one), hence 1 : 1 : 3. `serve.read_share`,
/// `serve.write_share` and `serve.stats_share` report the shares
/// measured.
const UNIT_MIX: [(Op, usize); 3] = [(Op::Repeat, 12), (Op::Fresh, 12), (Op::Stats, 36)];
/// Instructions of the cached specs (plus the spec's index).
const REPEAT_INSTR: u64 = 6_000;
/// Instructions of the fresh specs (plus the spec's global index,
/// which stays below `REPEAT_INSTR - FRESH_INSTR`).
const FRESH_INSTR: u64 = 2_000;
/// Fresh specs one unit uses; indices never repeat within a run.
const FRESH_PER_UNIT: u64 = UNIT_MIX[1].1 as u64;
/// Cache-resident profiles of similar cost, so seeds differ little in work.
const PROFILES: [Benchmark; 5] = [
    Benchmark::Gzip,
    Benchmark::Eon,
    Benchmark::Vortex,
    Benchmark::Vpr,
    Benchmark::Mesa,
];

/// Per kind of request, in [`Op`] order: the sample of client time spent
/// on it and the per-layer metric of its share of all client time.
const SHARES: [(&str, &str); 3] = [
    ("repeat_client_ms", "serve.read_share"),
    ("fresh_client_ms", "serve.write_share"),
    ("stats_client_ms", "serve.stats_share"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Repeat,
    Fresh,
    Stats,
}

fn spec_json(models: &[ProcessorModel], benchmarks: &[Benchmark], instructions: u64) -> String {
    let list = |names: Vec<&str>| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"models\":[{}],\"benchmarks\":[{}],\"instructions\":{instructions}}}",
        list(models.iter().map(|m| m.name()).collect()),
        list(benchmarks.iter().map(|b| b.name()).collect())
    )
}

/// Cached spec `r`: two models × two profiles.
fn repeat_spec(seed: u64, r: u64) -> String {
    let mut rng = Rng::new(seed, 100 + r);
    let mut models = ProcessorModel::ALL;
    rng.shuffle(&mut models);
    let mut profiles = PROFILES;
    rng.shuffle(&mut profiles);
    spec_json(&models[..2], &profiles[..2], REPEAT_INSTR + r)
}

/// Fresh spec `k`: one model × one profile, never submitted before.
fn fresh_spec(seed: u64, k: u64) -> String {
    let mut rng = Rng::new(seed, 10_000 + k);
    let model = ProcessorModel::ALL[rng.below(4) as usize];
    let profile = PROFILES[rng.below(PROFILES.len() as u64) as usize];
    spec_json(&[model], &[profile], FRESH_INSTR + k)
}

/// The seeded operations of unit `index`: a fixed mix in seeded order.
fn unit_ops(seed: u64, index: usize) -> Vec<(Op, String)> {
    let mut rng = Rng::new(seed, 1_000_000 + index as u64);
    let mut fresh = index as u64 * FRESH_PER_UNIT;
    let mut ops = Vec::new();
    for (op, count) in UNIT_MIX {
        for _ in 0..count {
            let spec = match op {
                Op::Repeat => repeat_spec(seed, rng.below(REPEAT_SPECS)),
                Op::Fresh => {
                    fresh += 1;
                    fresh_spec(seed, fresh)
                }
                Op::Stats => String::new(),
            };
            ops.push((op, spec));
        }
    }
    rng.shuffle(&mut ops);
    ops
}

fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// An in-process daemon on a loopback port with its own state.
struct Daemon {
    addr: String,
    handle: JoinHandle<Result<(), String>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf, workers: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?
            .to_string();
        let opts = ServeOptions {
            state_dir: dir.join("state"),
            cache_dir: dir.join("cache"),
            workers,
            cache_max_bytes: None,
            runs_root: None,
            quiet: true,
        };
        let handle = std::thread::spawn(move || serve(listener, opts));
        let t = Instant::now();
        while let Err(e) = client::request(&addr, "{\"op\":\"ping\"}") {
            if t.elapsed() > Duration::from_secs(30) || handle.is_finished() {
                return Err(format!("daemon did not answer: {e}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Daemon { addr, handle, dir })
    }

    fn stop(self) -> Result<(), String> {
        client::request(&self.addr, "{\"op\":\"shutdown\"}")?;
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()))
    }
}

/// One completed submission, kept for the whole-run checks.
#[derive(Debug)]
struct Submission {
    unit: usize,
    op: Op,
    spec: String,
    state: String,
    executed: u64,
    cache_hits: u64,
    total: u64,
    results: Vec<String>,
}

/// Sends `submit` for `spec`; returns the job id and its job count.
fn ack(addr: &str, spec: &str) -> Result<(String, u64), String> {
    let ack = client::request(addr, &client::submit_line("sweep", spec, 0))?;
    let job = ack
        .get("job")
        .and_then(JsonValue::as_str)
        .ok_or("submit ack without a job id")?
        .to_string();
    let total = ack
        .get("total_jobs")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    Ok((job, total))
}

/// Watches `job` until its `job_done` line; returns that line and the
/// watch-to-first-line latency.
fn await_done(addr: &str, job: &str) -> Result<(JsonValue, f64), String> {
    let tw = Instant::now();
    let mut first_ms = None;
    for event in client::watch(addr, job)? {
        let v = event?;
        first_ms.get_or_insert_with(|| millis(tw));
        if v.get("ok").and_then(JsonValue::as_bool) == Some(false) {
            return Err(format!("watch {job}: refused"));
        }
        if v.get("event").and_then(JsonValue::as_str) == Some("job_done") {
            return Ok((v, first_ms.unwrap_or(0.0)));
        }
    }
    Err(format!("watch {job} ended before job_done"))
}

/// The `state` field of a `job_done` line.
fn state(done: &JsonValue) -> String {
    done.get("state")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string()
}

/// Submits `spec`, waits for its `job_done` on a watch stream, then
/// fetches the results, as `rmt3d submit --wait` does. Returns the
/// submission, its latency to `job_done`, the ack latency and the
/// watch-to-first-line latency.
fn submit(
    addr: &str,
    spec: &str,
    tracer: Option<&Tracer>,
    req: u64,
) -> Result<(Submission, f64, f64, f64), String> {
    let span = |name, parent| tracer.map(|tr| tr.begin(name, parent, Some(req)));
    let end = |id: Option<usize>| {
        if let (Some(tr), Some(id)) = (tracer, id) {
            tr.end(id);
        }
    };
    let t0 = Instant::now();
    let top = span("serve.submit", None);
    let ack_span = span("serve.ack", top);
    let (job, total) = ack(addr, spec)?;
    end(ack_span);
    let ack_ms = millis(t0);

    let watch_span = span("serve.watch", top);
    let (done, first_ms) = await_done(addr, &job)?;
    end(watch_span);
    let latency_ms = millis(t0);

    let result_span = span("serve.result", top);
    let res = client::request(addr, &client::job_line("result", &job))?;
    end(result_span);
    end(top);
    let results = match res.get("results") {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|i| {
                i.get("encoded")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect(),
        _ => return Err(format!("result {job}: no results")),
    };
    let field = |k: &str| done.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let sub = Submission {
        unit: 0,
        op: Op::Repeat,
        spec: spec.to_string(),
        state: state(&done),
        executed: field("executed"),
        cache_hits: field("cache_hits"),
        total,
        results,
    };
    Ok((sub, latency_ms, ack_ms, first_ms))
}

/// Cumulative daemon counters read through the `stats` verb: (count,
/// sum) of the sweep queue-wait and exec series.
fn counters(addr: &str) -> Result<[f64; 4], String> {
    let v = client::request(addr, "{\"op\":\"stats\"}")?;
    let series = |name: &str| {
        let s = v
            .get("metrics")
            .and_then(|m| m.get("series"))
            .and_then(|s| s.get(name));
        let f = |k| {
            s.and_then(|s| s.get(k))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        (f("count"), f("count") * f("mean"))
    };
    let (qc, qs) = series("daemon_queue_wait_ms_sweep");
    let (ec, es) = series("daemon_exec_ms_sweep");
    Ok([qc, qs, ec, es])
}

/// Counter names, in the order of [`counters`], as unit samples.
const COUNTERS: [&str; 4] = ["d.qwait_n", "d.qwait_sum", "d.exec_n", "d.exec_sum"];

/// Set-up output: a running daemon with its cache filled.
pub struct State {
    daemon: Daemon,
    subs: Vec<Submission>,
}

/// The workload.
pub struct DaemonMix;

impl Workload for DaemonMix {
    type State = State;

    fn setup(&self, cfg: &RunCfg, rep: usize) -> Result<State, String> {
        let dir = cfg.work_dir.join(format!("daemon-seed{}-{rep}", cfg.seed));
        let daemon = Daemon::start(dir, cfg.workers)?;
        // Every cached spec is queued before the first is awaited, so the
        // daemon simulates while the client waits on its accept polls.
        let jobs = (0..REPEAT_SPECS)
            .map(|r| ack(&daemon.addr, &repeat_spec(cfg.seed, r)))
            .collect::<Result<Vec<_>, String>>()?;
        for (job, _) in jobs {
            let (done, _) = await_done(&daemon.addr, &job)?;
            if state(&done) != "done" {
                return Err(format!("cache fill {job}: {}", state(&done)));
            }
        }
        Ok(State {
            daemon,
            subs: Vec::new(),
        })
    }

    fn unit(
        &self,
        st: &mut State,
        cfg: &RunCfg,
        index: usize,
        tracer: Option<&Tracer>,
    ) -> Result<Unit, String> {
        let ops = unit_ops(cfg.seed, index);
        let clients = cfg.workers.clamp(1, 2);
        let addr = st.daemon.addr.as_str();
        let all_ops = &ops;
        let before = counters(addr)?;
        let t = Instant::now();
        let window_start = tracer.map(Tracer::now_ns);
        type Outcome = (usize, Result<(Submission, f64, f64, f64), String>);
        type Client = (Vec<Outcome>, Vec<f64>, usize, [f64; 3]);
        let per_client: Vec<Client> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let mine: Vec<(usize, &(Op, String))> = all_ops
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .collect();
                    s.spawn(move || {
                        let mut subs = Vec::new();
                        let mut rpc = Vec::new();
                        let mut refused = 0;
                        let mut spent = [0.0; 3];
                        for (i, (op, spec)) in mine {
                            let req = (index * all_ops.len() + i) as u64;
                            let t_op = Instant::now();
                            if *op == Op::Stats {
                                let t = Instant::now();
                                let span =
                                    tracer.map(|tr| tr.begin("serve.stats", None, Some(req)));
                                let r = client::request(addr, "{\"op\":\"stats\"}");
                                if let (Some(tr), Some(id)) = (tracer, span) {
                                    tr.end(id);
                                }
                                match r {
                                    Ok(_) => rpc.push(millis(t)),
                                    Err(_) => refused += 1,
                                }
                            } else {
                                subs.push((i, submit(addr, spec, tracer, req)));
                            }
                            spent[*op as usize] += millis(t_op);
                        }
                        (subs, rpc, refused, spent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = t.elapsed().as_secs_f64();
        let window_ns = tracer.zip(window_start).map(|(tr, s)| (s, tr.now_ns()));
        let after = counters(addr)?;

        let mut u = Unit {
            wall_s,
            window_ns,
            ..Unit::default()
        };
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (name, (b, a)) in COUNTERS.iter().zip(before.iter().zip(after)) {
            samples.entry(name).or_default().push(a - b);
        }
        for (subs, rpc, refused, spent) in per_client {
            for ((name, _), ms) in SHARES.iter().zip(spent) {
                samples.entry(*name).or_default().push(ms);
            }
            for _ in 0..refused {
                u.ops.record(false);
            }
            for &ms in &rpc {
                u.ops.record(true);
                samples.entry("rpc_ms").or_default().push(ms);
            }
            for (i, outcome) in subs {
                match outcome {
                    Err(e) => {
                        u.ops.record(false);
                        u.failures.push(format!("submission {i}: {e}"));
                    }
                    Ok((mut sub, latency, ack, first)) => {
                        u.ops.record(true);
                        u.jobs += 1;
                        sub.unit = index;
                        sub.op = ops[i].0;
                        if sub.op == Op::Fresh {
                            let warmup = payload(&sub.spec)?.sweep_spec().scale.warmup_instructions;
                            for r in sub.results.iter().filter_map(|e| codec::decode(e).ok()) {
                                u.sim_instr += r.leader.committed + warmup;
                            }
                        }
                        samples
                            .entry("executed")
                            .or_default()
                            .push(sub.executed as f64);
                        samples
                            .entry("cache_hits")
                            .or_default()
                            .push(sub.cache_hits as f64);
                        samples.entry("submit_ms").or_default().push(latency);
                        samples.entry("ack_ms").or_default().push(ack);
                        samples.entry("first_event_ms").or_default().push(first);
                        st.subs.push(sub);
                    }
                }
            }
        }
        u.samples = samples;
        Ok(u)
    }

    fn finish(&self, st: State, _cfg: &RunCfg, units: &mut [Unit]) -> Result<(), String> {
        let mut expected: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for sub in &st.subs {
            let want = match expected.get(&sub.spec) {
                Some(w) => w,
                None => {
                    let w = simulate_spec(&sub.spec)?;
                    expected.entry(sub.spec.clone()).or_insert(w)
                }
            };
            let mut bad = Vec::new();
            if sub.state != "done" {
                bad.push(format!("ended {}", sub.state));
            }
            let n = want.len() as u64;
            let served = match sub.op {
                Op::Fresh => (n, 0),
                _ => (0, n),
            };
            if sub.total != n || (sub.executed, sub.cache_hits) != served {
                bad.push(format!(
                    "{:?}: executed {} cache hits {} of {}, want {served:?}",
                    sub.op, sub.executed, sub.cache_hits, sub.total
                ));
            }
            if &sub.results != want {
                bad.push("results differ from in-process simulate".to_string());
            }
            if !bad.is_empty() {
                units[sub.unit].fail(format!("daemon {}: {}", sub.spec, bad.join("; ")));
            }
        }
        st.daemon.stop()
    }

    fn fold(&self, units: &[Unit]) -> Vec<(&'static str, f64)> {
        let all = |k: &str| -> Vec<f64> {
            units
                .iter()
                .flat_map(|u| u.samples.get(k).into_iter().flatten().copied())
                .collect()
        };
        let sum = |k: &str| all(k).iter().sum::<f64>();
        let submit_ms = all("submit_ms");
        if submit_ms.is_empty() {
            // Nothing completed; the run reports its failures instead.
            return Vec::new();
        }
        let per = |s: f64, n: f64| if n > 0.0 { s / n } else { 0.0 };
        let queue_wait = per(sum("d.qwait_sum"), sum("d.qwait_n"));
        let exec = per(sum("d.exec_sum"), sum("d.exec_n"));
        let ack = all("ack_ms");
        let mut out = vec![
            ("serve.ack_ms", median(&ack)),
            ("serve.first_event_ms", median(&all("first_event_ms"))),
            ("serve.queue_wait_ms", queue_wait),
            ("serve.exec_ms", exec),
            (
                "serve.deliver_ms",
                mean(&submit_ms) - mean(&ack) - queue_wait - exec,
            ),
            ("serve.submit_p50_ms", median(&submit_ms)),
            ("serve.rpc_p50_ms", median(&all("rpc_ms"))),
            // From each job's own outcome: the `stats` verb's cache
            // counters see only the daemon's result fetches, not the
            // lookups the sweep engine makes through its own store handle.
            (
                "sweep.cache_hit_ratio",
                per(sum("cache_hits"), sum("cache_hits") + sum("executed")),
            ),
        ];
        let client_ms: f64 = SHARES.iter().map(|(k, _)| sum(k)).sum();
        for (k, metric) in SHARES {
            out.push((metric, per(sum(k), client_ms)));
        }
        if let Some(t) = tail(&submit_ms, 99) {
            eprintln!(
                "daemon-mix: serve.submit_p99_ms is p{} of {} submissions",
                t.percentile, t.samples
            );
            out.push(("serve.submit_p99_ms", t.value));
        }
        out
    }
}

/// The daemon's reading of a sweep spec.
fn payload(spec: &str) -> Result<JobPayload, String> {
    JobPayload::parse("sweep", &rmt3d::telemetry::json::parse(spec)?)
}

/// The encoded in-process `simulate` result of every job of a sweep
/// spec, in the daemon's job order.
fn simulate_spec(spec: &str) -> Result<Vec<String>, String> {
    Ok(payload(spec)?
        .sweep_spec()
        .expand()
        .iter()
        .map(|j| codec::encode(&rmt3d::simulate(&j.cfg, j.benchmark)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_hold_the_mix_and_fresh_specs_never_repeat() {
        let mut fresh = std::collections::BTreeSet::new();
        for index in 0..300 {
            let ops = unit_ops(7, index);
            for (op, count) in UNIT_MIX {
                assert_eq!(ops.iter().filter(|(o, _)| *o == op).count(), count);
            }
            for (_, spec) in ops.iter().filter(|(o, _)| *o == Op::Fresh) {
                assert!(fresh.insert(spec.clone()), "fresh spec {spec} repeats");
            }
        }
        let repeats: Vec<String> = (0..REPEAT_SPECS).map(|r| repeat_spec(7, r)).collect();
        assert!(fresh.iter().all(|f| !repeats.contains(f)));
    }
}
