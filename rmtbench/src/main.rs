//! `rmtbench`: the rmt3d benchmark.
//!
//! ```text
//! rmtbench --workload NAME --seed N --seconds S --trace 0|1
//! rmtbench reference sweep-cold|fig4
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits 1 when any
//! correctness check fails. See README.md.

mod campaign;
mod daemon;
mod fig4;
mod harness;
mod probes;
mod stats;
mod sweep_cold;
mod sys;
mod trace;

use harness::{Metric, Outcome, RunCfg, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = [
    "sweep-cold",
    "fig4-paper-grid",
    "daemon-mix",
    "campaign-journal",
];

/// End-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("jobs_per_s", "jobs/s"),
    ("thermal_peak_err_k", "K"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workload.trace_gen_ns_per_op", "ns/op"),
    ("cache.prefill_ms", "ms"),
    ("cpu.leader_ns_per_cycle", "ns/cycle"),
    ("rmt.ns_per_cycle", "ns/cycle"),
    ("rmt.checker_ns_per_cycle", "ns/cycle"),
    ("core.simulate_batch_s", "s"),
    ("power.map_us", "us"),
    ("thermal.solve_ms_g25", "ms"),
    ("thermal.solve_ms_g50", "ms"),
    ("thermal.iters_g50", "count"),
    ("thermal.self_frac", "ratio"),
    ("sweep.dispatch_us", "us"),
    ("sweep.busy_frac", "ratio"),
    ("sweep.store_load_us", "us"),
    ("sweep.store_save_us", "us"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("serve.ack_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.deliver_ms", "ms"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_p99_ms", "ms"),
    ("serve.rpc_p50_ms", "ms"),
    ("serve.read_share", "ratio"),
    ("serve.write_share", "ratio"),
    ("serve.stats_share", "ratio"),
    ("campaign.trial_ms", "ms"),
    ("campaign.journal_append_us", "us"),
    ("campaign.journal_bytes_per_trial", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.top_span_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn go<W: Workload>(w: &W, cfg: &RunCfg, name: &str) -> Result<Outcome, String> {
    if cfg.trace {
        harness::run_traced(w, cfg, name, probes::suite)
    } else {
        harness::run_untraced(w, cfg, fig4::accuracy_probe)
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: sys::nproc(),
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work"),
    };
    let name = args.workload.as_str();
    match name {
        "sweep-cold" => go(&sweep_cold::SweepCold, &cfg, name),
        "fig4-paper-grid" => go(&fig4::Fig4PaperGrid, &cfg, name),
        "daemon-mix" => go(&daemon::DaemonMix, &cfg, name),
        _ => go(&campaign::CampaignJournal, &cfg, name),
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failures.is_empty() && out.ops.failed == 0,
        out.ops.attempted.max(1),
        out.ops.failed,
        metrics.join(",")
    )
}

/// Checks the reported set against the declared one before printing.
fn validate(out: &Outcome, trace: bool) -> Result<(), String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != declared {
        return Err(format!("reported metrics {got:?} differ from {declared:?}"));
    }
    if let Some(m) = out.metrics.iter().find(|m| !stats::valid_name(m.name)) {
        return Err(format!("invalid metric name {:?}", m.name));
    }
    if out.ops.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    match out.metrics.iter().find(|m: &&Metric| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a finite number", m.name)),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(sys::START_PROBE_FLAG) {
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("reference") {
        let r = match argv.get(1).map(String::as_str) {
            Some("sweep-cold") => sweep_cold::write_reference()
                .and_then(|t| write_reference_file("sweep_cold.tsv", &t)),
            Some("fig4") => fig4::write_reference(sys::nproc())
                .and_then(|t| write_reference_file("fig4_thermal.tsv", &t)),
            _ => Err("usage: rmtbench reference sweep-cold|fig4".into()),
        };
        return match r {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rmtbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmtbench: {e}");
            eprintln!("usage: rmtbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args).and_then(|o| validate(&o, args.trace).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rmtbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        eprintln!("rmtbench: check failed: {f}");
    }
    println!(
        "# {} seed {} trace {}: attempted {}, failed {} (failed_frac {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.ops.attempted,
        out.ops.failed,
        out.ops.failed_frac()
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for m in &out.metrics {
        println!(
            "# {:28} {:>16.6} {:10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", result_json(&out));
    if out.failures.is_empty() && out.ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_reference_file(name: &str, text: &str) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d::telemetry::json::{parse, JsonValue};

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_emitted_name_is_valid() {
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .chain(WORKLOADS);
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(stats::valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            ops: stats::Tally {
                attempted: 3,
                failed: 1,
            },
            failures: vec!["x".into()],
            metrics: vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
                samples: 2,
            }],
            notes: Vec::new(),
        };
        let v = parse(&result_json(&out)).unwrap();
        let JsonValue::Obj(fields) = &v else {
            panic!("not an object");
        };
        // The parser keeps keys sorted.
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(1));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let ok = parse_args(&a("--workload daemon-mix --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.trace),
            ("daemon-mix", 3, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload daemon-mix --seed 3 --seconds 0 --trace 0",
            "--workload daemon-mix --seed 3 --seconds 10 --trace 2",
            "--workload daemon-mix --seconds 10 --trace 0",
            "--workload daemon-mix --seed 3 --seconds 10 --trace",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }
}
