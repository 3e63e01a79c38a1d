//! The sweep-as-a-service subcommands: `rmt3d serve` (the daemon) and
//! its clients `submit`, `jobs`, `cancel`, `watch`, `stats`, `top`,
//! and `shutdown`.
//!
//! The daemon side wires [`rmt3d_serve::serve`] to the CLI's
//! conventions: the shared result cache defaults to the same
//! `target/sweep-cache` directory `rmt3d sweep` uses (so one-shot and
//! service runs share hits), and every executed job registers in the
//! same run ledger `rmt3d status` / `rmt3d report` read.
//!
//! The client side keeps stdout script-friendly: `submit` prints the
//! job id (or, with `--wait`, the same result lines `rmt3d sweep`
//! prints — byte-identical across cold and warm runs); `jobs`,
//! `cancel`, and `shutdown` print the server's raw JSON response line;
//! `watch` prints the raw event stream. Human chatter goes to stderr.

use crate::args::Args;
use crate::fail;
use crate::runctl::DEFAULT_RUNS_ROOT;
use rmt3d_serve::client::{self, DEFAULT_ADDR};
use rmt3d_serve::{serve, ServeOptions};
use rmt3d_sweep::codec;
use rmt3d_telemetry::json::{write_json_string, write_json_value, JsonObject, JsonValue};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

fn addr_opt(a: &mut Args) -> Result<String, String> {
    Ok(a.opt("--addr")?.unwrap_or_else(|| DEFAULT_ADDR.into()))
}

/// `rmt3d serve [--listen ADDR] [--state-dir DIR] [--out-dir DIR]
/// [--jobs N] [--cache-max-bytes N] [--runs-root DIR] [--no-ledger]
/// [--quiet]`: run the job daemon until a shutdown request drains it.
pub fn run_serve_command(mut a: Args) -> ExitCode {
    let listen = match a.opt("--listen") {
        Ok(l) => l.unwrap_or_else(|| DEFAULT_ADDR.into()),
        Err(e) => return fail(&e),
    };
    let state_dir = match a.opt("--state-dir") {
        Ok(d) => PathBuf::from(d.unwrap_or_else(|| "target/serve".into())),
        Err(e) => return fail(&e),
    };
    let cache_dir = match a.opt("--out-dir") {
        Ok(d) => PathBuf::from(d.unwrap_or_else(|| "target/sweep-cache".into())),
        Err(e) => return fail(&e),
    };
    let workers = match a.parsed::<usize>("--jobs") {
        Ok(Some(0)) => return fail("--jobs must be at least 1"),
        Ok(Some(n)) => n,
        Ok(None) => 0, // auto: one worker per available core
        Err(e) => return fail(&e),
    };
    let cache_max_bytes = match a.parsed::<u64>("--cache-max-bytes") {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    let runs_root = match a.opt("--runs-root") {
        Ok(r) => PathBuf::from(r.unwrap_or_else(|| DEFAULT_RUNS_ROOT.into())),
        Err(e) => return fail(&e),
    };
    let no_ledger = a.flag("--no-ledger");
    let quiet = a.flag("--quiet");
    if let Err(e) = a.finish() {
        return fail(&e);
    }
    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot listen on {listen}: {e}")),
    };
    let opts = ServeOptions {
        state_dir,
        cache_dir,
        workers,
        cache_max_bytes,
        runs_root: (!no_ledger).then_some(runs_root),
        quiet,
    };
    match serve(listener, opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Adds one axis flag to a job spec: `all`, or a comma-separated list
/// of names written as a JSON string array.
fn axis(spec: &mut JsonObject, key: &str, list: Option<String>) {
    let Some(list) = list else { return };
    if list == "all" {
        spec.str(key, "all");
        return;
    }
    let mut names = String::from("[");
    for (i, name) in list.split(',').enumerate() {
        if i > 0 {
            names.push(',');
        }
        write_json_string(&mut names, name.trim());
    }
    names.push(']');
    spec.raw(key, &names);
}

fn spec_from_flags(a: &mut Args, kind: &str) -> Result<String, String> {
    if let Some(spec) = a.opt("--spec")? {
        return Ok(spec);
    }
    let mut spec = JsonObject::new();
    let counts: &[(&str, &str)] = match kind {
        "sweep" => {
            axis(&mut spec, "models", a.opt("--models")?);
            axis(&mut spec, "benchmarks", a.opt("--benchmarks")?);
            &[("--instructions", "instructions")]
        }
        _ => {
            axis(&mut spec, "sites", a.opt("--sites")?);
            axis(&mut spec, "benchmarks", a.opt("--benchmarks")?);
            &[
                ("--faults-per-site", "faults_per_site"),
                ("--seed", "seed"),
                ("--instructions", "instructions"),
            ]
        }
    };
    for (flag, key) in counts {
        if let Some(n) = a.parsed::<u64>(flag)? {
            spec.u64(key, n);
        }
    }
    Ok(spec.finish())
}

/// `rmt3d submit [--addr A] [--kind sweep|campaign] [--priority N]
/// [--spec JSON | axis flags] [--wait] [--quiet]`: enqueue a job on a
/// running daemon. Prints the job id; with `--wait`, streams progress
/// to stderr and prints the job's results to stdout when it finishes.
pub fn run_submit_command(mut a: Args) -> ExitCode {
    let addr = match addr_opt(&mut a) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let kind = match a.opt("--kind") {
        Ok(k) => k.unwrap_or_else(|| "sweep".into()),
        Err(e) => return fail(&e),
    };
    let priority = match a.parsed::<u64>("--priority") {
        Ok(p) => p.unwrap_or(0),
        Err(e) => return fail(&e),
    };
    let spec = match spec_from_flags(&mut a, &kind) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let wait = a.flag("--wait");
    let quiet = a.flag("--quiet");
    if let Err(e) = a.finish() {
        return fail(&e);
    }
    let resp = match client::request(&addr, &client::submit_line(&kind, &spec, priority)) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let job = resp
        .get("job")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string();
    let deduped = resp.get("deduped").and_then(JsonValue::as_bool) == Some(true);
    if !quiet {
        eprintln!(
            "submit: {job} {} ({} pool items, spec {})",
            if deduped {
                "joined (identical live job)"
            } else {
                "queued"
            },
            resp.get("total_jobs")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            resp.get("spec_hash")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
        );
    }
    if !wait {
        println!("{job}");
        return ExitCode::SUCCESS;
    }
    let final_state = match wait_for(&addr, &job, quiet) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    match final_state.as_str() {
        "done" | "failed" => {}
        other => return fail(&format!("job {job} ended {other} before completing")),
    }
    let code = print_results(&addr, &job);
    if final_state == "failed" {
        return ExitCode::FAILURE;
    }
    code
}

/// Streams the job's watch events to stderr until the terminal
/// `job_done` line; returns the job's final state.
fn wait_for(addr: &str, job: &str, quiet: bool) -> Result<String, String> {
    let stream = client::watch(addr, job)?;
    for event in stream {
        let v = event?;
        if v.get("ok").and_then(JsonValue::as_bool) == Some(false) {
            return Err(v
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("server reported an error")
                .to_string());
        }
        let kind = v.get("event").and_then(JsonValue::as_str).unwrap_or("");
        if kind == "job_done" {
            let state = v
                .get("state")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string();
            if !state_is_terminal(&state) {
                return Err(format!(
                    "daemon drained before job {job} ran (still {state}; it will resume on restart)"
                ));
            }
            return Ok(state);
        }
        if !quiet {
            // Raw forwarded telemetry: same line format as --trace-out.
            eprintln!("{}", render_line(&v));
        }
    }
    Err(format!("watch stream for {job} ended unexpectedly"))
}

fn state_is_terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

fn render_line(v: &JsonValue) -> String {
    // The daemon already sends compact single-line JSON; re-rendering
    // key fields keeps the stderr stream greppable without a decoder.
    let kind = v.get("event").and_then(JsonValue::as_str).unwrap_or("?");
    let label = v.get("label").and_then(JsonValue::as_str).unwrap_or("");
    let job = v.get("job").and_then(JsonValue::as_u64);
    let total = v.get("total").and_then(JsonValue::as_u64);
    match (job, total) {
        (Some(j), Some(t)) => format!("watch: {kind} [{}/{t}] {label}", j + 1),
        _ => format!("watch: {kind} {label}"),
    }
}

/// Fetches and prints a finished job's results in `rmt3d sweep`'s
/// stdout format (or a campaign's JSONL report verbatim).
fn print_results(addr: &str, job: &str) -> ExitCode {
    let resp = match client::request(addr, &client::job_line("result", job)) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    if let Some(report) = resp.get("report").and_then(JsonValue::as_str) {
        print!("{report}");
        return ExitCode::SUCCESS;
    }
    let Some(JsonValue::Arr(results)) = resp.get("results") else {
        return fail("malformed result response");
    };
    let mut missing = 0usize;
    for item in results {
        let label = item.get("label").and_then(JsonValue::as_str).unwrap_or("?");
        let encoded = item
            .get("encoded")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        match codec::decode(encoded) {
            Ok(r) => println!(
                "{label:28} IPC {:.3}  L2 {:5.2} misses/10K  checker {:.2} f",
                r.ipc(),
                r.l2_misses_per_10k(),
                r.mean_checker_fraction,
            ),
            Err(_) => {
                missing += 1;
                println!("{label:28} NO CACHED RESULT");
            }
        }
    }
    if missing > 0 {
        eprintln!("submit: {missing} job(s) had no cached result");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `rmt3d jobs [--addr A]`: print the daemon's job listing as one JSON
/// line (strict JSON; pipe through a formatter to pretty-print).
pub fn run_jobs_command(mut a: Args) -> ExitCode {
    one_shot(a.opt("--addr"), a, |addr| {
        client::request_raw(addr, "{\"op\":\"jobs\"}")
    })
}

/// `rmt3d cancel JOB [--addr A]`: cancel a queued or in-flight job.
pub fn run_cancel_command(mut a: Args) -> ExitCode {
    let addr = a.opt("--addr");
    let Some(job) = a.positional() else {
        return fail("cancel requires a job id");
    };
    one_shot(addr, a, move |addr| {
        client::request_raw(addr, &client::job_line("cancel", &job))
    })
}

/// `rmt3d stats [--addr A]`: print the daemon's live metrics snapshot
/// as one JSON line (strict JSON; pipe through a formatter to
/// pretty-print).
pub fn run_stats_command(mut a: Args) -> ExitCode {
    one_shot(a.opt("--addr"), a, |addr| {
        client::request_raw(addr, "{\"op\":\"stats\"}")
    })
}

/// `rmt3d top [--watch] [--interval MS] [--addr A]`: a one-screen
/// human view of the daemon's `stats` snapshot; `--watch` redraws at
/// the polling interval (default 1000 ms) until interrupted.
pub fn run_top_command(mut a: Args) -> ExitCode {
    let addr = match addr_opt(&mut a) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let watch = a.flag("--watch");
    let interval_ms = match a.parsed::<u64>("--interval") {
        Ok(Some(0)) => return fail("--interval must be at least 1 millisecond"),
        Ok(Some(_)) if !watch => return fail("--interval requires --watch"),
        Ok(Some(ms)) => ms,
        Ok(None) => 1000,
        Err(e) => return fail(&e),
    };
    if let Err(e) = a.finish() {
        return fail(&e);
    }
    loop {
        let resp = match client::request(&addr, "{\"op\":\"stats\"}") {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        if watch {
            // Clear the screen between frames, watch(1)-style.
            print!("\x1b[2J\x1b[H");
        }
        print_top(&addr, &resp);
        if !watch {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Renders one `stats` snapshot as the `top` screen.
fn print_top(addr: &str, v: &JsonValue) {
    let u = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    println!(
        "rmt3d daemon {addr}\n\
         queue   depth {} ({} queued, {} running)",
        u("queue_depth"),
        u("queued"),
        u("running"),
    );
    println!(
        "jobs    {} done, {} failed, {} cancelled",
        u("done"),
        u("failed"),
        u("cancelled"),
    );
    println!(
        "clients {} open ({} total), {} watchers",
        u("connections"),
        u("connections_total"),
        u("watchers"),
    );
    let hits = u("cache_hits");
    let misses = u("cache_misses");
    let probes = hits + misses;
    let rate = if probes == 0 {
        String::from("-")
    } else {
        format!("{:.0}%", 100.0 * hits as f64 / probes as f64)
    };
    println!(
        "cache   {hits} hits / {misses} misses ({rate}), {} entries, {} bytes, {} evicted",
        u("cache_entries"),
        u("cache_bytes"),
        u("cache_evictions"),
    );
    if u("cache_verify_failures") > 0 {
        println!(
            "warning {} cache verify failures",
            u("cache_verify_failures")
        );
    }
    if u("metrics_write_errors") > 0 {
        println!(
            "warning {} metrics/artifact write failures — telemetry may be incomplete",
            u("metrics_write_errors")
        );
    }
    // Latency histograms from the embedded cumulative metrics document.
    if let Some(JsonValue::Obj(hists)) = v.get("metrics").and_then(|m| m.get("hist")) {
        let mut printed_header = false;
        for (name, h) in hists {
            if !name.starts_with("daemon_") {
                continue;
            }
            let samples = h.get("samples").and_then(JsonValue::as_u64).unwrap_or(0);
            if samples == 0 {
                continue;
            }
            if !printed_header {
                println!("latency");
                printed_header = true;
            }
            let mean = h.get("mean").and_then(JsonValue::as_f64).unwrap_or(0.0);
            println!("  {name:28} {samples:>7} jobs  mean {mean:.1} ms");
        }
    }
}

/// `rmt3d shutdown [--addr A]`: ask the daemon to drain and exit.
pub fn run_shutdown_command(mut a: Args) -> ExitCode {
    one_shot(a.opt("--addr"), a, |addr| {
        client::request_raw(addr, "{\"op\":\"shutdown\"}")
    })
}

fn one_shot(
    addr: Result<Option<String>, String>,
    a: Args,
    req: impl FnOnce(&str) -> Result<String, String>,
) -> ExitCode {
    let addr = match addr {
        Ok(a) => a.unwrap_or_else(|| DEFAULT_ADDR.into()),
        Err(e) => return fail(&e),
    };
    if let Err(e) = a.finish() {
        return fail(&e);
    }
    let line = match req(&addr) {
        Ok(l) => l,
        Err(e) => return fail(&e),
    };
    println!("{line}");
    let ok = rmt3d_telemetry::json::parse(&line)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        == Some(true);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `rmt3d watch JOB [--addr A]`: stream a job's raw event lines to
/// stdout until it reaches a terminal state. Exit code reflects the
/// final state.
pub fn run_watch_command(mut a: Args) -> ExitCode {
    let addr = match addr_opt(&mut a) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(job) = a.positional() else {
        return fail("watch requires a job id");
    };
    if let Err(e) = a.finish() {
        return fail(&e);
    }
    let stream = match client::watch(&addr, &job) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let mut final_state: Option<String> = None;
    for event in stream {
        let v = match event {
            Ok(v) => v,
            Err(e) => return fail(&e),
        };
        if v.get("ok").and_then(JsonValue::as_bool) == Some(false) {
            return fail(
                v.get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("server reported an error"),
            );
        }
        let mut line = String::new();
        write_json_value(&mut line, &v);
        println!("{line}");
        if v.get("event").and_then(JsonValue::as_str) == Some("job_done") {
            final_state = v
                .get("state")
                .and_then(JsonValue::as_str)
                .map(str::to_string);
            break;
        }
    }
    match final_state.as_deref() {
        Some("done") => ExitCode::SUCCESS,
        Some(_) => ExitCode::FAILURE,
        None => fail(&format!("watch stream for {job} ended unexpectedly")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d_telemetry::json::parse;

    fn args(list: &[&str]) -> Args {
        Args::new(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn axis_flags_build_a_compact_spec() {
        let mut a = args(&["--models", "2d-a, 3d-2a", "--benchmarks", "all"]);
        let spec = spec_from_flags(&mut a, "sweep").unwrap();
        assert_eq!(spec, r#"{"models":["2d-a","3d-2a"],"benchmarks":"all"}"#);
        let mut a = args(&["--sites", "rvq_operand", "--seed", "7"]);
        let spec = spec_from_flags(&mut a, "campaign").unwrap();
        assert_eq!(spec, r#"{"sites":["rvq_operand"],"seed":7}"#);
        assert_eq!(spec_from_flags(&mut args(&[]), "sweep").unwrap(), "{}");
    }

    #[test]
    fn axis_flag_names_are_escaped() {
        let mut a = args(&["--models", r#"a"b,c\d"#, "--instructions", "9"]);
        let spec = spec_from_flags(&mut a, "sweep").unwrap();
        let v = parse(&spec).unwrap_or_else(|e| panic!("invalid spec {spec}: {e}"));
        let names: Vec<&str> = match v.get("models") {
            Some(JsonValue::Arr(items)) => items.iter().filter_map(JsonValue::as_str).collect(),
            other => panic!("models is not an array: {other:?}"),
        };
        assert_eq!(names, [r#"a"b"#, r"c\d"]);
        assert_eq!(v.get("instructions").and_then(JsonValue::as_u64), Some(9));
    }
}
