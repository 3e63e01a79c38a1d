//! Lossless JSON serialization of [`PerfResult`] for the result cache.
//!
//! The workspace has no serde; writing composes the JSON text directly
//! and reading goes through `rmt3d_telemetry::json::parse`. Floats are
//! written with Rust's shortest-round-trip `Display`, so a decoded
//! result is bit-identical to the encoded one. Counters are `u64` but
//! the parser holds numbers as `f64`; every value this simulator
//! produces is far below 2^53, and the encoder asserts that bound so a
//! silent precision loss can never masquerade as a cache hit.

use rmt3d::PerfResult;
use rmt3d_cache::{CacheStats, HierarchyStats, NucaStats};
use rmt3d_cpu::ActivityCounters;
use rmt3d_telemetry::json::{parse, JsonValue};
use rmt3d_telemetry::{CpiComponent, CpiStack};
use std::fmt::Write as _;

/// Largest integer exactly representable in an f64; the JSON parser
/// reads all numbers as f64, so counters must stay below it.
const MAX_EXACT: u64 = 1 << 53;

fn push_u64(out: &mut String, key: &str, v: u64) {
    assert!(v < MAX_EXACT, "counter {key}={v} exceeds f64 precision");
    let _ = write!(out, "\"{key}\":{v},");
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    // `{v}` is Rust's shortest representation that parses back exactly.
    let _ = write!(out, "\"{key}\":{v},");
}

fn close(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
}

/// Field list of [`ActivityCounters`]; `$op!(struct, field)` runs once
/// per field, keeping the encoder and decoder in lockstep with one
/// authoritative list.
macro_rules! for_each_counter {
    ($op:ident, $s:expr) => {
        $op!($s, cycles);
        $op!($s, fetched);
        $op!($s, dispatched);
        $op!($s, issued);
        $op!($s, committed);
        $op!($s, int_alu_ops);
        $op!($s, int_mul_ops);
        $op!($s, fp_alu_ops);
        $op!($s, fp_mul_ops);
        $op!($s, bpred_accesses);
        $op!($s, icache_accesses);
        $op!($s, dcache_accesses);
        $op!($s, lsq_accesses);
        $op!($s, regfile_reads);
        $op!($s, regfile_writes);
        $op!($s, bypass_transfers);
        $op!($s, commit_stall_cycles);
        $op!($s, branch_mispredicts);
    };
}

fn write_counters(out: &mut String, key: &str, c: &ActivityCounters) {
    let _ = write!(out, "\"{key}\":{{");
    macro_rules! field {
        ($s:expr, $f:ident) => {
            push_u64(out, stringify!($f), $s.$f)
        };
    }
    for_each_counter!(field, c);
    close(out);
    out.push(',');
}

fn write_cpi(out: &mut String, key: &str, s: &CpiStack) {
    let _ = write!(out, "\"{key}\":{{");
    for c in CpiComponent::ALL {
        push_u64(out, c.name(), s.get(c));
    }
    close(out);
    out.push(',');
}

fn read_cpi(v: &JsonValue, key: &str) -> Result<CpiStack, String> {
    let obj = need(v, key)?;
    let mut s = CpiStack::new();
    for c in CpiComponent::ALL {
        s.set(c, need_u64(obj, c.name())?);
    }
    Ok(s)
}

fn write_cache_stats(out: &mut String, key: &str, c: &CacheStats) {
    let _ = write!(out, "\"{key}\":{{");
    push_u64(out, "accesses", c.accesses);
    push_u64(out, "hits", c.hits);
    push_u64(out, "misses", c.misses);
    push_u64(out, "write_misses", c.write_misses);
    close(out);
    out.push(',');
}

/// Encodes a result as one JSON line (no trailing newline).
pub fn encode(r: &PerfResult) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');
    let _ = write!(out, "\"model\":\"{}\",", r.model);
    let _ = write!(out, "\"benchmark\":\"{}\",", r.benchmark);
    push_f64(&mut out, "frequency", r.frequency.value());
    write_counters(&mut out, "leader", &r.leader);
    write_counters(&mut out, "trailer", &r.trailer);
    write_cpi(&mut out, "leader_cpi", &r.leader_cpi);
    write_cpi(&mut out, "trailer_cpi", &r.trailer_cpi);
    out.push_str("\"caches\":{");
    write_cache_stats(&mut out, "l1i", &r.caches.l1i);
    write_cache_stats(&mut out, "l1d", &r.caches.l1d);
    push_u64(&mut out, "l2_accesses", r.caches.l2_accesses);
    push_u64(&mut out, "l2_misses", r.caches.l2_misses);
    push_u64(&mut out, "instructions", r.caches.instructions);
    close(&mut out);
    out.push(',');
    out.push_str("\"l2\":{");
    push_u64(&mut out, "accesses", r.l2.accesses);
    push_u64(&mut out, "hits", r.l2.hits);
    push_u64(&mut out, "misses", r.l2.misses);
    push_u64(&mut out, "total_hops", r.l2.total_hops);
    push_u64(&mut out, "tag_lookups", r.l2.tag_lookups);
    push_u64(&mut out, "hit_cycles_sum", r.l2.hit_cycles_sum);
    push_u64(&mut out, "migrations", r.l2.migrations);
    out.push_str("\"bank_accesses\":[");
    for (i, &b) in r.l2.bank_accesses.iter().enumerate() {
        assert!(b < MAX_EXACT, "bank access count exceeds f64 precision");
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push(']');
    close(&mut out);
    out.push(',');
    out.push_str("\"dfs_histogram\":[");
    for (i, &h) in r.dfs_histogram.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{h}");
    }
    out.push_str("],");
    push_f64(&mut out, "mean_checker_fraction", r.mean_checker_fraction);
    push_u64(&mut out, "total_cycles", r.total_cycles);
    close(&mut out);
    out
}

fn need<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn need_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| format!("\"{key}\" is not an integer"))
}

fn need_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" is not a number"))
}

fn need_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match need(v, key)? {
        JsonValue::Arr(a) => Ok(a),
        _ => Err(format!("\"{key}\" is not an array")),
    }
}

fn read_counters(v: &JsonValue, key: &str) -> Result<ActivityCounters, String> {
    let obj = need(v, key)?;
    let mut c = ActivityCounters::default();
    macro_rules! field {
        ($s:expr, $f:ident) => {
            $s.$f = need_u64(obj, stringify!($f))?
        };
    }
    for_each_counter!(field, c);
    Ok(c)
}

fn read_cache_stats(v: &JsonValue, key: &str) -> Result<CacheStats, String> {
    let obj = need(v, key)?;
    Ok(CacheStats {
        accesses: need_u64(obj, "accesses")?,
        hits: need_u64(obj, "hits")?,
        misses: need_u64(obj, "misses")?,
        write_misses: need_u64(obj, "write_misses")?,
    })
}

/// Decodes a result from one JSON line. Errors describe the first
/// missing or ill-typed field.
pub fn decode(line: &str) -> Result<PerfResult, String> {
    decode_value(&parse(line)?)
}

/// Decodes a result from an already-parsed JSON value, e.g. the
/// `result` subtree of a cache entry.
pub fn decode_value(v: &JsonValue) -> Result<PerfResult, String> {
    let model = need(v, "model")?
        .as_str()
        .ok_or("\"model\" is not a string")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let benchmark = need(v, "benchmark")?
        .as_str()
        .ok_or("\"benchmark\" is not a string")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let caches_v = need(v, "caches")?;
    let caches = HierarchyStats {
        l1i: read_cache_stats(caches_v, "l1i")?,
        l1d: read_cache_stats(caches_v, "l1d")?,
        l2_accesses: need_u64(caches_v, "l2_accesses")?,
        l2_misses: need_u64(caches_v, "l2_misses")?,
        instructions: need_u64(caches_v, "instructions")?,
    };
    let l2_v = need(v, "l2")?;
    let l2 = NucaStats {
        accesses: need_u64(l2_v, "accesses")?,
        hits: need_u64(l2_v, "hits")?,
        misses: need_u64(l2_v, "misses")?,
        bank_accesses: need_arr(l2_v, "bank_accesses")?
            .iter()
            .map(|b| b.as_u64().ok_or("non-integer bank access count"))
            .collect::<Result<_, _>>()?,
        total_hops: need_u64(l2_v, "total_hops")?,
        tag_lookups: need_u64(l2_v, "tag_lookups")?,
        hit_cycles_sum: need_u64(l2_v, "hit_cycles_sum")?,
        migrations: need_u64(l2_v, "migrations")?,
    };
    let hist_v = need_arr(v, "dfs_histogram")?;
    let mut dfs_histogram = [0.0; rmt3d::rmt::DFS_LEVELS];
    if hist_v.len() != dfs_histogram.len() {
        return Err(format!(
            "dfs_histogram has {} bins, expected {}",
            hist_v.len(),
            dfs_histogram.len()
        ));
    }
    for (slot, b) in dfs_histogram.iter_mut().zip(hist_v) {
        *slot = b.as_f64().ok_or("non-number histogram bin")?;
    }
    Ok(PerfResult {
        model,
        benchmark,
        frequency: rmt3d_units::Gigahertz(need_f64(v, "frequency")?),
        leader: read_counters(v, "leader")?,
        trailer: read_counters(v, "trailer")?,
        leader_cpi: read_cpi(v, "leader_cpi")?,
        trailer_cpi: read_cpi(v, "trailer_cpi")?,
        caches,
        l2,
        dfs_histogram,
        mean_checker_fraction: need_f64(v, "mean_checker_fraction")?,
        total_cycles: need_u64(v, "total_cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt3d::{simulate, ProcessorModel, RunScale, SimConfig};
    use rmt3d_workload::Benchmark;

    fn tiny() -> RunScale {
        RunScale {
            warmup_instructions: 2_000,
            instructions: 20_000,
            thermal_grid: 25,
        }
    }

    #[test]
    fn round_trip_is_lossless_for_both_model_kinds() {
        for (model, bench) in [
            (ProcessorModel::TwoDA, Benchmark::Gzip),
            (ProcessorModel::ThreeD2A, Benchmark::Mcf),
        ] {
            let r = simulate(&SimConfig::nominal(model, tiny()), bench);
            let line = encode(&r);
            let back = decode(&line).expect("decode");
            // Re-encoding the decoded value must be byte-identical —
            // the property the resume machinery rests on.
            assert_eq!(encode(&back), line, "{model}/{bench}");
            assert_eq!(back.ipc(), r.ipc());
            assert_eq!(back.dfs_histogram, r.dfs_histogram);
            assert_eq!(back.l2.bank_accesses, r.l2.bank_accesses);
        }
    }

    #[test]
    fn decode_rejects_truncated_and_ill_typed_input() {
        let r = simulate(
            &SimConfig::nominal(ProcessorModel::TwoDA, tiny()),
            Benchmark::Gzip,
        );
        let line = encode(&r);
        assert!(decode(&line[..line.len() / 2]).is_err());
        assert!(decode(&line.replace("\"total_cycles\":", "\"total_cyclez\":")).is_err());
        assert!(decode("{}").is_err());
    }
}
