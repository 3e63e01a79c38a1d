//! Process-level measurements and the seeded generator.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set of this process in MiB: `VmHWM` from
/// `/proc/self/status`. Unlike `getrusage`'s `ru_maxrss`, it is not
/// inherited across `exec`, so a launcher such as `cargo run` does not
/// leak its own footprint into the figure.
///
/// # Errors
///
/// Returns a message when the status file cannot be read or lacks the
/// field (a kernel without `/proc`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, by writing `5` to `/proc/self/clear_refs` (Linux 4.0
/// and later), so that a later [`peak_rss_mib`] covers only what ran
/// since.
///
/// # Errors
///
/// Returns a message when the kernel refuses the write.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Flag that makes the benchmark binary exit at once; used to time a
/// binary start.
pub const START_PROBE_FLAG: &str = "--start-probe";

/// Host time to start this benchmark's binary and see it exit.
///
/// # Errors
///
/// Returns a message when the binary cannot be found, started, or
/// exits unsuccessfully.
pub fn time_binary_start() -> Result<Duration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let t = Instant::now();
    let status = Command::new(exe)
        .arg(START_PROBE_FLAG)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start own binary: {e}"))?;
    let elapsed = t.elapsed();
    if !status.success() {
        return Err(format!("start probe exited with {status}"));
    }
    Ok(elapsed)
}

/// Worker threads the workloads use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// SplitMix64: the benchmark's only source of seeded choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn peak_rss_reset_forgets_a_freed_peak() {
        let big = vec![1u8; 32 << 20];
        assert_eq!(big.iter().map(|&b| u64::from(b)).sum::<u64>(), 32 << 20);
        let before = peak_rss_mib().unwrap();
        drop(big);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mib().unwrap() < before - 16.0);
    }
}
