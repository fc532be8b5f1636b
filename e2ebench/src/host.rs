//! Facts about the host a number was taken on. A wall-clock figure
//! without its core count is not a result.

use std::time::Instant;

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host threads a workload may use: `min(2, cpus)`. The workloads are
/// sized for two cores; a one-core host still runs them, but its report
/// is stamped `comparable: false` instead of passing for a 2-core run.
pub fn bench_threads() -> usize {
    cpus().min(2)
}

/// Peak resident set of this process in MiB (`VmHWM`), `0.0` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes copied per call of the reference memcpy.
pub const COPY_BYTES: usize = 128 << 20;

/// Best-of-three rate of a 128 MiB `copy_from_slice`, in GB/s (read +
/// write counted once each, like `machine.reshuffle_bytes_computed`).
///
/// A reference rate to read `machine.reshuffle_gbps` against, not a
/// bandwidth bound: the buffer is 32× the 4 MiB L2 but fits this host's
/// 260 MiB last-level cache. Run only in the traced invocation, so its
/// 256 MiB of buffers never show in `peak_rss_mb`.
pub fn copy_gbps() -> f64 {
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * COPY_BYTES as f64 / best / 1e9
}

/// First line of a command's stdout, or `"unknown"` — for the report
/// header only (`git rev-parse`, `rustc -V`); never on a timed path.
pub fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
