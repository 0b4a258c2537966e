//! Readings of the host itself, so machine drift can be told apart from
//! a regression of the simulator.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    vc_obs::prof::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_cpu_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// Linux reports `/proc` CPU times in fixed 1/100 s ticks on every
/// architecture, whatever the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name in
/// field 2 may contain spaces, so fields are counted after its `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A fixed standard-library workload (heap, ordered map, vector clone)
/// with no simulator code in it; returns its wall time in ms. If this
/// moves between two sets of runs, the machine moved, not the program.
pub fn ref_kernel_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    for i in 0..200_000u64 {
        let k = next();
        heap.push(k);
        map.insert(k % 50_000, i);
        if i % 3 == 0 {
            black_box(heap.pop());
        }
    }
    let v: Vec<u64> = heap.into_vec();
    for _ in 0..8 {
        black_box(
            black_box(v.clone())
                .iter()
                .fold(0u64, |a, &b| a.wrapping_add(b)),
        );
    }
    black_box(map.len());
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_the_command_name() {
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 30 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(280));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn host_readings_are_positive_on_linux() {
        assert!(ref_kernel_ms() > 0.0);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
