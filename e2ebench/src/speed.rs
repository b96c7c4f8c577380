//! Host-speed normalisation.
//!
//! On a shared host the CPU itself runs slower while other tenants are
//! busy (a neighbour on the same core, memory bandwidth), and that does
//! not show as steal: the CPU time of a fixed piece of work swings by 2x
//! within seconds. So the benchmark interleaves the analyses with a fixed
//! probe of its own, [`probe_s`], and scales each measured time by
//! `REFERENCE_PROBE_S / probe time` around it: the time the work would
//! have taken on a host where the probe takes [`REFERENCE_PROBE_S`]. The
//! probe is the benchmark's code, never the system's, so a change to the
//! system moves the scaled times and cannot move the probe.

use std::collections::{BTreeMap, HashSet};

use crate::metrics::thread_cpu_s;

/// The probe's CPU time on a quiet host of the kind the benchmark was
/// written on (2-vCPU VM, Xeon). It only sets the scale: scaled times
/// read as seconds on such a host.
pub const REFERENCE_PROBE_S: f64 = 0.003;

/// Runs the probe and returns its CPU time in seconds. The work mimics an
/// analysis in miniature: build a random graph, walk it, and intern a
/// name per reached node, so it allocates, hashes and chases pointers.
pub fn probe_s() -> f64 {
    const NODES: usize = 6_000;
    let t = thread_cpu_s();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); NODES];
    for edges in &mut adj {
        for _ in 0..4 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push((x % NODES as u64) as usize);
        }
    }
    let mut seen = HashSet::new();
    let mut names = BTreeMap::new();
    let mut stack = vec![0usize];
    while let Some(v) = stack.pop() {
        if seen.insert(v) {
            names.insert(format!("node{v}"), v);
            stack.extend_from_slice(&adj[v]);
        }
    }
    std::hint::black_box(names.len());
    thread_cpu_s() - t
}

/// `busy_s` scaled to the reference host, given the probe times taken
/// just before and just after it.
pub fn scaled(busy_s: f64, probe_before: f64, probe_after: f64) -> f64 {
    busy_s * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2.0)
}

/// Times `work` in CPU time of this thread, bracketed by probes; returns
/// its result and its scaled time.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_s();
    let t = thread_cpu_s();
    let out = work();
    let busy = thread_cpu_s() - t;
    (out, scaled(busy, before, probe_s()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_undoes_a_uniform_slowdown() {
        // Work of 1 s at reference speed, measured on a host half as fast.
        let slow = 2.0 * REFERENCE_PROBE_S;
        assert!((scaled(2.0, slow, slow) - 1.0).abs() < 1e-12);
        assert!((scaled(0.5, REFERENCE_PROBE_S, REFERENCE_PROBE_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_does_fixed_work() {
        let p = probe_s();
        assert!(p > 0.0 && p < 1.0, "probe took {p} s");
        let ((), s) = timed(|| ());
        assert!(s >= 0.0);
    }
}
