//! A fixed reference computation that measures how fast the host runs now.
//!
//! On a shared machine the same routing pass can take 20–30% longer for
//! seconds at a time while other tenants load the caches and memory bus.
//! The probe runs the same work every time — Dijkstra over a 256 × 256 grid
//! with fixed pseudo-random weights, the access pattern of the routers'
//! searches with a working set of about a megabyte — and none of it comes
//! from the program, so no change to the program can move it.  Scaling a
//! routing time by `REFERENCE_S / probe time` measured around it removes
//! most of the host's drift: on the 2-core Xeon host this benchmark was
//! tuned on, repeated runs of identical inputs vary by 8–12% (coefficient of
//! variation) raw and by 2–4% scaled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Probe seconds on a quiet 2-core Xeon host (Intel Xeon, 2.0 GHz); a
/// scaled time reads as seconds on that host.
pub const REFERENCE_S: f64 = 6.0e-3;

const SIDE: usize = 256;

/// Runs the probe once and returns its wall-clock seconds.
pub fn seconds() -> f64 {
    let mut weights = vec![0u32; SIDE * SIDE];
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for w in &mut weights {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *w = 1 + (state >> 59) as u32;
    }
    let start = Instant::now();
    let source = SIDE * SIDE / 2 + SIDE / 2;
    let mut dist = vec![u32::MAX; SIDE * SIDE];
    let mut heap = BinaryHeap::new();
    dist[source] = 0;
    heap.push(Reverse((0u32, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        let (row, col) = (v / SIDE, v % SIDE);
        let neighbours = [
            (row.wrapping_sub(1), col),
            (row + 1, col),
            (row, col.wrapping_sub(1)),
            (row, col + 1),
        ];
        for (r, c) in neighbours {
            if r < SIDE && c < SIDE {
                let u = r * SIDE + c;
                let nd = d + weights[u];
                if nd < dist[u] {
                    dist[u] = nd;
                    heap.push(Reverse((nd, u)));
                }
            }
        }
    }
    let total: u64 = dist.iter().map(|&d| u64::from(d)).sum();
    black_box(total);
    start.elapsed().as_secs_f64()
}
