//! The reference kernel: fixed work, independent of the repo's code, whose
//! wall time gives the host's speed at the moment it runs.
//!
//! The benchmark shares its host with other machines' work. A fixed loop
//! runs up to twice as slow in phases of seconds to tens of seconds, longer
//! than a run, so the wall time of the same simulated work differs by a
//! quarter from run to run however it is summarised. The workloads
//! therefore run this kernel between rounds of their own work and divide
//! each round's wall time by the kernel's slowdown: the kernel's wall time
//! over [`REF_NS`]. Every timing reported end to end is thus a time at the
//! reference speed, the speed at which the kernel takes [`REF_NS`].
//!
//! The kernel is built like the simulator's hot path (hash-map updates over
//! about 1 MB, a binary-heap event queue, small buffer copies), and it
//! allocates nothing, so the program's allocator state cannot change it.
//! One untimed pass before the timed one brings back into the caches what
//! the workload evicted, so a program with a larger working set does not
//! make the kernel slower and itself look faster. perfbench/NOTES.md gives
//! the spreads measured with and without it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Wall time of one timed pass at the reference speed, ns: about the
/// kernel's time in the host's fast phases on a 2.1 GHz Xeon vCPU.
pub const REF_NS: f64 = 1_000_000.0;

const KEYS: u32 = 40_000;
const EVENTS: u32 = 4_000;
const BUFS: usize = 1024;
const OPS: usize = 8_000;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The kernel's working set.
pub struct RefKernel {
    map: HashMap<u32, u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    bufs: Vec<[u8; 512]>,
    x: u64,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel {
            map: (0..KEYS).map(|k| (k, u64::from(k))).collect(),
            heap: (0..EVENTS)
                .map(|i| Reverse((mix(u64::from(i)), i)))
                .collect(),
            bufs: vec![[0; 512]; BUFS],
            x: 1,
        }
    }
}

impl RefKernel {
    fn pass(&mut self) {
        let mut out = [0u8; 96];
        for _ in 0..OPS {
            self.x = mix(self.x);
            let k = (self.x % u64::from(KEYS)) as u32;
            if let Some(v) = self.map.get_mut(&k) {
                *v += 1;
            }
            self.heap.push(Reverse((self.x >> 20, k)));
            self.heap.pop();
            let b = &mut self.bufs[(self.x % BUFS as u64) as usize];
            let at = (self.x >> 12) as usize % (512 - 8);
            b[at..at + 8].copy_from_slice(&self.x.to_le_bytes());
            out.copy_from_slice(&b[..96]);
            black_box(&out);
        }
    }

    /// Runs the kernel twice, untimed then timed, and returns the host's
    /// slowdown: the timed pass's wall time over [`REF_NS`].
    pub fn slowdown(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        t.elapsed().as_nanos() as f64 / REF_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_keeps_its_working_set_fixed() {
        let mut k = RefKernel::default();
        for _ in 0..3 {
            assert!(k.slowdown() > 0.0);
        }
        assert_eq!(k.map.len(), KEYS as usize);
        assert_eq!(k.heap.len(), EVENTS as usize);
    }
}
