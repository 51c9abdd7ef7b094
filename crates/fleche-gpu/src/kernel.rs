//! Kernel descriptions and their cost characterization.
//!
//! Data structures in this repo execute *functionally* on the host; each
//! operation reports what a real CUDA kernel doing the same work would have
//! touched ([`KernelWork`]). The engine converts that characterization into
//! simulated time under the device's bandwidth/latency model.

use crate::spec::DeviceSpec;
use crate::time::Ns;

/// Resource footprint of one kernel invocation.
///
/// Fields are *aggregate over the whole kernel*, except `dependent_rounds`,
/// which is the longest per-thread chain of serially dependent
/// global-memory accesses (pointer chases, lock retries) — the part no
/// amount of parallelism hides.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelWork {
    /// Total global-memory traffic (reads + writes), in bytes.
    pub global_bytes: u64,
    /// Total floating-point work, in FLOPs.
    pub flops: u64,
    /// Longest serial chain of dependent global-memory rounds in any thread.
    pub dependent_rounds: u32,
    /// Shared-memory accesses on the critical path (per representative
    /// thread), e.g. the binary-search steps of self-identified fusion.
    pub shared_accesses: u32,
}

impl KernelWork {
    /// A kernel that does nothing (still pays launch + minimum time).
    pub const NOOP: KernelWork = KernelWork {
        global_bytes: 0,
        flops: 0,
        dependent_rounds: 0,
        shared_accesses: 0,
    };

    /// Pure streaming traffic of `bytes` with no serial dependence.
    pub fn streaming(bytes: u64) -> KernelWork {
        KernelWork {
            global_bytes: bytes,
            ..KernelWork::NOOP
        }
    }

    /// Merges the footprint of another kernel into this one, taking the
    /// longest serial chain (fused kernels run their members concurrently).
    pub fn merge_concurrent(&mut self, other: &KernelWork) {
        self.global_bytes += other.global_bytes;
        self.flops += other.flops;
        self.dependent_rounds = self.dependent_rounds.max(other.dependent_rounds);
        self.shared_accesses = self.shared_accesses.max(other.shared_accesses);
    }
}

/// A kernel ready to be launched on a stream.
#[derive(Clone, Debug)]
pub struct KernelDesc {
    /// Label recorded in the timeline (used by breakdown figures).
    pub label: &'static str,
    /// Total launched threads (grid * block).
    pub threads: u32,
    /// Threads per block; fusion legality checks compare this.
    pub block_size: u32,
    /// Cost characterization.
    pub work: KernelWork,
}

impl KernelDesc {
    /// Convenience constructor; block size defaults to 128 threads.
    pub fn new(label: &'static str, threads: u32, work: KernelWork) -> KernelDesc {
        KernelDesc {
            label,
            threads: threads.max(1),
            block_size: 128,
            work,
        }
    }

    /// The serial (non-bandwidth) part of this kernel's execution time:
    /// minimum kernel time, dependent global rounds, shared-memory critical
    /// path, and compute.
    pub(crate) fn serial_floor(&self, spec: &DeviceSpec) -> Ns {
        let rounds = Ns(self.work.dependent_rounds as f64 * spec.global_round_latency.0);
        let shared = Ns(self.work.shared_accesses as f64 * spec.shared_access_latency.0);
        let compute_rate = spec.flops_per_ns * spec.occupancy(self.threads).max(0.005);
        let compute = Ns(self.work.flops as f64 / compute_rate.max(1e-9));
        spec.min_kernel_time + rounds + shared + compute
    }

    /// Lower bound on execution time if the kernel ran alone at its full
    /// bandwidth cap (used by tests and analytical sanity checks; the
    /// engine computes the shared-bandwidth version).
    pub fn isolated_exec_time(&self, spec: &DeviceSpec) -> Ns {
        let mem = spec
            .bandwidth_cap(self.threads)
            .transfer_time(self.work.global_bytes);
        self.serial_floor(spec).max(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_kernel_costs_min_time() {
        let spec = DeviceSpec::t4();
        let k = KernelDesc::new("noop", 32, KernelWork::NOOP);
        assert_eq!(k.isolated_exec_time(&spec), spec.min_kernel_time);
    }

    #[test]
    fn streaming_kernel_is_bandwidth_bound_when_big() {
        let spec = DeviceSpec::t4();
        let bytes = 512 << 20; // 512 MiB swamps the serial floor.
        let k = KernelDesc::new("stream", 1 << 20, KernelWork::streaming(bytes));
        let t = k.isolated_exec_time(&spec);
        let ideal = spec.hbm_bandwidth.transfer_time(bytes);
        assert!((t.as_ns() - ideal.as_ns()).abs() / ideal.as_ns() < 1e-9);
    }

    #[test]
    fn small_kernel_gets_fraction_of_bandwidth() {
        let spec = DeviceSpec::t4();
        let bytes = 64 << 20;
        let big = KernelDesc::new("big", 16_384, KernelWork::streaming(bytes));
        let small = KernelDesc::new("small", 1_024, KernelWork::streaming(bytes));
        assert!(small.isolated_exec_time(&spec) > big.isolated_exec_time(&spec) * 10.0);
    }

    #[test]
    fn dependent_rounds_add_serial_latency() {
        let spec = DeviceSpec::t4();
        let base = KernelDesc::new("b", 4096, KernelWork::NOOP);
        let chased = KernelDesc::new(
            "c",
            4096,
            KernelWork {
                dependent_rounds: 10,
                ..KernelWork::NOOP
            },
        );
        let delta = chased.isolated_exec_time(&spec) - base.isolated_exec_time(&spec);
        assert!((delta.as_ns() - 10.0 * spec.global_round_latency.as_ns()).abs() < 1e-6);
    }

    #[test]
    fn merge_concurrent_sums_traffic_maxes_chains() {
        let mut a = KernelWork {
            global_bytes: 100,
            flops: 10,
            dependent_rounds: 3,
            shared_accesses: 2,
        };
        let b = KernelWork {
            global_bytes: 50,
            flops: 5,
            dependent_rounds: 7,
            shared_accesses: 1,
        };
        a.merge_concurrent(&b);
        assert_eq!(a.global_bytes, 150);
        assert_eq!(a.flops, 15);
        assert_eq!(a.dependent_rounds, 7);
        assert_eq!(a.shared_accesses, 2);
    }

    #[test]
    fn zero_thread_kernel_is_clamped() {
        let k = KernelDesc::new("z", 0, KernelWork::NOOP);
        assert_eq!(k.threads, 1);
    }
}
