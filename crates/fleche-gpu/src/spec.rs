//! Hardware calibration constants.
//!
//! [`DeviceSpec`] describes the GPU (the paper's NVIDIA T4), [`DramSpec`]
//! describes the CPU-side memory system (the paper's Xeon Gold 6252 node).
//! Every timing the simulator produces derives from these numbers, so a
//! different platform is a different spec, not different code.

use crate::time::{BytesPerNs, Ns};

/// Which host<->device copy API a transfer uses.
///
/// The paper replaces `cudaMemcpy` (~6-7 us fixed overhead) with GDRCopy
/// (~0.1 us) for small metadata copies; the two variants differ only in
/// their fixed per-call cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyApi {
    /// Driver-mediated copy: high fixed overhead, full PCIe bandwidth.
    CudaMemcpy,
    /// GPUDirect-RDMA CPU-driven copy: tiny fixed overhead, best for small
    /// payloads; sustained bandwidth is lower than DMA for large copies.
    GdrCopy,
}

/// GPU execution model parameters.
///
/// Defaults come from the paper's Table 1 (T4: 2560 cores, 300 GB/s HBM,
/// 16 GB) plus published CUDA microbenchmarks for the software overheads the
/// paper calls *kernel maintenance* (launch, synchronization, context work).
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Human-readable name used in harness headers.
    pub name: &'static str,
    /// Peak global-memory (HBM/GDDR) bandwidth.
    pub hbm_bandwidth: BytesPerNs,
    /// Host->device / device->host link bandwidth (PCIe).
    pub pcie_bandwidth: BytesPerNs,
    /// Sustained bandwidth of CPU-driven GDRCopy writes over the BAR.
    pub gdrcopy_bandwidth: BytesPerNs,
    /// CPU-side cost to launch one kernel (driver + runtime work).
    pub kernel_launch_overhead: Ns,
    /// Extra CPU-side cost to observe completion of a stream
    /// (`cudaStreamSynchronize` polling/wakeup path).
    pub stream_sync_overhead: Ns,
    /// Per-kernel launch cost when replayed from a captured graph
    /// (`cudaGraphLaunch` amortizes driver work across nodes).
    pub graph_per_kernel_overhead: Ns,
    /// Fixed cost of one `cudaGraphLaunch` invocation.
    pub graph_launch_fixed: Ns,
    /// Fixed per-call overhead of `cudaMemcpy`.
    pub memcpy_fixed: Ns,
    /// Fixed per-call overhead of a GDRCopy transfer.
    pub gdrcopy_fixed: Ns,
    /// Minimum wall time of any kernel, however empty (pipeline fill,
    /// scheduling, teardown).
    pub min_kernel_time: Ns,
    /// Latency of one dependent round of global-memory access (a pointer
    /// chase step that cannot be overlapped within a thread).
    pub global_round_latency: Ns,
    /// Effective latency contribution of one shared-memory access on the
    /// kernel's critical path.
    pub shared_access_latency: Ns,
    /// Resident thread count needed to saturate memory bandwidth; smaller
    /// kernels get a proportional fraction of peak.
    pub saturation_threads: u32,
    /// FP32 throughput in FLOPs per nanosecond (1 TFLOPS == 1000).
    pub flops_per_ns: f64,
}

impl DeviceSpec {
    /// The paper's NVIDIA T4 inference card.
    pub fn t4() -> DeviceSpec {
        DeviceSpec {
            name: "NVIDIA T4 (simulated)",
            hbm_bandwidth: BytesPerNs::from_gbps(300.0),
            pcie_bandwidth: BytesPerNs::from_gbps(12.0),
            gdrcopy_bandwidth: BytesPerNs::from_gbps(6.0),
            kernel_launch_overhead: Ns::from_us(4.0),
            stream_sync_overhead: Ns::from_us(2.5),
            graph_per_kernel_overhead: Ns::from_us(0.5),
            graph_launch_fixed: Ns::from_us(3.0),
            memcpy_fixed: Ns::from_us(6.5),
            gdrcopy_fixed: Ns::from_us(0.1),
            min_kernel_time: Ns::from_us(1.8),
            global_round_latency: Ns(400.0),
            shared_access_latency: Ns(25.0),
            saturation_threads: 16_384,
            flops_per_ns: 8_100.0,
        }
    }

    /// Fraction of peak memory bandwidth a kernel with `threads` resident
    /// threads can drive on its own (linear ramp up to saturation).
    #[inline]
    pub(crate) fn occupancy(&self, threads: u32) -> f64 {
        if self.saturation_threads == 0 {
            return 1.0;
        }
        (threads as f64 / self.saturation_threads as f64).clamp(0.0, 1.0)
    }

    /// Per-kernel cap on memory bandwidth given its parallelism.
    #[inline]
    pub(crate) fn bandwidth_cap(&self, threads: u32) -> BytesPerNs {
        // Even a single warp gets a small floor so degenerate kernels make
        // progress; a real warp streams a few GB/s.
        let frac = self.occupancy(threads).max(0.005);
        BytesPerNs(self.hbm_bandwidth.0 * frac)
    }

    /// Fixed overhead of one copy call through `api`.
    #[inline]
    pub(crate) fn copy_fixed(&self, api: CopyApi) -> Ns {
        match api {
            CopyApi::CudaMemcpy => self.memcpy_fixed,
            CopyApi::GdrCopy => self.gdrcopy_fixed,
        }
    }

    /// Link bandwidth of one copy call through `api`.
    #[inline]
    pub(crate) fn copy_bandwidth(&self, api: CopyApi) -> BytesPerNs {
        match api {
            CopyApi::CudaMemcpy => self.pcie_bandwidth,
            CopyApi::GdrCopy => self.gdrcopy_bandwidth,
        }
    }
}

/// CPU-side memory system parameters (the CPU-DRAM layer of the cache
/// hierarchy).
#[derive(Clone, Debug)]
pub struct DramSpec {
    /// Human-readable name used in harness headers.
    pub name: &'static str,
    /// Aggregate DRAM bandwidth available to the inference process.
    pub bandwidth: BytesPerNs,
    /// Average cost of one dependent random access (an LLC-missing hash
    /// probe).
    pub random_access_latency: Ns,
    /// Number of CPU worker threads the embedding service uses to issue
    /// lookups; memory-level parallelism divides the latency term.
    pub lookup_threads: u32,
    /// DRAM capacity in bytes.
    pub capacity: u64,
}

impl DramSpec {
    /// The paper's Xeon Gold 6252 host (Table 1: 512 GB, 60 GB/s).
    pub fn xeon_6252() -> DramSpec {
        DramSpec {
            name: "Xeon Gold 6252 DRAM (simulated)",
            bandwidth: BytesPerNs::from_gbps(60.0),
            random_access_latency: Ns(110.0),
            lookup_threads: 6,
            capacity: 512 * (1 << 30),
        }
    }

    /// Time to serve a batch of `lookups` random hash probes that together
    /// move `bytes` of embedding payload.
    ///
    /// The batch is bound either by latency (each thread chases dependent
    /// probes; `probes_per_lookup` rounds each) or by DRAM bandwidth,
    /// whichever dominates — matching the paper's observation that sparse
    /// embedding access exhausts DRAM bandwidth at scale.
    pub fn batch_lookup_time(&self, lookups: u64, probes_per_lookup: f64, bytes: u64) -> Ns {
        if lookups == 0 && bytes == 0 {
            return Ns::ZERO;
        }
        let threads = self.lookup_threads.max(1) as f64;
        let latency_bound =
            Ns(lookups as f64 * probes_per_lookup * self.random_access_latency.0 / threads);
        let bandwidth_bound = self.bandwidth.transfer_time(bytes);
        latency_bound.max(bandwidth_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_matches_table1() {
        let t4 = DeviceSpec::t4();
        assert_eq!(t4.hbm_bandwidth.as_gbps(), 300.0);
        let dram = DramSpec::xeon_6252();
        assert_eq!(dram.bandwidth.as_gbps(), 60.0);
        assert_eq!(dram.capacity, 512 * (1 << 30));
    }

    #[test]
    fn occupancy_ramps_linearly_and_clamps() {
        let t4 = DeviceSpec::t4();
        assert_eq!(t4.occupancy(0), 0.0);
        assert!((t4.occupancy(8_192) - 0.5).abs() < 1e-12);
        assert_eq!(t4.occupancy(16_384), 1.0);
        assert_eq!(t4.occupancy(1 << 20), 1.0);
    }

    #[test]
    fn bandwidth_cap_has_floor() {
        let t4 = DeviceSpec::t4();
        assert!(t4.bandwidth_cap(0).0 > 0.0);
        assert!(t4.bandwidth_cap(32).0 < t4.bandwidth_cap(4096).0);
        assert_eq!(t4.bandwidth_cap(1 << 20).0, t4.hbm_bandwidth.0);
    }

    #[test]
    fn gdrcopy_beats_memcpy_for_small_copies_only() {
        let t4 = DeviceSpec::t4();
        let small = 256_u64;
        let big = 64 << 20;
        let memcpy =
            |b: u64| t4.copy_fixed(CopyApi::CudaMemcpy) + t4.pcie_bandwidth.transfer_time(b);
        let gdr = |b: u64| t4.copy_fixed(CopyApi::GdrCopy) + t4.gdrcopy_bandwidth.transfer_time(b);
        assert!(gdr(small) < memcpy(small));
        assert!(memcpy(big) < gdr(big));
    }

    #[test]
    fn dram_batch_lookup_latency_vs_bandwidth_regimes() {
        let dram = DramSpec::xeon_6252();
        // Few huge values: bandwidth-bound.
        let bw = dram.batch_lookup_time(4, 2.0, 6 << 30);
        assert!((bw.as_ns() - (6u64 << 30) as f64 / 60.0).abs() < 1.0);
        // Many tiny values: latency-bound.
        let lat = dram.batch_lookup_time(1_000_000, 2.0, 4);
        let expect = 1_000_000.0 * 2.0 * 110.0 / 6.0;
        assert!((lat.as_ns() - expect).abs() < 1.0);
        assert_eq!(dram.batch_lookup_time(0, 2.0, 0), Ns::ZERO);
    }
}
