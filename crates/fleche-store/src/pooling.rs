//! Sum pooling.
//!
//! After embedding lookup, the vectors of each multi-hot field are
//! compressed into one dense vector per (sample, table) by an
//! element-wise sum before concatenation into the MLP input.
//! [`CpuStore::pooled`](crate::CpuStore::pooled) computes the sum on the
//! host; [`pooling_kernel_work`] prices the device kernel.

use fleche_gpu::KernelWork;

/// GPU footprint of pooling a batch: `total_vectors` input rows of
/// `dim` floats reduced to `output_rows` rows.
pub fn pooling_kernel_work(total_vectors: u64, output_rows: u64, dim: u32) -> KernelWork {
    let read = total_vectors * dim as u64 * 4;
    let write = output_rows * dim as u64 * 4;
    KernelWork {
        global_bytes: read + write,
        flops: total_vectors * dim as u64,
        ..KernelWork::streaming(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpuStore;
    use fleche_gpu::DramSpec;
    use fleche_workload::spec;

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn empty_input_panics() {
        let store = CpuStore::new(&spec::synthetic(1, 100, 4, -1.2), DramSpec::xeon_6252());
        store.pooled(0, &[]);
    }

    #[test]
    fn kernel_work_accounts_read_and_write() {
        let w = pooling_kernel_work(300, 100, 32);
        assert_eq!(w.global_bytes, (300 + 100) * 32 * 4);
        assert_eq!(w.flops, 300 * 32);
    }
}
