//! The dense (MLP/cross) part of the DLRM.
//!
//! The paper evaluates on a Deep & Cross Network (6 cross layers + a
//! (1024, 1024) MLP). For end-to-end timing only the dense part's *cost*
//! matters (its kernels occupy the GPU after the embedding phase), so this
//! module prices each layer as a GEMM kernel on the simulated device and
//! computes no activations: [`DenseModel::run`] launches the layer kernels
//! and returns the time they took.

use fleche_gpu::{Gpu, KernelDesc, KernelWork, Ns, StreamId};

/// A Deep & Cross Network shape.
#[derive(Clone, Debug)]
pub struct DenseModel {
    /// Width of the concatenated input (pooled embeddings + dense
    /// features).
    pub input_dim: u32,
    /// Number of cross layers (each computes `x0 * (w . x) + b + x`).
    pub cross_layers: u32,
    /// Hidden layer widths of the MLP.
    pub hidden: Vec<u32>,
}

impl DenseModel {
    /// The paper's evaluation model: 6 cross layers, (1024, 1024) MLP.
    pub fn dcn_paper(input_dim: u32) -> DenseModel {
        DenseModel {
            input_dim,
            cross_layers: 6,
            hidden: vec![1024, 1024],
        }
    }

    /// A model with `n` hidden layers of 1024 units (the Exp #12 sweep).
    pub fn with_hidden_layers(input_dim: u32, n: usize) -> DenseModel {
        DenseModel {
            input_dim,
            cross_layers: 6,
            hidden: vec![1024; n],
        }
    }

    /// Kernel sequence of one forward pass (one kernel per layer, which is
    /// how frameworks launch GEMMs — the dense part thus pays a handful of
    /// launch overheads too, matching reality).
    pub fn layer_kernels(&self, batch: u64) -> Vec<KernelDesc> {
        let d = self.input_dim as u64;
        let mut out = Vec::new();
        for _ in 0..self.cross_layers {
            out.push(KernelDesc::new(
                "cross",
                (batch as u32 * 32).clamp(128, 1 << 20),
                KernelWork {
                    global_bytes: batch * d * 4 * 3 + (d + 1) * 4,
                    flops: 5 * d * batch,
                    dependent_rounds: 2,
                    shared_accesses: 4,
                },
            ));
        }
        let mut prev = d;
        for &h in &self.hidden {
            out.push(KernelDesc::new(
                "gemm",
                ((batch * h as u64 / 4) as u32).clamp(256, 1 << 20),
                KernelWork {
                    global_bytes: batch * (prev + h as u64) * 4 + prev * h as u64 * 4,
                    flops: 2 * prev * h as u64 * batch,
                    dependent_rounds: 4,
                    shared_accesses: 16,
                },
            ));
            prev = h as u64;
        }
        out.push(KernelDesc::new(
            "logit",
            (batch as u32).max(128),
            KernelWork {
                global_bytes: batch * (prev + 1) * 4 + prev * 4,
                flops: 2 * prev * batch,
                dependent_rounds: 2,
                shared_accesses: 2,
            },
        ));
        out
    }

    /// Launches the forward pass on `stream` and syncs; returns the time
    /// the dense part took.
    pub fn run(&self, gpu: &mut Gpu, stream: StreamId, batch: u64) -> Ns {
        let t0 = gpu.now();
        for k in self.layer_kernels(batch) {
            gpu.launch(stream, k);
        }
        gpu.sync_stream(stream);
        gpu.now() - t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_gpu::DeviceSpec;

    #[test]
    fn kernel_count_matches_layers() {
        let m = DenseModel::dcn_paper(512);
        let ks = m.layer_kernels(256);
        assert_eq!(ks.len() as u32, m.cross_layers + m.hidden.len() as u32 + 1);
    }

    #[test]
    fn deeper_mlp_takes_longer() {
        let time = |layers: usize| {
            let mut gpu = Gpu::new(DeviceSpec::t4());
            let s = gpu.default_stream();
            DenseModel::with_hidden_layers(512, layers).run(&mut gpu, s, 256)
        };
        assert!(time(5) > time(2));
    }

    #[test]
    fn bigger_batch_takes_longer() {
        let time = |batch: u64| {
            let mut gpu = Gpu::new(DeviceSpec::t4());
            let s = gpu.default_stream();
            DenseModel::dcn_paper(512).run(&mut gpu, s, batch)
        };
        assert!(time(4096) > time(64));
    }
}
