//! Tiling and double-buffering plans (Section III-D of the paper).
//!
//! Every layer's working set — compressed ifmap, weight tile, neuron-state
//! tile and the worst-case-sized compressed ofmap buffers — must fit in the
//! 128 KiB scratchpad, with weights double-buffered first and ifmaps second
//! so that a compressed ofmap tile is fully populated before it is copied
//! back out. The planner computes how many weight tiles a layer needs and
//! the DMA traffic of one layer invocation; the kernels emit that traffic
//! as annotated stream-program DMA phases so that compute/transfer overlap
//! (or the lack of it) shows up in the phase statistics.

use snitch_arch::fp::FpFormat;
use snitch_arch::ClusterConfig;
use snitch_mem::dma::{DmaDirection, DmaRequest};
use snitch_mem::{SpmAllocator, SpmBuffer};
use spikestream_ir::DmaPhase;
use spikestream_snn::compress::INDEX_BYTES;
use spikestream_snn::{CompressedIfmap, ConvSpec, LinearSpec, PoolSpec};

/// Scratchpad addresses and DMA traffic of one layer invocation.
#[derive(Debug, Clone)]
pub struct LayerTilePlan {
    /// Scratchpad buffer holding (one tile of) the weights.
    pub weights: SpmBuffer,
    /// Scratchpad buffer holding the compressed ifmap indices.
    pub ifmap_idcs: SpmBuffer,
    /// Scratchpad buffer holding the neuron-state (membrane) tile.
    pub neuron_state: SpmBuffer,
    /// Number of weight tiles the layer is split into (0 for weight-less
    /// layers such as pooling).
    pub weight_tiles: usize,
    /// Inbound DMA requests (weights + ifmap + neuron state).
    pub dma_in: Vec<DmaRequest>,
    /// Outbound DMA requests (compressed ofmap + neuron state write-back).
    pub dma_out: Vec<DmaRequest>,
}

impl LayerTilePlan {
    /// Total bytes moved into the scratchpad.
    pub fn bytes_in(&self) -> u64 {
        self.dma_in.iter().map(|r| r.total_bytes()).sum()
    }

    /// Total bytes moved out of the scratchpad.
    pub fn bytes_out(&self) -> u64 {
        self.dma_out.iter().map(|r| r.total_bytes()).sum()
    }

    /// The plan's inbound transfers as annotated stream-program DMA
    /// phases, emitted *before* the compute phase: the first weight tile,
    /// the compressed ifmap and the neuron state are prologue loads the
    /// compute stream waits for; the remaining weight tiles are
    /// double-buffered behind compute.
    pub fn dma_in_phases(&self) -> impl Iterator<Item = DmaPhase> + '_ {
        self.dma_in.iter().enumerate().map(|(i, req)| DmaPhase {
            direction: req.direction,
            row_bytes: req.row_bytes,
            rows: req.rows,
            row_stride_overhead: req.row_stride_overhead,
            double_buffered: i > 0 && i < self.weight_tiles,
        })
    }

    /// The plan's outbound transfers, emitted *after* the compute phase:
    /// the compressed ofmap rows stream out as they are produced
    /// (double-buffered, so the engine issues them as early as it is free)
    /// while the final membrane write-back is an epilogue transfer that
    /// waits for the last group to complete.
    pub fn dma_out_phases(&self) -> impl Iterator<Item = DmaPhase> + '_ {
        let last_out = self.dma_out.len().saturating_sub(1);
        self.dma_out.iter().enumerate().map(move |(i, req)| DmaPhase {
            direction: req.direction,
            row_bytes: req.row_bytes,
            rows: req.rows,
            row_stride_overhead: req.row_stride_overhead,
            double_buffered: i < last_out,
        })
    }
}

/// Planner that sizes tiles for the scratchpad of a cluster configuration.
#[derive(Debug, Clone)]
pub struct TilingPlanner {
    config: ClusterConfig,
}

impl TilingPlanner {
    /// Create a planner for the given cluster.
    pub fn new(config: &ClusterConfig) -> Self {
        TilingPlanner { config: config.clone() }
    }

    /// Plan one convolutional layer invocation from a concrete compressed
    /// input. `state_vars` is the number of per-neuron state variables the
    /// layer's neuron model keeps resident (1 for LIF, 2 for Izhikevich's
    /// membrane + recovery pair); it scales the state tile and both of its
    /// DMA transfers.
    pub fn plan_conv(
        &self,
        spec: &ConvSpec,
        format: FpFormat,
        input: &CompressedIfmap,
        state_vars: usize,
    ) -> LayerTilePlan {
        self.plan_conv_spikes(spec, format, input.spike_count(), state_vars)
    }

    /// Plan one convolutional layer invocation from an ifmap spike count —
    /// the entry point shared by the exact lowering (realized count) and
    /// the symbolic lowering (expected count), so both backends see the
    /// same scratchpad layout and DMA traffic by construction.
    pub fn plan_conv_spikes(
        &self,
        spec: &ConvSpec,
        format: FpFormat,
        ifmap_spikes: usize,
        state_vars: usize,
    ) -> LayerTilePlan {
        let elem = format.bytes() as usize;
        let weight_bytes = spec.weight_count() * elem;
        let idcs_bytes = ifmap_spikes * INDEX_BYTES;
        let padded = spec.padded_input();
        let sptr_bytes = (padded.h * padded.w + 1) * INDEX_BYTES;
        let out = spec.conv_output();
        // Per-neuron state kept in FP32; multi-variable models widen the
        // tile (and its load/write-back transfers) proportionally.
        let state_bytes = out.len() * 4 * state_vars.max(1);

        // Worst-case (zero-sparsity) compressed ofmap allocation.
        let ofmap_bytes = out.len() * INDEX_BYTES + (out.h * out.w + 1) * INDEX_BYTES;
        self.plan(weight_bytes, idcs_bytes, sptr_bytes, state_bytes, ofmap_bytes, out.h)
    }

    /// Plan one average-pooling layer invocation: the dense spike tile in,
    /// the worst-case compressed output back out, no weights.
    pub fn plan_pool(&self, spec: &PoolSpec) -> LayerTilePlan {
        let in_bytes = spec.input.len(); // one byte per binary neuron
        let out = spec.output();
        let ofmap_bytes = out.len() * INDEX_BYTES + (out.h * out.w + 1) * INDEX_BYTES;

        let mut alloc = SpmAllocator::new(&self.config);
        let mut grab = |bytes: usize| -> SpmBuffer {
            alloc
                .alloc(bytes.min(alloc.free() as usize).max(8) as u32)
                .unwrap_or(SpmBuffer { base: 0, bytes: 0 })
        };
        let ifmap_idcs = grab(in_bytes);
        // The worst-case compressed output is reserved, though no emitter
        // addresses it.
        grab(ofmap_bytes);

        LayerTilePlan {
            weights: SpmBuffer { base: 0, bytes: 0 },
            ifmap_idcs,
            neuron_state: SpmBuffer { base: 0, bytes: 0 },
            weight_tiles: 0,
            dma_in: vec![DmaRequest::contiguous(DmaDirection::In, in_bytes as u64)],
            dma_out: vec![DmaRequest::strided_2d(
                DmaDirection::Out,
                (ofmap_bytes / out.h.max(1)) as u64,
                out.h as u64,
            )],
        }
    }

    /// Plan one fully connected layer invocation. `state_vars` scales the
    /// neuron-state tile exactly as in [`TilingPlanner::plan_conv`].
    pub fn plan_linear(
        &self,
        spec: &LinearSpec,
        format: FpFormat,
        active_inputs: usize,
        state_vars: usize,
    ) -> LayerTilePlan {
        let elem = format.bytes() as usize;
        let weight_bytes = spec.weight_count() * elem;
        let idcs_bytes = active_inputs * INDEX_BYTES;
        let state_bytes = spec.out_features * 4 * state_vars.max(1);
        let ofmap_bytes = spec.out_features * INDEX_BYTES + 4;
        self.plan(weight_bytes, idcs_bytes, 8, state_bytes, ofmap_bytes, 1)
    }

    fn plan(
        &self,
        weight_bytes: usize,
        idcs_bytes: usize,
        sptr_bytes: usize,
        state_bytes: usize,
        ofmap_bytes: usize,
        out_rows: usize,
    ) -> LayerTilePlan {
        let capacity = self.config.spm_bytes as usize;
        // Reserve space for everything except the weights, double-buffering
        // the ifmap indices (Section III-D: weights first, then ifmaps).
        let fixed = 2 * idcs_bytes + sptr_bytes + state_bytes + ofmap_bytes;
        let weight_budget = capacity.saturating_sub(fixed).max(capacity / 4) / 2;
        let weight_tiles = weight_bytes.div_ceil(weight_budget.max(1)).max(1);
        let weight_tile_bytes = weight_bytes.div_ceil(weight_tiles);

        let mut alloc = SpmAllocator::new(&self.config);
        let mut grab = |bytes: usize| -> SpmBuffer {
            alloc
                .alloc(bytes.min(alloc.free() as usize).max(8) as u32)
                .unwrap_or(SpmBuffer { base: 0, bytes: 0 })
        };
        let weights = grab(weight_tile_bytes);
        let ifmap_idcs = grab(idcs_bytes);
        // The spatial pointers and the worst-case compressed ofmap are
        // reserved, though no emitter addresses them: the pointers sit
        // before the neuron-state tile and bound what is left for it.
        grab(sptr_bytes);
        let neuron_state = grab(state_bytes);
        grab(ofmap_bytes);

        let mut dma_in = Vec::new();
        // One transfer per weight tile (double-buffered against compute).
        for _ in 0..weight_tiles {
            dma_in.push(DmaRequest::contiguous(DmaDirection::In, weight_tile_bytes as u64));
        }
        // The compressed ifmap tile fits a single DMA request thanks to the
        // aggregated spatial pointers (Section III-D).
        dma_in.push(DmaRequest::contiguous(DmaDirection::In, (idcs_bytes + sptr_bytes) as u64));
        dma_in.push(DmaRequest::contiguous(DmaDirection::In, state_bytes as u64));

        // The ofmap c_idcs fragments are copied out row by row because of
        // the worst-case allocation; the s_ptr elements are joined by the
        // DMA core before the final copy.
        let dma_out = vec![
            DmaRequest::strided_2d(
                DmaDirection::Out,
                (ofmap_bytes / out_rows.max(1)) as u64,
                out_rows as u64,
            ),
            DmaRequest::contiguous(DmaDirection::Out, state_bytes as u64),
        ];

        LayerTilePlan { weights, ifmap_idcs, neuron_state, weight_tiles, dma_in, dma_out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikestream_snn::tensor::{SpikeMap, TensorShape};

    fn planner() -> TilingPlanner {
        TilingPlanner::new(&ClusterConfig::default())
    }

    fn small_conv() -> ConvSpec {
        ConvSpec {
            input: TensorShape::new(8, 8, 16),
            out_channels: 32,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        }
    }

    #[test]
    fn small_layer_needs_a_single_weight_tile() {
        let spec = small_conv();
        let input = CompressedIfmap::from_spike_map(&SpikeMap::silent(spec.padded_input()));
        let plan = planner().plan_conv(&spec, FpFormat::Fp16, &input, 1);
        assert_eq!(plan.weight_tiles, 1);
        assert!(plan.bytes_in() > 0);
        assert!(plan.bytes_out() > 0);
    }

    #[test]
    fn two_variable_models_double_the_state_traffic() {
        let spec = small_conv();
        let input = CompressedIfmap::from_spike_map(&SpikeMap::silent(spec.padded_input()));
        let lif = planner().plan_conv(&spec, FpFormat::Fp16, &input, 1);
        let izhi = planner().plan_conv(&spec, FpFormat::Fp16, &input, 2);
        let state = (spec.conv_output().len() * 4) as u64;
        assert_eq!(izhi.neuron_state.bytes, lif.neuron_state.bytes * 2);
        assert_eq!(izhi.bytes_in(), lif.bytes_in() + state);
        assert_eq!(izhi.bytes_out(), lif.bytes_out() + state);

        let lin = LinearSpec { in_features: 256, out_features: 64 };
        let l1 = planner().plan_linear(&lin, FpFormat::Fp32, 16, 1);
        let l2 = planner().plan_linear(&lin, FpFormat::Fp32, 16, 2);
        assert_eq!(l2.neuron_state.bytes, l1.neuron_state.bytes * 2);
        assert_eq!(l2.bytes_out(), l1.bytes_out() + (lin.out_features * 4) as u64);
    }

    #[test]
    fn large_layer_is_split_into_multiple_weight_tiles() {
        let spec = ConvSpec {
            input: TensorShape::new(8, 8, 512),
            out_channels: 512,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        };
        let input = CompressedIfmap::from_spike_map(&SpikeMap::silent(spec.padded_input()));
        let plan = planner().plan_conv(&spec, FpFormat::Fp16, &input, 1);
        // 512*512*9 FP16 weights are ~4.5 MiB: far beyond one 128 KiB tile.
        assert!(plan.weight_tiles > 10, "got {}", plan.weight_tiles);
        assert_eq!(plan.dma_in.len(), plan.weight_tiles + 2);
    }

    #[test]
    fn narrower_formats_move_fewer_weight_bytes() {
        let spec = small_conv();
        let input = CompressedIfmap::from_spike_map(&SpikeMap::silent(spec.padded_input()));
        let fp16 = planner().plan_conv(&spec, FpFormat::Fp16, &input, 1);
        let fp8 = planner().plan_conv(&spec, FpFormat::Fp8, &input, 1);
        assert!(fp8.bytes_in() < fp16.bytes_in());
    }

    #[test]
    fn linear_plan_covers_weights_and_state() {
        let spec = LinearSpec { in_features: 1024, out_features: 128 };
        let plan = planner().plan_linear(&spec, FpFormat::Fp16, 40, 1);
        assert!(plan.weight_tiles >= 2, "1024x128 FP16 weights exceed one tile");
        assert!(plan.bytes_in() >= (spec.weight_count() * 2) as u64);
    }

    #[test]
    fn dma_phase_annotations_follow_the_double_buffer_scheme() {
        let spec = ConvSpec {
            input: TensorShape::new(8, 8, 512),
            out_channels: 512,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            pool: false,
        };
        let input = CompressedIfmap::from_spike_map(&SpikeMap::silent(spec.padded_input()));
        let plan = planner().plan_conv(&spec, FpFormat::Fp16, &input, 1);
        let ins: Vec<_> = plan.dma_in_phases().collect();
        let outs: Vec<_> = plan.dma_out_phases().collect();

        // Prologue: first weight tile + ifmap + state; every further weight
        // tile is double-buffered behind compute.
        assert_eq!(ins.len(), plan.weight_tiles + 2);
        assert!(!ins[0].double_buffered, "first weight tile gates compute");
        assert!(ins[1..plan.weight_tiles].iter().all(|p| p.double_buffered));
        assert!(ins[plan.weight_tiles..].iter().all(|p| !p.double_buffered));
        // Ofmap rows stream out as produced; the membrane write-back is the
        // epilogue transfer.
        assert!(outs[0].double_buffered);
        assert!(!outs.last().unwrap().double_buffered);
        // Byte totals agree with the raw request lists.
        assert_eq!(ins.iter().map(|p| p.total_bytes()).sum::<u64>(), plan.bytes_in());
        assert_eq!(outs.iter().map(|p| p.total_bytes()).sum::<u64>(), plan.bytes_out());
    }
}
