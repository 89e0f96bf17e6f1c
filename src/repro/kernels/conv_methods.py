"""End-to-end method models for the Figure 22 comparison.

Convolution layers (CNN models) are compared across five methods:

1. **Dense Explicit** — explicit dense im2col to global memory, then a
   CUTLASS dense GEMM over the lowered matrix.
2. **Dense Implicit** — cuDNN-style implicit im2col fused into the dense
   GEMM (the normalisation baseline of Figure 22).
3. **Single Sparse Explicit** — the vector-wise Sparse Tensor Core [72]
   consuming an explicitly lowered dense feature map (weight sparsity
   only).
4. **Single Sparse Implicit** — our bitmap implicit im2col feeding the
   outer-product SpGEMM, but exploiting only weight sparsity.
5. **Dual Sparse Implicit** — the full proposal: bitmap implicit im2col
   plus dual-side SpGEMM.

GEMM layers (BERT / RNN models) are compared across three methods:
Dense GEMM, Single Sparse GEMM [72] and our Dual Sparse GEMM.
"""

from __future__ import annotations

from repro.core.im2col_bitmap import BitmapIm2colStats
from repro.hw.config import GpuConfig
from repro.hw.gpu import GpuTimingModel, KernelTiming
from repro.hw.memory import TrafficBreakdown
from repro.kernels import calibration
from repro.kernels.base import KernelEstimate
from repro.kernels.gemm_dense import CutlassGemm
from repro.kernels.gemm_dual_sparse import DualSparseGemm
from repro.kernels.gemm_sparse_tc import SparseTensorCoreGemm
from repro.kernels.im2col_cost import Im2colCostModel
from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec
from repro.errors import ConfigError


class ConvMethod:
    """Names of the five convolution execution methods (Figure 22)."""

    DENSE_EXPLICIT = "Dense Explicit"
    DENSE_IMPLICIT = "Dense Implicit"
    SINGLE_SPARSE_EXPLICIT = "Single Sparse Explicit"
    SINGLE_SPARSE_IMPLICIT = "Single Sparse Implicit"
    DUAL_SPARSE_IMPLICIT = "Dual Sparse Implicit"


#: Evaluation order of the convolution methods.
CONV_METHODS = (
    ConvMethod.DENSE_EXPLICIT,
    ConvMethod.DENSE_IMPLICIT,
    ConvMethod.SINGLE_SPARSE_EXPLICIT,
    ConvMethod.SINGLE_SPARSE_IMPLICIT,
    ConvMethod.DUAL_SPARSE_IMPLICIT,
)


class GemmMethod:
    """Names of the three GEMM execution methods (BERT / RNN in Figure 22)."""

    DENSE = "Dense GEMM"
    SINGLE_SPARSE = "Single Sparse GEMM"
    DUAL_SPARSE = "Dual Sparse GEMM"


#: Evaluation order of the GEMM methods.
GEMM_METHODS = (GemmMethod.DENSE, GemmMethod.SINGLE_SPARSE, GemmMethod.DUAL_SPARSE)


def _bitmap_im2col_stats_for(spec: ConvLayerSpec) -> BitmapIm2colStats:
    """Closed-form bitmap-im2col operation counts for a layer spec.

    Mirrors :func:`repro.core.im2col_bitmap.count_bitmap_im2col_ops` but
    works from the layer's sparsity ratio instead of a concrete mask, so
    model-level sweeps stay cheap.
    """
    out_h, out_w = spec.output_shape
    density = 1.0 - spec.activation_sparsity
    row_loads = spec.batch * spec.in_channels * spec.kernel * out_h
    words_per_row = -(-(spec.width + 2 * spec.padding) // 32)
    nonzeros = spec.gemm_m * spec.gemm_k * density
    stats = BitmapIm2colStats(
        row_loads=row_loads,
        word_reads=row_loads * words_per_row,
        mask_ops=row_loads,
        shift_ops=row_loads * (spec.kernel - 1),
        popc_ops=row_loads * spec.kernel,
        value_reads=int(nonzeros),
        value_writes=int(nonzeros),
        bitmap_bits_written=spec.gemm_m * spec.gemm_k,
        lowered_shape=(spec.gemm_m, spec.gemm_k),
    )
    return stats


class ConvMethodModel:
    """Latency models of the five convolution methods on one layer."""

    def __init__(
        self,
        config: GpuConfig | None = None,
        element_bytes: int = 2,
    ) -> None:
        self.config = config
        self.element_bytes = element_bytes
        self.timing_model = GpuTimingModel(config)
        self.cutlass = CutlassGemm(config, element_bytes=element_bytes)
        self.sparse_tc = SparseTensorCoreGemm(config, element_bytes=element_bytes)
        self.dual_sparse = DualSparseGemm(config, element_bytes=element_bytes)
        self.im2col_cost = Im2colCostModel(self.timing_model.config)

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def _layer_traffic(
        self,
        spec: ConvLayerSpec,
        lowered_activations: bool,
        compressed_activations: bool,
        compressed_weights: bool,
    ) -> TrafficBreakdown:
        """DRAM traffic of one convolution under a given data layout."""
        if lowered_activations:
            activation_elements = spec.gemm_m * spec.gemm_k
        else:
            activation_elements = spec.feature_map_elements
        a_bytes = activation_elements * self.element_bytes
        metadata = 0.0
        if compressed_activations:
            a_bytes = (
                activation_elements
                * (1.0 - spec.activation_sparsity)
                * self.element_bytes
            )
            metadata += activation_elements / 8.0
        b_bytes = spec.weight_elements * self.element_bytes
        if compressed_weights:
            b_bytes = (
                spec.weight_elements * (1.0 - spec.weight_sparsity) * self.element_bytes
            )
            metadata += spec.weight_elements / 8.0
        output_bytes = spec.gemm_m * spec.gemm_n * self.element_bytes
        return TrafficBreakdown(
            a_bytes=a_bytes,
            b_bytes=b_bytes,
            metadata_bytes=metadata,
            output_bytes=output_bytes,
        )

    def _explicit_im2col_timing(self, spec: ConvLayerSpec) -> KernelTiming:
        """The standalone explicit-im2col kernel: a memory-bound copy pass."""
        lowered_bytes = spec.gemm_m * spec.gemm_k * self.element_bytes
        traffic = TrafficBreakdown(
            a_bytes=spec.feature_map_elements * self.element_bytes,
            output_bytes=lowered_bytes,
        )
        # Pure data movement: negligible compute, one launch overhead.
        return self.timing_model.time_kernel(
            0.0, traffic, calibration.KERNEL_LAUNCH_OVERHEAD_CYCLES
        )

    def _combine(
        self, method: str, spec: ConvLayerSpec, parts: list[KernelTiming], details: dict
    ) -> KernelEstimate:
        """Add up pipeline stages into a single estimate."""
        total_cycles = sum(part.total_cycles for part in parts)
        compute = sum(part.compute_cycles for part in parts)
        memory = sum(part.memory_cycles for part in parts)
        overhead = sum(part.overhead_cycles for part in parts)
        timing = KernelTiming(
            compute_cycles=compute,
            memory_cycles=memory,
            overhead_cycles=overhead,
            total_cycles=total_cycles,
            time_us=self.timing_model.config.cycles_to_us(total_cycles),
            bound="compute" if compute >= memory else "memory",
        )
        details = dict(details)
        details.update(
            {
                "layer": spec.name,
                "gemm_shape": (spec.gemm_m, spec.gemm_n, spec.gemm_k),
                "weight_sparsity": spec.weight_sparsity,
                "activation_sparsity": spec.activation_sparsity,
            }
        )
        return KernelEstimate(method=method, timing=timing, details=details)

    # ------------------------------------------------------------------ #
    # The five methods
    # ------------------------------------------------------------------ #
    def dense_explicit(self, spec: ConvLayerSpec) -> KernelEstimate:
        """Explicit dense im2col + CUTLASS dense GEMM."""
        im2col = self._explicit_im2col_timing(spec)
        compute = self.timing_model.dense_tensor_core_cycles(
            spec.gemm_m, spec.gemm_n, spec.gemm_k, calibration.TENSOR_CORE_EFFICIENCY
        )
        traffic = self._layer_traffic(
            spec,
            lowered_activations=True,
            compressed_activations=False,
            compressed_weights=False,
        )
        gemm = self.timing_model.time_kernel(
            compute, traffic, calibration.KERNEL_LAUNCH_OVERHEAD_CYCLES
        )
        return self._combine(
            ConvMethod.DENSE_EXPLICIT, spec, [im2col, gemm], {"stages": 2}
        )

    def dense_implicit(self, spec: ConvLayerSpec) -> KernelEstimate:
        """cuDNN-style implicit im2col fused with the dense GEMM."""
        compute = self.timing_model.dense_tensor_core_cycles(
            spec.gemm_m, spec.gemm_n, spec.gemm_k, calibration.TENSOR_CORE_EFFICIENCY
        )
        traffic = self._layer_traffic(
            spec,
            lowered_activations=False,
            compressed_activations=False,
            compressed_weights=False,
        )
        gemm = self.timing_model.time_kernel(
            compute, traffic, calibration.KERNEL_LAUNCH_OVERHEAD_CYCLES
        )
        return self._combine(
            ConvMethod.DENSE_IMPLICIT, spec, [gemm], {"stages": 1}
        )

    def single_sparse_explicit(self, spec: ConvLayerSpec) -> KernelEstimate:
        """Explicit dense im2col + vector-wise Sparse Tensor Core GEMM [72]."""
        im2col = self._explicit_im2col_timing(spec)
        dense_compute = self.timing_model.dense_tensor_core_cycles(
            spec.gemm_m, spec.gemm_n, spec.gemm_k, calibration.TENSOR_CORE_EFFICIENCY
        )
        relative = self.sparse_tc.hardware.relative_time(spec.weight_sparsity)
        traffic = self._layer_traffic(
            spec,
            lowered_activations=True,
            compressed_activations=False,
            compressed_weights=True,
        )
        gemm = self.timing_model.time_kernel(
            dense_compute * relative, traffic, calibration.KERNEL_LAUNCH_OVERHEAD_CYCLES
        )
        return self._combine(
            ConvMethod.SINGLE_SPARSE_EXPLICIT,
            spec,
            [im2col, gemm],
            {
                "stages": 2,
                "exploited_weight_sparsity": self.sparse_tc.hardware.exploited_sparsity(
                    spec.weight_sparsity
                ),
            },
        )

    def _our_implicit(
        self, spec: ConvLayerSpec, method: str, activation_sparsity: float
    ) -> KernelEstimate:
        """Shared path of the single/dual sparse implicit methods."""
        estimate = self.dual_sparse.estimate_from_sparsity(
            spec.gemm_m,
            spec.gemm_n,
            spec.gemm_k,
            a_sparsity=activation_sparsity,
            b_sparsity=spec.weight_sparsity,
        )
        im2col_stats = _bitmap_im2col_stats_for(spec)
        decode_cycles = self.im2col_cost.bitmap_decode_cycles(im2col_stats)
        compute = max(estimate.timing.compute_cycles, decode_cycles)
        traffic = self._layer_traffic(
            spec,
            lowered_activations=False,
            compressed_activations=activation_sparsity > 0.0,
            compressed_weights=True,
        )
        timing = self.timing_model.time_kernel(
            compute, traffic, calibration.KERNEL_LAUNCH_OVERHEAD_CYCLES
        )
        details = dict(estimate.details)
        details["im2col_decode_cycles"] = decode_cycles
        return self._combine(method, spec, [timing], details)

    def single_sparse_implicit(self, spec: ConvLayerSpec) -> KernelEstimate:
        """Our implicit bitmap im2col + SpGEMM using weight sparsity only."""
        return self._our_implicit(
            spec, ConvMethod.SINGLE_SPARSE_IMPLICIT, activation_sparsity=0.0
        )

    def dual_sparse_implicit(self, spec: ConvLayerSpec) -> KernelEstimate:
        """The full proposal: dual-side sparsity with implicit im2col."""
        return self._our_implicit(
            spec,
            ConvMethod.DUAL_SPARSE_IMPLICIT,
            activation_sparsity=spec.activation_sparsity,
        )

    # ------------------------------------------------------------------ #
    # Dispatch helpers
    # ------------------------------------------------------------------ #
    def estimate(self, spec: ConvLayerSpec, method: str) -> KernelEstimate:
        """Estimate one layer under one method."""
        dispatch = {
            ConvMethod.DENSE_EXPLICIT: self.dense_explicit,
            ConvMethod.DENSE_IMPLICIT: self.dense_implicit,
            ConvMethod.SINGLE_SPARSE_EXPLICIT: self.single_sparse_explicit,
            ConvMethod.SINGLE_SPARSE_IMPLICIT: self.single_sparse_implicit,
            ConvMethod.DUAL_SPARSE_IMPLICIT: self.dual_sparse_implicit,
        }
        if method not in dispatch:
            raise ConfigError(f"unknown convolution method {method!r}")
        return dispatch[method](spec)

    def estimate_all(self, spec: ConvLayerSpec) -> dict[str, KernelEstimate]:
        """Estimate one layer under all five methods."""
        return {method: self.estimate(spec, method) for method in CONV_METHODS}


class GemmMethodModel:
    """Latency models of the three GEMM methods (BERT / RNN layers)."""

    def __init__(self, config: GpuConfig | None = None, element_bytes: int = 2) -> None:
        self.cutlass = CutlassGemm(config, element_bytes=element_bytes)
        self.sparse_tc = SparseTensorCoreGemm(config, element_bytes=element_bytes)
        self.dual_sparse = DualSparseGemm(config, element_bytes=element_bytes)

    def dense(self, spec: GemmLayerSpec) -> KernelEstimate:
        """Dense CUTLASS GEMM."""
        estimate = self.cutlass.estimate_from_shape(spec.m, spec.n, spec.k)
        return KernelEstimate(
            method=GemmMethod.DENSE, timing=estimate.timing, details=estimate.details
        )

    def single_sparse(self, spec: GemmLayerSpec) -> KernelEstimate:
        """Vector-wise Sparse Tensor Core GEMM (weight sparsity only)."""
        estimate = self.sparse_tc.estimate_from_sparsity(
            spec.m, spec.n, spec.k, spec.weight_sparsity
        )
        return KernelEstimate(
            method=GemmMethod.SINGLE_SPARSE,
            timing=estimate.timing,
            details=estimate.details,
        )

    def dual_sparse_gemm(self, spec: GemmLayerSpec) -> KernelEstimate:
        """Our dual-side sparse GEMM.

        The kernel computes the transposed product so the highly pruned
        weight matrix sits on the outer product's column (A) side, whose
        OHMMA skip granularity is 8 elements (⟨0, 25, 50, 75⟩% levels);
        the denser activation matrix takes the 16-element (⟨0, 50⟩%) B
        side.  Choosing the operand assignment this way is free at kernel
        generation time and is what lets the design exploit >75% weight
        sparsity where the fixed-ratio Sparse Tensor Core cannot
        (Section VI-D).
        """
        estimate = self.dual_sparse.estimate_from_sparsity(
            spec.n,
            spec.m,
            spec.k,
            a_sparsity=spec.weight_sparsity,
            b_sparsity=spec.activation_sparsity,
        )
        return KernelEstimate(
            method=GemmMethod.DUAL_SPARSE,
            timing=estimate.timing,
            details=estimate.details,
        )

    def estimate(self, spec: GemmLayerSpec, method: str) -> KernelEstimate:
        """Estimate one GEMM layer under one method."""
        dispatch = {
            GemmMethod.DENSE: self.dense,
            GemmMethod.SINGLE_SPARSE: self.single_sparse,
            GemmMethod.DUAL_SPARSE: self.dual_sparse_gemm,
        }
        if method not in dispatch:
            raise ConfigError(f"unknown GEMM method {method!r}")
        return dispatch[method](spec)

    def estimate_all(self, spec: GemmLayerSpec) -> dict[str, KernelEstimate]:
        """Estimate one GEMM layer under all three methods."""
        return {method: self.estimate(spec, method) for method in GEMM_METHODS}
