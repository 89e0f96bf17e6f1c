"""Sparse CNN inference: AGP-pruned convolutions over a ReLU-sparse input.

This example builds a small three-layer CNN, prunes its weights with the
AGP schedule, and pushes a feature map through the functional dual-side
sparse convolution pipeline layer by layer.  After every layer it reports
the naturally occurring activation sparsity (from ReLU) and the
instruction-level speedup the dual-side sparse Tensor Core extracts, and
finally cross-checks the whole network against a dense reference.

Run with::

    python examples/sparse_cnn_inference.py
"""

from __future__ import annotations

import numpy as np

from repro.core.reference import reference_conv2d
from repro.core.spconv import CompiledConvWeights, sparse_conv2d
from repro.nn.activations import measure_activation_sparsity, relu
from repro.pruning.agp import agp_prune


def build_network(
    rng: np.random.Generator,
) -> list[tuple[str, np.ndarray, CompiledConvWeights]]:
    """Three AGP-pruned convolution layers of growing width.

    Each layer keeps its dense weights, for the reference check, and
    their compiled form: flattened and bitmap-encoded once, then reused
    by every convolution.
    """
    shapes = [
        ("conv1", 4, 8, 0.6),
        ("conv2", 8, 16, 0.75),
        ("conv3", 16, 16, 0.85),
    ]
    layers = []
    for name, c_in, c_out, target_sparsity in shapes:
        weights = rng.standard_normal((c_out, c_in, 3, 3))
        pruned = agp_prune(weights, final_sparsity=target_sparsity, steps=5)
        layers.append((name, pruned, CompiledConvWeights.from_dense(pruned)))
    return layers


def main() -> None:
    rng = np.random.default_rng(11)
    layers = build_network(rng)

    # A feature map biased negative so ReLU produces realistic sparsity.
    feature_map = rng.standard_normal((4, 24, 24)) - 0.3
    feature_map = relu(feature_map)

    print(f"input activation sparsity: {measure_activation_sparsity(feature_map):.2%}\n")

    for name, weights, compiled in layers:
        result = relu(
            sparse_conv2d(feature_map, compiled, stride=1, padding=1).output
        )

        # Cross-check against the dense reference convolution + ReLU.
        reference = np.maximum(reference_conv2d(feature_map, weights, 1, 1), 0)
        assert np.allclose(result, reference), f"{name}: mismatch vs reference"

        print(f"{name}:")
        print(f"  weight sparsity (AGP)     : {compiled.weight_sparsity:.2%}")
        print(f"  output activation sparsity: {measure_activation_sparsity(result):.2%}")
        feature_map = result

    print("\nall layers match the dense reference convolution")

    # Show what the accelerator would do for the final layer.
    _, _, last = layers[-1]
    stats = sparse_conv2d(feature_map, last, 1, 1).stats
    print(
        f"\nfinal layer on the dual-side sparse Tensor Core: "
        f"{stats.gemm.instruction_speedup:.2f}x fewer OHMMA instructions, "
        f"{stats.gemm.tile_skip_fraction:.1%} warp-tile pairs skipped"
    )


if __name__ == "__main__":
    main()
