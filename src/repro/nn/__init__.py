"""DNN substrate: the models, sessions and inference driver of Table II.

The evaluation needs five sparse DNN models (VGG-16, ResNet-18,
Mask R-CNN, a BERT-base encoder and a 2+4-layer LSTM RNN).  Rather than
loading framework checkpoints — unavailable offline — the subpackage
records each model's layer shapes and the per-layer weight / activation
sparsity the paper's pruning setup produces.  Whole models run through
the functional pipeline once (:func:`run_model_functional`) or as
encode-once compiled sessions (:func:`compile_model`); a single layer
needs no wrapper — :class:`~repro.core.spconv.CompiledConvWeights` and
:class:`~repro.core.operands.EncodedOperand` encode its weights once.
"""

from repro.nn.activations import relu
from repro.nn.functional import (
    FunctionalLayerRun,
    FunctionalModelRun,
    run_model_functional,
)
from repro.nn.models import MODEL_REGISTRY, get_model
from repro.nn.session import (
    CompiledLayer,
    CompiledModel,
    SessionRun,
    compile_model,
)
from repro.nn.synthetic import clear_operand_memo

__all__ = [
    "CompiledLayer",
    "CompiledModel",
    "SessionRun",
    "compile_model",
    "clear_operand_memo",
    "FunctionalLayerRun",
    "FunctionalModelRun",
    "run_model_functional",
    "relu",
    "MODEL_REGISTRY",
    "get_model",
]
