"""ISA extensions of the dual-side sparse Tensor Core (Section V).

The paper extends the Volta machine ISA with three instructions and one
warp-level API:

* ``OHMMA.8161``  — 8x16x1 FP16 outer product with FP32 accumulation,
* ``BOHMMA.32321`` — 32x32x1 1-bit outer product on operand bitmaps,
* ``POPC``-driven predication of OHMMA instructions, and
* ``SpWMMA`` — the warp-level dual-side sparse matrix-multiply macro-op
  that compiles to BOHMMA + POPC + predicated OHMMA instructions.

This subpackage provides the instruction encodings, an instruction-stream
builder, and the macro-op expansions (WMMA, OWMMA, SpWMMA).  Figure 5
reports the SpWMMA expansion's enabled OHMMA count beside the one the
warp-level SpGEMM (:mod:`repro.core.spgemm_warp`) counts.
"""

from repro.isa.instructions import Opcode, Instruction
from repro.isa.program import InstructionStream
from repro.isa.wmma import (
    expand_wmma,
    expand_owmma,
    expand_spwmma,
    SpWmmaExpansion,
)

__all__ = [
    "Opcode",
    "Instruction",
    "InstructionStream",
    "expand_wmma",
    "expand_owmma",
    "expand_spwmma",
    "SpWmmaExpansion",
]
