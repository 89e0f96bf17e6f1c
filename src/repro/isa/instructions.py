"""Machine-level instruction definitions (Figures 14 and 17).

Only the fields the macro-op expansions need are modelled: the opcode,
the operand register names (for readable disassembly), the optional
guard predicate, and a free-form ``payload`` recording what the
expansion derived for the instruction (a POPC's count, whether an
OHMMA's guard predicate is true).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class Opcode(enum.Enum):
    """Machine-level opcodes used by the model.

    The first three exist on stock Volta; the last three are the paper's
    extensions.
    """

    HMMA_884 = "HMMA.884"
    POPC = "POPC"
    LDG = "LDG"
    STG = "STG"
    OHMMA_8161 = "HMMA.OHMMA.8161"
    BOHMMA_32321 = "HMMA.BOHMMA.32321"
    SPWMMA = "SPWMMA.MMA.SYNC"


@dataclass(frozen=True)
class Instruction:
    """One machine-level instruction.

    Attributes:
        opcode: the instruction opcode.
        destinations: destination register names.
        sources: source register names.
        predicate: guard predicate index, or ``None`` when unconditional.
        payload: optional data the expansion derived for the
            instruction (e.g. ``{"enabled": False}`` on a predicated-off
            OHMMA).
    """

    opcode: Opcode
    destinations: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()
    predicate: int | None = None
    payload: Any = None

    def render(self) -> str:
        """Render the instruction in the paper's assembly syntax."""
        guard = f"@p{self.predicate} " if self.predicate is not None else ""
        dst = ", ".join(self.destinations)
        src = ", ".join(self.sources)
        parts = [p for p in (dst, src) if p]
        return f"{guard}{self.opcode.value} " + ", ".join(
            f"{{{p}}}" if "," in p else p for p in parts
        ) + ";"
