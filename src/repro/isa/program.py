"""Instruction-stream container with simple statistics and disassembly."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.isa.instructions import Instruction, Opcode


@dataclass
class InstructionStream:
    """An ordered list of machine instructions for one warp.

    Produced by the macro-op expansions in :mod:`repro.isa.wmma`.
    """

    instructions: list[Instruction] = field(default_factory=list)

    def append(self, instruction: Instruction) -> None:
        """Append one instruction."""
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions preserving order."""
        self.instructions.extend(instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def count_by_opcode(self) -> dict[Opcode, int]:
        """Histogram of opcodes in the stream."""
        return dict(Counter(instr.opcode for instr in self.instructions))

    def count(self, opcode: Opcode) -> int:
        """Number of instructions with the given opcode."""
        return sum(1 for instr in self.instructions if instr.opcode is opcode)

    def disassemble(self) -> str:
        """Human-readable listing in the paper's assembly style."""
        return "\n".join(instr.render() for instr in self.instructions)
