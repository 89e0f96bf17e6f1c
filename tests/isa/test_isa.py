"""Tests for the ISA layer: instructions, streams and macro-op expansion."""

import numpy as np
import pytest

from repro.core.spgemm_warp import WarpTileConfig, warp_spgemm
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import InstructionStream
from repro.isa.wmma import expand_owmma, expand_spwmma, expand_wmma
from repro.sparsity.generators import random_sparse_matrix


class TestInstruction:
    def test_render_plain(self):
        instr = Instruction(Opcode.BOHMMA_32321, ("R3",), ("R1", "R2"))
        assert "HMMA.BOHMMA.32321" in instr.render()
        assert instr.render().endswith(";")

    def test_render_with_predicate(self):
        instr = Instruction(Opcode.OHMMA_8161, ("R8",), ("R4", "R5"), predicate=3)
        assert instr.render().startswith("@p3 ")

    def test_render_braces_multi_register_operands(self):
        instr = Instruction(Opcode.OHMMA_8161, ("R8",), ("R4", "R5", "R8"))
        assert instr.render() == "HMMA.OHMMA.8161 R8, {R4, R5, R8};"


class TestInstructionStream:
    def test_append_extend_len(self):
        stream = InstructionStream()
        stream.append(Instruction(Opcode.POPC))
        stream.extend([Instruction(Opcode.OHMMA_8161), Instruction(Opcode.OHMMA_8161)])
        assert len(stream) == 3
        assert stream.count(Opcode.OHMMA_8161) == 2
        assert stream.count_by_opcode()[Opcode.POPC] == 1

    def test_disassemble_lines(self):
        stream = InstructionStream([Instruction(Opcode.POPC), Instruction(Opcode.LDG)])
        assert len(stream.disassemble().splitlines()) == 2


class TestWmmaExpansions:
    def test_wmma_has_16_hmma(self):
        stream = expand_wmma()
        assert stream.count(Opcode.HMMA_884) == 16

    def test_owmma_has_32_ohmma(self):
        stream = expand_owmma()
        assert stream.count(Opcode.OHMMA_8161) == 32

    def test_wmma_and_owmma_compute_the_same_16x16x16_product(self):
        """HMMA.884 is an 8x8x4 step, OHMMA.8161 an 8x16x1 outer product."""
        inner_macs = expand_wmma().count(Opcode.HMMA_884) * 8 * 8 * 4
        outer_macs = expand_owmma().count(Opcode.OHMMA_8161) * 8 * 16 * 1
        assert inner_macs == outer_macs == 16 * 16 * 16

    def test_owmma_reads_every_k_set_once_per_half(self):
        sources = [instr.sources[0] for instr in expand_owmma()]
        assert sources == [f"RA{k}.{half}" for k in range(16) for half in range(2)]


class TestSpWmmaExpansion:
    def test_dense_masks_enable_all_ohmma(self):
        config = WarpTileConfig()
        expansion = expand_spwmma(
            np.ones((32, 16), dtype=bool), np.ones((16, 32), dtype=bool), config
        )
        assert expansion.ohmma_enabled == 16 * 8
        assert expansion.ohmma_skipped == 0
        assert expansion.sets_skipped == 0
        assert expansion.stream.count(Opcode.BOHMMA_32321) == 16
        assert expansion.stream.count(Opcode.POPC) == 32

    def test_empty_masks_skip_everything(self):
        expansion = expand_spwmma(
            np.zeros((32, 16), dtype=bool), np.zeros((16, 32), dtype=bool)
        )
        assert expansion.ohmma_enabled == 0
        assert expansion.sets_skipped == 16
        assert expansion.stream.count(Opcode.BOHMMA_32321) == 0

    def test_matches_warp_spgemm_counts(self, rng):
        a_tile = random_sparse_matrix((32, 16), 0.35, rng)
        b_tile = random_sparse_matrix((16, 32), 0.55, rng)
        _, stats = warp_spgemm(a_tile, b_tile)
        expansion = expand_spwmma(a_tile != 0, b_tile != 0)
        assert expansion.ohmma_enabled == stats.ohmma_issued
        assert expansion.ohmma_skipped == stats.ohmma_skipped
        assert expansion.sets_skipped == stats.sets_skipped

    def test_predicates_written_per_slot(self, rng):
        a_tile = random_sparse_matrix((32, 16), 0.5, rng)
        b_tile = random_sparse_matrix((16, 32), 0.5, rng)
        expansion = expand_spwmma(a_tile != 0, b_tile != 0)
        ohmma = [i for i in expansion.stream if i.opcode is Opcode.OHMMA_8161]
        assert all(instr.predicate is not None for instr in ohmma)
        enabled = sum(1 for instr in ohmma if instr.payload["enabled"])
        assert enabled == expansion.ohmma_enabled

    @pytest.mark.parametrize(
        "nnz_a,nnz_b,enabled",
        [
            (1, 1, 1),
            (8, 16, 1),
            (9, 16, 2),
            (20, 11, 3),
            (20, 32, 6),
            (24, 17, 6),
            (25, 32, 8),
            (32, 1, 4),
            (1, 32, 2),
        ],
    )
    def test_one_set_enables_quantized_ohmma_groups(self, nnz_a, nnz_b, enabled):
        """Figure 5: ceil(nnz_a / 8) x ceil(nnz_b / 16) of the 8 OHMMAs run."""
        a_mask = np.zeros((32, 1), dtype=bool)
        b_mask = np.zeros((1, 32), dtype=bool)
        a_mask[:nnz_a, 0] = True
        b_mask[0, 32 - nnz_b :] = True
        expansion = expand_spwmma(a_mask, b_mask)
        assert expansion.ohmma_enabled == enabled
        assert expansion.ohmma_skipped == 8 - enabled
        assert expansion.sets_skipped == 0
        assert expansion.stream.count(Opcode.BOHMMA_32321) == 1
        _, stats = warp_spgemm(a_mask.astype(float), b_mask.astype(float))
        assert stats.ohmma_issued == enabled

    @pytest.mark.parametrize("empty_side", ["a", "b"])
    def test_empty_operand_vector_skips_the_set(self, empty_side):
        a_mask = np.ones((32, 1), dtype=bool)
        b_mask = np.ones((1, 32), dtype=bool)
        (a_mask if empty_side == "a" else b_mask)[:] = False
        expansion = expand_spwmma(a_mask, b_mask)
        assert [instr.opcode for instr in expansion.stream] == [Opcode.POPC, Opcode.POPC]
        assert expansion.sets_skipped == 1
        assert expansion.ohmma_enabled == 0
        assert expansion.ohmma_skipped == 8

    def test_set_is_popc_popc_bohmma_then_eight_predicated_ohmma(self):
        a_mask = np.zeros((32, 1), dtype=bool)
        b_mask = np.zeros((1, 32), dtype=bool)
        a_mask[:20, 0] = True
        b_mask[0, :11] = True
        stream = list(expand_spwmma(a_mask, b_mask).stream)
        assert [instr.opcode for instr in stream[:3]] == [
            Opcode.POPC,
            Opcode.POPC,
            Opcode.BOHMMA_32321,
        ]
        assert [stream[0].payload, stream[1].payload] == [20, 11]
        ohmma = stream[3:]
        assert [instr.opcode for instr in ohmma] == [Opcode.OHMMA_8161] * 8
        assert [instr.predicate for instr in ohmma] == list(range(8))
        # Slot = a_group * 2 + b_group: A groups 0-2 with B group 0 run.
        assert [instr.payload["enabled"] for instr in ohmma] == [
            True, False, True, False, True, False, False, False,
        ]

    def test_shape_mismatch_rejected(self):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            expand_spwmma(np.ones((32, 16), dtype=bool), np.ones((8, 32), dtype=bool))
