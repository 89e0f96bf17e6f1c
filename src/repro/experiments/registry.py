"""Lightweight experiment registry: names → lazily-imported drivers.

The runner and the sweep runtime (:mod:`repro.runtime`) need to
enumerate experiments, build their keyword arguments and compute cache
keys without importing the drivers.  NumPy does come in, through the
package inits of :mod:`repro.utils` (for :mod:`repro.utils.blas`) and
:mod:`repro.hw` (for the GPU presets); what stays out is SciPy, the
kernel cost models and the model zoo (1.2–1.5 s of imports on a 2-vCPU
host).  A dry run or a fully cached invocation must stay an order of
magnitude faster than the computation it replaces, and most of that
budget is import time.  Each :class:`ExperimentSpec` therefore records
the driver as a dotted ``module``/``func`` pair that is only resolved
(imported) when the experiment actually executes: in the executor's
parent just before it forks the workers (:mod:`repro.runtime.executor`),
or in the process that runs the task.

Adding an experiment means adding one ``ExperimentSpec`` here; the
runner CLI, the sweep grids, the result cache and the golden-snapshot
suite all pick it up from :data:`EXPERIMENTS`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ConfigError


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment (a paper table or figure driver).

    Attributes:
        name: CLI / cache name (``"table3"``, ``"fig21"``, ...).
        module: dotted module path holding the driver function.
        func: driver function name inside ``module``.
        description: one-line summary shown by ``--list``.
        defaults: full-mode keyword arguments.
        quick: overrides applied on top of ``defaults`` in quick mode.
        accepts: standard kwargs the driver understands (subset of
            ``{"config", "seed"}``); others are never forwarded.
        sweepable: extra grid-parameter names the sweep API may pass.
        device_aware: whether the rows change with the GPU preset (pure
            warp-tile or metadata experiments are device-independent and
            are flagged as such in the runner's ``--list`` output).
    """

    name: str
    module: str
    func: str
    description: str
    defaults: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)
    accepts: frozenset = frozenset({"config", "seed"})
    sweepable: frozenset = frozenset()
    device_aware: bool = True

    def resolve(self) -> Callable[..., list[dict]]:
        """Import the driver module and return the ``run_*`` callable."""
        return getattr(importlib.import_module(self.module), self.func)

    def build_kwargs(
        self,
        quick: bool = False,
        seed: int | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Assemble the driver kwargs for one run.

        Args:
            quick: apply the quick-mode workload overrides.
            seed: RNG seed (forwarded only if the driver accepts one).
            params: extra grid parameters; must be ``sweepable`` or a
                mode default.

        Raises:
            ConfigError: a parameter is not accepted by this experiment.
        """
        kwargs: dict[str, Any] = dict(self.defaults)
        if quick:
            kwargs.update(self.quick)
        for key, value in (params or {}).items():
            if key not in self.sweepable and key not in self.defaults:
                raise ConfigError(
                    f"experiment {self.name!r} does not accept parameter "
                    f"{key!r}; sweepable: {sorted(self.sweepable)}"
                )
            kwargs[key] = value
        if seed is not None and "seed" in self.accepts:
            kwargs["seed"] = seed
        return kwargs


_SPECS = (
    ExperimentSpec(
        name="table2",
        module="repro.experiments.table2_models",
        func="run_table2",
        description="Table II — evaluated models and pruning setup",
        device_aware=False,
    ),
    ExperimentSpec(
        name="table3",
        module="repro.experiments.table3_im2col",
        func="run_table3",
        description="Table III — dense/CSR/bitmap im2col cost",
        defaults={"scale": 1.0},
        quick={"scale": 0.5},
        sweepable=frozenset({"scale"}),
    ),
    ExperimentSpec(
        name="table4",
        module="repro.experiments.table4_overhead",
        func="run_table4",
        description="Table IV — area/power overhead of the added hardware",
        accepts=frozenset({"config"}),
    ),
    ExperimentSpec(
        name="fig5",
        module="repro.experiments.fig5_warp_skipping",
        func="run_fig5",
        description="Figure 5 — quantised OHMMA skipping per warp tile",
        defaults={"k_steps": 16},
        sweepable=frozenset({"k_steps"}),
        device_aware=False,
    ),
    ExperimentSpec(
        name="fig6",
        module="repro.experiments.fig6_tiling_speedup",
        func="run_fig6",
        description="Figure 6 — speedup from imbalanced non-zero tiling",
        defaults={"size": 256},
        quick={"size": 128},
        sweepable=frozenset({"size", "average_sparsity"}),
    ),
    ExperimentSpec(
        name="fig19",
        module="repro.experiments.fig19_operand_collector",
        func="run_fig19",
        description="Figure 19 — accumulation-buffer operand collector",
        defaults={"num_instructions": 64},
        quick={"num_instructions": 16},
        sweepable=frozenset({"num_instructions", "accesses_per_instruction"}),
    ),
    ExperimentSpec(
        name="fig21",
        module="repro.experiments.fig21_spgemm",
        func="run_fig21",
        description="Figure 21 — SpGEMM time vs operand sparsity",
        defaults={"size": 4096, "numeric_size": 2048},
        quick={"size": 1024, "numeric_size": 256},
        accepts=frozenset({"config", "seed"}),
        sweepable=frozenset({"size", "numeric_size"}),
    ),
    ExperimentSpec(
        name="fig22",
        module="repro.experiments.fig22_models",
        func="run_fig22",
        description="Figure 22 — layer-wise and full-model speedups",
        quick={"models": ["ResNet-18", "BERT-base Encoder"]},
        sweepable=frozenset({"models"}),
    ),
    ExperimentSpec(
        name="functional",
        module="repro.experiments.functional_models",
        func="run_functional_models",
        description="Full-scale functional whole-model runs (blocked engine)",
        defaults={"scale": 1.0},
        quick={"scale": 0.0625},
        sweepable=frozenset({"models", "scale", "backend", "pruning"}),
    ),
    ExperimentSpec(
        name="serve",
        module="repro.experiments.serve",
        func="run_serve",
        description="Compiled-session serving throughput across batch sizes",
        defaults={"scale": 1.0},
        quick={"scale": 0.0625, "batch_sizes": [1, 3]},
        sweepable=frozenset(
            {"models", "batch_sizes", "scale", "backend", "pruning"}
        ),
    ),
    ExperimentSpec(
        name="serve_daemon",
        module="repro.experiments.serve_daemon",
        func="run_serve_daemon",
        description="Serving daemon under Poisson load: batching + latency SLOs",
        quick={
            "scale": 0.0625,
            "requests": 6,
            "image_pool": 4,
            "batch_caps": [3],
            "deadlines_us": [800.0],
        },
        sweepable=frozenset(
            {
                "models",
                "batch_caps",
                "deadlines_us",
                "workers_counts",
                "queue_depth",
                "requests",
                "mean_gap_us",
                "image_pool",
                "scale",
                "backend",
                "pruning",
            }
        ),
    ),
    ExperimentSpec(
        name="spconv",
        module="repro.experiments.spconv_pipeline",
        func="run_spconv",
        description="Full-resolution dual-side conv through the im2col engines",
        quick={"sparsities": [0.75, 0.99]},
        sweepable=frozenset({"sparsities", "weight_sparsity", "backend"}),
    ),
)

#: Registered experiments in canonical (report) order.
EXPERIMENTS: dict[str, ExperimentSpec] = {spec.name: spec for spec in _SPECS}


def get_experiment(name: str) -> ExperimentSpec:
    """Look up an experiment by name.

    Raises:
        ConfigError: the name is not registered.
    """
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None
