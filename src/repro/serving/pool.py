"""Per-model compiled-session pool: compile once, serve forever.

The daemon never calls :func:`repro.nn.session.compile_model` on the
request path.  A :class:`SessionPool` owns one :class:`CompiledModel`
per served model — compiled lazily on first use or eagerly with
:meth:`warm` — and every batch of requests for that model reuses the
session's encoded weight operands and the memoized synthetic operand
streams of :mod:`repro.nn.synthetic`.

Per-model data scales default to the zoo's benchmark metadata
(:func:`repro.nn.models.get_benchmark_scale`), the same source of truth
the wall-clock throughput benchmark uses, so daemon outputs are directly
comparable to the per-image oracle at the same scale.
"""

from __future__ import annotations

from typing import Mapping, Sequence, TYPE_CHECKING

from repro.core.spgemm_warp import WarpTileConfig
from repro.nn.models import ModelDefinition, get_benchmark_scale, get_model
from repro.nn.session import CompiledModel, compile_model

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.retry import RetryPolicy


class SessionPool:
    """Lazily-compiled, indefinitely-reused sessions per model name.

    Args:
        scale: data scale shared by every model, or ``None`` (default)
            to use each model's ``benchmark_scale`` metadata.
        seed: RNG seed of the synthetic operand streams (shared with the
            per-image oracle).
        backend: SpGEMM backend, resolved per per-image GEMM shape.
        pruning: named pruning method applied to every model's weights
            (``None`` keeps each model's native pattern).
        memo: reuse memoized synthetic operands across compiles/runs.
        tile_config: warp-tile geometry shared by all sessions.
        element_bytes: operand element width for traffic accounting.
        definitions: extra :class:`ModelDefinition` objects resolvable
            by name — lets tests serve tiny synthetic models that are
            not part of the zoo registry.
    """

    def __init__(
        self,
        scale: "float | None" = None,
        seed: int = 2021,
        backend: str = "auto",
        pruning: "str | None" = None,
        memo: bool = True,
        tile_config: "WarpTileConfig | None" = None,
        element_bytes: int = 2,
        definitions: "Mapping[str, ModelDefinition] | None" = None,
    ) -> None:
        self.scale = scale
        self.seed = int(seed)
        self.backend = backend
        self.pruning = pruning
        self.memo = memo
        self.tile_config = tile_config
        self.element_bytes = int(element_bytes)
        self.definitions = dict(definitions or {})
        self._sessions: dict[str, CompiledModel] = {}

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def definition(self, model: str) -> ModelDefinition:
        """Resolve a model name to its definition (pool extras first)."""
        if model in self.definitions:
            return self.definitions[model]
        return get_model(model)

    def scale_for(self, model: str) -> float:
        """Effective data scale of one model's session."""
        if self.scale is not None:
            return float(self.scale)
        if model in self.definitions:
            return self.definitions[model].benchmark_scale
        return get_benchmark_scale(model)

    def known_models(self) -> tuple[str, ...]:
        """Every name this pool can resolve: extras first, then the zoo.

        The socket front-end advertises this list in its handshake
        acknowledgement when no explicit serve list was configured.
        """
        from repro.nn.models import DEFAULT_MODELS

        names = list(self.definitions)
        names.extend(n for n in DEFAULT_MODELS if n not in self.definitions)
        return tuple(names)

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def compiled_models(self) -> tuple[str, ...]:
        """Names with a live compiled session, in compile order."""
        return tuple(self._sessions)

    def session(self, model: str) -> CompiledModel:
        """The compiled session of one model (compiled on first use)."""
        session = self._sessions.get(model)
        if session is None:
            session = compile_model(
                self.definition(model),
                scale=self.scale_for(model),
                seed=self.seed,
                tile_config=self.tile_config,
                backend=self.backend,
                element_bytes=self.element_bytes,
                memo=self.memo,
                pruning=self.pruning,
            )
            self._sessions[model] = session
        return session

    def warm(
        self,
        models: Sequence[str],
        policy: "RetryPolicy | None" = None,
    ) -> None:
        """Eagerly compile sessions, in order, each name once.

        With a ``policy`` (:class:`repro.runtime.retry.RetryPolicy`),
        compiles that fail with a :class:`repro.runtime.retry.TransientError`
        are retried under the same bounded-retry/backoff discipline the
        sweep executor uses, instead of failing the whole warm-up on the
        first error.  Permanent errors still propagate immediately.
        """
        for name in dict.fromkeys(models):
            if policy is None:
                self.session(name)
            else:
                from repro.runtime.retry import call_with_retry

                call_with_retry(lambda: self.session(name), policy)
