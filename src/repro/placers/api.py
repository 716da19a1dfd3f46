"""The unified Placer API: protocol, factory, and job schemas.

Every placement engine exposes one protocol: bind a
:class:`~repro.fpga.Device` at construction, then ``place(netlist)``
returns a legal :class:`~repro.placers.Placement`. This is what the CLI,
the experiment harness, the serve layer and protocol-generic tests
program against:

    >>> placer = get_placer("vivado", device, seed=0)
    >>> placement = placer.place(netlist)

:func:`get_placer` is the single supported entry point for constructing an
engine by name.

This module also defines the serving-first job schemas shared by
``python -m repro place``, ``python -m repro serve submit`` and
:mod:`repro.serve`:

- :class:`PlacementRequest` — one placement job description (tool, suite
  workload, seed, config overrides, portfolio-racing knobs);
- :class:`PlacementResponse` — the typed outcome (status, cache verdict,
  quality numbers, the schema-valid RunReport document, and the placement
  itself when the job ran in-process).

Conforming engines:

- :class:`~repro.placers.vivado_like.VivadoLikePlacer` and
  :class:`~repro.placers.amf_like.AMFLikePlacer` natively;
- :class:`~repro.core.DSPlacer` through :class:`DSPlacerAdapter`, a thin
  wrapper whose ``place`` returns ``DSPlacerResult.placement`` (the full
  result stays reachable as ``adapter.last_result``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

from repro.errors import ConfigurationError, ReproError, ServeError
from repro.netlist.netlist import Netlist
from repro.placers.placement import Placement

if TYPE_CHECKING:  # pragma: no cover
    import argparse

    from repro.core.dsplacer import DSPlacer, DSPlacerConfig, DSPlacerResult
    from repro.fpga.device import Device

__all__ = [
    "Placer",
    "DSPlacerAdapter",
    "get_placer",
    "PLACER_NAMES",
    "PlacementRequest",
    "PlacementResponse",
    "RACE_POLICIES",
]

#: CLI names accepted by :func:`get_placer`.
PLACER_NAMES = ("vivado", "amf", "dsplacer")

#: How a portfolio race picks its winner (see ``docs/SERVING.md``).
RACE_POLICIES = ("best", "first")


@runtime_checkable
class Placer(Protocol):
    """A device-bound placement engine (the unified placement surface)."""

    name: str

    def place(self, netlist: Netlist) -> Placement:
        """Fully place ``netlist`` on the bound device; returns a legal placement."""
        ...


class DSPlacerAdapter:
    """Conform :class:`~repro.core.DSPlacer` to the :class:`Placer` protocol.

    ``place`` runs the full Fig. 2 flow and returns just the
    :class:`Placement`; the most recent complete
    :class:`~repro.core.DSPlacerResult` (identification, health, report, …)
    is kept on :attr:`last_result`.
    """

    name = "dsplacer"

    def __init__(self, dsplacer: "DSPlacer") -> None:
        self.dsplacer = dsplacer
        self.last_result: "DSPlacerResult | None" = None

    def place(self, netlist: Netlist) -> Placement:
        result = self.dsplacer.place(netlist)
        self.last_result = result
        return result.placement


# ----------------------------------------------------------------------
# job schemas (shared by the CLI and repro.serve)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlacementRequest:
    """One placement job: what to place, with which engine, how hard to try.

    The workload is named by (``suite``, ``scale``, ``netlist_seed``) and
    synthesized deterministically by :mod:`repro.accelgen`; the serve layer
    hashes the *materialized netlist content* (not this spec) for its cache
    key, so any other way of producing an identical netlist hits the same
    cache line.

    ``race_k`` > 1 enables portfolio racing: ``k`` attempts run with seeds
    ``seed, seed+1, …`` and the ``race_policy`` picks the winner — ``best``
    waits for every attempt and keeps the lowest-HPWL legal placement
    (guaranteeing best-of-k quality), ``first`` returns the first success
    and cancels the still-running losers (latency over quality).

    ``faults`` carries a serialized
    :meth:`~repro.robustness.FaultInjector.to_specs` script that workers
    replay in-process — chaos-test machinery, never set in production.
    """

    tool: str = "dsplacer"
    suite: str = "skynet"
    scale: float = 0.1
    #: target fabric (see :data:`repro.fpga.FABRIC_NAMES`); the cache key
    #: hashes the materialized device identity, so fabrics never collide
    fabric: str = "zcu104"
    seed: int = 0
    netlist_seed: int | None = None  # defaults to ``seed``
    config: Mapping[str, Any] = field(default_factory=dict)
    race_k: int = 1
    race_policy: str = "best"
    use_cache: bool = True
    with_timing: bool = False
    faults: tuple = ()

    def __post_init__(self) -> None:
        if self.tool not in PLACER_NAMES:
            raise ConfigurationError(
                f"unknown tool {self.tool!r} (expected one of {PLACER_NAMES})"
            )
        if self.race_policy not in RACE_POLICIES:
            raise ConfigurationError(
                f"unknown race policy {self.race_policy!r} "
                f"(expected one of {RACE_POLICIES})"
            )
        if not isinstance(self.race_k, int) or self.race_k < 1:
            raise ConfigurationError(f"race_k must be a positive int, got {self.race_k!r}")
        if not self.scale > 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale!r}")
        from repro.fpga.builders import FABRIC_NAMES

        if self.fabric not in FABRIC_NAMES:
            raise ConfigurationError(
                f"unknown fabric {self.fabric!r} (expected one of {FABRIC_NAMES})"
            )

    # -- derived views --------------------------------------------------
    @property
    def effective_netlist_seed(self) -> int:
        return self.seed if self.netlist_seed is None else self.netlist_seed

    def resolved_config(self, seed: int | None = None) -> "DSPlacerConfig":
        """The full, canonical :class:`~repro.core.DSPlacerConfig` this
        request runs under (``config`` overrides win; ``seed`` overrides
        both — that is how race attempts differentiate)."""
        from repro.core.dsplacer import DSPlacerConfig

        doc: dict[str, Any] = {"seed": self.seed, **dict(self.config)}
        if seed is not None:
            doc["seed"] = seed
        return DSPlacerConfig.from_dict(doc)

    def attempt_seeds(self) -> list[int]:
        """The seeds a portfolio race runs, base seed first."""
        return [self.seed + i for i in range(self.race_k)]

    def with_seed(self, seed: int) -> "PlacementRequest":
        """A copy pinned to one seed (race attempts; cache probes)."""
        return replace(self, seed=seed, netlist_seed=self.effective_netlist_seed)

    # -- (de)serialization ----------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "tool": self.tool,
            "suite": self.suite,
            "scale": float(self.scale),
            "fabric": self.fabric,
            "seed": int(self.seed),
            "netlist_seed": self.netlist_seed,
            "config": dict(self.config),
            "race_k": int(self.race_k),
            "race_policy": self.race_policy,
            "use_cache": bool(self.use_cache),
            "with_timing": bool(self.with_timing),
            "faults": list(self.faults),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "PlacementRequest":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                "unknown PlacementRequest key(s): " + ", ".join(map(repr, unknown))
            )
        doc = dict(doc)
        if "faults" in doc:
            doc["faults"] = tuple(doc["faults"])
        return cls(**doc)

    @classmethod
    def from_args(
        cls, args: "argparse.Namespace", config: Mapping[str, Any] | None = None
    ) -> "PlacementRequest":
        """Build a request from parsed CLI flags.

        This is the one parser→request path shared by ``repro place`` and
        ``repro serve submit`` (see :func:`repro.cli.add_request_arguments`).
        ``config`` carries the merged DSPlacerConfig overrides (CLI flags +
        ``--config`` file).
        """
        return cls(
            tool=getattr(args, "tool", "dsplacer"),
            suite=args.suite,
            scale=args.scale,
            fabric=getattr(args, "fabric", "zcu104"),
            seed=args.seed,
            config=dict(config or {}),
            race_k=getattr(args, "race_k", 1),
            race_policy=getattr(args, "race_policy", "best"),
            use_cache=not getattr(args, "no_cache", False),
            with_timing=getattr(args, "with_timing", False),
        )


@dataclass
class PlacementResponse:
    """The typed outcome of one placement job.

    ``status`` is one of ``"ok"`` / ``"failed"`` / ``"cancelled"``;
    ``cache`` records how the result was produced (``"hit"`` — served from
    the content-addressed cache, ``"miss"`` — computed and inserted,
    ``"bypass"`` — caching disabled by the request). ``report`` is the full
    schema-valid :class:`~repro.obs.RunReport` document including the ``job``
    section; ``placement`` is populated for in-process servers (it never
    crosses the wire in serialized form).
    """

    job_id: str
    status: str
    cache: str = "bypass"
    request: PlacementRequest | None = None
    quality: dict[str, Any] = field(default_factory=dict)
    report: dict[str, Any] | None = None
    error: dict[str, str] | None = None
    seed_used: int | None = None
    submitted_unix: float | None = None
    started_unix: float | None = None
    finished_unix: float | None = None
    placement: Placement | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def wall_s(self) -> float | None:
        """Queue-to-finish wall time (None while in flight)."""
        if self.submitted_unix is None or self.finished_unix is None:
            return None
        return self.finished_unix - self.submitted_unix

    def raise_for_status(self) -> "PlacementResponse":
        """Re-raise a failed job's typed error; returns self when ok."""
        if self.ok:
            return self
        if self.error is not None:
            import repro.errors as _errors

            exc_type = getattr(_errors, self.error.get("type", ""), None)
            message = self.error.get("message", "job failed")
            if exc_type is not None and isinstance(exc_type, type) and issubclass(exc_type, ReproError):
                try:
                    exc = exc_type(message)
                except TypeError:  # multi-arg constructors (StageBudgetExceeded)
                    exc = ServeError(f"{self.error.get('type')}: {message}")
                raise exc
        raise ServeError(f"job {self.job_id} {self.status} (no error detail)")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (everything but the placement object)."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "cache": self.cache,
            "request": self.request.to_dict() if self.request else None,
            "quality": dict(self.quality),
            "report": self.report,
            "error": dict(self.error) if self.error else None,
            "seed_used": self.seed_used,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
        }


def get_placer(
    name: str,
    device: "Device",
    *,
    seed: int = 0,
    config=None,
) -> Placer:
    """Construct a protocol-conforming placer by its CLI name.

    The single documented entry point for building an engine: binds the
    device at construction so ``place(netlist)`` needs nothing else.
    ``config`` (a :class:`~repro.core.DSPlacerConfig`) only applies to
    ``"dsplacer"``; the baselines take just the seed.
    """
    if name == "vivado":
        from repro.placers.vivado_like import VivadoLikePlacer

        return VivadoLikePlacer(seed=seed, device=device)
    if name == "amf":
        from repro.placers.amf_like import AMFLikePlacer

        return AMFLikePlacer(seed=seed, device=device)
    if name == "dsplacer":
        from repro.core.dsplacer import DSPlacer, DSPlacerConfig

        cfg = config if config is not None else DSPlacerConfig(seed=seed)
        return DSPlacerAdapter(DSPlacer(device, cfg))
    raise ConfigurationError(
        f"unknown placer {name!r} (expected one of {PLACER_NAMES})"
    )
