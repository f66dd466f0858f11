"""Run specifications: frozen, hashable descriptions of one simulation.

A :class:`RunSpec` captures every input that determines the outcome of one
:func:`repro.experiments.runner.figure_point` invocation — benchmark,
technique, machine (L2 latency), decay parameters, run length, seed,
supply and controlled target.  Because every run is seed-deterministic,
the spec *is* the result up to code version: two specs with equal
content hashes always produce bit-identical
:class:`~repro.leakctl.energy.NetSavingsResult` objects, which is what
makes the content-addressed :class:`~repro.exec.store.ResultStore` sound.

``CODE_VERSION`` salts the hash: bump it whenever a change anywhere in the
simulator alters numerical results, and every previously cached entry
silently becomes a miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any

from repro.leakctl.base import TECHNIQUE_NAMES

CODE_VERSION = "1"
"""Content-hash salt.  Bump on any change that alters simulation output."""

_POLICIES = ("noaccess", "simple")
_TARGETS = ("l1d", "l1i", "l2")


@dataclass(frozen=True)
class RunSpec:
    """One schedulable figure point (a baseline + technique run pair).

    Frozen and built from primitives only, so it pickles across process
    boundaries, serialises to JSON, and hashes stably.  Defaults mirror
    :func:`repro.experiments.runner.figure_point`.
    """

    benchmark: str
    technique: str
    l2_latency: int = 11
    temp_c: float = 110.0
    decay_interval: int = 4096
    policy: str = "noaccess"
    adaptive: bool = False
    n_ops: int = 20_000
    seed: int = 1
    vdd: float = 0.9
    target: str = "l1d"

    def __post_init__(self) -> None:
        for field_name, value, known in (
            ("technique", self.technique, TECHNIQUE_NAMES),
            ("policy", self.policy, _POLICIES),
            ("target", self.target, _TARGETS),
        ):
            if value not in known:
                raise ValueError(
                    f"unknown {field_name} {value!r}; known: {', '.join(known)}"
                )

    def to_dict(self) -> dict[str, Any]:
        """Primitive-only dict, the canonical serialised form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(**payload)

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical form, salted by CODE_VERSION.

        Any field change — and any ``CODE_VERSION`` bump — yields a new
        key; equal specs always collide.
        """
        # "engine" names the deleted fast timing engine; it stays in the
        # hashed form so that every existing store key stays valid until
        # the next CODE_VERSION bump re-keys the store.
        spec = {**self.to_dict(), "engine": "ooo"}
        payload = {"code_version": CODE_VERSION, "spec": spec}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def execute(self):
        """Run the simulation this spec describes.

        Returns the :class:`~repro.leakctl.energy.NetSavingsResult` figure
        point.  Imported lazily so that spec manipulation (hashing, store
        lookups) never pays for the simulator import, and so worker
        processes resolve the technique/policy objects themselves.
        """
        from repro.experiments.runner import figure_point, technique_by_name
        from repro.leakctl.base import DecayPolicy

        return figure_point(
            self.benchmark,
            technique_by_name(self.technique),
            l2_latency=self.l2_latency,
            temp_c=self.temp_c,
            decay_interval=self.decay_interval,
            policy=DecayPolicy(self.policy),
            adaptive=self.adaptive,
            n_ops=self.n_ops,
            seed=self.seed,
            vdd=self.vdd,
            target=self.target,
        )
