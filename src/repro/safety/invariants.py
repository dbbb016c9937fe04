"""Pluggable runtime invariant monitors.

The repo's correctness rests on a handful of properties that were only
ever *implicit* — enforced by tests at development time, assumed at run
time.  This module turns them into explicit, observable runtime checks:

* **budget-conservation** — the caps about to be actuated sum to at most
  the cluster budget;
* **cap-bounds** — every cap is finite and inside ``[min_cap, max_cap]``
  (modulo the protocol's quantization grid);
* **readjust-conservation** — readjust never hands out more watts than
  the leftover budget; above the manager's ``budget_epsilon`` of
  leftover (the water-fill) it never shrinks a high-priority unit's cap,
  at or below it (the equalisation) it leaves them one common cap;
* **finite-kalman** — every Kalman filter in the manager stack holds
  finite estimates and positive, finite variances;
* **snapshot-idempotence** — ``restore(snapshot())`` into a fresh
  instance of the same class and configuration reproduces the snapshot
  bit-for-bit (the crash-recovery contract).

Monitors run in one of three modes (:class:`~repro.safety.config.
SafetyConfig`): ``strict`` checks every cycle and raises — the test /
chaos-run posture, where a violated invariant must fail the run loudly;
``sampling`` checks every N-th cycle and only emits
``invariant_violation`` events — the deployment posture, where the
control loop must keep running; ``off`` disables everything.

The registry is pluggable: :func:`register_invariant` adds a custom
:class:`Invariant`, and an :class:`InvariantMonitor` can be built from
any subset of names.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.managers import manager_stack
from repro.recovery.state import to_json
from repro.telemetry.log import ResilienceEventLog

__all__ = [
    "Invariant",
    "InvariantContext",
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantViolationError",
    "available_invariants",
    "default_invariants",
    "register_invariant",
]

#: Relative tolerance for budget comparisons (matches the manager's own
#: invariant) plus an absolute quantization allowance per unit.
_REL_TOL = 1e-9
_QUANTUM_W = 0.05  # Half the protocol's 0.1 W wire grid.


@dataclass(frozen=True)
class InvariantContext:
    """Everything one invariant sweep may inspect.

    Attributes:
        budget_w: cluster-wide power budget (W).
        min_cap_w / max_cap_w: per-unit cap range.
        caps_w: the cap vector at the actuation boundary (post-guard).
        readings_w: the reading vector the manager consumed (optional).
        manager: the manager stack that produced the caps (optional).
        quantized: True when ``caps_w`` has passed the wire quantizer,
            widening bound checks by the 0.1 W grid.
    """

    budget_w: float
    min_cap_w: float
    max_cap_w: float
    caps_w: np.ndarray | None = None
    readings_w: np.ndarray | None = None
    manager: object | None = None
    quantized: bool = False


@dataclass(frozen=True)
class InvariantViolation:
    """One failed check: the invariant's name and what it saw."""

    name: str
    detail: str


class InvariantViolationError(AssertionError):
    """Raised in strict mode when a runtime invariant fails."""

    def __init__(self, violations: list[InvariantViolation]):
        self.violations = violations
        super().__init__(
            "; ".join(f"{v.name}: {v.detail}" for v in violations)
        )


class Invariant(ABC):
    """One runtime correctness property.

    Attributes:
        name: registry key.
        expensive: True for checks whose cost is non-trivial per cycle
            (they still run on every *sweep*; sampling mode spaces the
            sweeps out).
    """

    name = ""
    expensive = False

    @abstractmethod
    def check(self, ctx: InvariantContext) -> str | None:
        """Return a violation detail string, or None when satisfied."""


class BudgetConservation(Invariant):
    """Actuated caps sum to at most the cluster budget."""

    name = "budget-conservation"

    def check(self, ctx: InvariantContext) -> str | None:
        if ctx.caps_w is None:
            return None
        total = float(np.sum(ctx.caps_w))
        allowance = ctx.budget_w * _REL_TOL + (
            _QUANTUM_W * len(ctx.caps_w) if ctx.quantized else 0.0
        )
        if total > ctx.budget_w + allowance:
            return (
                f"caps sum {total:.6f} W exceeds budget "
                f"{ctx.budget_w:.6f} W"
            )
        return None


class CapBounds(Invariant):
    """Every cap is finite and inside the per-unit range."""

    name = "cap-bounds"

    def check(self, ctx: InvariantContext) -> str | None:
        if ctx.caps_w is None:
            return None
        caps = np.asarray(ctx.caps_w, dtype=np.float64)
        if not caps.size:
            return None
        slack = _QUANTUM_W if ctx.quantized else ctx.max_cap_w * _REL_TOL
        # One reduction per bound decides a healthy vector: a NaN fails
        # both comparisons, an infinity one of them or the finite span.
        low, high = float(caps.min()), float(caps.max())
        if (
            ctx.min_cap_w - slack <= low
            and high <= ctx.max_cap_w + slack
            and math.isfinite(high - low)
        ):
            return None
        if not np.all(np.isfinite(caps)):
            bad = np.flatnonzero(~np.isfinite(caps))
            return f"non-finite caps at units {bad.tolist()}"
        lo = np.flatnonzero(caps < ctx.min_cap_w - slack)
        hi = np.flatnonzero(caps > ctx.max_cap_w + slack)
        if lo.size:
            return (
                f"caps below floor {ctx.min_cap_w} W at units {lo.tolist()}"
            )
        if hi.size:
            return (
                f"caps above ceiling {ctx.max_cap_w} W at units {hi.tolist()}"
            )
        return None


class ReadjustConservation(Invariant):
    """Readjust hands out at most the leftover and keeps the promise of
    the branch it took — the manager's own ``budget_epsilon`` decides
    which, as in :func:`repro.core.readjust.readjust`: the water-fill
    never shrinks a high-priority unit, the equalisation leaves them one
    common cap and adds no watt (checked from the DPS step
    introspection)."""

    name = "readjust-conservation"

    def check(self, ctx: InvariantContext) -> str | None:
        for node in manager_stack(ctx.manager):
            info = getattr(node, "last_info", None)
            if info is None or not hasattr(info, "grants_w"):
                continue
            if info.restored:
                return None  # Restore pass: readjust was a no-op.
            pre = np.asarray(info.stateless_caps_w, dtype=np.float64)
            post = np.asarray(info.caps_w, dtype=np.float64)
            budget = getattr(node, "budget_w", ctx.budget_w)
            tol = budget * _REL_TOL + 1e-6
            pre_w = float(pre.sum())
            leftover = max(budget - pre_w, 0.0)
            handed = float(post.sum()) - pre_w
            if handed > leftover + tol:
                return (
                    f"readjust handed out {handed:.6f} W with only "
                    f"{leftover:.6f} W leftover"
                )
            high = np.asarray(info.priority, dtype=bool)
            if leftover > node.config.readjust.budget_epsilon:
                # Water-fill branch: grants only add.
                shrunk = post < pre - 1e-6
                shrunk &= high
                if shrunk.any():
                    return (
                        "water-fill shrank high-priority units "
                        f"{np.flatnonzero(shrunk).tolist()}"
                    )
            elif high.any():
                # Equalise branch: above-mean units legitimately shrink.
                equal = post[high]
                spread = equal.max() - equal.min()
                if spread > 1e-6:
                    return (
                        "equalisation left high-priority caps "
                        f"{spread:.6f} W apart"
                    )
                grown = float(equal.sum()) - float(pre[high].sum())
                if grown > tol:
                    return (
                        "equalisation grew the high-priority caps by "
                        f"{grown:.6f} W"
                    )
            return None
        return None


class FiniteKalman(Invariant):
    """Every Kalman bank in the stack holds finite state."""

    name = "finite-kalman"

    def check(self, ctx: InvariantContext) -> str | None:
        for node in manager_stack(ctx.manager):
            bank = getattr(node, "_kalman", None)
            if bank is None:
                continue
            estimate = getattr(bank, "estimate", None)
            variance = getattr(bank, "variance", None)
            # A finite sum clears the estimates, a positive minimum and a
            # finite maximum the variances; only a vector that fails one
            # (or overflows the sum) is searched for the units to name.
            if estimate is not None and not math.isfinite(estimate.sum()):
                bad = np.flatnonzero(~np.isfinite(estimate))
                if bad.size:
                    return (
                        f"non-finite Kalman estimate at units {bad.tolist()}"
                    )
            if variance is not None and not (
                variance.min() > 0 and math.isfinite(variance.max())
            ):
                bad = np.flatnonzero(
                    ~np.isfinite(variance) | (variance <= 0)
                )
                return (
                    f"invalid Kalman variance at units {bad.tolist()}"
                )
        return None


#: The unsigned integer each item size of a leaf is compared as.
_WORDS = {size: np.dtype(f"u{size}") for size in (1, 2, 4, 8)}


def _same_json(a: object, b: object) -> bool:
    """``to_json(a) == to_json(b)`` without writing the text of two
    documents to compare them.

    A snapshot is a shallow tree whose weight sits in a few array
    leaves.  JSON text parses back to one tree only, so two lists, or
    two dicts on one set of ``str`` keys, dump alike exactly when their
    children do pairwise, and a leaf is written as its dtype, its shape
    and base64 of its little-endian bytes, which is injective, so two
    leaves of one dtype and shape dump alike exactly when their bytes
    agree — read in place, item by item as unsigned integers, when an
    item is 1, 2, 4 or 8 bytes.  A pair of equal scalars of one
    exact type (``str``, ``int``, ``bool``, or ``float`` with one sign of
    zero) dumps alike too.  Everything else — unequal or mixed-type
    numbers (``1`` / ``1.0`` / ``true``, NaN agree or differ as *text*),
    subclasses such as ``np.float64``, strings (a lone-surrogate pair
    escapes like the astral character it spells, in a key too), other
    keys, leaves of other dtypes, shapes or item sizes — is handed to the
    text boundary itself, a few bytes at a time.
    """
    kind = type(a)
    if kind is np.ndarray and type(b) is np.ndarray:
        word = _WORDS.get(a.dtype.itemsize)
        if (
            word is not None
            and a.dtype == b.dtype
            and a.shape == b.shape
            and not a.dtype.hasobject
        ):
            # Item by item as unsigned words of the item's size: equal
            # words in every position are equal C-order byte images,
            # whatever the two layouts, and no image of either is made.
            return bool((a.view(word) == b.view(word)).all())
    elif kind is dict and type(b) is dict:
        # One set of str keys is written alike on both sides, in one
        # order; an int key equal to a bool one is not (1 / true).
        if a.keys() == b.keys() and all(type(k) is str for k in a):
            return all(map(_same_json, a.values(), map(b.__getitem__, a)))
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_same_json, a, b))
    elif kind is not type(b):
        pass
    elif kind is str or kind is int or kind is bool:
        if a == b:
            return True
    elif kind is float:
        if a == b and math.copysign(1.0, a) == math.copysign(1.0, b):
            return True
    return to_json(a) == to_json(b)


class SnapshotIdempotence(Invariant):
    """``restore(snapshot())`` into a fresh instance of the same class
    and configuration reproduces the snapshot (the crash-recovery
    contract), checked live: the two documents must serialise to the
    same JSON text, which for array leaves is decided on their bytes in
    place.  A restore that raises on its own manager's snapshot fails
    the check too."""

    name = "snapshot-idempotence"
    expensive = True

    def check(self, ctx: InvariantContext) -> str | None:
        manager = None
        for node in manager_stack(ctx.manager):
            if hasattr(node, "snapshot") and hasattr(node, "_decide"):
                manager = node
                break
        if manager is None:
            return None
        doc = manager.snapshot()
        try:
            fresh = manager.blank()
            fresh.restore(doc)
            redoc = fresh.snapshot()
        except Exception as exc:  # noqa: BLE001 - any failure is the verdict
            return (
                f"manager {manager.name!r} snapshot does not restore into "
                f"a fresh instance: {type(exc).__name__}: {exc}"
            )
        if not _same_json(doc, redoc):
            return (
                f"manager {manager.name!r} snapshot is not reproduced by "
                "restore into a fresh instance"
            )
        return None


class ShardLeaseConservation(Invariant):
    """The arbiter's worst-case committed power — live shards at their
    leases plus dark shards at their last confirmed commitments — never
    exceeds the global budget (checked from the arbiter's introspection
    surface; a plain manager stack has none and passes vacuously)."""

    name = "shard-lease-conservation"

    def check(self, ctx: InvariantContext) -> str | None:
        for node in manager_stack(ctx.manager):
            worst = getattr(node, "shard_worst_case_w", None)
            if worst is None:
                continue
            budget = float(getattr(node, "budget_w", ctx.budget_w))
            tol = budget * _REL_TOL + 1e-6
            if float(worst) > budget + tol:
                return (
                    f"shard worst-case committed {float(worst):.6f} W "
                    f"exceeds global budget {budget:.6f} W"
                )
            steady = getattr(node, "shard_steady_committed_w", None)
            if steady is not None and float(steady) > budget + tol:
                return (
                    f"shard steady committed {float(steady):.6f} W "
                    f"exceeds global budget {budget:.6f} W"
                )
            return None
        return None


_REGISTRY: dict[str, Invariant] = {}


def register_invariant(invariant: Invariant) -> Invariant:
    """Add an invariant to the registry (name must be unique)."""
    if not invariant.name:
        raise ValueError(
            f"{type(invariant).__name__} must define a non-empty name"
        )
    if invariant.name in _REGISTRY:
        raise ValueError(f"duplicate invariant name {invariant.name!r}")
    _REGISTRY[invariant.name] = invariant
    return invariant


for _inv in (
    BudgetConservation(),
    CapBounds(),
    ReadjustConservation(),
    FiniteKalman(),
    SnapshotIdempotence(),
    ShardLeaseConservation(),
):
    register_invariant(_inv)


def available_invariants() -> tuple[str, ...]:
    """Names of all registered invariants, sorted."""
    return tuple(sorted(_REGISTRY))


def default_invariants() -> tuple[Invariant, ...]:
    """All registered invariants, in registration order."""
    return tuple(_REGISTRY.values())


@dataclass
class InvariantMonitor:
    """Runs a set of invariants on a strict or sampling cadence.

    Attributes:
        mode: ``"strict"`` (every cycle, raises), ``"sampling"`` (every
            ``sample_every``-th cycle, events only), or ``"off"``.
        sample_every: sweep spacing in sampling mode.
        invariants: the checks to run (the full registry by default).
        events: the run's event log for ``invariant_violation`` events;
            without one the monitor keeps its own, stamped with
            :attr:`cycles_seen`.
        raise_on_violation: overrides the mode's default raising
            behaviour when not None.
    """

    mode: str = "strict"
    sample_every: int = 16
    invariants: tuple[Invariant, ...] | None = None
    events: ResilienceEventLog | None = None
    raise_on_violation: bool | None = None
    cycles_seen: int = field(default=0, init=False)
    sweeps_run: int = field(default=0, init=False)
    violations: list[InvariantViolation] = field(
        default_factory=list, init=False
    )

    def __post_init__(self) -> None:
        if self.mode not in ("strict", "sampling", "off"):
            raise ValueError(f"unknown monitor mode {self.mode!r}")
        if self.sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.invariants is None:
            self.invariants = default_invariants()
        if self.events is None:
            self.events = ResilienceEventLog(lambda: self.cycles_seen)
        if self.raise_on_violation is None:
            self.raise_on_violation = self.mode == "strict"

    def run(self, ctx: InvariantContext) -> list[InvariantViolation]:
        """Run one cycle's sweep (or skip it, per the cadence).

        Raises:
            InvariantViolationError: a check failed and this monitor
                raises on violation.
        """
        if self.mode == "off":
            return []
        self.cycles_seen += 1
        if self.mode == "sampling" and (
            (self.cycles_seen - 1) % self.sample_every
        ):
            return []
        self.sweeps_run += 1
        found: list[InvariantViolation] = []
        for invariant in self.invariants:
            detail = invariant.check(ctx)
            if detail is not None:
                violation = InvariantViolation(invariant.name, detail)
                found.append(violation)
                self.violations.append(violation)
                self.events.emit(
                    "invariant_violation",
                    detail=f"{invariant.name}: {detail}",
                )
        if found and self.raise_on_violation:
            raise InvariantViolationError(found)
        return found
