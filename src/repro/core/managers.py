"""Power-manager interface and registry.

Every cluster-level power manager in the paper — constant allocation, the
SLURM power plugin, the oracle, and DPS itself — implements the same tiny
contract: it is *bound* to a topology (number of units, cluster budget,
per-unit cap range, control period) and then *stepped* once per decision
loop with the latest per-unit power readings, returning the per-unit caps
for the next period.

The contract deliberately mirrors what the paper's server receives from its
clients (§4.3): power readings in, cap commands out, nothing else.  Only the
oracle additionally receives the true uncapped demand (it stands in for a
perfect model; see §5.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, ClassVar, Iterator, Optional

import numpy as np

from repro.recovery.state import decode_array, encode_array, make_rng, rng_state

__all__ = [
    "PowerManager", "manager_stack", "register_manager", "create_manager",
    "available_managers",
]

#: Schema version of the manager snapshot document.
MANAGER_SNAPSHOT_VERSION = 1


class PowerManager(ABC):
    """Base class for cluster-level power managers.

    Subclasses implement :meth:`_decide`; the base class owns binding,
    input validation, and the cluster-budget invariant (the sum of the
    returned caps never exceeds the budget — the property the paper verifies
    for every manager in §6: "in all cases ... the power caps are respected").
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""
    #: True if :meth:`step` must be called with the true demand (oracle only).
    requires_demand: ClassVar[bool] = False

    def __init__(self) -> None:
        self._bound = False
        self.n_units = 0
        self.budget_w = 0.0
        self.max_cap_w = 0.0
        self.min_cap_w = 0.0
        self.dt_s = 1.0
        self._caps = np.empty(0, dtype=np.float64)
        #: Set by :meth:`bind`; nothing reads it before.
        self._rng: np.random.Generator | None = None
        #: Times the over-allocation rescale fired (0 for correct logic).
        self.budget_rescales = 0
        #: Observer of the over-allocation rescale, called as
        #: ``on_budget_rescaled(manager_name, overshoot_w)`` whenever the
        #: budget invariant has to scale a subclass's caps down.  The
        #: rescale used to be silent; hosts (deploy server, simulator)
        #: hook this to emit a ``budget_rescaled`` telemetry event.
        self.on_budget_rescaled: Optional[Callable[[str, float], None]] = None

    def bind(
        self,
        n_units: int,
        budget_w: float,
        max_cap_w: float,
        min_cap_w: float = 0.0,
        dt_s: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Attach the manager to a cluster topology and reset its state.

        Args:
            n_units: number of power-capping units.
            budget_w: cluster-wide power budget (W).
            max_cap_w: highest cap a unit accepts (TDP).
            min_cap_w: lowest cap a unit accepts.
            dt_s: control-loop period (s).
            rng: randomness source (the stateless module's random increase
                order); seeded externally for reproducibility.
        """
        if n_units < 1:
            raise ValueError(f"n_units must be >= 1, got {n_units}")
        if budget_w <= 0:
            raise ValueError(f"budget_w must be > 0, got {budget_w}")
        if max_cap_w <= 0:
            raise ValueError(f"max_cap_w must be > 0, got {max_cap_w}")
        if not 0 <= min_cap_w <= max_cap_w:
            raise ValueError(
                f"min_cap_w must be in [0, max_cap_w], got {min_cap_w}"
            )
        if n_units * min_cap_w > budget_w:
            raise ValueError(
                f"budget {budget_w} W cannot cover {n_units} units at the "
                f"minimum cap {min_cap_w} W"
            )
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s}")
        self.n_units = n_units
        self.budget_w = float(budget_w)
        self.max_cap_w = float(max_cap_w)
        self.min_cap_w = float(min_cap_w)
        self.dt_s = float(dt_s)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._caps = np.full(
            n_units,
            min(self.budget_w / n_units, self.max_cap_w),
            dtype=np.float64,
        )
        self.budget_rescales = 0
        self._bound = True
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses to (re)allocate per-unit state after binding."""

    def blank(self) -> PowerManager:
        """A new, unbound manager of this one's class and configuration
        that shares no mutable state with it — what a restarted
        controller would build before restoring this one's snapshot.

        Subclasses whose constructor takes arguments override this to
        pass their own (frozen configs may be shared, nothing else).
        """
        return type(self)()

    def set_budget_w(self, budget_w: float) -> None:
        """Re-lease the cluster budget without resetting controller state.

        The sharded control plane renews a shard's budget lease every
        arbiter cycle; tearing the manager down with :meth:`bind` would
        discard filters and phase state, so this narrow mutation changes
        *only* the budget.  The base :meth:`step` budget invariant picks
        up the new value on the next cycle (any caps now over budget are
        rescaled down), and :attr:`initial_cap_w` is derived so it tracks
        automatically.

        Raises:
            ValueError: non-finite / non-positive budget, or one that
                cannot cover every unit at the minimum cap.
        """
        self._check_bound()
        budget = float(budget_w)
        if not np.isfinite(budget) or budget <= 0:
            raise ValueError(f"budget_w must be finite and > 0, got {budget}")
        if self.n_units * self.min_cap_w > budget:
            raise ValueError(
                f"budget {budget} W cannot cover {self.n_units} units at "
                f"the minimum cap {self.min_cap_w} W"
            )
        self.budget_w = budget

    @property
    def initial_cap_w(self) -> float:
        """The constant cap (budget evenly divided, clipped at TDP)."""
        self._check_bound()
        return min(self.budget_w / self.n_units, self.max_cap_w)

    @property
    def caps(self) -> np.ndarray:
        """Current per-unit caps (W), shape ``(n_units,)`` (read-only view)."""
        self._check_bound()
        view = self._caps.view()
        view.flags.writeable = False
        return view

    def step(
        self, power_w: np.ndarray, demand_w: np.ndarray | None = None
    ) -> np.ndarray:
        """Run one decision loop.

        Args:
            power_w: measured per-unit power (W), shape ``(n_units,)``.
            demand_w: true uncapped demand; only consumed when
                :attr:`requires_demand` is True, ignored otherwise.

        Returns:
            New per-unit caps (W), shape ``(n_units,)``.  Guaranteed to lie
            in ``[min_cap_w, max_cap_w]`` per unit and to sum to at most the
            cluster budget (within float tolerance).
        """
        self._check_bound()
        power = np.asarray(power_w, dtype=np.float64)
        if power.shape != (self.n_units,):
            raise ValueError(f"power shape {power.shape} != ({self.n_units},)")
        if not np.isfinite(power).all():
            raise ValueError("power contains non-finite values")
        if self.requires_demand:
            if demand_w is None:
                raise ValueError(f"{self.name} requires the true demand")
            demand = np.asarray(demand_w, dtype=np.float64)
            if demand.shape != (self.n_units,):
                raise ValueError(
                    f"demand shape {demand.shape} != ({self.n_units},)"
                )
        else:
            demand = None

        caps = self._decide(power, demand)
        caps = caps.clip(self.min_cap_w, self.max_cap_w)
        # Budget invariant: scale down uniformly above the per-unit floor if
        # a subclass ever over-allocates (never triggers for correct logic,
        # but keeps the §6 cap-respecting guarantee unconditional).
        total = float(np.add.reduce(caps))
        if total > self.budget_w * (1.0 + 1e-9):
            over = total - self.budget_w
            slack = caps - self.min_cap_w
            total_slack = float(slack.sum())
            if total_slack > 0:
                caps = caps - slack * min(1.0, over / total_slack)
            self.budget_rescales += 1
            if self.on_budget_rescaled is not None:
                self.on_budget_rescaled(self.name, over)
        self._caps = caps
        return caps.copy()

    @abstractmethod
    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        """Compute the next caps from validated inputs (subclass logic)."""

    # ------------------------------------------------------------------
    # Crash-recovery state protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the complete mutable state as a JSON-able document.

        The document restores bit-exactly: a manager restored from it
        produces the same cap vectors an uninterrupted one would, given
        the same subsequent readings (including RNG-dependent decisions —
        the stream position travels with the snapshot).
        """
        self._check_bound()
        return {
            "manager": self.name,
            "version": MANAGER_SNAPSHOT_VERSION,
            "binding": {
                "n_units": self.n_units,
                "budget_w": self.budget_w,
                "max_cap_w": self.max_cap_w,
                "min_cap_w": self.min_cap_w,
                "dt_s": self.dt_s,
            },
            "caps": encode_array(self._caps),
            "rng": rng_state(self._rng),
            "state": self._snapshot_state(),
        }

    def restore(self, state: dict) -> None:
        """Overwrite this manager's state with a snapshot's content.

        Works on a fresh (never-bound) instance as well as a live one:
        the binding is re-established from the snapshot, bound to a
        generator built at the snapshot's RNG stream (the only generator
        restoring a manager without nested ones builds), then caps and
        subclass state are overwritten in that order.  ``bind`` resets
        subclass state via ``_on_bind``, so everything else snapshot-borne
        must land after it; a generator an ``_on_bind`` spawns from the
        stream is a nested manager's, which its own restore replaces.

        Raises:
            ValueError: snapshot from a different manager type or an
                incompatible schema version.
        """
        if state.get("manager") != self.name:
            raise ValueError(
                f"snapshot is for manager {state.get('manager')!r}, "
                f"not {self.name!r}"
            )
        if state.get("version") != MANAGER_SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot schema version {state.get('version')!r} != "
                f"{MANAGER_SNAPSHOT_VERSION}"
            )
        b = state["binding"]
        self.bind(
            n_units=int(b["n_units"]),
            budget_w=float(b["budget_w"]),
            max_cap_w=float(b["max_cap_w"]),
            min_cap_w=float(b["min_cap_w"]),
            dt_s=float(b["dt_s"]),
            rng=make_rng(state["rng"]),
        )
        caps = decode_array(state["caps"])
        if caps.shape != (self.n_units,):
            raise ValueError(
                f"snapshot caps shape {caps.shape} != ({self.n_units},)"
            )
        self._caps = caps
        self._restore_state(state["state"])

    def _snapshot_state(self) -> dict:
        """Subclass hook: serialize state beyond caps/binding/RNG."""
        return {}

    def _restore_state(self, state: dict) -> None:
        """Subclass hook: the inverse of :meth:`_snapshot_state`.

        Called after ``bind`` has rebuilt fresh components, so hooks only
        need to overwrite their contents.
        """
        del state

    def _check_bound(self) -> None:
        if not self._bound:
            raise RuntimeError(
                f"{type(self).__name__} must be bound to a cluster before use"
            )


def manager_stack(stepper: object) -> Iterator[object]:
    """Yield each member of a wrapped manager stack once, outermost first.

    A wrapper names what it wraps ``manager``
    (:class:`~repro.recovery.controller.RecoverableController`).
    """
    seen: set[int] = set()
    node: object | None = stepper
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        yield node
        node = getattr(node, "manager", None)


_REGISTRY: dict[str, Callable[..., PowerManager]] = {}


def register_manager(cls: type[PowerManager]) -> type[PowerManager]:
    """Class decorator adding a manager to the name registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty `name`")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate manager name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def create_manager(name: str, **kwargs: object) -> PowerManager:
    """Instantiate a registered manager by name (e.g. ``"dps"``, ``"slurm"``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown manager {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_managers() -> tuple[str, ...]:
    """Names of all registered managers, sorted."""
    return tuple(sorted(_REGISTRY))
