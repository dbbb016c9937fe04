"""Peer-to-peer power manager (Penelope-style, paper reference [43]).

Srivastava, Zhang & Hoffmann's Penelope decentralizes cluster power
management: no central controller holds the budget — nodes hold cap
*shares* that sum to the budget, and pairs of nodes trade power directly.
The paper cites it as the consistent-overhead alternative to centralized
designs; this reimplementation serves as another model-free baseline.

Each control step, every unit is randomly paired with one other unit (odd
one sits out).  Within a pair, the unit drawing close to its cap (the
*needy* side) takes power from a partner drawing well below its cap (the
*rich* side): the transfer is a fraction of the partner's measured slack,
bounded so the donor keeps a safety margin above its current draw.  The
invariant that the shares always sum to the initial budget makes budget
compliance structural rather than enforced.

Being pairwise and stateless, it reacts more slowly than a central MIMD
manager (one partner per step) but has no central bottleneck — the trade
the paper's §6.5 discussion hints at.
"""

from __future__ import annotations

import numpy as np

from repro.core.managers import PowerManager, register_manager

__all__ = ["P2PManager"]


@register_manager
class P2PManager(PowerManager):
    """Decentralized pairwise power-trading manager (registered as
    ``"p2p"``).

    Args:
        needy_threshold: fraction of its cap above which a unit asks for
            power.
        rich_threshold: fraction of its cap below which a unit may donate.
        trade_fraction: share of the donor's slack transferred per trade.
        donor_margin_w: power the donor always keeps above its current
            draw.
    """

    name = "p2p"

    def __init__(
        self,
        needy_threshold: float = 0.95,
        rich_threshold: float = 0.85,
        trade_fraction: float = 0.5,
        donor_margin_w: float = 5.0,
    ) -> None:
        super().__init__()
        if not 0 < rich_threshold < needy_threshold <= 1:
            raise ValueError(
                "need 0 < rich_threshold < needy_threshold <= 1, got "
                f"{rich_threshold}, {needy_threshold}"
            )
        if not 0 < trade_fraction <= 1:
            raise ValueError(
                f"trade_fraction must be in (0, 1], got {trade_fraction}"
            )
        if donor_margin_w < 0:
            raise ValueError(
                f"donor_margin_w must be >= 0, got {donor_margin_w}"
            )
        self.needy_threshold = needy_threshold
        self.rich_threshold = rich_threshold
        self.trade_fraction = trade_fraction
        self.donor_margin_w = donor_margin_w
        #: Trades executed since binding (overhead accounting).
        self.trades = 0

    def _on_bind(self) -> None:
        self.trades = 0

    def blank(self) -> P2PManager:
        return type(self)(
            self.needy_threshold,
            self.rich_threshold,
            self.trade_fraction,
            self.donor_margin_w,
        )

    def _snapshot_state(self) -> dict:
        return {"trades": self.trades}

    def _restore_state(self, state: dict) -> None:
        self.trades = int(state["trades"])

    def _decide(
        self, power_w: np.ndarray, demand_w: np.ndarray | None
    ) -> np.ndarray:
        del demand_w
        caps = self._caps.copy()
        order = self._rng.permutation(self.n_units)

        for k in range(0, self.n_units - 1, 2):
            a, b = int(order[k]), int(order[k + 1])
            needy, rich = None, None
            for u, v in ((a, b), (b, a)):
                if (
                    power_w[u] > caps[u] * self.needy_threshold
                    and power_w[v] < caps[v] * self.rich_threshold
                ):
                    needy, rich = u, v
                    break
            if needy is None or rich is None:
                continue
            slack = caps[rich] - max(
                power_w[rich] + self.donor_margin_w, self.min_cap_w
            )
            if slack <= 0:
                continue
            transfer = min(
                slack * self.trade_fraction,
                self.max_cap_w - caps[needy],
            )
            if transfer <= 0:
                continue
            caps[rich] -= transfer
            caps[needy] += transfer
            self.trades += 1

        return caps
