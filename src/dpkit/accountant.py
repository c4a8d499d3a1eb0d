"""Append-only privacy-budget ledger with composition queries.

Sequential composition sums (epsilon, delta) over entries, exactly rounded
with math.fsum, and the cap is checked against those sums up to the float
rounding of the charges themselves; parallel
composition takes componentwise maxima over entries that the caller asserts
were computed on disjoint data partitions (the ledger never sees raw data, so
disjointness cannot be verified here). Post-processing operations (predict,
serialize) never create entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


# Charges and caps are decimals rounded to floats, each off by at most half
# an ulp, and math.fsum rounds their sum once more.
_ROUNDING = 2.0 ** -52


def exceeds_cap(total: float, cap: float) -> bool:
    """True when an exactly rounded total is over the cap by more than the
    float rounding of the charges and the cap can explain.

    A naive running sum of 496 charges of 0.001 exceeds 0.496 by 4e-16, and
    even math.fsum puts three charges of 0.1 at 0.30000000000000004; both
    totals equal their caps in the decimals the caller wrote.
    """
    return total - cap > _ROUNDING * (total + cap)


class BudgetExhaustedError(Exception):
    """Raised when recording an entry would push the ledger past its cap."""

    def __init__(self, remaining_epsilon: float, remaining_delta: float):
        self.remaining_epsilon = remaining_epsilon
        self.remaining_delta = remaining_delta
        super().__init__(
            f"privacy budget exhausted; remaining epsilon="
            f"{remaining_epsilon:.6g}, delta={remaining_delta:.6g}")


@dataclass(frozen=True)
class LedgerEntry:
    operation_name: str
    epsilon: float
    delta: float = 0.0
    partition_tag: str | None = None
    seq: int = 0

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError("entry epsilon must be positive")
        if self.delta < 0.0:
            raise ValueError("entry delta must be nonnegative")


class BudgetLedger:
    def __init__(self, cap: tuple[float, float] | None = None):
        self._entries: list[LedgerEntry] = []
        self.cap = cap

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def record(self, operation_name: str, epsilon: float, delta: float = 0.0,
               partition_tag: str | None = None) -> LedgerEntry:
        entry = LedgerEntry(operation_name, float(epsilon), float(delta),
                            partition_tag, seq=len(self._entries))
        if self.cap is not None:
            eps_cap, delta_cap = self.cap
            charged = self._entries + [entry]
            eps_new = math.fsum(e.epsilon for e in charged)
            delta_new = math.fsum(e.delta for e in charged)
            if exceeds_cap(eps_new, eps_cap) or \
                    exceeds_cap(delta_new, delta_cap):
                eps_tot, delta_tot = self.sequential_total()
                raise BudgetExhaustedError(eps_cap - eps_tot,
                                           delta_cap - delta_tot)
        self._entries.append(entry)
        return entry

    def sequential_total(self) -> tuple[float, float]:
        return (math.fsum(e.epsilon for e in self._entries),
                math.fsum(e.delta for e in self._entries))

    def parallel_total(self) -> tuple[float, float]:
        """Componentwise maxima over entries on caller-disjoint partitions."""
        if not self._entries:
            return 0.0, 0.0
        tags = [e.partition_tag for e in self._entries]
        if any(t is None for t in tags):
            raise ValueError("parallel composition requires a partition tag "
                             "on every entry")
        if len(set(tags)) != len(tags):
            raise ValueError("parallel composition requires distinct "
                             "partition tags")
        return (max(e.epsilon for e in self._entries),
                max(e.delta for e in self._entries))

    # -- line-delimited JSON persistence ------------------------------------

    @staticmethod
    def entry_to_line(entry: LedgerEntry) -> str:
        return json.dumps({"op": entry.operation_name, "eps": entry.epsilon,
                           "delta": entry.delta, "tag": entry.partition_tag,
                           "seq": entry.seq}, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self._entries:
                fh.write(self.entry_to_line(entry) + "\n")

    def append_to_file(self, path, entry: LedgerEntry) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(self.entry_to_line(entry) + "\n")

    @classmethod
    def load(cls, path, cap: tuple[float, float] | None = None
             ) -> "BudgetLedger":
        ledger = cls(cap=None)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                ledger._entries.append(LedgerEntry(
                    rec["op"], rec["eps"], rec["delta"], rec["tag"],
                    rec["seq"]))
        ledger.cap = cap
        return ledger
