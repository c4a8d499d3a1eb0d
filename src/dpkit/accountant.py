"""Append-only privacy-budget ledger with composition queries.

Sequential composition sums (epsilon, delta) over entries, exactly rounded
with math.fsum, and the cap is checked against those sums up to the float
rounding of the charges themselves; parallel
composition takes componentwise maxima over entries that the caller asserts
were computed on disjoint data partitions (the ledger never sees raw data, so
disjointness cannot be verified here). Post-processing operations (predict,
serialize) never create entries.

On disk a ledger is JSON Lines, one entry per line. ``BudgetLedger.charge``
appends one line under an exclusive ``flock`` (POSIX), so concurrent
processes charging the same file neither lose entries nor pass the cap.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
from dataclasses import dataclass, replace


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
        # A total within the rounding allowance of the cap can sit a few ulps
        # above it; what remains is then nothing, not a negative amount.
        self.remaining_epsilon = max(remaining_epsilon, 0.0)
        self.remaining_delta = max(remaining_delta, 0.0)
        super().__init__(
            f"privacy budget exhausted; remaining epsilon="
            f"{self.remaining_epsilon:.6g}, delta={self.remaining_delta:.6g}")


@dataclass(frozen=True)
class LedgerEntry:
    operation_name: str
    epsilon: float
    delta: float = 0.0
    partition_tag: str | None = None
    seq: int = 0

    def __post_init__(self):
        _check_amounts(self.epsilon, self.delta)


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
        _check_cap(self.cap, [e.epsilon for e in self._entries],
                   [e.delta for e in self._entries], entry)
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

    @classmethod
    def charge(cls, path, operation_name: str, epsilon: float,
               delta: float = 0.0, partition_tag: str | None = None,
               cap: tuple[float, float] | None = None) -> LedgerEntry:
        """Record one spend in the ledger file at ``path`` and return it.

        The entries are read and the new one is checked against ``cap`` and
        appended while an exclusive lock is held, so the check sees every
        charge that finished before it. A refused charge raises and writes
        nothing; in particular it never creates the file. The check needs
        only the entry count and the two totals, so no ``LedgerEntry`` is
        built for the lines already there.
        """
        entry = LedgerEntry(operation_name, float(epsilon), float(delta),
                            partition_tag)
        if not os.path.exists(path):
            _check_cap(cap, [], [], entry)  # before opening creates the file
        # newline="" keeps "\r\n" visible, so a missing final "\n" shows.
        with open(path, "a+", encoding="utf-8", newline="") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
            fh.seek(0)
            text = fh.read()
            records = _parse_records(text, path)
            entry = replace(entry, seq=len(records))
            _check_cap(cap, [rec["eps"] for rec in records],
                       [rec["delta"] for rec in records], entry)
            line = cls.entry_to_line(entry) + "\n"
            if text and not text.endswith("\n"):
                line = "\n" + line  # a hand-edited last line lacks one
            fh.write(line)
            fh.flush()
        return entry

    @classmethod
    def load(cls, path, cap: tuple[float, float] | None = None
             ) -> "BudgetLedger":
        with open(path, encoding="utf-8") as fh:
            records = _parse_records(fh.read(), path)
        ledger = cls(cap=cap)
        ledger._entries = [
            LedgerEntry(rec["op"], rec["eps"], rec["delta"], rec["tag"],
                        rec["seq"])
            for rec in records]
        return ledger


def _parse_records(text: str, path) -> list[dict]:
    """The ledger lines in ``text`` as dicts, one per non-blank line, with
    the amounts checked as ``LedgerEntry`` checks them."""
    lines = [line for line in text.splitlines() if line.strip()]
    records = json.loads("[" + ",".join(lines) + "]")
    if len(records) != len(lines):
        raise ValueError(f"ledger {path} holds a line that is not one "
                         "JSON entry")
    for rec in records:
        _check_amounts(rec["eps"], rec["delta"])
    return records


def _check_amounts(epsilon, delta) -> None:
    if not (epsilon > 0.0):
        raise ValueError("entry epsilon must be positive")
    if delta < 0.0:
        raise ValueError("entry delta must be nonnegative")


def _check_cap(cap: tuple[float, float] | None, epsilons: list[float],
               deltas: list[float], entry: LedgerEntry) -> None:
    """Raise ``BudgetExhaustedError`` when ``entry`` would take the exact
    totals of ``epsilons``/``deltas`` past ``cap``."""
    if cap is None:
        return
    eps_cap, delta_cap = cap
    if exceeds_cap(math.fsum(epsilons + [entry.epsilon]), eps_cap) or \
            exceeds_cap(math.fsum(deltas + [entry.delta]), delta_cap):
        raise BudgetExhaustedError(eps_cap - math.fsum(epsilons),
                                   delta_cap - math.fsum(deltas))
