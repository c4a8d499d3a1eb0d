"""Append-only privacy-budget ledger with composition queries.

Sequential composition sums (epsilon, delta) over entries exactly, as
integers in units of 2**-1074, and rounds each sum once, to the float
math.fsum would give. The cap is checked against those sums up to the float
rounding of the charges themselves. Parallel composition takes componentwise
maxima over entries that the caller asserts were computed on disjoint data
partitions (the ledger never sees raw data, so disjointness cannot be
verified here). Post-processing operations (predict, serialize) never create
entries.

On disk a ledger is JSON Lines, one entry per line. ``BudgetLedger.charge``
appends one line under an exclusive ``flock`` (POSIX), so concurrent
processes charging the same file neither lose entries nor pass the cap.

Each line that ``charge`` or ``save`` writes ends in a ``"totals"`` field:
the entry count and the exact epsilon and delta totals up to and including
that line, then a CRC-32 of every ledger byte before those CRC digits. A
charge trusts the last line's totals only when that CRC matches the bytes it
has just read under the lock, and otherwise parses every entry, as it would
on a ledger whose lines have no totals. With a verified last line a charge
does no per-entry work in Python. ``load`` ignores the field.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import zlib
from collections import Counter
from dataclasses import dataclass, replace


# Charges and caps are decimals rounded to floats, each off by at most half
# an ulp, and math.fsum rounds their sum once more.
_ROUNDING = 2.0 ** -52


# Every finite float is an integer multiple of 2**-1074, the least subnormal,
# so a total kept as an integer in that unit is exact, and int true division,
# which rounds correctly, gives the same float as math.fsum of the entries.
_UNIT_BITS = 1074
_ONE = 1 << _UNIT_BITS


def _units(x) -> int:
    """The finite float (or int) ``x`` as a whole number of 2**-1074."""
    num, den = x.as_integer_ratio()  # den is a power of two
    return num << (_UNIT_BITS + 1 - den.bit_length())


def _to_float(units: int) -> float:
    """The float nearest ``units`` * 2**-1074; OverflowError past the
    largest float."""
    return units / _ONE


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
        self._totals = (0, 0)  # exact epsilon and delta sums, in units
        self.cap = cap

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def record(self, operation_name: str, epsilon: float, delta: float = 0.0,
               partition_tag: str | None = None) -> LedgerEntry:
        entry = LedgerEntry(operation_name, float(epsilon), float(delta),
                            partition_tag, seq=len(self._entries))
        self._totals = _check_cap(self.cap, *self._totals, entry)
        self._entries.append(entry)
        return entry

    def sequential_total(self) -> tuple[float, float]:
        return _to_float(self._totals[0]), _to_float(self._totals[1])

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
        """The entry's own JSON, without the running totals."""
        return json.dumps({"op": entry.operation_name, "eps": entry.epsilon,
                           "delta": entry.delta, "tag": entry.partition_tag,
                           "seq": entry.seq}, sort_keys=True)

    def save(self, path) -> None:
        lines, eps_units, delta_units, crc = [], 0, 0, 0
        for count, entry in enumerate(self._entries, 1):
            eps_units += _units(entry.epsilon)
            delta_units += _units(entry.delta)
            line = _line(entry, count, eps_units, delta_units, crc)
            crc = zlib.crc32(line, crc)
            lines.append(line)
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))

    @classmethod
    def charge(cls, path, operation_name: str, epsilon: float,
               delta: float = 0.0, partition_tag: str | None = None,
               cap: tuple[float, float] | None = None) -> LedgerEntry:
        """Record one spend in the ledger file at ``path`` and return it.

        The ledger is read and the new entry is checked against ``cap`` and
        appended while an exclusive lock is held, so the check sees every
        charge that finished before it. A refused charge raises and writes
        nothing; in particular it does not create the ledger. The check
        needs only the entry count and the two totals, which the last line
        holds when its CRC-32 matches the ledger bytes; otherwise every
        entry is parsed and checked.
        """
        entry = LedgerEntry(operation_name, float(epsilon), float(delta),
                            partition_tag)
        if not os.path.exists(path):
            _check_cap(cap, 0, 0, entry)  # before opening creates the file
        with open(path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
            fh.seek(0)
            data = fh.read()
            crc = zlib.crc32(data[:-_CRC_TAIL])
            totals = _last_totals(data, crc)
            crc = zlib.crc32(data[-_CRC_TAIL:], crc)
            if totals is None:
                records = _parse_records(data.decode("utf-8"), path)
                totals = (len(records), *_exact_totals(records))
            count, eps_units, delta_units = totals
            entry = replace(entry, seq=count)
            eps_units, delta_units = _check_cap(cap, eps_units, delta_units,
                                                entry)
            # A hand-edited last line may lack its newline; one write mends
            # it and appends, so a crash tears at most one line.
            mend = b"\n" if data and not data.endswith(b"\n") else b""
            fh.write(mend + _line(entry, count + 1, eps_units, delta_units,
                                  zlib.crc32(mend, crc)))
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
        ledger._totals = _exact_totals(records)
        try:
            ledger.sequential_total()
        except OverflowError:
            raise ValueError(f"ledger {path} holds a total past the "
                             "largest float") from None
        return ledger


# A line ends in its CRC-32, as 8 hex digits, and '"}\n'.
_CRC_TAIL = 11


def _pack(units: int) -> str:
    """``units`` as the hex of its odd part and a binary exponent, so that
    0x7ef9db22d0e561 << 1018 is ``7ef9db22d0e561p1018``."""
    shift = max((units & -units).bit_length() - 1, 0)
    return f"{units >> shift:x}p{shift}"


def _unpack(text: bytes) -> int:
    """The units that ``_pack`` wrote as ``text``; ValueError for text it
    could not have written, such as an exponent past every float total."""
    odd, _, shift = text.partition(b"p")
    if not 0 <= int(shift) <= 2 * _UNIT_BITS:
        raise ValueError("exponent out of range")
    return int(odd, 16) << int(shift)


def _line(entry: LedgerEntry, count: int, eps_units: int, delta_units: int,
          crc: int) -> bytes:
    """The ledger line of ``entry`` as the ``count``-th entry, whose exact
    totals through it are ``eps_units``/``delta_units``, after ledger bytes
    of CRC-32 ``crc``. The line's own CRC-32 covers every ledger byte before
    its digits."""
    body = (BudgetLedger.entry_to_line(entry)[:-1] +
            f', "totals": "{count} {_pack(eps_units)} {_pack(delta_units)} '
            ).encode("utf-8")
    return body + b'%08x"}\n' % zlib.crc32(body, crc)


def _last_totals(data: bytes, crc: int) -> tuple[int, int, int] | None:
    """The entry count and exact totals that the last line of the ledger
    bytes ``data`` holds, or None unless that line ends in a "totals" field
    whose CRC-32 digits equal ``crc``, the CRC-32 of every byte before
    them. Any other last line, torn or written without totals, gives None."""
    _, found, field = data.rpartition(b'"totals": "')
    fields = field.split(b" ")
    if not found or len(fields) != 4 or fields[3] != b'%08x"}\n' % crc:
        return None
    try:
        return int(fields[0]), _unpack(fields[1]), _unpack(fields[2])
    except ValueError:
        return None


def _parse_records(text: str, path) -> list[dict]:
    """The ledger lines in ``text`` as dicts, one per non-blank line, with
    the amounts checked as ``LedgerEntry`` checks them. A line that is not
    one JSON value, such as one torn by a crash, is refused by its number."""
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        records = None
    if records is None or len(records) != len(lines):
        # Lines that are each one JSON value join into one JSON array of as
        # many values, so some line fails on its own.
        for k, line in enumerate(text.splitlines(), 1):
            try:
                if line.strip():
                    json.loads(line)
            except json.JSONDecodeError:
                raise ValueError(f"ledger {path} line {k} is not one JSON "
                                 "entry") from None
    for rec in records:
        _check_amounts(rec["eps"], rec["delta"])
    return records


def _exact_sum(amounts) -> int:
    """The exact sum of ``amounts``, in units, converting each distinct
    amount once. A 496-entry release-stream ledger holds one epsilon and two
    delta values; on it this took 70 us against 350 us for converting every
    amount, and ``load`` 1.37 ms against 1.77 ms (2-vCPU VM)."""
    return sum(_units(x) * n for x, n in Counter(amounts).items())


def _exact_totals(records: list[dict]) -> tuple[int, int]:
    return (_exact_sum(rec["eps"] for rec in records),
            _exact_sum(rec["delta"] for rec in records))


def _check_amounts(epsilon, delta) -> None:
    # Written so that NaN fails; an infinite amount would make every later
    # total infinite, which no cap comparison can refuse.
    if not (0.0 < epsilon < math.inf):
        raise ValueError("entry epsilon must be positive and finite")
    if not (0.0 <= delta < math.inf):
        raise ValueError("entry delta must be nonnegative and finite")


def _check_cap(cap: tuple[float, float] | None, eps_units: int,
               delta_units: int, entry: LedgerEntry) -> tuple[int, int]:
    """The exact totals ``eps_units``/``delta_units`` with ``entry`` added;
    raise ``BudgetExhaustedError`` when they would pass ``cap``, and
    ValueError when they would pass the largest float, which no report or
    cap comparison could then hold."""
    new_eps = eps_units + _units(entry.epsilon)
    new_delta = delta_units + _units(entry.delta)
    try:
        eps_total, delta_total = _to_float(new_eps), _to_float(new_delta)
    except OverflowError:
        raise ValueError("this charge would take the ledger total past the "
                         "largest float") from None
    if cap is not None:
        eps_cap, delta_cap = cap
        if exceeds_cap(eps_total, eps_cap) or \
                exceeds_cap(delta_total, delta_cap):
            raise BudgetExhaustedError(eps_cap - _to_float(eps_units),
                                       delta_cap - _to_float(delta_units))
    return new_eps, new_delta
