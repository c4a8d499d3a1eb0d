import io
import math
import multiprocessing
import os
import random
import zlib

import pytest

from dpkit import accountant
from dpkit.accountant import (BudgetExhaustedError, BudgetLedger, LedgerEntry,
                              exceeds_cap)
from dpkit.cli import main


def test_sequential_composition_sums():
    ledger = BudgetLedger()
    ledger.record("mean", 0.5)
    ledger.record("var", 0.3, 0.01)
    ledger.record("fit", 1.2, 0.02)
    eps, delta = ledger.sequential_total()
    assert eps == pytest.approx(2.0)
    assert delta == pytest.approx(0.03)


def test_empty_ledger_totals():
    ledger = BudgetLedger()
    assert ledger.sequential_total() == (0, 0)
    assert ledger.parallel_total() == (0.0, 0.0)


def test_parallel_composition_takes_maxima():
    ledger = BudgetLedger()
    ledger.record("mean", 0.5, 0.01, partition_tag="east")
    ledger.record("mean", 0.8, 0.005, partition_tag="west")
    ledger.record("mean", 0.2, 0.02, partition_tag="north")
    assert ledger.parallel_total() == (0.8, 0.02)


def test_parallel_requires_tags_everywhere():
    ledger = BudgetLedger()
    ledger.record("a", 0.5, partition_tag="x")
    ledger.record("b", 0.5)
    with pytest.raises(ValueError):
        ledger.parallel_total()


def test_parallel_requires_distinct_tags():
    ledger = BudgetLedger()
    ledger.record("a", 0.5, partition_tag="x")
    ledger.record("b", 0.5, partition_tag="x")
    with pytest.raises(ValueError):
        ledger.parallel_total()


def test_cap_blocks_and_preserves_ledger():
    ledger = BudgetLedger(cap=(1.0, 0.01))
    ledger.record("a", 0.6)
    with pytest.raises(BudgetExhaustedError) as exc:
        ledger.record("b", 0.6)
    assert exc.value.remaining_epsilon == pytest.approx(0.4)
    assert exc.value.remaining_delta == pytest.approx(0.01)
    # Nothing was appended by the failed attempt.
    assert len(ledger.entries) == 1
    ledger.record("c", 0.4)  # exactly exhausts the cap
    with pytest.raises(BudgetExhaustedError):
        ledger.record("d", 1e-9)


def test_cap_applies_to_delta_too():
    ledger = BudgetLedger(cap=(10.0, 0.01))
    ledger.record("a", 0.1, 0.009)
    with pytest.raises(BudgetExhaustedError):
        ledger.record("b", 0.1, 0.002)


def test_entry_validation():
    with pytest.raises(ValueError):
        LedgerEntry("x", 0.0)
    with pytest.raises(ValueError):
        LedgerEntry("x", 1.0, -0.1)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = BudgetLedger()
    ledger.record("mean", 0.5, 0.01, partition_tag="east")
    ledger.record("fit", 1.25)
    ledger.save(path)

    loaded = BudgetLedger.load(path)
    assert loaded.entries == ledger.entries
    assert loaded.sequential_total() == ledger.sequential_total()


def test_load_applies_cap(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = BudgetLedger()
    ledger.record("x", 0.9)
    ledger.save(path)
    loaded = BudgetLedger.load(path, cap=(1.0, 0.0))
    with pytest.raises(BudgetExhaustedError):
        loaded.record("y", 0.2)


def test_cap_admits_charges_that_sum_to_it_in_decimal():
    # 0.1 + 0.1 + 0.1 is 0.30000000000000004 even when exactly rounded.
    ledger = BudgetLedger(cap=(0.3, 0.0))
    for _ in range(3):
        ledger.record("a", 0.1)
    assert len(ledger.entries) == 3
    with pytest.raises(BudgetExhaustedError):
        ledger.record("b", 1e-12)


def test_cap_admits_long_run_landing_exactly_on_it():
    # The naive running sum of these charges is 0.4960000000000004.
    ledger = BudgetLedger(cap=(0.496, 0.001))
    for _ in range(496):
        ledger.record("m", 0.001)
    assert ledger.sequential_total() == (0.496, 0.0)
    with pytest.raises(BudgetExhaustedError):
        ledger.record("m", 0.001)
    assert len(ledger.entries) == 496


def test_refusal_reports_no_negative_remainder():
    # fsum puts three charges of 0.1 a few ulps above the cap of 0.3.
    ledger = BudgetLedger(cap=(0.3, 0.0))
    for _ in range(3):
        ledger.record("a", 0.1)
    with pytest.raises(BudgetExhaustedError) as exc:
        ledger.record("b", 0.01)
    assert exc.value.remaining_epsilon == 0.0
    assert "remaining epsilon=0," in str(exc.value)


def test_load_rejects_two_entries_on_one_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = BudgetLedger()
    e1 = ledger.record("x", 0.5)
    e2 = ledger.record("y", 0.25)
    path.write_text(BudgetLedger.entry_to_line(e1) + ", " +
                    BudgetLedger.entry_to_line(e2) + "\n")
    with pytest.raises(ValueError):
        BudgetLedger.load(path)


def test_charge_appends_what_save_writes(tmp_path):
    charged, saved = tmp_path / "charged.jsonl", tmp_path / "saved.jsonl"
    ledger = BudgetLedger()
    ledger.record("mean", 0.5, 0.01, partition_tag="east")
    ledger.save(charged)
    BudgetLedger.charge(charged, "fit", 1.25, 0.0, None, cap=(2.0, 0.1))
    entry = BudgetLedger.charge(charged, "var", 0.25, 0.02, "west")
    assert entry.seq == 2
    ledger.record("fit", 1.25)
    ledger.record("var", 0.25, 0.02, partition_tag="west")
    ledger.save(saved)
    assert charged.read_text() == saved.read_text()


def test_charge_mends_a_missing_final_newline(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = BudgetLedger()
    ledger.record("x", 0.5)
    ledger.save(path)
    path.write_text(path.read_text().rstrip("\n"))
    BudgetLedger.charge(path, "y", 0.25)
    assert [e.operation_name for e in BudgetLedger.load(path).entries] == \
        ["x", "y"]


def test_refused_charge_writes_nothing(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with pytest.raises(BudgetExhaustedError) as exc:
        BudgetLedger.charge(path, "x", 2.0, cap=(1.0, 0.0))
    assert exc.value.remaining_epsilon == 1.0
    with pytest.raises(ValueError):
        BudgetLedger.charge(path, "x", 0.0)
    assert os.listdir(tmp_path) == []

    BudgetLedger.charge(path, "x", 0.75, cap=(1.0, 0.0))
    before = path.read_bytes()
    with pytest.raises(BudgetExhaustedError):
        BudgetLedger.charge(path, "y", 0.5, cap=(1.0, 0.0))
    with pytest.raises(BudgetExhaustedError):
        BudgetLedger.charge(path, "y", 0.1, 0.1, cap=(1.0, 0.0))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ledger.jsonl"]


@pytest.mark.parametrize("line,message", [
    ('{"delta": 0.0, "eps": 0.0, "op": "x", "seq": 1, "tag": null}',
     "entry epsilon must be positive"),
    ('{"delta": -0.1, "eps": 1.0, "op": "x", "seq": 1, "tag": null}',
     "entry delta must be nonnegative"),
])
def test_charge_checks_every_entry_it_reads(tmp_path, line, message):
    path = tmp_path / "ledger.jsonl"
    BudgetLedger.charge(path, "ok", 0.5)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    before = path.read_bytes()
    for read in (lambda: BudgetLedger.charge(path, "y", 0.1),
                 lambda: BudgetLedger.load(path)):
        with pytest.raises(ValueError, match=message):
            read()
    assert path.read_bytes() == before


def test_charge_counts_and_totals_match_load(tmp_path):
    path = tmp_path / "ledger.jsonl"
    charges = [(0.1, 0.0), (0.2, 1e-6), (0.3, 0.0), (0.4, 2e-6)]
    for i, (eps, delta) in enumerate(charges):
        entry = BudgetLedger.charge(path, f"op{i}", eps, delta,
                                    cap=(1.0, 3e-6))
        assert entry.seq == i
    ledger = BudgetLedger.load(path)
    assert ledger.sequential_total() == (math.fsum(e for e, _ in charges),
                                         math.fsum(d for _, d in charges))
    with pytest.raises(BudgetExhaustedError) as exc:
        BudgetLedger.charge(path, "over", 1e-3, cap=(1.0, 3e-6))
    assert exc.value.remaining_epsilon == 0.0


def test_non_finite_amounts_are_refused(tmp_path):
    # An infinite total passes every cap comparison, and a NaN one fails
    # them all, so either would switch the cap off for every later charge.
    for eps, delta in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
                       (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be .* and finite"):
            LedgerEntry("x", eps, delta)
    path = tmp_path / "ledger.jsonl"
    with pytest.raises(ValueError):
        BudgetLedger.charge(path, "x", math.inf, cap=(1.0, 0.0))
    assert not path.exists()
    path.write_text('{"delta": 0.0, "eps": Infinity, "op": "x", "seq": 0, '
                    '"tag": null}\n')
    with pytest.raises(ValueError, match="entry epsilon must be positive "
                       "and finite"):
        BudgetLedger.charge(path, "y", 5.0, cap=(1.0, 0.0))
    assert path.read_text().count("\n") == 1


def test_totals_past_the_largest_float_are_refused(tmp_path):
    # The exact totals are integers and never overflow, but the float that
    # every report and cap check reads does.
    path = tmp_path / "ledger.jsonl"
    x = BudgetLedger.charge(path, "x", 1e308)
    one = path.read_bytes()
    with pytest.raises(ValueError, match="past the largest float"):
        BudgetLedger.charge(path, "y", 1e308)  # on the last line's totals
    assert path.read_bytes() == one
    old = BudgetLedger.entry_to_line(x) + "\n"  # a line with no totals
    path.write_text(old)
    with pytest.raises(ValueError, match="past the largest float"):
        BudgetLedger.charge(path, "y", 1e308)  # on a scan of the entries
    assert path.read_text() == old
    ledger = BudgetLedger.load(path)
    with pytest.raises(ValueError, match="past the largest float"):
        ledger.record("y", 1e308)
    assert len(ledger.entries) == 1
    path.write_bytes(one * 2)
    with pytest.raises(ValueError) as exc:
        BudgetLedger.load(path)
    assert str(exc.value) == (f"ledger {path} holds a total past the "
                              "largest float")


# -- the running totals on each line ----------------------------------------

def _line_totals(path):
    """(count, epsilon, delta) from the last line of the ledger at ``path``
    if its CRC-32 verifies, else None."""
    data = path.read_bytes()
    found = accountant._last_totals(data, zlib.crc32(data[:-11]))
    if found is None:
        return None
    count, eps, delta = found
    return count, accountant._to_float(eps), accountant._to_float(delta)


@pytest.fixture
def scans(monkeypatch):
    """The paths of the full ledger scans made while the test runs."""
    seen = []
    parse = accountant._parse_records

    def counting(text, path):
        seen.append(path)
        return parse(text, path)
    monkeypatch.setattr(accountant, "_parse_records", counting)
    return seen


def test_charge_on_a_verified_last_line_parses_no_entry(tmp_path,
                                                        monkeypatch):
    path = tmp_path / "ledger.jsonl"
    BudgetLedger.charge(path, "first", 0.1)
    assert _line_totals(path) == (1, 0.1, 0.0)

    def refuse(text, path):
        raise AssertionError("the ledger was parsed")
    monkeypatch.setattr(accountant, "_parse_records", refuse)
    for i in range(20):
        entry = BudgetLedger.charge(path, f"op{i}", 0.01, 1e-7,
                                    cap=(0.35, 1e-5))
        assert entry.seq == i + 1
    with pytest.raises(BudgetExhaustedError) as exc:
        BudgetLedger.charge(path, "over", 0.1, cap=(0.35, 1e-5))
    monkeypatch.undo()
    ledger = BudgetLedger.load(path)
    assert len(ledger.entries) == 21
    eps = math.fsum(e.epsilon for e in ledger.entries)
    delta = math.fsum(e.delta for e in ledger.entries)
    assert exc.value.remaining_epsilon == 0.35 - eps
    assert _line_totals(path) == (21, eps, delta)
    assert os.listdir(tmp_path) == ["ledger.jsonl"]


def test_charge_after_save_parses_no_entry(tmp_path, scans):
    path = tmp_path / "ledger.jsonl"
    for i in range(3):
        BudgetLedger.charge(path, f"op{i}", 0.1)
    ledger = BudgetLedger.load(path)
    ledger.record("saved", 0.5)
    ledger.save(path)
    scans.clear()
    # 0.3 + 0.5 + 0.15 passes the cap of 0.9; the saved 0.5 is counted.
    with pytest.raises(BudgetExhaustedError):
        BudgetLedger.charge(path, "next", 0.15, cap=(0.9, 0.0))
    assert BudgetLedger.charge(path, "next", 0.05, cap=(0.9, 0.0)).seq == 4
    assert scans == []


def _old_format(path):
    # A ledger as written before lines carried totals.
    entries = BudgetLedger.load(path).entries
    path.write_text("".join(BudgetLedger.entry_to_line(e) + "\n"
                            for e in entries))


def _append_by_hand(path):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(BudgetLedger.entry_to_line(LedgerEntry("hand", 0.5, seq=3))
                 + "\n")


def _edit_an_earlier_eps(path):
    data = path.read_bytes()
    edited = data.replace(b'"eps": 0.1,', b'"eps": 0.6,', 1)
    assert len(edited) == len(data) and edited != data
    path.write_bytes(edited)


def _edit_the_last_totals(path):
    # Zero totals with the old CRC: the digits no longer match the bytes.
    head, _, field = path.read_bytes().rpartition(b'"totals": "')
    crc = field.split(b" ")[3]
    path.write_bytes(head + b'"totals": "3 0p0 0p0 ' + crc)


def _garble_the_last_totals(path):
    data = path.read_bytes()
    path.write_bytes(data.replace(data.rpartition(b'"totals": "')[2],
                                  b'not totals"}\n'))


def _tear_the_crc(path):
    # A CRC cut short, the line closed again by hand.
    data = path.read_bytes()
    path.write_bytes(data[:-7] + b'"}\n')


def _overflow_the_totals_exponent(path):
    # Totals past every float total, under a CRC-32 that matches them.
    head, _, _ = path.read_bytes().rpartition(b'"totals": "')
    body = head + b'"totals": "3 1p%d 0p0 ' % (2 * accountant._UNIT_BITS + 1)
    path.write_bytes(body + b'%08x"}\n' % zlib.crc32(body))


def _tag_of_hex_digits(path):
    # A line without totals whose tag ends as a CRC would.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(BudgetLedger.entry_to_line(
            LedgerEntry("hand", 0.5, partition_tag="0123abcd", seq=3))
            + "\n")


@pytest.mark.parametrize("spoil,stale", [
    (_old_format, False), (_append_by_hand, True),
    (_edit_an_earlier_eps, True), (_edit_the_last_totals, False),
    (_garble_the_last_totals, False), (_tear_the_crc, False),
    (_overflow_the_totals_exponent, False), (_tag_of_hex_digits, True)],
    ids=["old-format", "appended", "edited-eps", "edited-totals",
         "garbled-totals", "torn-crc", "exponent-out-of-range", "hex-tag"])
def test_charge_parses_past_a_last_line_it_cannot_verify(tmp_path, scans,
                                                         spoil, stale):
    path = tmp_path / "ledger.jsonl"
    for i in range(3):
        BudgetLedger.charge(path, f"op{i}", 0.1)
    spoil(path)
    before = path.read_bytes()
    entries = BudgetLedger.load(path).entries
    scans.clear()
    # 0.3 + 0.5 fits the cap; with a stale case's extra 0.5 it does not.
    spent = math.fsum(e.epsilon for e in entries)
    assert (spent > 0.4) == stale
    if stale:
        with pytest.raises(BudgetExhaustedError) as exc:
            BudgetLedger.charge(path, "next", 0.5, cap=(0.9, 0.0))
        assert exc.value.remaining_epsilon == 0.9 - spent
        assert path.read_bytes() == before
        assert len(scans) == 1
        scans.clear()  # a refusal writes nothing, so the next one parses
    else:
        assert BudgetLedger.charge(path, "next", 0.5,
                                   cap=(0.9, 0.0)).seq == 3
    BudgetLedger.charge(path, "after", 0.05)
    for i in range(3):
        BudgetLedger.charge(path, f"later{i}", 0.01)
    assert len(scans) == 1
    ledger = BudgetLedger.load(path)
    assert _line_totals(path) == (
        len(ledger.entries), math.fsum(e.epsilon for e in ledger.entries),
        0.0)
    assert [e.seq for e in ledger.entries[3:]] == \
        list(range(3, len(ledger.entries)))


def test_packed_totals_refuse_an_exponent_past_every_float_total(tmp_path):
    top = 2 * accountant._UNIT_BITS
    assert accountant._unpack(b"1p%d" % top) == 1 << top
    for text in (b"1p%d" % (top + 1), b"1p-1"):
        with pytest.raises(ValueError, match="exponent out of range"):
            accountant._unpack(text)
    # The last line of such a ledger, its CRC-32 matched, holds no totals.
    path = tmp_path / "ledger.jsonl"
    for i in range(3):
        BudgetLedger.charge(path, f"op{i}", 0.1)
    _overflow_the_totals_exponent(path)
    data = path.read_bytes()
    assert data.endswith(b'%08x"}\n' % zlib.crc32(data[:-11]))
    assert _line_totals(path) is None


def test_a_torn_last_line_is_refused_as_a_full_parse_refuses_it(tmp_path):
    path = tmp_path / "ledger.jsonl"
    for i in range(3):
        BudgetLedger.charge(path, f"op{i}", 0.1)
    torn = path.read_bytes()[:-20]  # a write cut short in its CRC field
    path.write_bytes(torn)
    messages = []
    for read in (lambda: BudgetLedger.charge(path, "y", 0.1),
                 lambda: BudgetLedger.load(path)):
        with pytest.raises(ValueError) as exc:
            read()
        messages.append(str(exc.value))
    assert messages == [f"ledger {path} line 3 is not one JSON entry"] * 2
    assert path.read_bytes() == torn


def _forged_zero_totals(path, planted):
    planted.write_text("0 0 0 0 0 00000000\n")


def _symlink_to_forged(path, planted):
    target = path.with_name("elsewhere")
    _forged_zero_totals(path, target)
    os.symlink(target, planted)


@pytest.mark.parametrize("plant", [
    _forged_zero_totals, _symlink_to_forged,
    lambda path, planted: os.mkfifo(planted),
    lambda path, planted: os.mkdir(planted)],
    ids=["forged", "symlink", "fifo", "directory"])
def test_a_planted_totals_file_is_never_opened(tmp_path, monkeypatch, plant):
    path = tmp_path / "ledger.jsonl"
    planted = path.with_name(path.name + ".totals")
    plant(path, planted)
    before = {p.name: os.lstat(p) for p in tmp_path.iterdir()}
    opened = []
    real_open = os.open

    def watching(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(os, "open", watching)
    monkeypatch.setattr("builtins.open", lambda file, *a, **k: (
        opened.append(os.fspath(file)), io.open(file, *a, **k))[1])
    for i in range(3):
        assert BudgetLedger.charge(path, f"op{i}", 0.25,
                                   cap=(0.75, 0.0)).seq == i
    with pytest.raises(BudgetExhaustedError):
        BudgetLedger.charge(path, "over", 0.25, cap=(0.75, 0.0))
    monkeypatch.undo()
    assert set(opened) == {os.fspath(path)}
    assert len(BudgetLedger.load(path).entries) == 3
    after = {p.name: os.lstat(p) for p in tmp_path.iterdir()}
    assert after.keys() == before.keys() | {"ledger.jsonl"}
    for name, st in before.items():
        assert (after[name].st_mtime_ns, after[name].st_size) == \
            (st.st_mtime_ns, st.st_size)


def test_a_same_length_hand_edit_is_seen(tmp_path):
    path = tmp_path / "ledger.jsonl"
    for i in range(5):
        BudgetLedger.charge(path, f"op{i}", 0.001)
    data = path.read_bytes()
    edited = data.replace(b'"eps": 0.001', b'"eps": 0.009', 1)
    assert len(edited) == len(data) and edited != data
    path.write_bytes(edited)
    # 0.005 + 0.001 fits the cap; the edited 0.013 + 0.001 does not.
    with pytest.raises(BudgetExhaustedError):
        BudgetLedger.charge(path, "next", 0.001, cap=(0.01, 0.0))
    assert path.read_bytes() == edited
    BudgetLedger.charge(path, "next", 0.001)
    assert _line_totals(path)[1] == math.fsum([0.009] + [0.001] * 5)


def _random_amount(rng):
    """A positive float from anywhere in the range, subnormals included."""
    return (rng.random() + 0.5) * 10.0 ** rng.randint(-320, 300)


def test_exact_totals_equal_fsum_bit_for_bit(tmp_path):
    rng = random.Random(15)
    path = tmp_path / "ledger.jsonl"
    ledger = BudgetLedger()
    eps, deltas = [], []
    for i in range(300):
        eps.append(_random_amount(rng) if i % 3 else rng.random())
        deltas.append(rng.choice([0.0, rng.random() * 1e-6, 5e-324,
                                  _random_amount(rng)]))
        BudgetLedger.charge(path, "op", eps[-1], deltas[-1])
        ledger.record("op", eps[-1], deltas[-1])
        assert _line_totals(path) == (i + 1, math.fsum(eps),
                                         math.fsum(deltas))
        assert ledger.sequential_total() == (math.fsum(eps),
                                             math.fsum(deltas))
    assert BudgetLedger.load(path).sequential_total() == \
        ledger.sequential_total()


# The ledger that a seeded CLI session leaves: each line's entry as the
# ledger format has always written it, then its running totals and CRC-32.
SESSION = [
    ["mech", "laplace", "--values", "1,2,3", "--sensitivities", "1,1,1",
     "--epsilon", "0.25", "--seed", "1"],
    ["mech", "gaussian", "--values", "1,2", "--sensitivities", "1,1",
     "--epsilon", "0.5", "--delta", "1e-06", "--seed", "2"],
    ["stat", "mean", "--column", "x", "--bounds", "0,5", "--epsilon", "0.1",
     "--seed", "3", "--tag", "east"],
    ["mech", "exponential", "--utility", "0,1,2", "--epsilon", "0.15",
     "--seed", "4"],
    ["mech", "laplace", "--values", "1", "--sensitivities", "1",
     "--epsilon", "0.5", "--seed", "5"],  # refused at the cap
]
SESSION_LEDGER = (
    '{"delta": 0.0, "eps": 0.25, "op": "mech laplace", "seq": 0, '
    '"tag": null, "totals": "1 1p1072 0p0 ae0f8a08"}\n'
    '{"delta": 1e-06, "eps": 0.5, "op": "mech gaussian", "seq": 1, '
    '"tag": null, "totals": "2 3p1072 10c6f7a0b5ed8dp1002 4f6ba3cd"}\n'
    '{"delta": 0.0, "eps": 0.1, "op": "stat mean", "seq": 2, '
    '"tag": "east", "totals": "3 6ccccccccccccdp1019 10c6f7a0b5ed8dp1002 '
    '8e55d98f"}\n'
    '{"delta": 0.0, "eps": 0.15, "op": "mech exponential", "seq": 3, '
    '"tag": null, "totals": "4 1p1074 10c6f7a0b5ed8dp1002 ec7d54c1"}\n')


def test_seeded_session_ledger_is_byte_identical(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    csv.write_text("x\n1\n2\n4\n")
    runs = []
    for name in ("first.jsonl", "second.jsonl"):
        ledger = tmp_path / name
        codes = []
        for argv in SESSION:
            if argv[0] == "stat":
                argv = argv + ["--input", str(csv)]
            codes.append(main(argv + ["--ledger", str(ledger), "--cap",
                                      "1.0,1e-5"]))
        assert codes == [0, 0, 0, 0, 4]
        assert ledger.read_text() == SESSION_LEDGER
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


SPAWN = multiprocessing.get_context("spawn")


def run_together(target, args, workers):
    """Run ``target(barrier, *args)`` in ``workers`` fresh processes, which
    wait at ``barrier`` so that their work overlaps, and wait for all."""
    barrier = SPAWN.Barrier(workers)
    procs = [SPAWN.Process(target=target, args=(barrier, *args))
             for _ in range(workers)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert not any(p.is_alive() for p in procs)
    assert all(p.exitcode == 0 for p in procs)


def _charge_many(barrier, path, count, epsilon, cap, accepted):
    barrier.wait()
    for i in range(count):
        try:
            BudgetLedger.charge(path, f"op{i}", epsilon, cap=cap)
        except BudgetExhaustedError:
            continue
        with accepted.get_lock():
            accepted.value += 1


def test_concurrent_charges_lose_no_entry(tmp_path):
    path = tmp_path / "ledger.jsonl"
    accepted = SPAWN.Value("i", 0)
    run_together(_charge_many, (path, 25, 0.01, None, accepted), 4)
    assert accepted.value == 100
    ledger = BudgetLedger.load(path)
    assert len(ledger.entries) == 100
    assert sorted(e.seq for e in ledger.entries) == list(range(100))
    assert ledger.sequential_total() == (math.fsum([0.01] * 100), 0.0)


def test_concurrent_charges_never_pass_the_cap(tmp_path):
    path = tmp_path / "ledger.jsonl"
    # 100 charges of 0.01 race for a cap that admits exactly 50 of them.
    accepted = SPAWN.Value("i", 0)
    run_together(_charge_many, (path, 25, 0.01, (0.5, 0.0), accepted), 4)
    ledger = BudgetLedger.load(path)
    assert accepted.value == len(ledger.entries) == 50
    assert sorted(e.seq for e in ledger.entries) == list(range(50))
    assert not exceeds_cap(ledger.sequential_total()[0], 0.5)
