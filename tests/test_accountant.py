import math
import multiprocessing

import pytest

from dpkit.accountant import (BudgetExhaustedError, BudgetLedger, LedgerEntry,
                              exceeds_cap)


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
    assert not path.exists()

    BudgetLedger.charge(path, "x", 0.75, cap=(1.0, 0.0))
    before = path.read_bytes()
    with pytest.raises(BudgetExhaustedError):
        BudgetLedger.charge(path, "y", 0.5, cap=(1.0, 0.0))
    with pytest.raises(BudgetExhaustedError):
        BudgetLedger.charge(path, "y", 0.1, 0.1, cap=(1.0, 0.0))
    assert path.read_bytes() == before


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
