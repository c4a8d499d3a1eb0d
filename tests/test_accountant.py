import pytest

from dpkit.accountant import BudgetExhaustedError, BudgetLedger, LedgerEntry


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


def test_append_to_file_matches_save(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ledger = BudgetLedger()
    e1 = ledger.record("x", 0.5)
    e2 = ledger.record("y", 0.25, 0.001)
    ledger.save(a)
    ledger.append_to_file(b, e1)
    ledger.append_to_file(b, e2)
    assert a.read_text() == b.read_text()


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
