"""Tests for the GridBank credit-management substrate."""

from __future__ import annotations

import pickle
import pickletools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economy.bank import GridBank, InsufficientFundsError


class TestAccounts:
    def test_open_and_query_account(self):
        bank = GridBank()
        bank.open_account("owner/CTC", initial_balance=100.0)
        assert bank.balance("owner/CTC") == pytest.approx(100.0)
        assert bank.accounts() == ["owner/CTC"]

    def test_duplicate_account_rejected(self):
        bank = GridBank()
        bank.open_account("x")
        with pytest.raises(ValueError):
            bank.open_account("x")

    def test_missing_account_balance_is_zero(self):
        assert GridBank().balance("ghost") == 0.0

    def test_ensure_account_is_idempotent(self):
        bank = GridBank()
        first = bank.ensure_account("y")
        second = bank.ensure_account("y")
        assert first is second

    def test_account_lookup_raises_for_unknown(self):
        with pytest.raises(KeyError):
            GridBank().account("ghost")


class TestTransfers:
    def test_transfer_moves_funds_and_records_ledger(self):
        bank = GridBank()
        txn = bank.transfer("user/1", "owner/CTC", 25.0, time=10.0, memo="job 7")
        assert bank.balance("user/1") == pytest.approx(-25.0)
        assert bank.balance("owner/CTC") == pytest.approx(25.0)
        assert txn.transaction_id == 1
        ledger = bank.ledger()
        assert len(ledger) == 1
        assert ledger[0].memo == "job 7"
        assert ledger[0].time == pytest.approx(10.0)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            GridBank().transfer("a", "b", -1.0)

    def test_strict_mode_blocks_overdraft(self):
        bank = GridBank(strict=True)
        bank.open_account("payer", initial_balance=10.0)
        with pytest.raises(InsufficientFundsError):
            bank.transfer("payer", "payee", 20.0)
        # Balances untouched after the failed transfer.
        assert bank.balance("payer") == pytest.approx(10.0)
        assert bank.balance("payee") == 0.0

    def test_non_strict_mode_allows_overdraft(self):
        bank = GridBank(strict=False)
        bank.transfer("payer", "payee", 20.0)
        assert bank.balance("payer") == pytest.approx(-20.0)

    def test_earnings_and_spending_accumulate(self):
        bank = GridBank()
        bank.transfer("user/1", "owner/A", 10.0)
        bank.transfer("user/1", "owner/B", 5.0)
        bank.transfer("user/2", "owner/A", 7.5)
        assert bank.earnings_of("owner/A") == pytest.approx(17.5)
        assert bank.earnings_of("owner/B") == pytest.approx(5.0)
        assert bank.spending_of("user/1") == pytest.approx(15.0)
        assert bank.total_volume() == pytest.approx(22.5)

    def test_transactions_between_filters(self):
        bank = GridBank()
        bank.transfer("u1", "o1", 1.0)
        bank.transfer("u1", "o2", 2.0)
        bank.transfer("u2", "o1", 3.0)
        assert len(bank.transactions_between(payer="u1")) == 2
        assert len(bank.transactions_between(payee="o1")) == 2
        assert len(bank.transactions_between(payer="u2", payee="o1")) == 1

    def test_unknown_earnings_are_zero(self):
        bank = GridBank()
        assert bank.earnings_of("ghost") == 0.0
        assert bank.spending_of("ghost") == 0.0


class TestPickling:
    """Banks ride in every economy-mode snapshot."""

    def test_transaction_ids_continue_after_a_round_trip(self):
        bank = GridBank()
        bank.transfer("user/1", "owner/A", 5.0, time=1.0)
        bank.transfer("user/1", "owner/B", 5.0, time=2.0)
        clone = pickle.loads(pickle.dumps(bank))
        assert clone.transfer("user/2", "owner/A", 1.0, time=3.0).transaction_id == 3
        assert bank.transfer("user/2", "owner/A", 1.0, time=3.0).transaction_id == 3
        assert [txn.transaction_id for txn in clone.ledger()] == [1, 2, 3]

    def test_pickle_names_no_itertools_global(self):
        """Pickling ``itertools`` objects is deprecated since Python 3.12."""
        bank = GridBank()
        bank.transfer("user/1", "owner/A", 5.0, time=1.0)
        names = set()
        for opcode, arg, _pos in pickletools.genops(pickle.dumps(bank)):
            if opcode.name == "GLOBAL":
                names.add(arg.split(" ")[0])
            elif "UNICODE" in opcode.name:
                names.add(arg)
        assert "itertools" not in names


class TestProperties:
    @given(
        transfers=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(["a", "b", "c", "d"]),
                st.floats(min_value=0.0, max_value=1000.0),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_money_is_conserved(self, transfers):
        """The sum of all balances is always zero (closed economy)."""
        bank = GridBank()
        for payer, payee, amount in transfers:
            bank.transfer(payer, payee, amount)
        total = sum(bank.balance(name) for name in bank.accounts())
        assert total == pytest.approx(0.0, abs=1e-6)
        # Credits equal debits overall.
        credited = sum(bank.earnings_of(n) for n in bank.accounts())
        debited = sum(bank.spending_of(n) for n in bank.accounts())
        assert credited == pytest.approx(debited)
        assert credited == pytest.approx(bank.total_volume())
