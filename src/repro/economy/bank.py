"""GridBank: Grid Dollar accounts, transfers and the audit ledger.

The paper delegates credit management to Grid-Bank (reference [4]): federation
participants exchange Grid Dollars when jobs execute on remote clusters.  This
module provides that substrate: named accounts, atomic transfers, an
append-only transaction ledger and convenience queries (owner incentives,
user spending) used by the metrics package.

Accounts are allowed to run a negative balance by default because the paper's
users have an *unbounded* total budget (Section 2.5: "the total budget of a
user over simulation is unbounded and we are interested in computing the
budget that is required"); a strict mode is available for applications that
want hard budget enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class InsufficientFundsError(RuntimeError):
    """Raised in strict mode when a transfer would overdraw an account."""


@dataclass
class Transaction:
    """One ledger entry: ``amount`` Grid Dollars moved from payer to payee."""

    transaction_id: int
    time: float
    payer: str
    payee: str
    amount: float
    memo: str = ""


@dataclass
class Account:
    """A Grid Dollar account."""

    owner: str
    balance: float = 0.0
    total_credited: float = 0.0
    total_debited: float = 0.0
    transactions: List[int] = field(default_factory=list)


class GridBank:
    """In-memory Grid Dollar bank shared by all federation participants.

    Parameters
    ----------
    strict:
        If True, transfers that would overdraw the payer raise
        :class:`InsufficientFundsError`; if False (default, matching the
        paper's unbounded budgets) balances may go negative.
    """

    def __init__(self, strict: bool = False):
        self._accounts: Dict[str, Account] = {}
        self._ledger: List[Transaction] = []
        self._next_id = 1
        self.strict = strict

    # ------------------------------------------------------------------ #
    # Accounts
    # ------------------------------------------------------------------ #
    def open_account(self, owner: str, initial_balance: float = 0.0) -> Account:
        """Create an account; opening an existing account is an error."""
        if owner in self._accounts:
            raise ValueError(f"account already exists: {owner!r}")
        account = Account(owner=owner, balance=float(initial_balance))
        self._accounts[owner] = account
        return account

    def ensure_account(self, owner: str) -> Account:
        """Return the account for ``owner``, creating it if necessary."""
        if owner not in self._accounts:
            return self.open_account(owner)
        return self._accounts[owner]

    def account(self, owner: str) -> Account:
        """Return an existing account or raise ``KeyError``."""
        return self._accounts[owner]

    def balance(self, owner: str) -> float:
        """Current balance of ``owner`` (0.0 if the account does not exist)."""
        acct = self._accounts.get(owner)
        return acct.balance if acct is not None else 0.0

    def accounts(self) -> List[str]:
        """Names of all accounts."""
        return sorted(self._accounts)

    # ------------------------------------------------------------------ #
    # Transfers
    # ------------------------------------------------------------------ #
    def transfer(
        self,
        payer: str,
        payee: str,
        amount: float,
        time: float = 0.0,
        memo: str = "",
    ) -> Transaction:
        """Move ``amount`` Grid Dollars from ``payer`` to ``payee``.

        Both accounts are created on demand.  Negative amounts are rejected;
        zero-amount transfers are recorded (they still carry audit value).
        """
        if amount < 0:
            raise ValueError(f"transfer amount must be non-negative, got {amount}")
        payer_acct = self.ensure_account(payer)
        payee_acct = self.ensure_account(payee)
        if self.strict and payer_acct.balance < amount:
            raise InsufficientFundsError(
                f"{payer!r} has {payer_acct.balance:.2f} Grid Dollars, needs {amount:.2f}"
            )
        txn = Transaction(
            transaction_id=self._next_id,
            time=time,
            payer=payer,
            payee=payee,
            amount=float(amount),
            memo=memo,
        )
        self._next_id += 1
        payer_acct.balance -= amount
        payer_acct.total_debited += amount
        payer_acct.transactions.append(txn.transaction_id)
        payee_acct.balance += amount
        payee_acct.total_credited += amount
        payee_acct.transactions.append(txn.transaction_id)
        self._ledger.append(txn)
        return txn

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def ledger(self) -> List[Transaction]:
        """The full transaction history (a copy)."""
        return list(self._ledger)

    def earnings_of(self, owner: str) -> float:
        """Total Grid Dollars ever credited to ``owner`` (the owner's incentive)."""
        acct = self._accounts.get(owner)
        return acct.total_credited if acct is not None else 0.0

    def spending_of(self, owner: str) -> float:
        """Total Grid Dollars ever debited from ``owner``."""
        acct = self._accounts.get(owner)
        return acct.total_debited if acct is not None else 0.0

    def total_volume(self) -> float:
        """Sum of all transferred amounts."""
        return sum(txn.amount for txn in self._ledger)

    def transactions_between(self, payer: Optional[str] = None, payee: Optional[str] = None) -> List[Transaction]:
        """Filter the ledger by payer and/or payee."""
        out = self._ledger
        if payer is not None:
            out = [t for t in out if t.payer == payer]
        if payee is not None:
            out = [t for t in out if t.payee == payee]
        return list(out)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"GridBank(accounts={len(self._accounts)}, transactions={len(self._ledger)})"
