"""Pauli-string and Walsh-Hadamard operator bases.

Observables are sparse real expansions, :class:`Expansion`, over
tensor-product basis elements: Pauli strings sigma_x1 (x) ... (x) sigma_xn
with labels in {0,1,2,3} (0=I, 1=X, 2=Y, 3=Z), and their diagonal
restriction, the Walsh vectors s_x1 (x) ... (x) s_xn with labels in {0,1}
and entries +-1.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from . import linalg

SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
PAULI_CHARS = "IXYZ"

WALSH = (np.array([1.0, 1.0]), np.array([1.0, -1.0]))


def default_term_cap(n: int) -> int:
    """Largest number of stored terms per observable: everything at n <= 2, 64 beyond."""
    return 4**n if n <= 2 else 64


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, e.g. labels (1, 3) for "XZ"."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 1 or any(l not in (0, 1, 2, 3) for l in self.labels):
            raise ValueError(f"invalid Pauli labels {self.labels}")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        try:
            return cls(tuple(PAULI_CHARS.index(ch) for ch in text.upper()))
        except ValueError:
            raise ValueError(f"invalid Pauli string text {text!r}") from None

    def dense(self) -> np.ndarray:
        return _dense_string(self.labels)


@lru_cache(maxsize=None)
def _dense_string(labels: tuple[int, ...]) -> np.ndarray:
    return linalg.kron_all(*(SIGMA[l] for l in labels))


@lru_cache(maxsize=8)
def string_order(n: int) -> tuple[tuple[int, ...], ...]:
    """All length-n label tuples in the canonical lexicographic order."""
    return tuple(sorted(product(range(4), repeat=n)))


@lru_cache(maxsize=4)
def dense_string_basis(n: int) -> np.ndarray:
    """Stack of all 4^n dense Pauli strings in canonical order."""
    return np.stack([_dense_string(l) for l in string_order(n)])


@dataclass(frozen=True)
class WalshVector:
    """A tensor product of s_0 = (1,1) and s_1 = (1,-1); entries are +-1."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 1 or any(l not in (0, 1) for l in self.labels):
            raise ValueError(f"invalid Walsh labels {self.labels}")

    @classmethod
    def from_text(cls, text: str) -> "WalshVector":
        if not all(ch in "01" for ch in text):
            raise ValueError(f"invalid Walsh text {text!r}")
        return cls(tuple(int(ch) for ch in text))

    def dense(self) -> np.ndarray:
        out = WALSH[self.labels[0]]
        for l in self.labels[1:]:
            out = np.kron(out, WALSH[l])
        return out


def is_finite_real(x) -> bool:
    """Whether ``x`` is a finite real number; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


class Expansion(NamedTuple):
    """The observable sum_k coeffs[k] B_k on ``n_qubits`` qubits (or bits),
    with B_k the Pauli string (or, if ``walsh``, the Walsh vector) labelled
    labels[k] and real coefficients.

    Built directly it is taken as given: the term forms build these on every
    evaluation.  Input is read through ``from_terms`` or ``from_text``, which
    check it."""

    n_qubits: int
    labels: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray
    walsh: bool = False

    @classmethod
    def from_terms(cls, n: int, terms: Mapping[tuple[int, ...], float], walsh: bool = False) -> "Expansion":
        """The expansion of a {labels: coefficient} map.  Every label must
        have length n and every coefficient must be a finite real number.
        Zero terms are dropped, and the rest are sorted by label.  A Pauli
        expansion keeps at most ``default_term_cap(n)`` terms, a guard on
        instances read from JSON."""
        basis = WalshVector if walsh else PauliString
        clean: dict[tuple[int, ...], float] = {}
        for labels, coeff in terms.items():
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"term {labels} has wrong length for {n} {'bits' if walsh else 'qubits'}")
            basis(labels)
            if not is_finite_real(coeff):
                text = "".join(("01" if walsh else PAULI_CHARS)[l] for l in labels)
                raise ValueError(f"term {text!r} has coefficient {coeff!r}, not a finite real number")
            if coeff != 0:
                clean[labels] = float(coeff)
        cap = default_term_cap(n)
        if not walsh and len(clean) > cap:
            raise ValueError(f"{len(clean)} terms exceeds cap {cap}")
        ordered = sorted(clean.items())
        return cls(n, tuple(l for l, _ in ordered), np.array([c for _, c in ordered]), walsh)

    @classmethod
    def from_text(cls, n: int, terms: Mapping[str, float], walsh: bool = False) -> "Expansion":
        """``from_terms`` of a {text: coefficient} map, such as {"ZZ": 1.0}
        (or, if ``walsh``, {"11": 1.0})."""
        if not isinstance(terms, Mapping):
            raise ValueError(f"an observable maps label text to coefficients, not {terms!r}")
        basis = WalshVector if walsh else PauliString
        return cls.from_terms(n, {basis.from_text(t).labels: c for t, c in terms.items()}, walsh)

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n matrix (or, if ``walsh``, the length-2^n vector)."""
        d = 2**self.n_qubits
        if self.walsh:
            out, basis = np.zeros(d), WalshVector
        else:
            out, basis = np.zeros((d, d), dtype=complex), PauliString
        for labels, coeff in zip(self.labels, self.coeffs):
            out += coeff * basis(labels).dense()
        return out
