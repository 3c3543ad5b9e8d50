"""Pauli-string and Walsh-Hadamard operator bases.

Observables are sparse coefficient maps over tensor-product basis elements:
Pauli strings sigma_x1 (x) ... (x) sigma_xn with labels in {0,1,2,3}
(0=I, 1=X, 2=Y, 3=Z), and their diagonal restriction, the Walsh vectors
s_x1 (x) ... (x) s_xn with labels in {0,1} and entries +-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Mapping

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


@dataclass
class PauliObservable:
    """Sparse coefficient expansion sum_x c_x sigma_x.

    Coefficients are real for Hermitian observables; complex coefficients are
    allowed (the expansion of a general matrix).  At most
    ``default_term_cap(n_qubits)`` terms are accepted, a guard on instances
    read from JSON.
    """

    n_qubits: int
    terms: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[tuple[int, ...], complex] = {}
        for labels, coeff in self.terms.items():
            labels = tuple(labels)
            if len(labels) != self.n_qubits:
                raise ValueError(f"term {labels} has wrong length for {self.n_qubits} qubits")
            PauliString(labels)
            coeff = complex(coeff)
            if coeff != 0:
                clean[labels] = coeff
        cap = default_term_cap(self.n_qubits)
        if len(clean) > cap:
            raise ValueError(f"{len(clean)} terms exceeds cap {cap}")
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def from_text(cls, n_qubits: int, coeffs: Mapping[str, complex]) -> "PauliObservable":
        return cls(n_qubits, {PauliString.from_text(t).labels: c for t, c in coeffs.items()})

    def dense(self) -> np.ndarray:
        d = 2**self.n_qubits
        out = np.zeros((d, d), dtype=complex)
        for labels, coeff in self.terms.items():
            out += coeff * PauliString(labels).dense()
        return out


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


@dataclass
class WalshObservable:
    """Sparse real coefficient expansion sum_x c_x s_x."""

    n_bits: int
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[tuple[int, ...], float] = {}
        for labels, coeff in self.terms.items():
            labels = tuple(labels)
            if len(labels) != self.n_bits:
                raise ValueError(f"term {labels} has wrong length for {self.n_bits} bits")
            WalshVector(labels)
            if coeff != 0:
                clean[labels] = float(coeff)
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def from_text(cls, n_bits: int, coeffs: Mapping[str, float]) -> "WalshObservable":
        return cls(n_bits, {WalshVector.from_text(t).labels: c for t, c in coeffs.items()})

    def dense(self) -> np.ndarray:
        out = np.zeros(2**self.n_bits)
        for labels, coeff in self.terms.items():
            out += coeff * WalshVector(labels).dense()
        return out
