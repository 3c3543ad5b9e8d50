"""Pauli-string and Walsh-Hadamard operator bases.

Observables are sparse real expansions, :class:`Expansion`, over
tensor-product basis elements: Pauli strings sigma_x1 (x) ... (x) sigma_xn
with labels in {0,1,2,3} (0=I, 1=X, 2=Y, 3=Z), and their diagonal
restriction, the Walsh vectors s_x1 (x) ... (x) s_xn with labels in {0,1}
and entries +-1.  ``Expansion`` is the one operator type: a single string
or vector is the one-term expansion with coefficient 1, such as
``Expansion.from_text(2, {"ZX": 1.0})``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from functools import lru_cache, reduce
from itertools import product
from typing import NamedTuple

import numpy as np

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


@lru_cache(maxsize=8)
def string_order(n: int) -> tuple[tuple[int, ...], ...]:
    """All length-n label tuples in the canonical lexicographic order."""
    return tuple(sorted(product(range(4), repeat=n)))


def _parse_labels(text: str, walsh: bool) -> tuple[int, ...]:
    """The labels of one basis element written as text: "XZIY" (in either
    case) for a Pauli string, or "101" for a Walsh vector."""
    chars = "01" if walsh else PAULI_CHARS
    labels = tuple(chars.find(ch) for ch in (text if walsh else text.upper()))
    if not labels or -1 in labels:
        raise ValueError(f"invalid {'Walsh' if walsh else 'Pauli string'} text {text!r}")
    return labels


@lru_cache(maxsize=None)
def _basis_dense(labels: tuple[int, ...], walsh: bool) -> np.ndarray:
    """The dense Pauli string (or, if ``walsh``, Walsh vector) labelled ``labels``."""
    return reduce(np.kron, ((WALSH if walsh else SIGMA)[l] for l in labels))


@lru_cache(maxsize=32)
def term_stack(labels: tuple[tuple[int, ...], ...], walsh: bool = False) -> np.ndarray:
    """The dense Pauli strings (or, if ``walsh``, Walsh vectors) labelled
    ``labels``, stacked in order."""
    return np.stack([_basis_dense(l, walsh) for l in labels])


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
        chars = "01" if walsh else PAULI_CHARS
        clean: dict[tuple[int, ...], float] = {}
        for labels, coeff in terms.items():
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"term {labels} has wrong length for {n} {'bits' if walsh else 'qubits'}")
            if not labels or any(l not in range(len(chars)) for l in labels):
                raise ValueError(f"invalid {'Walsh' if walsh else 'Pauli'} labels {labels}")
            if not is_finite_real(coeff):
                text = "".join(chars[l] for l in labels)
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
        (or, if ``walsh``, {"11": 1.0}).  Two texts of the same basis
        element, such as "zz" and "ZZ", are an error."""
        if not isinstance(terms, Mapping):
            raise ValueError(f"an observable maps label text to coefficients, not {terms!r}")
        texts: dict[tuple[int, ...], str] = {}
        for text in terms:
            labels = _parse_labels(text, walsh)
            if labels in texts:
                raise ValueError(f"texts {texts[labels]!r} and {text!r} name the same "
                                 f"{'Walsh vector' if walsh else 'Pauli string'}")
            texts[labels] = text
        return cls.from_terms(n, {labels: terms[text] for labels, text in texts.items()}, walsh)

    def dense(self) -> np.ndarray:
        """The 2^n x 2^n matrix (or, if ``walsh``, the length-2^n vector)."""
        d = 2**self.n_qubits
        out = np.zeros(d) if self.walsh else np.zeros((d, d), dtype=complex)
        for labels, coeff in zip(self.labels, self.coeffs):
            out += coeff * _basis_dense(labels, self.walsh)
        return out
