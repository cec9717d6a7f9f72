"""Bit-packed binary-symplectic representation of Pauli strings.

A Pauli string over up to 64 qubit slots is stored as two unsigned integers:
bit ``q`` of ``x_mask`` is set iff the string acts with an X component on
slot ``q``, bit ``q`` of ``z_mask`` iff it acts with a Z component.  A slot
with both bits set carries Y, a slot with neither carries identity.  Global
phases (+-1, +-i) are never tracked: commutation parity, weights and spans
are all phase-blind.

Two text forms are supported: a dense left-to-right string such as "XIZY"
(character i acts on slot i) and a sparse token list such as "X0 Z5 Y17".
Dense is emitted on output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_SLOTS = 64

LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliWord:
    """Immutable phase-blind Pauli string on ``n_slots`` qubit slots."""

    x_mask: int
    z_mask: int
    n_slots: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_slots <= MAX_SLOTS:
            raise ValueError(f"n_slots must be in 1..{MAX_SLOTS}, got {self.n_slots}")
        full = (1 << self.n_slots) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask bits set beyond n_slots")

    @classmethod
    def identity(cls, n_slots: int) -> "PauliWord":
        return cls(0, 0, n_slots)

    @classmethod
    def single(cls, letter: str, slot: int, n_slots: int) -> "PauliWord":
        """One non-identity letter on one slot, identity elsewhere."""
        if letter not in ("X", "Y", "Z"):
            raise ValueError(f"expected X, Y or Z, got {letter!r}")
        if not 0 <= slot < n_slots:
            raise ValueError(f"slot {slot} outside 0..{n_slots - 1}")
        x, z = LETTER_BITS[letter]
        return cls(x << slot, z << slot, n_slots)

    def letter(self, slot: int) -> str:
        """The letter acting on ``slot`` ('I', 'X', 'Y' or 'Z')."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} outside 0..{self.n_slots - 1}")
        return _BITS_TO_LETTER[((self.x_mask >> slot) & 1, (self.z_mask >> slot) & 1)]

    def with_letter(self, slot: int, letter: str) -> "PauliWord":
        """Copy with the letter on ``slot`` replaced."""
        if letter not in LETTER_BITS:
            raise ValueError(f"invalid letter {letter!r}")
        x, z = LETTER_BITS[letter]
        clear = ~(1 << slot)
        return PauliWord(
            (self.x_mask & clear) | (x << slot),
            (self.z_mask & clear) | (z << slot),
            self.n_slots,
        )

    @property
    def support(self) -> int:
        """Bit mask of slots carrying a non-identity letter."""
        return self.x_mask | self.z_mask

    def support_slots(self) -> list[int]:
        """Indices of non-identity slots, ascending."""
        out = []
        m = self.support
        while m:
            b = m & -m
            out.append(b.bit_length() - 1)
            m ^= b
        return out

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def __str__(self) -> str:
        return format_pauli(self)


def _check_same_slots(a: PauliWord, b: PauliWord) -> None:
    if a.n_slots != b.n_slots:
        raise ValueError(f"slot count mismatch: {a.n_slots} vs {b.n_slots}")


def multiply(a: PauliWord, b: PauliWord) -> PauliWord:
    """Group product modulo phase: XOR of the mask pairs."""
    _check_same_slots(a, b)
    return PauliWord(a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask, a.n_slots)


def weight(a: PauliWord) -> int:
    """Number of slots acted on non-trivially."""
    return (a.x_mask | a.z_mask).bit_count()


@dataclass
class SymplecticBasis:
    """Row-reduced F2 basis of Pauli words, keyed by the 2n-bit vector x||z.

    Rows are kept with unique pivots (the most significant set bit of the
    concatenated vector), which makes membership reduction deterministic.
    """

    n_slots: int
    _rows_by_pivot: dict[int, int] = field(default_factory=dict)

    def _vector(self, w: PauliWord) -> int:
        if w.n_slots != self.n_slots:
            raise ValueError(f"slot count mismatch: {w.n_slots} vs {self.n_slots}")
        return w.x_mask | (w.z_mask << self.n_slots)

    def _reduce(self, vec: int) -> int:
        while vec:
            pivot = vec.bit_length() - 1
            row = self._rows_by_pivot.get(pivot)
            if row is None:
                return vec
            vec ^= row
        return 0

    def contains(self, w: PauliWord) -> bool:
        """True iff ``w`` lies in the F2 span of the inserted rows."""
        return self._reduce(self._vector(w)) == 0

    def insert(self, w: PauliWord) -> bool:
        """Insert ``w``; returns False iff it already lies in the span."""
        vec = self._reduce(self._vector(w))
        if vec == 0:
            return False
        self._rows_by_pivot[vec.bit_length() - 1] = vec
        return True

    @property
    def rank(self) -> int:
        return len(self._rows_by_pivot)

    @property
    def rows(self) -> list[PauliWord]:
        """Basis rows in row-echelon form, pivots strictly increasing."""
        n = self.n_slots
        full = (1 << n) - 1
        out = []
        for pivot in sorted(self._rows_by_pivot):
            vec = self._rows_by_pivot[pivot]
            out.append(PauliWord(vec & full, vec >> n, n))
        return out

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows_by_pivot)

    def copy(self) -> "SymplecticBasis":
        return SymplecticBasis(self.n_slots, dict(self._rows_by_pivot))


def parse_pauli(text: str, n_slots: int) -> PauliWord:
    """Parse a dense ("XIZ") or sparse ("X0 Z5 Y17") Pauli string.

    A string containing any digit is treated as sparse.  Dense strings of
    length below ``n_slots`` are padded with identities on the right.
    """
    if not 1 <= n_slots <= MAX_SLOTS:
        raise ValueError(f"n_slots must be in 1..{MAX_SLOTS}, got {n_slots}")
    stripped = text.strip()
    if any(ch.isdigit() for ch in stripped):
        return _parse_sparse(stripped, n_slots)
    return _parse_dense(stripped, n_slots)


def _parse_dense(text: str, n_slots: int) -> PauliWord:
    if len(text) > n_slots:
        raise ValueError(f"dense string of length {len(text)} exceeds {n_slots} slots")
    x = z = 0
    for slot, ch in enumerate(text):
        bits = LETTER_BITS.get(ch.upper())
        if bits is None:
            raise ValueError(f"invalid Pauli letter {ch!r} at position {slot}")
        x |= bits[0] << slot
        z |= bits[1] << slot
    return PauliWord(x, z, n_slots)


def _parse_sparse(text: str, n_slots: int) -> PauliWord:
    x = z = 0
    for token in text.split():
        head, idx_str = token[:1].upper(), token[1:]
        if head not in ("X", "Y", "Z") or not idx_str.isdigit():
            raise ValueError(f"invalid sparse Pauli token {token!r}")
        slot = int(idx_str)
        if slot >= n_slots:
            raise ValueError(f"slot {slot} in token {token!r} exceeds n_slots={n_slots}")
        if (x | z) & (1 << slot):
            raise ValueError(f"duplicate slot {slot} in sparse Pauli string")
        bits = LETTER_BITS[head]
        x |= bits[0] << slot
        z |= bits[1] << slot
    return PauliWord(x, z, n_slots)


def format_pauli(a: PauliWord) -> str:
    """Dense fixed-length text form, slot 0 first."""
    return "".join(a.letter(q) for q in range(a.n_slots))
