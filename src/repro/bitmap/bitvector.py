"""Packed bitvectors — the library's "fast bit-wise operation" primitive.

The paper's BIG/IBIG algorithms live and die by cheap AND/OR/NOT and
popcounts over N-bit vertical vectors (``[Qi]``, ``[Pi]``, bucket masks,
``F(o)`` masks). :class:`BitVector` stores bits packed 8-per-byte in a
NumPy ``uint8`` array (little bit-order: bit ``j`` lives at
``byte j >> 3``, position ``j & 7``), so a single vectorised instruction
processes 8 object-bits and ``numpy.bitwise_count`` delivers population
counts without unpacking.

Invariant: all padding bits beyond ``len(self)`` are always zero, so
``count()`` and equality never see garbage.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..errors import InvalidParameterError

__all__ = ["BitVector"]


def _buffer_size(nbits: int) -> int:
    return (nbits + 7) >> 3


def _tail_mask(nbits: int) -> int:
    """Mask for the valid bits of the final byte (0xFF when byte-aligned)."""
    rem = nbits & 7
    return 0xFF if rem == 0 else (1 << rem) - 1


class BitVector:
    """A fixed-length bit array with vectorised boolean algebra.

    Most callers construct via :meth:`zeros`, :meth:`ones`,
    :meth:`from_bools`, or :meth:`from_indices`, then combine with the
    operators ``& | ^ ~`` (all length-preserving, padding-safe) and measure
    with :meth:`count`.
    """

    __slots__ = ("_bits", "_nbits")

    def __init__(self, nbits: int, buffer: np.ndarray | None = None) -> None:
        if nbits < 0:
            raise InvalidParameterError(f"nbits must be >= 0, got {nbits}")
        self._nbits = int(nbits)
        if buffer is None:
            self._bits = np.zeros(_buffer_size(nbits), dtype=np.uint8)
        else:
            buffer = np.asarray(buffer, dtype=np.uint8)
            if buffer.size != _buffer_size(nbits):
                raise InvalidParameterError(
                    f"buffer has {buffer.size} bytes, expected {_buffer_size(nbits)} for {nbits} bits"
                )
            self._bits = buffer.copy()
            self._mask_tail()

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "BitVector":
        """All-clear vector of *nbits* bits."""
        return cls(nbits)

    @classmethod
    def ones(cls, nbits: int) -> "BitVector":
        """All-set vector of *nbits* bits."""
        vec = cls(nbits)
        vec._bits[:] = 0xFF
        vec._mask_tail()
        return vec

    @classmethod
    def from_bools(cls, flags) -> "BitVector":
        """Pack a boolean sequence/array (index ``j`` becomes bit ``j``)."""
        arr = np.asarray(flags, dtype=bool)
        if arr.ndim != 1:
            raise InvalidParameterError(f"expected 1-D booleans, got shape {arr.shape}")
        vec = cls(arr.size)
        if arr.size:
            vec._bits = np.packbits(arr, bitorder="little")
        return vec

    @classmethod
    def from_indices(cls, nbits: int, indices: Iterable[int]) -> "BitVector":
        """Vector with exactly the given bit positions set."""
        positions = np.asarray(
            indices if isinstance(indices, np.ndarray) else list(indices)
        ).astype(np.intp, copy=False)
        outside = positions[(positions < 0) | (positions >= nbits)]
        if outside.size:
            raise InvalidParameterError(f"bit {int(outside[0])} outside [0, {nbits})")
        flags = np.zeros(nbits, dtype=bool)
        flags[positions] = True
        return cls.from_bools(flags)

    @classmethod
    def from_bitstring(cls, text: str) -> "BitVector":
        """Parse ``"0101…"`` with character ``j`` mapping to bit ``j``.

        Matches the paper's printed vectors, e.g. Fig. 6's
        ``[Q3] = 00011001011111111111`` where the first character is object
        ``A1``.
        """
        cleaned = text.strip()
        if set(cleaned) - {"0", "1"}:
            raise InvalidParameterError(f"bitstring may only contain 0/1, got {text!r}")
        return cls.from_bools([ch == "1" for ch in cleaned])

    # -- internals ---------------------------------------------------------

    def _mask_tail(self) -> None:
        if self._bits.size:
            self._bits[-1] &= _tail_mask(self._nbits)

    def _check_same_length(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise InvalidParameterError(f"expected a BitVector, got {type(other).__name__}")
        if other._nbits != self._nbits:
            raise InvalidParameterError(
                f"length mismatch: {self._nbits} vs {other._nbits} bits"
            )

    # -- element access ----------------------------------------------------

    def __len__(self) -> int:
        return self._nbits

    def get(self, j: int) -> bool:
        """Read bit *j*."""
        self._check_position(j)
        return bool((self._bits[j >> 3] >> (j & 7)) & 1)

    def set(self, j: int, value: bool = True) -> None:
        """Write bit *j*."""
        self._check_position(j)
        if value:
            self._bits[j >> 3] |= np.uint8(1 << (j & 7))
        else:
            self._bits[j >> 3] &= np.uint8(~(1 << (j & 7)) & 0xFF)

    def _check_position(self, j: int) -> None:
        if j < 0 or j >= self._nbits:
            raise InvalidParameterError(f"bit {j} outside [0, {self._nbits})")

    # -- algebra -------------------------------------------------------------

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        out = BitVector(self._nbits)
        np.bitwise_and(self._bits, other._bits, out=out._bits)
        return out

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        out = BitVector(self._nbits)
        np.bitwise_or(self._bits, other._bits, out=out._bits)
        return out

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        out = BitVector(self._nbits)
        np.bitwise_xor(self._bits, other._bits, out=out._bits)
        return out

    def __invert__(self) -> "BitVector":
        out = BitVector(self._nbits)
        np.bitwise_not(self._bits, out=out._bits)
        out._mask_tail()
        return out

    def andnot(self, other: "BitVector") -> "BitVector":
        """``self & ~other`` without materialising the complement."""
        self._check_same_length(other)
        out = BitVector(self._nbits)
        np.bitwise_and(self._bits, np.bitwise_not(other._bits), out=out._bits)
        out._mask_tail()
        return out

    def iand(self, other: "BitVector") -> "BitVector":
        """In-place AND (returns self)."""
        self._check_same_length(other)
        np.bitwise_and(self._bits, other._bits, out=self._bits)
        return self

    def ior(self, other: "BitVector") -> "BitVector":
        """In-place OR (returns self)."""
        self._check_same_length(other)
        np.bitwise_or(self._bits, other._bits, out=self._bits)
        return self

    # -- measurement -----------------------------------------------------------

    def count(self) -> int:
        """Population count (number of set bits)."""
        if not self._bits.size:
            return 0
        # The bitmap layer sits below the engine; routing this cold,
        # whole-vector popcount through engine/backend.py would invert the
        # layering for no hot-loop win.
        # repro-lint: disable=REP005 -- bitmap layer is below the backend
        return int(np.bitwise_count(self._bits).sum())

    def any(self) -> bool:
        """True iff at least one bit is set."""
        return bool(self._bits.any())

    def to_bools(self) -> np.ndarray:
        """Unpack to a boolean array of length ``len(self)``."""
        if not self._bits.size:
            return np.zeros(0, dtype=bool)
        return np.unpackbits(self._bits, bitorder="little")[: self._nbits].astype(bool)

    def indices(self) -> np.ndarray:
        """Positions of the set bits, ascending."""
        return np.flatnonzero(self.to_bools())

    def iter_set_bits(self) -> Iterator[int]:
        """Iterate positions of set bits."""
        return iter(self.indices().tolist())

    def to_bitstring(self) -> str:
        """Render as ``"0101…"`` with bit 0 first (paper's print order)."""
        return "".join("1" if flag else "0" for flag in self.to_bools())

    @property
    def nbytes(self) -> int:
        """Bytes of packed storage."""
        return int(self._bits.nbytes)

    @property
    def words(self) -> np.ndarray:
        """Read-only view of the packed ``uint8`` buffer."""
        view = self._bits.view()
        view.flags.writeable = False
        return view

    def copy(self) -> "BitVector":
        """Deep copy."""
        return BitVector(self._nbits, buffer=self._bits)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash((self._nbits, self._bits.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._nbits <= 64:
            return f"BitVector({self.to_bitstring()!r})"
        return f"<BitVector nbits={self._nbits} count={self.count()}>"
