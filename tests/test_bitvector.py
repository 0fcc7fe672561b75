"""Tests for the packed bitvector substrate (repro.bitmap.bitvector)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitvector import BitVector
from repro.errors import InvalidParameterError

bool_arrays = st.lists(st.booleans(), min_size=0, max_size=200).map(
    lambda flags: np.asarray(flags, dtype=bool)
)


class TestConstruction:
    def test_zeros_and_ones(self):
        assert BitVector.zeros(13).count() == 0
        assert BitVector.ones(13).count() == 13

    def test_from_bools(self):
        vec = BitVector.from_bools([True, False, True])
        assert vec.to_bools().tolist() == [True, False, True]

    def test_from_indices(self):
        vec = BitVector.from_indices(10, [0, 9, 4])
        assert vec.indices().tolist() == [0, 4, 9]

    def test_from_bitstring_roundtrip(self):
        text = "00011001011111111111"
        assert BitVector.from_bitstring(text).to_bitstring() == text

    def test_from_bitstring_rejects_junk(self):
        with pytest.raises(InvalidParameterError):
            BitVector.from_bitstring("01x1")

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            BitVector(-1)

    def test_bad_buffer_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            BitVector(16, buffer=np.zeros(1, dtype=np.uint8))

    def test_zero_length(self):
        vec = BitVector.zeros(0)
        assert vec.count() == 0
        assert vec.to_bools().size == 0
        assert (~vec).count() == 0


class TestBitAccess:
    def test_get_set_clear(self):
        vec = BitVector.zeros(9)
        vec.set(8)
        assert vec.get(8) and not vec.get(0)
        vec.set(8, False)
        assert not vec.get(8)

    @given(
        st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n if n else 0),
                st.booleans(),
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_from_indices_packs_like_from_bools(self, case):
        n, positions, as_array = case
        flags = np.zeros(n, dtype=bool)
        flags[positions] = True
        source = np.asarray(positions, dtype=np.intp) if as_array else iter(positions)
        vec = BitVector.from_indices(n, source)
        expected = BitVector.from_bools(flags)
        assert len(vec) == n
        assert vec._bits.tobytes() == expected._bits.tobytes()

    @pytest.mark.parametrize("bad", [8, -1])
    def test_from_indices_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidParameterError, match=f"bit {bad} outside"):
            BitVector.from_indices(8, [3, bad])

    def test_out_of_range(self):
        vec = BitVector.zeros(8)
        with pytest.raises(InvalidParameterError):
            vec.get(8)
        with pytest.raises(InvalidParameterError):
            vec.set(-1)


class TestAlgebra:
    @given(bool_arrays, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_ops_match_numpy(self, left_bools, seed):
        rng = np.random.default_rng(seed)
        right_bools = rng.random(left_bools.size) < 0.5
        left = BitVector.from_bools(left_bools)
        right = BitVector.from_bools(right_bools)
        assert ((left & right).to_bools() == (left_bools & right_bools)).all()
        assert ((left | right).to_bools() == (left_bools | right_bools)).all()
        assert ((left ^ right).to_bools() == (left_bools ^ right_bools)).all()
        assert ((~left).to_bools() == ~left_bools).all()
        assert (left.andnot(right).to_bools() == (left_bools & ~right_bools)).all()

    @given(bool_arrays)
    @settings(max_examples=60, deadline=None)
    def test_count_matches_sum(self, flags):
        assert BitVector.from_bools(flags).count() == int(flags.sum())

    @given(bool_arrays)
    @settings(max_examples=30, deadline=None)
    def test_invert_preserves_tail_invariant(self, flags):
        vec = ~BitVector.from_bools(flags)
        # Total of a vector and its complement is exactly the length.
        assert vec.count() + BitVector.from_bools(flags).count() == flags.size

    def test_inplace_ops(self):
        vec = BitVector.from_bools([True, True, False])
        vec.iand(BitVector.from_bools([True, False, False]))
        assert vec.to_bools().tolist() == [True, False, False]
        vec.ior(BitVector.from_bools([False, False, True]))
        assert vec.to_bools().tolist() == [True, False, True]

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            BitVector.zeros(8) & BitVector.zeros(9)

    def test_non_bitvector_operand_rejected(self):
        with pytest.raises(InvalidParameterError):
            BitVector.zeros(8) & np.zeros(1, dtype=np.uint8)


class TestMisc:
    def test_equality_and_hash(self):
        a = BitVector.from_bools([True, False, True])
        b = BitVector.from_indices(3, [0, 2])
        assert a == b
        assert hash(a) == hash(b)
        assert a != BitVector.zeros(3)

    def test_copy_is_independent(self):
        a = BitVector.zeros(8)
        b = a.copy()
        b.set(0)
        assert not a.get(0)

    def test_words_view_read_only(self):
        vec = BitVector.zeros(8)
        with pytest.raises(ValueError):
            vec.words[0] = 1

    def test_any(self):
        assert not BitVector.zeros(5).any()
        assert BitVector.from_indices(5, [3]).any()

    def test_iter_set_bits(self):
        assert list(BitVector.from_indices(10, [7, 2]).iter_set_bits()) == [2, 7]

    def test_nbytes(self):
        assert BitVector.zeros(9).nbytes == 2
