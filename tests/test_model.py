"""Model-based test of the packed-matrix API.

A hypothesis state machine (stateful testing as in QuickCheck) runs
sequences of operations on compressed matrices beside a dense uint64
model of each: compress, point reads and in-place writes, widening,
arithmetic on results (a matrix product against the exact Python-int
one), a save and reload, and a copy that replaces its source.  After
every step each matrix must decode to its model, so a block buffer or a
view of ``words`` shared between matrices shows up as a mismatch.  The
matrices a step made or changed are checked further: their blocks, their
histogram, their width, their measured efficiency against the formula of
their codec, and a reload that gives the same bytes.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from ccmatrix.bitstream import U64_MAX, bit_length, bit_lengths
from ccmatrix.cmatrix import CompressedMatrix
from ccmatrix.container import dump_bytes, load_bytes
from ccmatrix.efficiency import eta1, eta2, measure
from ccmatrix.errors import ArithmeticOverflow, NarrowingRequested, WidthOverflow
from ccmatrix.sm import SmMatrix

# Largest bit-length of a drawn matrix: the SM view widths 8/16/32/64, the
# VLB elements too wide to share a word with their prefix (58 on), and others.
TOPS = (1, 3, 7, 8, 16, 32, 40, 57, 58, 63, 64)
picks = st.integers(0, 1 << 16)  # an entry or an index, taken modulo what there is
methods, orders = st.sampled_from(["sm", "vlb"]), st.sampled_from(["row", "col"])
scalars = st.sampled_from([0, 1, 2, 3, 1 << 32, 1 << 63, U64_MAX]) | st.integers(0, U64_MAX)


@st.composite
def dense_matrices(draw, shape=None):
    rows, cols = shape or (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    top = draw(st.sampled_from(TOPS))
    values = draw(st.lists(st.integers(0, (1 << top) - 1), min_size=rows * cols, max_size=rows * cols))
    if draw(st.booleans()):  # reach the top, so the SM width is exactly ``top``
        values[draw(st.integers(0, rows * cols - 1))] = (1 << top) - 1
    return np.array(values, dtype=np.uint64).reshape(rows, cols)


def flat(e):
    """The model's elements in the unravel order of its matrix."""
    return e.model.ravel(order="C" if e.cm.inner.order == "row" else "F")


class Entry:
    """A compressed matrix and its dense model."""

    def __init__(self, cm, model):
        self.cm, self.model = cm, model


class PackedMatrices(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.entries = []
        self.touched = []  # entries made or changed by the last step

    def add_entry(self, cm, model, minimal=True):
        e = Entry(cm, model)
        if minimal:  # a result is encoded at the least width (SM) or prefix width (VLB)
            widest = bit_length(int(model.max()))
            if cm.method == "sm":
                assert cm.inner.width == widest
            else:
                assert cm.inner.k == bit_length(widest)
        self.entries.append(e)
        self.touched.append(e)

    def pick(self, i, pool=None):
        pool = self.entries if pool is None else pool
        return pool[i % len(pool)]

    def sm_entries(self):
        return [e for e in self.entries if e.cm.method == "sm"]

    @initialize(dense=dense_matrices(), method=methods, order=orders)
    def first(self, dense, method, order):
        self.compress(dense, method, order)

    @rule(dense=dense_matrices(), method=methods, order=orders)
    def compress(self, dense, method, order):
        self.add_entry(CompressedMatrix.compress(dense, method, order), dense.copy())

    @rule(pick=picks, i=picks, j=picks)
    def get(self, pick, i, j):
        e = self.pick(pick)
        i, j = i % e.model.shape[0], j % e.model.shape[1]
        assert e.cm.get(i, j) == int(e.model[i, j])

    @precondition(lambda self: self.sm_entries())
    @rule(pick=picks, i=picks, j=picks, value=st.integers(0, 300) | st.integers(0, U64_MAX))
    def set(self, pick, i, j, value):
        e = self.pick(pick, self.sm_entries())
        i, j = i % e.model.shape[0], j % e.model.shape[1]
        inner = e.cm.inner
        if value >> inner.width:
            with pytest.raises(WidthOverflow):
                inner.set(i, j, value)
        else:
            inner.set(i, j, value)
            e.model[i, j] = value
        self.touched.append(e)

    @precondition(lambda self: self.sm_entries())
    @rule(pick=picks, width=st.integers(1, 64))
    def widen(self, pick, width):
        e = self.pick(pick, self.sm_entries())
        if width < e.cm.inner.width:
            with pytest.raises(NarrowingRequested):
                e.cm.inner.widen(width)
            return
        wide = e.cm.inner.widen(width)
        assert wide.width == width
        self.add_entry(CompressedMatrix(wide), e.model.copy(), minimal=False)

    @rule(a=picks, b=picks)
    def add(self, a, b):
        ea = self.pick(a)
        eb = self.pick(b, [e for e in self.entries if e.model.shape == ea.model.shape])
        if (eb.model > np.uint64(U64_MAX) - ea.model).any():
            with pytest.raises(ArithmeticOverflow):
                ea.cm.add(eb.cm)
            return
        self.add_entry(ea.cm.add(eb.cm), ea.model + eb.model)

    @rule(pick=picks, s=scalars, edge=st.sampled_from([None, -1, 0, 1]))
    def scalar_mul(self, pick, s, edge):
        e = self.pick(pick)
        if edge is not None:  # the scalars around the least that overflows the largest element
            s = min(U64_MAX, U64_MAX // max(1, int(e.model.max())) + edge)
        if s and (e.model > np.uint64(U64_MAX // s)).any():
            with pytest.raises(ArithmeticOverflow):
                e.cm.scalar_mul(s)
            return
        self.add_entry(e.cm.scalar_mul(s), e.model * np.uint64(s))

    @rule(pick=picks, narrow=st.booleans(), method=methods, order=orders, data=st.data())
    def matmul(self, pick, narrow, method, order, data):
        """An entry ``m x n`` times a new right operand: square ``n x n``, or a narrow ``n x 1``."""
        ea = self.pick(pick)
        n = ea.model.shape[1]
        right = data.draw(dense_matrices((n, 1) if narrow else (n, n)))
        eb = CompressedMatrix.compress(right, method, order)
        self.add_entry(eb, right.copy())
        exact = ea.model.astype(object) @ right.astype(object)
        if (exact > U64_MAX).any():
            with pytest.raises(ArithmeticOverflow):
                ea.cm.matmul(eb)
            return
        self.add_entry(ea.cm.matmul(eb), exact.astype(np.uint64))

    @rule(pick=picks)
    def transpose(self, pick):
        e = self.pick(pick)
        self.add_entry(e.cm.transpose(), e.model.T.copy())

    @rule(a=picks, b=picks)
    def equals(self, a, b):
        ea, eb = self.pick(a), self.pick(b)
        same = ea.model.shape == eb.model.shape and np.array_equal(ea.model, eb.model)
        assert ea.cm.equals(eb.cm) == same

    @rule(pick=picks)
    def reload(self, pick):
        e = self.pick(pick)
        blob = dump_bytes(e.cm)
        again = load_bytes(blob)
        assert again.method == e.cm.method
        self.add_entry(again, e.model.copy(), minimal=False)

    @rule(pick=picks, how=st.sampled_from(["deepcopy", "pickle", "words"]), i=picks, j=picks)
    def replace_with_copy(self, pick, how, i, j):
        """Replace an entry by a copy, which the other rules then read and write.

        ``words`` makes an SM copy from a copy of its words (a VLB entry is
        deep-copied instead).  One element of an SM copy is then flipped by
        ``set``, which must leave the source as it was.
        """
        at = pick % len(self.entries)
        e = self.entries[at]
        inner = e.cm.inner
        if how == "pickle":
            twin = pickle.loads(pickle.dumps(e.cm))
        elif how == "words" and e.cm.method == "sm":
            words = inner.data.copy()
            twin = CompressedMatrix(SmMatrix(inner.rows, inner.cols, inner.width, inner.order, words))
        else:
            twin = copy.deepcopy(e.cm)
        model = e.model.copy()
        if e.cm.method == "sm":
            i, j = i % model.shape[0], j % model.shape[1]
            model[i, j] ^= np.uint64(1)
            twin.inner.set(i, j, int(model[i, j]))
            assert inner.get(i, j) == int(e.model[i, j])
            assert np.array_equal(inner.values(), flat(e))
        self.entries[at] = Entry(twin, model)
        self.touched.append(self.entries[at])

    @invariant()
    def every_matrix_decodes_to_its_model(self):
        for e in self.entries:
            assert np.array_equal(e.cm.inner.values(), flat(e))
        for e in self.touched:
            parts = [block.copy() for _, block in e.cm.inner.blocks()]
            assert np.array_equal(np.concatenate(parts), flat(e))
            blob = dump_bytes(e.cm)
            assert dump_bytes(load_bytes(blob)) == blob
            counts = np.bincount(bit_lengths(e.model.ravel()))
            report = measure(e.cm)
            assert report.histogram == {b: int(c) for b, c in enumerate(counts) if c}
            inner = e.cm.inner
            formula = eta1(inner.width) if e.cm.method == "sm" else eta2(report.histogram, inner.k)
            assert report.eta == formula
        self.touched.clear()


PackedMatrices.TestCase.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestPackedMatrices = PackedMatrices.TestCase
