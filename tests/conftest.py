import numpy as np
import pytest

from ccmatrix.bitstream import BitBuffer, bit_length

# First row of the worked example used throughout the docs and tests.
WORKED_ROW = [900, 1023, 721, 256, 1, 10, 700, 20]
WORKED_ROW_BITLENS = [10, 10, 10, 9, 1, 4, 10, 5]


@pytest.fixture
def worked_row():
    return [list(WORKED_ROW)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def encode_reference(values, k):
    """Independent VLB encoder: write (prefix, payload) pairs into a fresh buffer."""
    buf = BitBuffer()
    pos = 0
    for v in values:
        b = bit_length(v)
        buf.write_field(pos, k, b)
        buf.write_field(pos + k, b, v)
        pos += k + b
    return buf


def count_calls(monkeypatch, cls, name):
    """Wrap cls.name so each call appends to the returned list."""
    calls = []
    real = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls
