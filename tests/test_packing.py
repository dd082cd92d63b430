import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsgd.packing import block_count, pack, unpack


def test_hand_example_d6_s2():
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    blocks = pack(g, 2)
    expected = np.array([[1 + 3j, 2 + 4j], [5 + 0j, 6 + 0j]])
    assert blocks.shape == (2, 2)
    assert np.array_equal(blocks, expected)


def test_single_entry_pads_imaginary():
    blocks = pack(np.array([7.0]), 1)
    assert blocks.shape == (1, 1)
    assert blocks[0, 0] == 7 + 0j
    assert np.array_equal(unpack(blocks, 1), [7.0])


def test_padding_layout_d5_s2():
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    blocks = pack(g, 2)
    expected = np.array([[1 + 3j, 2 + 4j], [5 + 0j, 0 + 0j]])
    assert np.array_equal(blocks, expected)
    assert np.array_equal(unpack(blocks, 5), g)


@pytest.mark.parametrize(
    "d,s,n",
    [(6, 2, 2), (1, 1, 1), (10, 5, 1), (11, 5, 2), (7850, 3925, 1), (64, 16, 2), (132, 20, 4)],
)
def test_block_count(d, s, n):
    assert block_count(d, s) == n
    assert pack(np.zeros(d), s).shape == (n, s)


def test_energy_preserved():
    gen = np.random.default_rng(0)
    for _ in range(20):
        d = int(gen.integers(1, 65))
        s = int(gen.integers(1, 17))
        g = gen.normal(size=d)
        blocks = pack(g, s)
        energy = (blocks.real**2 + blocks.imag**2).sum()
        assert np.isclose(energy, (g**2).sum(), rtol=1e-12)


def test_linearity():
    gen = np.random.default_rng(1)
    a = gen.normal(size=10)
    b = gen.normal(size=10)
    assert np.allclose(pack(2.5 * a + b, 3), 2.5 * pack(a, 3) + pack(b, 3))


@st.composite
def gradient_and_width(draw):
    d = draw(st.integers(min_value=1, max_value=64))
    s = draw(st.integers(min_value=1, max_value=16))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=d,
            max_size=d,
        )
    )
    return np.array(values), s


@settings(max_examples=300, derandomize=True, deadline=None)  # as Hypothesis's CI profile
@given(gradient_and_width())
def test_roundtrip_exact(case):
    g, s = case
    recovered = unpack(pack(g, s), len(g))
    assert recovered.shape == g.shape
    assert np.array_equal(recovered, g)


def test_pack_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pack(np.array([1.0, np.nan]), 1)
    with pytest.raises(ValueError):
        pack(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        pack(np.float64(1.0), 1)


@pytest.mark.parametrize("shape", [(3, 11), (2, 3, 11)], ids=["2d", "3d"])
def test_pack_of_a_stack_is_the_stack_of_packs(shape):
    gen = np.random.default_rng(4)
    rows = gen.normal(size=shape)
    stacked = pack(rows, 2)
    assert stacked.shape == (*shape[:-1], 3, 2)
    flat_rows = rows.reshape(-1, 11)
    each = np.stack([pack(row, 2) for row in flat_rows])
    assert np.array_equal(stacked, each.reshape(stacked.shape))
    unpacked = unpack(stacked, 11)
    assert unpacked.shape == shape
    assert np.array_equal(unpacked.reshape(-1, 11), np.stack([unpack(b, 11) for b in each]))
    assert np.array_equal(unpacked, rows)


def test_unpack_rejects_mismatched_blocks():
    blocks = pack(np.arange(6.0), 2)
    with pytest.raises(ValueError):
        unpack(blocks, 9)  # would need a third block
    with pytest.raises(ValueError):
        unpack(blocks[:1], 6)
    with pytest.raises(ValueError):
        unpack(blocks.ravel(), 6)
