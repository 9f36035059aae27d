"""Deterministic counter-based RNG: streams, moments, and bias checks."""

import numpy as np
import pytest

from fsml.rng import Rng, fnv1a64, normal_rows, u64_rows, uniform_rows


def test_same_seed_same_sequence():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    xs = [Rng(s).next_u64() for s in range(64)]
    assert len(set(xs)) == len(xs)


def test_scalar_and_vector_draws_agree():
    # one stream: n scalar draws must equal one n-element array draw
    a = Rng(7)
    b = Rng(7)
    arr = a.u64_array(32)
    scalars = np.array([b.next_u64() for _ in range(32)], dtype=np.uint64)
    assert (arr == scalars).all()


def test_uniform_scalar_vector_agree():
    a = Rng(11)
    b = Rng(11)
    arr = a.uniform_array((8,))
    scalars = np.array([b.uniform() for _ in range(8)])
    assert np.array_equal(arr, scalars)


def test_derive_is_independent_of_consumption():
    # deriving a stream never depends on how much the parent already produced
    a = Rng(5)
    a.u64_array(100)
    b = Rng(5)
    assert a.derive("child").next_u64() == b.derive("child").next_u64()


def test_derive_labels_separate_streams():
    r = Rng(9)
    xs = r.derive("alpha").u64_array(4)
    ys = r.derive("beta").u64_array(4)
    assert not (xs == ys).any()


def test_derive_chain_commutes():
    # derivation is seed XOR label-hash, so nested derives compose set-wise
    r = Rng(3)
    assert r.derive("a").derive("b").seed == r.derive("b").derive("a").seed
    assert r.derive("a").derive("b").seed != r.derive("ab").seed


def test_fnv1a64_known_values():
    # empty string hashes to the FNV-1a offset basis
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") != fnv1a64("b")


def test_uniform_range_and_mean():
    u = Rng(21).uniform_array((20000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    z = Rng(22).normal_array((40000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert abs((z ** 3).mean()) < 0.05


def test_randint_uniform_over_non_power_of_two():
    # 5 does not divide 2**64, so naive modulo would bias low residues
    r = Rng(31)
    counts = np.bincount([r.randint(5) for _ in range(50000)], minlength=5)
    assert counts.min() > 0
    expected = 10000.0
    assert np.abs(counts - expected).max() < 4.0 * np.sqrt(expected)


def test_randint_bounds():
    r = Rng(32)
    vals = [r.randint(7) for _ in range(1000)]
    assert min(vals) == 0 and max(vals) == 6
    with pytest.raises(Exception):
        r.randint(0)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    a = list(items)
    b = list(items)
    Rng(41).shuffle(a)
    Rng(41).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items


def test_shuffle_uniformity_small():
    # all 6 orderings of 3 items appear with near-equal frequency
    counts = {}
    r = Rng(42)
    for _ in range(12000):
        xs = [0, 1, 2]
        r.shuffle(xs)
        counts[tuple(xs)] = counts.get(tuple(xs), 0) + 1
    assert len(counts) == 6
    freqs = np.array(list(counts.values()), dtype=float) / 12000.0
    assert np.abs(freqs - 1.0 / 6.0).max() < 0.02


def test_choice_unique_and_in_range():
    r = Rng(51)
    for _ in range(200):
        picks = r.choice(10, 4)
        assert len(picks) == 4
        assert len(set(picks)) == 4
        assert all(0 <= p < 10 for p in picks)


def test_choice_full_draw_is_permutation():
    picks = Rng(52).choice(6, 6)
    assert sorted(picks) == list(range(6))


def test_choice_rejects_oversample():
    with pytest.raises(Exception):
        Rng(53).choice(3, 4)


def test_choice_marginals_uniform():
    r = Rng(54)
    hits = np.zeros(8)
    n = 20000
    for _ in range(n):
        for p in r.choice(8, 2):
            hits[p] += 1
    freqs = hits / (2 * n)
    assert np.abs(freqs - 1.0 / 8.0).max() < 0.01


def test_seed_masks_to_64_bits():
    assert Rng(2 ** 64).seed == 0
    assert Rng(-1).seed == 2 ** 64 - 1
    assert Rng(2 ** 64 + 5).next_u64() == Rng(5).next_u64()


# seeds whose state wraps past 2^64 within the first few draws, and ordinary ones
_WRAP_SEEDS = [(1 << 64) - 1, (1 << 64) - 0x9E3779B97F4A7C15, (-3 * 0x9E3779B97F4A7C15) & ((1 << 64) - 1), 0, 12345]
_GAMMA = 0x9E3779B97F4A7C15


def shifted(seed: int, shift: int) -> Rng:
    """The stream of `seed` moved on by `shift` draws (back, for a negative shift)."""
    return Rng(seed + shift * _GAMMA)


def _randint_from(draws, n):
    """randint(n)'s rejection rule run over a list of u64 draws, consumed from the front."""
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        r = int(draws.pop(0))
        if r < limit:
            return r % n


@pytest.mark.parametrize("seed", _WRAP_SEEDS)
@pytest.mark.parametrize("shift", [0, 5, -7])
def test_scalar_draws_match_array_draws_across_wrap_around_and_advance(seed, shift):
    # the scalar draws of one stream, in order, against one u64_array of the same stream
    a, b = shifted(seed, shift), shifted(seed, shift)
    whole = [int(v) for v in b.u64_array(256)]
    draws = list(whole)
    assert [a.next_u64() for _ in range(16)] == draws[:16]
    del draws[:16]
    # n = 2^63 + 5 rejects about half of all draws
    ns = (7, 1, 2**63 + 5, 3)
    assert [a.randint(n) for n in ns] == [_randint_from(draws, n) for n in ns]
    pool = list(range(10))
    for i in range(4):
        j = i + _randint_from(draws, 10 - i)
        pool[i], pool[j] = pool[j], pool[i]
    assert a.choice(10, 4) == pool[:4]
    items, want = list(range(6)), list(range(6))
    for i in range(5, 0, -1):
        j = _randint_from(draws, i + 1)
        want[i], want[j] = want[j], want[i]
    a.shuffle(items)
    assert items == want
    assert a.next_u64() == whole[len(whole) - len(draws)]


# the stacked draws: row e of a draw over E streams is what stream e alone draws, and leaves it where that leaves it
_ROWS = {"u64": (u64_rows, Rng.u64_array), "uniform": (uniform_rows, Rng.uniform_array),
         "normal": (normal_rows, Rng.normal_array)}


@pytest.mark.parametrize("kind", list(_ROWS))
@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 3, 4)], ids=str)
def test_stacked_rows_equal_each_stream_drawn_alone(kind, shape):
    rows, alone = _ROWS[kind]
    n = int(np.prod(shape))
    streams = [shifted(seed, shift) for seed in _WRAP_SEEDS for shift in (0, 3, -2)]
    singles = [shifted(seed, shift) for seed in _WRAP_SEEDS for shift in (0, 3, -2)]
    got = rows(streams, n if kind == "u64" else shape)
    want = [alone(r, n if kind == "u64" else shape) for r in singles]
    assert got.shape == (len(streams), *((n,) if kind == "u64" else shape))
    assert all(row.tobytes() == w.tobytes() for row, w in zip(got, want))
    assert [r.next_u64() for r in streams] == [r.next_u64() for r in singles]
