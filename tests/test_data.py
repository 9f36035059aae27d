"""Dataset container, FSDS file format, class splits, episodes, synthetic blobs."""

import struct

import numpy as np
import pytest

from fsml.data import (
    Dataset,
    EpisodeSpec,
    SplitSpec,
    SyntheticSpec,
    gen_synthetic,
    load_dataset,
    sample_episode,
    split_classes,
    write_dataset,
)
from fsml.errors import ConfigurationError, ContractError, FormatError, SamplingError
from fsml.rng import Rng

HEADER = struct.Struct("<4sHIIIII")


def tiny_dataset(n_classes=3, per_class=2, extent=4, seed=0):
    n = n_classes * per_class
    images = Rng(seed).uniform_array((n, 1, extent, extent)).astype(np.float32)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    return Dataset(images, labels, n_classes)


# ---------------------------------------------------------------------------
# container


def test_dataset_basic_properties():
    ds = tiny_dataset()
    assert ds.n_samples == 6
    assert ds.image_shape == (1, 4, 4)
    assert list(ds.class_indices(1)) == [2, 3]


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(ContractError):
        Dataset(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(ContractError):
        Dataset(np.zeros((2, 4, 4)), np.zeros(2, dtype=np.int64), 2)


def test_dataset_rejects_label_out_of_range():
    with pytest.raises(ContractError):
        Dataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), 3)


# ---------------------------------------------------------------------------
# FSDS file format


def test_roundtrip(tmp_path):
    ds = tiny_dataset(n_classes=3, per_class=2)
    path = tmp_path / "toy.fsds"
    write_dataset(ds, path)
    back = load_dataset(path)
    assert back.n_classes == 3
    assert back.n_samples == 6
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.images, ds.images)


def test_header_declares_counts(tmp_path):
    ds = tiny_dataset(n_classes=3, per_class=2, extent=4)
    path = tmp_path / "toy.fsds"
    write_dataset(ds, path)
    blob = path.read_bytes()
    magic, version, n_classes, n_samples, c, h, w = HEADER.unpack_from(blob, 0)
    assert magic == b"FSDS"
    assert version == 1
    assert (n_classes, n_samples, c, h, w) == (3, 6, 1, 4, 4)


def test_handcrafted_bytes(tmp_path):
    # one 1x2x2 sample of class 0, written by hand
    img = np.array([0.1, 0.2, 0.3, 0.4], dtype="<f4")
    blob = HEADER.pack(b"FSDS", 1, 1, 1, 1, 2, 2) + struct.pack("<I", 0) + img.tobytes()
    path = tmp_path / "hand.fsds"
    path.write_bytes(blob)
    ds = load_dataset(path)
    assert ds.n_samples == 1
    assert np.allclose(ds.images[0, 0], [[0.1, 0.2], [0.3, 0.4]], atol=1e-7)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.fsds"
    path.write_bytes(b"FSDS\x01")
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert exc.value.offset == 5


def test_truncated_payload(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "cut.fsds"
    write_dataset(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_dataset(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fsds"
    path.write_bytes(HEADER.pack(b"NOPE", 1, 1, 0, 1, 2, 2))
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert exc.value.offset == 0


def test_bad_version(tmp_path):
    path = tmp_path / "v9.fsds"
    path.write_bytes(HEADER.pack(b"FSDS", 9, 1, 0, 1, 2, 2))
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert exc.value.offset == 4


def test_label_beyond_declared_classes(tmp_path):
    img = np.zeros(4, dtype="<f4")
    blob = HEADER.pack(b"FSDS", 1, 2, 1, 1, 2, 2) + struct.pack("<I", 7) + img.tobytes()
    path = tmp_path / "label.fsds"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert exc.value.offset == HEADER.size


def test_out_of_range_pixel(tmp_path):
    img = np.array([0.1, 2.0, 0.3, 0.4], dtype="<f4")
    blob = HEADER.pack(b"FSDS", 1, 1, 1, 1, 2, 2) + struct.pack("<I", 0) + img.tobytes()
    path = tmp_path / "pix.fsds"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        load_dataset(path)


def test_write_rejects_out_of_range(tmp_path):
    ds = tiny_dataset()
    ds.images[0, 0, 0, 0] = 1.5
    with pytest.raises(ContractError):
        write_dataset(ds, tmp_path / "x.fsds")


# ---------------------------------------------------------------------------
# splits


def test_split_counts_and_disjointness():
    spec = SplitSpec.from_counts(100, 64, 16, 20)
    ds = tiny_dataset(n_classes=100, per_class=1, extent=2)
    base, val, novel = split_classes(ds, spec)
    assert (base.n_classes, val.n_classes, novel.n_classes) == (64, 16, 20)
    assert not set(base.global_classes) & set(novel.global_classes)
    assert not set(base.global_classes) & set(val.global_classes)


def test_split_partitions_samples():
    ds = tiny_dataset(n_classes=10, per_class=3, extent=2)
    base, val, novel = split_classes(ds, SplitSpec.from_counts(10, 6, 2, 2))
    assert base.n_samples + val.n_samples + novel.n_samples == ds.n_samples


def test_split_views_relabel_contiguously():
    ds = tiny_dataset(n_classes=6, per_class=2, extent=2)
    spec = SplitSpec(base=frozenset({4, 5}), val=frozenset(), novel=frozenset({0, 1, 2, 3}))
    base, val, novel = split_classes(ds, spec)
    assert sorted(set(base.labels.tolist())) == [0, 1]
    assert base.global_classes == (4, 5)
    # the empty val view is a view like the others
    assert val.images.shape == (0, *ds.image_shape) and val.images.dtype == np.float32
    assert val.labels.dtype == np.int64 and val.n_samples == 0
    assert val.n_classes == 0 and val.global_classes == () and val.name == f"{ds.name}/val"
    # view images come from the right original classes
    assert np.array_equal(base.images[base.class_indices(0)], ds.images[ds.class_indices(4)])


def test_split_spec_rejects_overlap():
    with pytest.raises(ConfigurationError):
        SplitSpec(frozenset({0, 1}), frozenset({1}), frozenset({2}))


def test_split_spec_rejects_empty_base():
    with pytest.raises(ConfigurationError):
        SplitSpec(frozenset(), frozenset({1}), frozenset({2}))


def test_split_counts_overflow():
    with pytest.raises(ConfigurationError):
        SplitSpec.from_counts(10, 6, 3, 3)


def test_split_unknown_class_id():
    ds = tiny_dataset(n_classes=3, per_class=1, extent=2)
    with pytest.raises(ConfigurationError):
        split_classes(ds, SplitSpec(frozenset({0}), frozenset(), frozenset({7})))


# ---------------------------------------------------------------------------
# episodes


def test_episode_sizes():
    ds = tiny_dataset(n_classes=8, per_class=20, extent=2)
    ep = sample_episode(ds, EpisodeSpec(C=5, K=1, Q_query=16), Rng(0))
    assert ep.support.x.shape[0] == 5
    assert ep.query.x.shape[0] == 80
    assert ep.support.x.shape[1:] == (1, 2, 2)


def test_episode_local_labels():
    ds = tiny_dataset(n_classes=6, per_class=10, extent=2)
    ep = sample_episode(ds, EpisodeSpec(C=3, K=2, Q_query=4), Rng(1))
    assert sorted(set(ep.support.y.tolist())) == [0, 1, 2]
    assert np.array_equal(np.bincount(ep.support.y), [2, 2, 2])
    assert np.array_equal(np.bincount(ep.query.y), [4, 4, 4])
    assert len(ep.class_map) == 3


def test_episode_support_query_disjoint():
    ds = tiny_dataset(n_classes=4, per_class=8, extent=2)
    for seed in range(20):
        ep = sample_episode(ds, EpisodeSpec(C=3, K=2, Q_query=3), Rng(seed))
        # images are unique floats here, so row equality means sample reuse
        sup = {tuple(row.ravel().tolist()) for row in ep.support.x}
        qry = {tuple(row.ravel().tolist()) for row in ep.query.x}
        assert not sup & qry


def test_episode_deterministic():
    ds = tiny_dataset(n_classes=6, per_class=10, extent=2)
    spec = EpisodeSpec(C=3, K=1, Q_query=2)
    a = sample_episode(ds, spec, Rng(42))
    b = sample_episode(ds, spec, Rng(42))
    assert a.class_map == b.class_map
    assert np.array_equal(a.support.x, b.support.x)
    assert np.array_equal(a.query.x, b.query.x)


def test_episode_class_frequency_uniform():
    # C=5 of 20 classes: each class should hit support at rate 1/4
    ds = tiny_dataset(n_classes=20, per_class=6, extent=2)
    spec = EpisodeSpec(C=5, K=1, Q_query=1)
    rng = Rng(7)
    hits = np.zeros(20)
    n = 10000
    for _ in range(n):
        ep = sample_episode(ds, spec, rng)
        for c in ep.class_map:
            hits[c] += 1
    freq = hits / n
    assert np.abs(freq - 0.25).max() < 0.02


def test_episode_needs_enough_classes():
    ds = tiny_dataset(n_classes=3, per_class=10, extent=2)
    with pytest.raises(SamplingError):
        sample_episode(ds, EpisodeSpec(C=5, K=1, Q_query=1), Rng(0))


def test_episode_needs_enough_samples():
    ds = tiny_dataset(n_classes=5, per_class=2, extent=2)
    with pytest.raises(SamplingError):
        sample_episode(ds, EpisodeSpec(C=3, K=2, Q_query=2), Rng(0))


def test_episode_spec_validation():
    with pytest.raises(ConfigurationError):
        EpisodeSpec(C=1, K=1, Q_query=1)
    with pytest.raises(ConfigurationError):
        EpisodeSpec(C=2, K=0, Q_query=1)
    with pytest.raises(ConfigurationError):
        EpisodeSpec(C=2, K=1, Q_query=0)


# ---------------------------------------------------------------------------
# synthetic data


def test_synthetic_counts_and_range():
    ds = gen_synthetic(SyntheticSpec(n_classes=5, samples_per_class=4, image_extent=8,
                                     class_separation=2.0))
    assert ds.n_classes == 5
    assert ds.n_samples == 20
    assert ds.image_shape == (1, 8, 8)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synthetic_zero_std_gives_identical_samples():
    ds = gen_synthetic(SyntheticSpec(n_classes=3, samples_per_class=5, image_extent=8,
                                     cluster_std=0.0, class_separation=1.0))
    for c in range(3):
        rows = ds.images[ds.class_indices(c)]
        assert (rows == rows[0]).all()


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_classes=4, samples_per_class=3, image_extent=8,
                         class_separation=2.0, seed=5)
    a = gen_synthetic(spec)
    b = gen_synthetic(spec)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = gen_synthetic(SyntheticSpec(n_classes=4, samples_per_class=3, image_extent=8,
                                    class_separation=2.0, seed=6))
    assert not np.array_equal(a.images, c.images)


def test_synthetic_nearest_template_separable():
    # separation/std = 8: nearest-centroid should be nearly perfect
    spec = SyntheticSpec(n_classes=6, samples_per_class=30, image_extent=8,
                         cluster_std=0.25, class_separation=2.0, seed=1)
    ds = gen_synthetic(spec)
    centroids = np.stack([ds.images[ds.class_indices(c)].mean(axis=0) for c in range(6)])
    flat = ds.images.reshape(ds.n_samples, -1)
    cf = centroids.reshape(6, -1)
    d2 = ((flat[:, None, :] - cf[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    assert (pred == ds.labels).mean() >= 0.99


def test_synthetic_impossible_separation():
    # unit-box templates cannot sit 50 apart
    with pytest.raises(SamplingError):
        gen_synthetic(SyntheticSpec(n_classes=4, samples_per_class=1, image_extent=2,
                                    class_separation=50.0))


def test_synthetic_spec_validation():
    with pytest.raises(ConfigurationError):
        SyntheticSpec(n_classes=1, samples_per_class=4)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(n_classes=3, samples_per_class=0)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(n_classes=3, samples_per_class=1, cluster_std=-0.1)


def test_synthetic_roundtrips_through_fsds(tmp_path):
    ds = gen_synthetic(SyntheticSpec(n_classes=3, samples_per_class=2, image_extent=4,
                                     class_separation=1.0))
    path = tmp_path / "syn.fsds"
    write_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)
