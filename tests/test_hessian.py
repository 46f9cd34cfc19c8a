import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from glq.calib_model import Dataset, LayerCalibration, calibrate, gen_dataset
from glq.errors import (
    ConfigError,
    CorruptFile,
    EmptyCalibration,
    GlqError,
    InvalidSize,
    PartitionMismatch,
    SingularHessian,
)
from glq.guidedquant import QuantJob, run_job
from glq.hessian import (
    DEFAULT_DAMPING_REL,
    DEFAULT_GRAD_SCALE,
    ChannelPartition,
    HessianCache,
    dataset_hash,
    fisher_diag,
    guided_hessians,
    hessian_cache_key,
    hessian_request,
    layer_hessians,
    model_hash,
    plain_hessian,
    squared_grad_averages,
)
from glq.oracle import fisher_block_oracle


def _calib(seed: int, n: int, d_in: int, d_out: int) -> LayerCalibration:
    rng = np.random.default_rng(seed)
    return LayerCalibration(
        X=rng.standard_normal((n, d_in)),
        gradZ=rng.standard_normal((n, d_out)),
    )


class TestPartition:
    def test_even_split(self):
        p = ChannelPartition.consecutive(8, 4)
        assert p.sizes == (2, 2, 2, 2) and p.d_out == 8 and p.g == 4
        assert p.bounds == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_ragged_split(self):
        p = ChannelPartition.consecutive(7, 3)
        assert p.sizes == (3, 2, 2) and p.bounds == [(0, 3), (3, 5), (5, 7)]

    def test_single_group(self):
        assert ChannelPartition.consecutive(5, 1).bounds == [(0, 5)]

    def test_bad_g(self):
        with pytest.raises(InvalidSize):
            ChannelPartition.consecutive(4, 5)
        with pytest.raises(InvalidSize):
            ChannelPartition.consecutive(4, 0)

    def test_sizes_validated(self):
        # consecutive sizes cover d_out by construction; only empty or
        # non-integer groups are left to refuse
        for sizes in ((2, 0), (), (2, -1), (1.0, 2)):
            with pytest.raises(PartitionMismatch):
                ChannelPartition(sizes)


class TestPlainHessian:
    def test_matches_gram_matrix(self):
        c = _calib(1, 10, 4, 3)
        h = plain_hessian(c, damping_rel=0.0)
        npt.assert_allclose(h.hessians[0], c.X.T @ c.X, atol=1e-12)
        assert h.partition.g == 1

    def test_relative_damping_value(self):
        c = _calib(2, 10, 4, 3)
        M = c.X.T @ c.X
        h = plain_hessian(c, damping_rel=1e-3)
        lam = 1e-3 * float(np.mean(np.diag(M)))
        assert h.lambdas[0] == pytest.approx(lam, rel=1e-12)
        npt.assert_allclose(h.hessians[0], M + lam * np.eye(4), atol=1e-10)

    def test_empty_rejected(self):
        c = LayerCalibration(X=np.zeros((0, 3)), gradZ=np.zeros((0, 2)))
        with pytest.raises(EmptyCalibration):
            plain_hessian(c)


class TestGuidedHessians:
    def test_hand_2x2_expansion(self):
        # n=2, d_in=2, one channel: nF = sum_i g_i^2 x_i x_i^T
        c = LayerCalibration(
            X=np.array([[1.0, 2.0], [3.0, 4.0]]),
            gradZ=np.array([[0.5], [-1.0]]),
        )
        part = ChannelPartition.consecutive(1, 1)
        h = guided_hessians(c, part, grad_scale=1.0, damping_rel=0.0)
        npt.assert_allclose(
            h.hessians[0], [[9.25, 12.5], [12.5, 17.0]], atol=1e-12
        )

    def test_averaging_consistency(self):
        c = _calib(3, 12, 5, 6)
        part = ChannelPartition.consecutive(6, 3)
        h = guided_hessians(c, part, grad_scale=7.0, damping_rel=0.0)
        for k, (o, e) in enumerate(part.bounds):
            acc = np.zeros((5, 5))
            for j in range(o, e):
                g2 = (7.0 * c.gradZ[:, j]) ** 2
                acc += (c.X * g2[:, None]).T @ c.X
            acc /= e - o
            scale = max(1.0, float(np.max(np.abs(acc))))
            assert np.max(np.abs(acc - h.hessians[k])) <= 1e-10 * scale

    def test_g_equals_dout_is_per_channel(self):
        c = _calib(4, 10, 4, 5)
        part = ChannelPartition.consecutive(5, 5)
        h = guided_hessians(c, part, grad_scale=1.0, damping_rel=0.0)
        for j in range(5):
            direct = (c.X * (c.gradZ[:, j] ** 2)[:, None]).T @ c.X
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(h.hessians[j] - direct)) <= 1e-10 * scale

    def test_grad_scale_quadratic_law(self):
        c = _calib(5, 10, 4, 4)
        part = ChannelPartition.consecutive(4, 2)
        h1 = guided_hessians(c, part, grad_scale=1.0, damping_rel=0.0)
        hs = guided_hessians(c, part, grad_scale=50.0, damping_rel=0.0)
        for a, b in zip(h1.hessians, hs.hessians):
            npt.assert_allclose(b, 2500.0 * a, rtol=1e-12)

    def test_positive_semidefinite(self):
        c = _calib(6, 8, 6, 4)
        h = guided_hessians(c, ChannelPartition.consecutive(4, 2), damping_rel=0.0)
        for H in h.hessians:
            evmin = float(np.min(np.linalg.eigvalsh(H)))
            assert evmin >= -1e-8 * max(1.0, float(np.max(np.abs(H))))

    def test_partition_size_checked(self):
        c = _calib(7, 8, 3, 4)
        with pytest.raises(PartitionMismatch):
            guided_hessians(c, ChannelPartition.consecutive(5, 1))

    def test_squared_grad_averages_values(self):
        c = _calib(8, 6, 3, 4)
        part = ChannelPartition.consecutive(4, 2)
        s = squared_grad_averages(c, part, grad_scale=3.0)
        expect0 = np.mean((3.0 * c.gradZ[:, [0, 1]]) ** 2, axis=1)
        assert s.shape == (c.gradZ.shape[0], 2)
        npt.assert_allclose(s[:, 0], expect0, atol=1e-13)


    def test_zero_gradient_group_named_before_solve(self):
        # group 1 of 3 (channels 2..3) has an all-zero gradient, so its
        # Hbar and lambda would both be 0: refused with the layer and group
        c = _calib(8, 20, 5, 6)
        c.gradZ[:, 2:4] = 0.0
        part = ChannelPartition.consecutive(6, 3)
        with pytest.raises(GlqError, match=r"layer 3 group 1 .*zero gradient"):
            guided_hessians(c, part, layer_idx=3)
        plain_hessian(c)
        c.gradZ[0, 3] = 1.0  # one nonzero gradient in the group is enough
        guided_hessians(c, part, layer_idx=3)


class TestFisherOracle:
    def test_diag_identity(self):
        # n * F_j == X^T Diag(gradZ_j^2) X
        c = _calib(9, 11, 5, 3)
        n = 11
        for j in range(3):
            F = fisher_block_oracle(c, j, n)
            direct = (c.X * (c.gradZ[:, j] ** 2)[:, None]).T @ c.X
            npt.assert_allclose(n * F, direct, atol=1e-12 * max(1.0, np.max(np.abs(direct))))

    def test_fisher_diag_matches_blocks(self):
        c = _calib(10, 9, 4, 3)
        D = fisher_diag(c)
        for j in range(3):
            F = fisher_block_oracle(c, j, 9)
            npt.assert_allclose(D[:, j], np.diag(F), atol=1e-13)

    def test_channel_range_checked(self):
        with pytest.raises(PartitionMismatch):
            fisher_block_oracle(_calib(0, 4, 3, 2), 2, 4)


# the request the cache tests store their entries under: layer 0 of a
# stand-in model and dataset in 2 groups; _PART splits the 5-channel layer
# of `_cache_with_edited_manifest` into them
_REQUEST = hessian_request("a" * 64, "b" * 64, 0, 2, DEFAULT_GRAD_SCALE, DEFAULT_DAMPING_REL,
                           "guided")
_PART = ChannelPartition.consecutive(5, 2)


class TestCacheAndHash:
    def test_model_hash_sensitivity(self, toy_problem):
        model, _ = toy_problem
        h1 = model_hash(model)
        assert h1 == model_hash(model.copy())
        bumped = model.copy()
        bumped.layers[0][0, 0] += 1e-9
        assert model_hash(bumped) != h1

    def test_key_stability(self):
        k1 = hessian_cache_key(hessian_request("abc", "def", 1, 4, 1e3, 1e-7, "guided"))
        k2 = hessian_cache_key(hessian_request("abc", "def", 1, 4, 1e3, 1e-7, "guided"))
        k3 = hessian_cache_key(hessian_request("abc", "def", 1, 2, 1e3, 1e-7, "guided"))
        assert k1 == k2 and k1 != k3

    def test_store_load_roundtrip(self, tmp_path, toy_problem):
        model, data = toy_problem
        calib = calibrate(model, data)
        part = ChannelPartition.consecutive(calib[1].gradZ.shape[1], 4)
        hset = guided_hessians(calib[1], part, layer_idx=1)
        cache = HessianCache(tmp_path)
        request = hessian_request(model_hash(model), dataset_hash(data), 1, 4, 1e3, 1e-7,
                                  "guided")
        cache.store(request, hset)
        back = cache.load(request, part)
        assert back is not None
        assert back.layer_idx == 1
        assert back.partition == hset.partition
        assert back.lambdas == hset.lambdas
        for a, b in zip(hset.hessians, back.hessians):
            npt.assert_array_equal(a, b)

    def test_dataset_hash_sensitivity(self):
        a = gen_dataset(0, 16, 4, 2)
        assert dataset_hash(a) == dataset_hash(gen_dataset(0, 16, 4, 2))
        assert dataset_hash(gen_dataset(0, 32, 4, 2)) != dataset_hash(a)  # same seed
        bumped = Dataset(inputs=a.inputs, targets=a.targets.copy(), seed=a.seed)
        bumped.targets[0, 0] += 1e-12
        assert dataset_hash(bumped) != dataset_hash(a)
        # same byte stream, split differently between inputs and targets
        raw = np.concatenate([a.inputs.ravel(), a.targets.ravel()])
        other = Dataset(inputs=raw[:80].reshape(16, 5), targets=raw[80:].reshape(16, 1),
                        seed=a.seed)
        assert dataset_hash(other) != dataset_hash(a)

    def test_load_rejects_tampered_file(self, tmp_path, toy_calib):
        part = ChannelPartition.consecutive(16, 2)
        cache = HessianCache(tmp_path)
        entry = cache.store(_REQUEST, guided_hessians(toy_calib[0], part))
        path = entry / "hess.L0.G1.gqt"
        blob = bytearray(path.read_bytes())
        blob[-8] ^= 0x01  # lowest mantissa bit of the last entry
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            cache.load(_REQUEST, part)

    def test_load_rejects_unlisted_file(self, tmp_path, toy_calib):
        part = ChannelPartition.consecutive(16, 2)
        cache = HessianCache(tmp_path)
        man = cache.store(_REQUEST, guided_hessians(toy_calib[0], part)) / "manifest.json"
        meta = json.loads(man.read_text())
        del meta["files"]["hess.L0.G0.gqt"]
        man.write_text(json.dumps(meta))
        with pytest.raises(CorruptFile, match=r"fails its manifest: \['hess.L0.G0.gqt'\]"):
            cache.load(_REQUEST, part)

    @pytest.mark.parametrize("key,value", [pytest.param(key, value, id=key) for key, value in (
        ("model", "0" * 64), ("dataset", "0" * 64), ("layer", 1), ("g", 3),
        ("grad_scale", "1.0"), ("damping_rel", "0.0"), ("kind", "plain"),
    )])
    def test_load_refuses_entry_built_for_another_request(self, tmp_path, key, value):
        # an entry whose recorded request differs from the one asked for
        # in any one key, e.g. copied in from another model's cache
        cache = _cache_with_edited_manifest(tmp_path, lambda meta: meta["request"].update(
            {key: value}))
        built, asked = (json.dumps(r, sort_keys=True)
                        for r in (dict(_REQUEST, **{key: value}), _REQUEST))
        text = f"{_entry(tmp_path)}: hessian cache entry was built for {built}, requested {asked}"
        with pytest.raises(CorruptFile, match=f"^{re.escape(text)}$"):
            cache.load(_REQUEST, _PART)

    @pytest.mark.parametrize("field", ["request", "lambdas", "files", *_REQUEST])
    @pytest.mark.parametrize("value", [None, True])
    def test_load_refuses_missing_or_ill_typed_field(self, tmp_path, field, value):
        # a manifest field or a key of its request; None stands for a
        # deleted field, and a bool is no field's type
        def edit(meta):
            target = meta if field in ("request", "lambdas", "files") else meta["request"]
            if value is None:
                del target[field]
            else:
                target[field] = value
        cache = _cache_with_edited_manifest(tmp_path, edit)
        with pytest.raises(CorruptFile, match=f"^{re.escape(str(_entry(tmp_path)))}"):
            cache.load(_REQUEST, _PART)

    @pytest.mark.parametrize("field,value", [("kind", "fisher"), ("lambdas", [1.0]),
                                             ("lambdas", [1.0, "2"])])
    def test_load_refuses_kind_and_lambdas_it_cannot_use(self, tmp_path, field, value):
        # the kind is a key of the request; lambdas must be one number per group
        def edit(meta):
            (meta["request"] if field == "kind" else meta)[field] = value
        cache = _cache_with_edited_manifest(tmp_path, edit)
        text = "was built for" if field == "kind" else "lambdas .* for 2 groups"
        with pytest.raises(CorruptFile, match=text):
            cache.load(_REQUEST, _PART)

    @pytest.mark.parametrize("blob,text", [
        pytest.param(b'{"request": {"layer": 0, "g', "not valid JSON: ", id="truncated"),
        pytest.param(b'"request"', "expected a JSON object, got str", id="string"),
    ])
    def test_load_refuses_manifest_that_is_no_object(self, tmp_path, blob, text):
        cache = _cache_with_edited_manifest(tmp_path, lambda meta: None)
        man = _entry(tmp_path) / "manifest.json"
        man.write_bytes(blob)
        with pytest.raises(CorruptFile, match=f"^{re.escape(f'{man}: {text}')}"):
            cache.load(_REQUEST, _PART)

    def test_missing_key_returns_none(self, tmp_path):
        assert HessianCache(tmp_path).load(_REQUEST, _PART) is None


def _entry(root):
    """The directory of _REQUEST's entry in a cache under `root`."""
    return root / hessian_cache_key(_REQUEST)


def _cache_with_edited_manifest(root, edit) -> HessianCache:
    """A cache under `root` holding the entry of _REQUEST (5 channels in
    2 groups) whose manifest `edit` has changed in place."""
    cache = HessianCache(root)
    man = cache.store(_REQUEST, guided_hessians(_calib(11, 12, 3, 5), _PART)) / "manifest.json"
    meta = json.loads(man.read_text())
    edit(meta)
    man.write_text(json.dumps(meta))
    return cache


class TestLayerHessians:
    def test_plain_keys_ignore_group_knobs(self, toy_problem, toy_calib):
        model, data = toy_problem
        a = list(layer_hessians(model, data, toy_calib, "plain"))
        b = list(layer_hessians(model, data, toy_calib, "plain", g=4, grad_scale=5.0))
        assert [k for k, _ in a] == [k for k, _ in b]
        assert all(h.partition.g == 1 for _, h in b)
        guided = list(layer_hessians(model, data, toy_calib, "guided", g=4))
        assert all(h.partition.g == 4 for _, h in guided)
        assert {k for k, _ in guided}.isdisjoint(k for k, _ in a)
        with pytest.raises(ConfigError):  # refused at the call, before any set
            layer_hessians(model, data, toy_calib, "fisher")

    def test_reuse_loads_and_rebuild_overwrites(self, tmp_path, toy_problem, toy_calib):
        model, data = toy_problem
        cache = HessianCache(tmp_path)
        built = list(layer_hessians(model, data, toy_calib, "guided", g=2, cache=cache))
        victim = tmp_path / built[0][0] / "hess.L0.G0.gqt"
        blob = bytearray(victim.read_bytes())
        blob[-8] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            list(layer_hessians(model, data, toy_calib, "guided", g=2, cache=cache))
        list(layer_hessians(model, data, toy_calib, "guided", g=2, cache=cache, reuse=False))
        again = list(layer_hessians(model, data, toy_calib, "guided", g=2, cache=cache))
        for (k1, h1), (k2, h2) in zip(built, again):
            assert k1 == k2
            for a, b in zip(h1.hessians, h2.hessians):
                npt.assert_array_equal(a, b)

    def test_g_clipped_per_layer_to_d_out(self, toy_problem, toy_calib):
        # the toy's last layer has 4 outputs: g = 6 gives it one group per
        # channel, keyed as g = 4, while the 16-wide layers keep g = 6
        model, data = toy_problem
        wide = list(layer_hessians(model, data, toy_calib, "guided", g=6))
        assert [h.partition.g for _, h in wide] == [6, 6, 4]
        at_four = list(layer_hessians(model, data, toy_calib, "guided", g=4))
        assert wide[2][0] == at_four[2][0]
        for a, b in zip(wide[2][1].hessians, at_four[2][1].hessians):
            npt.assert_array_equal(a, b)
        digest, data_digest = model_hash(model), dataset_hash(data)
        for l, (key, _) in enumerate(wide[:2]):
            assert key == hessian_cache_key(hessian_request(
                digest, data_digest, l, 6, DEFAULT_GRAD_SCALE, DEFAULT_DAMPING_REL, "guided"))
        with pytest.raises(InvalidSize):
            list(layer_hessians(model, data, toy_calib, "guided", g=0))

    @pytest.mark.parametrize("kind", ["plain", "guided"])
    def test_unfactorable_set_is_never_cached(self, tmp_path, toy_problem, kind):
        # input feature 3 zeroed and no damping: H[3, 3] = 0 in every
        # group of layer 0, which no solver can factor
        model, data = toy_problem
        inputs = data.inputs.copy()
        inputs[:, 3] = 0.0
        dead = dataclasses.replace(data, inputs=inputs)
        calib = calibrate(model, dead)
        cache = HessianCache(tmp_path / "hc")
        with pytest.raises(SingularHessian, match=r"^layer 0 group 0: .*1 of 8 input "
                                                  r"features .*\(first: feature 3\)"):
            list(layer_hessians(model, dead, calib, kind, 2, 1e3, 0.0, cache=cache))
        assert not (tmp_path / "hc").exists() or not any((tmp_path / "hc").iterdir())
        # without a cache the set is built as before, and the methods
        # that never factor it still run
        hsets = list(layer_hessians(model, dead, calib, kind, 2, 1e3, 0.0))
        assert all(H[3, 3] == 0.0 for H in hsets[0][1].hessians)
        for method in ("rtn", "squeezellm"):
            run_job(model, dead, QuantJob(method=method, bits=2, damping_rel=0.0))
