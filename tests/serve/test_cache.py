"""EncodingCache: hits, LRU eviction, fingerprint invalidation, dedup."""

import dataclasses
import hashlib

import numpy as np
import pytest

import repro.serve.cache
from repro.nn import SGD, Adam, Linear, Module, ModuleList, Parameter
from repro.parallel import DataParallelEngine
from repro.runtime import MetricsRegistry, using_registry
from repro.serve import (EncodingCache, feature_fingerprint,
                         model_fingerprint, table_fingerprint)
from repro.tables import Table
from repro.tasks import FinetuneConfig, finetune


def _features(encoder, table, context=None):
    serialized = encoder.serialize(table, context)
    return encoder.features(serialized, table=table)


class TestFingerprints:
    def test_feature_fingerprint_is_content_addressed(self, encoder,
                                                      serve_tables):
        a = feature_fingerprint(_features(encoder, serve_tables[0]))
        b = feature_fingerprint(_features(encoder, serve_tables[0]))
        c = feature_fingerprint(_features(encoder, serve_tables[1]))
        assert a == b
        assert a != c

    def test_context_changes_fingerprint(self, encoder, serve_tables):
        plain = feature_fingerprint(_features(encoder, serve_tables[0]))
        with_q = feature_fingerprint(
            _features(encoder, serve_tables[0], "what is this?"))
        assert plain != with_q

    def test_table_fingerprint_ignores_table_id(self, serve_tables):
        table = serve_tables[0]
        twin = Table(table.header, table.rows, table.context, "other-id")
        assert table_fingerprint(table) == table_fingerprint(twin)
        assert table_fingerprint(table) != table_fingerprint(
            table, "a question")
        assert table_fingerprint(table) != table_fingerprint(serve_tables[1])

    def test_model_fingerprint_tracks_weights(self, encoder):
        before = model_fingerprint(encoder)
        assert before == model_fingerprint(encoder)
        name, param = next(iter(encoder.named_parameters()))
        param.data = param.data + 1e-3
        assert model_fingerprint(encoder) != before


class TestLookupStore:
    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            EncodingCache(max_entries=0)

    def test_lru_eviction_order(self):
        cache = EncodingCache(max_entries=2)
        one, two, three = (("m", k) for k in "abc")
        cache.store(one, np.zeros(1))
        cache.store(two, np.zeros(1))
        cache.lookup(one)                     # refresh: two is now LRU
        cache.store(three, np.zeros(1))
        assert cache.lookup(two) is None
        assert cache.lookup(one) is not None
        assert cache.lookup(three) is not None
        assert cache.evictions == 1


class TestHiddenFor:
    def test_hit_skips_encoder_forward(self, encoder, serve_tables):
        cache = EncodingCache()
        features = [_features(encoder, serve_tables[0])]
        with encoder.inference():
            first = cache.hidden_for(encoder, features)
            calls = {"n": 0}
            original = encoder.forward

            def counting(batch):
                calls["n"] += 1
                return original(batch)

            encoder.forward = counting
            second = cache.hidden_for(encoder, features)
        assert calls["n"] == 0
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_array_equal(first[0], second[0])

    def test_weight_update_invalidates(self, encoder, serve_tables):
        cache = EncodingCache()
        features = [_features(encoder, serve_tables[0])]
        with encoder.inference():
            cache.hidden_for(encoder, features)
            name, param = next(iter(encoder.named_parameters()))
            param.data = param.data + 1e-3
            cache.hidden_for(encoder, features)
        assert cache.misses == 2 and cache.hits == 0

    @pytest.mark.parametrize("write", [
        "rebind", "adam", "sgd", "load_state_dict", "rollback",
        "data_parallel_sync", "new_parameter", "module_list_append",
        "replaced_config"])
    def test_every_weight_write_invalidates(self, encoder, serve_tables,
                                            write):
        cache = EncodingCache()
        features = [_features(encoder, serve_tables[0])]

        def lookup():
            cache.hidden_for(encoder, features)

        _WRITES[write](encoder, lookup)
        lookup()
        assert cache.misses == 2 and cache.hits == 0

    def test_engine_hashes_the_weights_once(self, encoder, six_task_engine,
                                            six_task_traffic, monkeypatch):
        spy = _WeightHashSpy(encoder)
        monkeypatch.setattr(repro.serve.cache, "hashlib", spy)
        for _ in range(50):
            six_task_engine.process(six_task_traffic)
        assert spy.weight_hashes == 1

    def test_within_batch_dedup(self, encoder, serve_tables):
        cache = EncodingCache()
        features = [_features(encoder, serve_tables[0]) for _ in range(3)]
        features.append(_features(encoder, serve_tables[1]))
        with encoder.inference():
            out = cache.hidden_for(encoder, features)
        # 3 identical requests cost one forward row: 2 in-flight hits.
        assert cache.misses == 2 and cache.hits == 2
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], out[2])
        assert out[0].shape != out[3].shape or not np.array_equal(out[0],
                                                                  out[3])

    def test_features_memo_skips_serialization(self, encoder, serve_tables):
        cache = EncodingCache()
        tables = [serve_tables[0], serve_tables[0]]
        first_ser, first_feats = cache.features_for(encoder, tables,
                                                    [None, None])
        calls = {"n": 0}
        original = encoder.serialize

        def counting(table, context=None):
            calls["n"] += 1
            return original(table, context)

        encoder.serialize = counting
        second_ser, second_feats = cache.features_for(encoder, tables,
                                                      [None, None])
        encoder.serialize = original
        assert calls["n"] == 0
        assert second_ser[0] is first_ser[0]
        np.testing.assert_array_equal(first_feats[0].token_ids,
                                      second_feats[0].token_ids)

    def test_features_memo_returns_mutable_copies(self, encoder,
                                                  serve_tables):
        cache = EncodingCache()
        (_, [feats]) = cache.features_for(encoder, serve_tables[:1], [None])
        pristine = feats.token_ids.copy()
        feats.token_ids[:] = -1     # a feature_hook mutating in place
        (_, [again]) = cache.features_for(encoder, serve_tables[:1], [None])
        np.testing.assert_array_equal(again.token_ids, pristine)

    def test_counters_reach_registry(self, encoder, serve_tables):
        registry = MetricsRegistry()
        with using_registry(registry):
            cache = EncodingCache()
            features = [_features(encoder, serve_tables[0])]
            with encoder.inference():
                cache.hidden_for(encoder, features)
                cache.hidden_for(encoder, features)
        snapshot = {s["name"]: s for s in registry.snapshot()}
        assert snapshot["serve.cache.hits"]["value"] == 1
        assert snapshot["serve.cache.misses"]["value"] == 1


class _WeightHashSpy:
    """``hashlib`` stand-in counting digests fed a model's weight bytes."""

    def __init__(self, model):
        self.weight = next(iter(model.parameters())).data.tobytes()
        self.weight_hashes = 0

    def sha256(self):
        spy, digest = self, hashlib.sha256()

        class Digest:
            def update(self, data):
                spy.weight_hashes += data == spy.weight
                digest.update(data)

            def hexdigest(self):
                return digest.hexdigest()

        return Digest()


def _first_parameter(encoder):
    return next(iter(encoder.parameters()))


def _rebind(encoder, lookup):
    lookup()
    param = _first_parameter(encoder)
    param.data = param.data + 1e-3


def _optimizer_step(optimizer_class):
    def write(encoder, lookup):
        lookup()
        param = _first_parameter(encoder)
        param.grad = np.ones_like(param.data)
        optimizer_class([param], lr=1e-3).step()
    return write


def _load_state_dict(encoder, lookup):
    lookup()
    state = encoder.state_dict()
    name = next(iter(state))
    state[name] = state[name] + 1e-3
    encoder.load_state_dict(state)


class _RollbackTask(Module):
    """Fine-tuning task over the encoder: one good step, then NaN losses.

    The health guard rolls the third bad step back onto the snapshot
    taken before the good step; the cache is consulted between the good
    step and the rollback, so only the restore can make the next lookup
    miss.
    """

    def __init__(self, encoder, lookup):
        super().__init__()
        self.encoder = encoder
        self.lookup = lookup
        self.calls = 0

    def loss(self, batch):
        self.calls += 1
        param = _first_parameter(self.encoder)
        value = (param * param).sum()
        if self.calls == 2:
            self.lookup()
        if self.calls > 1:
            value.data = np.array(float("nan"))
        return value


def _rollback(encoder, lookup):
    task = _RollbackTask(encoder, lookup)
    history = finetune(task, [0, 1], FinetuneConfig(epochs=4, batch_size=2))
    assert [r.extras.get("skipped", False) for r in history] == \
        [False, True, True, True]


def _data_parallel_sync(encoder, lookup):
    lookup()
    params = list(encoder.parameters())
    engine = DataParallelEngine(params, lambda payload: {})
    engine._sync([param.data + 1e-3 for param in params])


# Building a parameter writes its data, so the registrations below are
# built before ``lookup`` and only registered after it.
def _new_parameter(encoder, lookup):
    extra = Parameter(np.ones(2))
    lookup()
    encoder.extra = extra


def _module_list_append(encoder, lookup):
    encoder.extras = ModuleList()
    layer = Linear(2, 2, np.random.default_rng(0))
    lookup()
    encoder.extras.append(layer)


def _replaced_config(encoder, lookup):
    lookup()
    encoder.config = dataclasses.replace(
        encoder.config, decoder_layers=encoder.config.decoder_layers + 1)


#: Every path a weight can change by; each runs ``lookup`` before its write.
_WRITES = {
    "rebind": _rebind,
    "adam": _optimizer_step(Adam),
    "sgd": _optimizer_step(SGD),
    "load_state_dict": _load_state_dict,
    "rollback": _rollback,
    "data_parallel_sync": _data_parallel_sync,
    "new_parameter": _new_parameter,
    "module_list_append": _module_list_append,
    "replaced_config": _replaced_config,
}
