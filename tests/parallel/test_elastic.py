"""Elasticity differentials: worker loss must not move a checkpoint bit.

The supervisor's contract extends PR 5's "worker count is pure
scheduling" to *worker survival*: killing, hanging or retiring workers
mid-run — with respawn or with degradation to fewer workers — yields
final checkpoint bytes identical to an unfaulted run, and a degraded
run's snapshots resume byte-identically.  The staged failures come from
the deterministic fault-injection layer (:mod:`repro.parallel.faults`),
so every scenario here reproduces exactly under a fixed seed.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.module import Parameter
from repro.parallel import (
    DataParallelEngine,
    FaultPlan,
    FaultSpec,
    FixedClock,
    ParallelConfig,
    parse_fault_plan,
)
from repro.pretrain import Pretrainer, PretrainConfig
from repro.runtime import HealthMonitor, InMemorySink, MetricsRegistry, \
    using_registry

#: Supervisor settings tuned for tests: fast detection, fast respawn.
_FAST = dict(heartbeat_interval=0.1, heartbeat_timeout=5.0,
             step_deadline=2.0, respawn_backoff=0.01)


def elastic_config(workers: int, faults: FaultPlan | None = None,
                   **overrides) -> PretrainConfig:
    parallel = dict(workers=workers, shard_size=1, faults=faults, **_FAST)
    parallel.update(overrides.pop("parallel", {}))
    settings = dict(steps=8, batch_size=4, seed=0,
                    parallel=ParallelConfig(**parallel))
    settings.update(overrides)
    return PretrainConfig(**settings)


# ----------------------------------------------------------------------
# Fault-plan unit behavior
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", step=0, worker=0)
        with pytest.raises(ValueError):
            FaultSpec("die", step=-1, worker=0)
        with pytest.raises(ValueError, match="same"):
            FaultPlan((FaultSpec("die", 1, 0), FaultSpec("hang", 1, 0)))

    def test_match_is_generation_aware(self):
        plan = FaultPlan((FaultSpec("die", step=3, worker=1),))
        assert plan.match(3, 1, 0) is not None
        assert plan.match(3, 1, 1) is None, (
            "a staged death must not re-fire on the respawned replacement")
        assert plan.match(3, 0, 0) is None
        assert plan.match(2, 1, 0) is None

    def test_seeded_plans_are_reproducible(self):
        one = FaultPlan.seeded(7, steps=10, workers=4, n_faults=3)
        two = FaultPlan.seeded(7, steps=10, workers=4, n_faults=3)
        assert one == two
        assert len(one.specs) == 3
        assert FaultPlan.seeded(8, steps=10, workers=4, n_faults=3) != one

    def test_parse_compact_syntax(self):
        plan = parse_fault_plan("die@5:1, hang@3:0, delay@2:2:0.25")
        kinds = {(s.kind, s.step, s.worker) for s in plan.specs}
        assert kinds == {("die", 5, 1), ("hang", 3, 0), ("delay", 2, 2)}
        [delay] = [s for s in plan.specs if s.kind == "delay"]
        assert delay.seconds == 0.25
        with pytest.raises(ValueError, match="bad fault clause"):
            parse_fault_plan("die@x:1")
        with pytest.raises(ValueError, match="empty"):
            parse_fault_plan("  ,  ")

    def test_fault_injection_requires_workers(self):
        with pytest.raises(ValueError, match="workers > 1"):
            ParallelConfig(workers=1,
                           faults=FaultPlan((FaultSpec("die", 0, 0),)))


# ----------------------------------------------------------------------
# Engine-level recovery (toy closure, fast)
# ----------------------------------------------------------------------
def toy_engine(workers: int, **parallel_overrides):
    params = [Parameter(np.arange(6, dtype=np.float64).reshape(2, 3)),
              Parameter(np.ones(3))]

    def compute(payload):
        rows, weight = payload
        loss = ((Tensor(rows) @ params[0]) * params[1] * weight).sum()
        loss.backward()
        return {"loss": float(loss.data)}

    settings = dict(workers=workers, **_FAST)
    settings.update(parallel_overrides)
    return DataParallelEngine(params, compute, ParallelConfig(**settings))


def toy_payloads(count: int = 4):
    rng = np.random.default_rng(0)
    return [(rng.standard_normal((2, 2)), 1.0 / count)
            for _ in range(count)]


class TestEngineRecovery:
    def setup_method(self):
        payloads = toy_payloads()
        with toy_engine(1) as serial:
            self.expected = serial.step(payloads)
        self.payloads = payloads

    def assert_bits_equal(self, outcome):
        assert self.expected.grads.keys() == outcome.grads.keys()
        for index in self.expected.grads:
            assert np.array_equal(self.expected.grads[index],
                                  outcome.grads[index])
        assert ([s["loss"] for s in outcome.stats]
                == [s["loss"] for s in self.expected.stats])

    def test_killed_worker_is_respawned_bit_identically(self):
        registry = MetricsRegistry()
        plan = FaultPlan((FaultSpec("die", step=0, worker=1),))
        with using_registry(registry):
            with toy_engine(4, faults=plan) as engine:
                self.assert_bits_equal(engine.step(self.payloads))
                # The replacement serves subsequent steps normally.
                self.assert_bits_equal(engine.step(self.payloads))
                assert len(engine._pool.live_slots()) == 4
        assert registry.counter("parallel.worker_deaths").value == 1
        assert registry.counter("parallel.respawns").value == 1

    def test_hung_worker_reaped_within_deadline(self):
        plan = FaultPlan((FaultSpec("hang", step=0, worker=0, seconds=60),))
        registry = MetricsRegistry()
        with using_registry(registry):
            with toy_engine(3, faults=plan, step_deadline=1.0) as engine:
                self.assert_bits_equal(engine.step(self.payloads))
        assert registry.counter("parallel.worker_deaths").value == 1

    def test_delayed_worker_is_slow_not_failed(self):
        plan = FaultPlan((FaultSpec("delay", step=0, worker=1,
                                    seconds=0.3),))
        registry = MetricsRegistry()
        with using_registry(registry):
            with toy_engine(4, faults=plan, step_deadline=30.0) as engine:
                self.assert_bits_equal(engine.step(self.payloads))
        assert registry.counter("parallel.worker_deaths").value == 0

    def test_respawn_exhaustion_degrades_pool(self):
        plan = FaultPlan((FaultSpec("die", step=0, worker=2),))
        registry = MetricsRegistry()
        with using_registry(registry):
            with toy_engine(4, faults=plan, max_respawns=0) as engine:
                self.assert_bits_equal(engine.step(self.payloads))
                assert len(engine._pool.live_slots()) == 3
                self.assert_bits_equal(engine.step(self.payloads))
        assert registry.counter("parallel.degraded").value == 1
        assert registry.counter("parallel.respawns").value == 0

    def test_total_degradation_falls_back_in_process(self):
        # Every original worker dies at step 0; no respawns allowed.
        plan = FaultPlan(tuple(FaultSpec("die", step=0, worker=w)
                               for w in range(2)))
        with toy_engine(2, faults=plan, max_respawns=0) as engine:
            self.assert_bits_equal(engine.step(self.payloads))
            assert engine._pool.live_slots() == []
            self.assert_bits_equal(engine.step(self.payloads))

    def test_worker_events_reach_health_monitor(self):
        registry = MetricsRegistry()
        sink = registry.add_sink(InMemorySink())
        plan = FaultPlan((FaultSpec("die", step=0, worker=0),))
        monitor = HealthMonitor(source="pretrain")
        with using_registry(registry):
            engine = toy_engine(2, faults=plan)
            engine.health = monitor
            with engine:
                engine.step(self.payloads)
        assert monitor.worker_events >= 1
        assert registry.counter(
            "pretrain.health.worker_events").value >= 1
        events = [e for e in sink.events if e.get("kind") == "health"]
        assert any(e.get("status") == "worker_death" for e in events)


# ----------------------------------------------------------------------
# End-to-end differentials (the acceptance bar)
# ----------------------------------------------------------------------
class TestElasticDifferential:
    def test_kill_and_replace_checkpoint_bytes_identical(
            self, make_model, wiki_tables, tmp_path):
        """Acceptance: --workers 4 with worker 1 killed at step 5 equals
        an unfaulted --workers 4 run, byte for byte."""
        archives = {}
        for label, faults in (
                ("clean", None),
                ("faulted", FaultPlan((FaultSpec("die", step=5,
                                                 worker=1),)))):
            trainer = Pretrainer(make_model("bert"),
                                 elastic_config(4, faults=faults),
                                 clock=FixedClock())
            trainer.train(wiki_tables)
            path = trainer.save_checkpoint(tmp_path / label)
            archives[label] = path.read_bytes()
        assert archives["clean"] == archives["faulted"], (
            "kill-and-replace moved checkpoint bytes")

    def test_degraded_run_resumes_bit_identical(
            self, make_model, wiki_tables, tmp_path):
        """Acceptance: a run that degraded to 3 workers writes snapshots
        any healthy trainer resumes byte-identically."""
        reference = Pretrainer(make_model("bert"),
                               elastic_config(4, checkpoint_every=4),
                               clock=FixedClock())
        reference.train(wiki_tables)
        expected = reference.save_checkpoint(
            tmp_path / "reference").read_bytes()

        # Worker 2 dies at step 1 with respawns disabled: the pool
        # degrades to 3 workers and finishes the first half.
        plan = FaultPlan((FaultSpec("die", step=1, worker=2),))
        degraded = Pretrainer(
            make_model("bert"),
            elastic_config(4, faults=plan, checkpoint_every=4,
                           parallel=dict(max_respawns=0)),
            clock=FixedClock())
        snapshots = tmp_path / "snapshots"
        degraded.train(wiki_tables, checkpoint_dir=snapshots)
        final = degraded.save_checkpoint(tmp_path / "degraded").read_bytes()
        assert final == expected, "degraded run moved checkpoint bytes"

        # A fresh healthy trainer resumes the degraded run's mid-run
        # snapshot and lands on the same bytes.
        resumed = Pretrainer(make_model("bert"),
                             elastic_config(4, checkpoint_every=4),
                             clock=FixedClock())
        assert resumed.resume(snapshots / "ckpt-00000004.npz") == 4
        resumed.train(wiki_tables)
        actual = resumed.save_checkpoint(tmp_path / "resumed").read_bytes()
        assert actual == expected, "degraded snapshot did not resume clean"

    def test_hung_worker_run_completes_unattended(
            self, make_model, wiki_tables, tmp_path):
        """Acceptance: a hung worker is detected within the configured
        deadline and the run completes without manual intervention."""
        registry = MetricsRegistry()
        plan = FaultPlan((FaultSpec("hang", step=2, worker=0,
                                    seconds=120),))
        clean = Pretrainer(make_model("bert"), elastic_config(4),
                           clock=FixedClock())
        clean.train(wiki_tables)
        expected = clean.save_checkpoint(tmp_path / "clean").read_bytes()

        with using_registry(registry):
            trainer = Pretrainer(make_model("bert"),
                                 elastic_config(4, faults=plan),
                                 clock=FixedClock())
            trainer.train(wiki_tables)
        actual = trainer.save_checkpoint(tmp_path / "hung").read_bytes()
        assert actual == expected
        assert registry.counter("parallel.worker_deaths").value == 1
        assert registry.counter("parallel.respawns").value == 1
