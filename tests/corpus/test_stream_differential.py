"""Differential equivalence: streamed training must equal materialized.

The streaming layer's contract is "streamed ≡ materialized, any worker
count, any failure": how a corpus is *delivered* — whole list or bounded
shard window — is pure scheduling and must never move a checkpoint bit.
The parent draws and masks every batch whatever the corpus, and workers
receive its masked shard slices.  These tests enforce the contract at
the strongest level available, the bytes of saved checkpoint archives,
for all three generators, serial and 4-worker runs, fault-injected runs,
an infinite stream under workers, and finite and mid-infinite-stream
resumes.
"""

import functools

import pytest

from repro.corpus import MaterializedCorpus
from repro.nn.io import CheckpointError
from repro.parallel import FixedClock, ParallelConfig, parse_fault_plan
from repro.pretrain import EmptyCorpusError, Pretrainer, PretrainConfig

from .conftest import SHARD_TABLES

KINDS = ("wiki", "git", "infobox")

#: Supervisor settings tuned for tests: fast detection, fast respawn.
_FAST = dict(heartbeat_interval=0.1, step_deadline=2.0,
             respawn_backoff=0.01)


def pretrain_config(workers=None, faults=None, **overrides) -> PretrainConfig:
    parallel = None
    if workers is not None:
        supervisor = dict(_FAST) if faults is not None else {}
        parallel = ParallelConfig(workers=workers, shard_size=1,
                                  faults=faults, **supervisor)
    settings = dict(steps=8, batch_size=4, seed=0, parallel=parallel)
    settings.update(overrides)
    return PretrainConfig(**settings)


def checkpoint_bytes(make_model, corpus, config, tmp_path, tag,
                     checkpoint_dir=None):
    trainer = Pretrainer(make_model(), config, clock=FixedClock())
    trainer.train(corpus, checkpoint_dir=checkpoint_dir)
    return trainer.save_checkpoint(tmp_path / tag).read_bytes()


class TestStreamedVsMaterialized:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("workers", (1, 4))
    def test_checkpoint_bytes_equal(self, kind, workers, make_model,
                                    stream_factory, tmp_path):
        config = pretrain_config(workers)
        stream = stream_factory(kind)
        expected = checkpoint_bytes(
            make_model, stream.materialize(), config, tmp_path, "mat")
        actual = checkpoint_bytes(
            make_model, stream_factory(kind), config, tmp_path, "stream")
        assert actual == expected, (
            f"{kind}: streamed workers={workers} checkpoint differs from "
            f"materialized")

    def test_window_capacity_is_scheduling(self, make_model, stream_factory,
                                           tmp_path):
        """stream_window is excluded from checkpoint config and from the
        training numerics: a 2-shard window trains the same bytes as an
        8-shard window."""
        archives = {}
        for window in (2, 8):
            archives[window] = checkpoint_bytes(
                make_model, stream_factory("wiki"),
                pretrain_config(stream_window=window), tmp_path,
                f"win{window}")
        assert archives[2] == archives[8]

    def test_fault_injected_run_regenerates_shards_bit_identically(
            self, make_model, stream_factory, tmp_path):
        """die@5:1 kills worker 1 mid-run; its replacement is sent the
        lost shards' slices again, and the checkpoint still byte-equals
        an unfaulted materialized run."""
        expected = checkpoint_bytes(
            make_model, stream_factory("wiki").materialize(),
            pretrain_config(4), tmp_path, "mat")
        actual = checkpoint_bytes(
            make_model, stream_factory("wiki"),
            pretrain_config(4, faults=parse_fault_plan("die@5:1")),
            tmp_path, "faulted")
        assert actual == expected

    def test_finite_stream_resume_bit_identical(self, make_model,
                                                stream_factory, tmp_path):
        reference = checkpoint_bytes(
            make_model, stream_factory("wiki").materialize(),
            pretrain_config(checkpoint_every=4), tmp_path, "reference")

        snapshots = tmp_path / "snapshots"
        checkpoint_bytes(make_model, stream_factory("wiki"),
                         pretrain_config(checkpoint_every=4), tmp_path,
                         "first", checkpoint_dir=snapshots)
        resumed = Pretrainer(make_model(),
                             pretrain_config(checkpoint_every=4),
                             clock=FixedClock())
        assert resumed.resume(snapshots / "ckpt-00000004.npz") == 4
        resumed.train(stream_factory("wiki"))
        actual = resumed.save_checkpoint(tmp_path / "resumed").read_bytes()
        assert actual == reference


class TestTurlStreamedShards:
    """TURL trains MLM and MER: its entity-recovery rows are gathered from
    the shard slices workers receive, also after a kill."""

    @pytest.mark.parametrize("faults", (None, "die@5:1"),
                             ids=("workers4", "die@5:1"))
    def test_checkpoint_bytes_equal_materialized(self, faults, make_model,
                                                 stream_factory, tmp_path):
        make_turl = functools.partial(make_model, "turl")
        expected = checkpoint_bytes(
            make_turl, stream_factory("wiki").materialize(),
            pretrain_config(4), tmp_path, "mat")
        plan = None if faults is None else parse_fault_plan(faults)
        trainer = Pretrainer(make_turl(), pretrain_config(4, faults=plan),
                             clock=FixedClock())
        history = trainer.train(stream_factory("wiki"))
        assert all(record.mer_loss > 0 for record in history)
        actual = trainer.save_checkpoint(tmp_path / "stream").read_bytes()
        assert actual == expected


class TestInfiniteStream:
    @pytest.mark.parametrize("faults", (None, "die@5:1"),
                             ids=("workers4", "die@5:1"))
    def test_workers_bytes_equal_serial(self, faults, make_model,
                                        stream_factory, tmp_path):
        """An infinite stream is drawn in order in the parent: 4 workers,
        also with one killed at step 5, train the serial run's bytes."""
        expected = checkpoint_bytes(
            make_model, stream_factory("wiki", size=None), pretrain_config(1),
            tmp_path, "serial")
        plan = None if faults is None else parse_fault_plan(faults)
        actual = checkpoint_bytes(
            make_model, stream_factory("wiki", size=None),
            pretrain_config(4, faults=plan), tmp_path, "workers")
        assert actual == expected

    def test_mid_stream_resume_bit_identical(self, make_model,
                                             stream_factory, tmp_path):
        """Resume re-derives the cursor from the history length and
        re-enters the stream exactly where the checkpoint left it."""
        config = pretrain_config(checkpoint_every=4)
        full = Pretrainer(make_model(), config, clock=FixedClock())
        snapshots = tmp_path / "snapshots"
        full.train(stream_factory("wiki", size=None),
                   checkpoint_dir=snapshots)
        expected = full.save_checkpoint(tmp_path / "full").read_bytes()

        resumed = Pretrainer(make_model(), config, clock=FixedClock())
        assert resumed.resume(snapshots / "ckpt-00000004.npz") == 4
        resumed.train(stream_factory("wiki", size=None))
        actual = resumed.save_checkpoint(tmp_path / "resumed").read_bytes()
        assert actual == expected

    def test_resume_with_different_stream_rejected(self, make_model,
                                                   stream_factory, tmp_path):
        config = pretrain_config(checkpoint_every=4)
        trainer = Pretrainer(make_model(), config, clock=FixedClock())
        snapshots = tmp_path / "snapshots"
        trainer.train(stream_factory("wiki", size=None),
                      checkpoint_dir=snapshots)

        resumed = Pretrainer(make_model(), config, clock=FixedClock())
        resumed.resume(snapshots / "ckpt-00000004.npz")
        with pytest.raises(CheckpointError, match="fingerprint"):
            resumed.train(stream_factory("wiki", size=None, seed=99))

    def test_resume_with_finite_corpus_rejected(self, make_model,
                                                stream_factory, tmp_path):
        config = pretrain_config(checkpoint_every=4)
        trainer = Pretrainer(make_model(), config, clock=FixedClock())
        snapshots = tmp_path / "snapshots"
        trainer.train(stream_factory("wiki", size=None),
                      checkpoint_dir=snapshots)

        resumed = Pretrainer(make_model(), config, clock=FixedClock())
        resumed.resume(snapshots / "ckpt-00000004.npz")
        with pytest.raises(CheckpointError, match="fingerprint"):
            resumed.train(stream_factory("wiki").materialize())

    def test_sequential_checkpoint_records_cursor(self, make_model,
                                                  stream_factory):
        trainer = Pretrainer(make_model(), pretrain_config(steps=4),
                             clock=FixedClock())
        trainer.train(stream_factory("wiki", size=None))
        saved = trainer.capture().config
        assert saved["stream"] == {
            "mode": "sequential",
            "fingerprint": stream_factory("wiki", size=None).fingerprint(),
            "cursor": 4 * 4,   # steps * batch_size tables consumed
        }


class TestCheckpointConfig:
    def test_finite_stream_leaves_no_trace_in_config(self, make_model,
                                                     stream_factory):
        """Finite streaming is scheduling: the checkpoint config of a
        streamed run is exactly that of a materialized run."""
        streamed = Pretrainer(make_model(), pretrain_config(steps=2),
                              clock=FixedClock())
        streamed.train(stream_factory("wiki"))
        saved = streamed.capture().config
        assert saved["stream"] is None
        assert "stream_window" not in saved


class TestWorkerDescriptors:
    """What workers are sent: the parent's masked shard slices, never a
    reference into the corpus."""

    def test_rebinding_a_corpus_reaches_the_workers(
            self, make_model, stream_factory, tmp_path):
        """Workers never read the corpus, so rebinding one needs no
        re-fork.  Two steps on one stream and two on another must train
        the same bytes with 2 workers as with 1."""
        archives = {}
        for workers in (1, 2):
            trainer = Pretrainer(make_model(), pretrain_config(workers),
                                 clock=FixedClock())
            first, second = (stream_factory("wiki", seed=seed)
                             for seed in (0, 1))
            try:
                for corpus in (first, first, second, second):
                    trainer.train_step(corpus)
            finally:
                trainer.close()
            archives[workers] = trainer.save_checkpoint(
                tmp_path / f"w{workers}").read_bytes()
        assert archives[2] == archives[1]


class TestEmptyCorpus:
    def test_empty_list_rejected_up_front(self, make_model):
        trainer = Pretrainer(make_model(), pretrain_config())
        with pytest.raises(EmptyCorpusError):
            trainer.train([])

    def test_empty_stream_rejected_up_front(self, make_model):
        trainer = Pretrainer(make_model(), pretrain_config())
        with pytest.raises(EmptyCorpusError):
            trainer.train(MaterializedCorpus([], shard_tables=SHARD_TABLES))

    def test_sanitize_check_rejects_empty(self, make_model):
        trainer = Pretrainer(make_model(), pretrain_config())
        with pytest.raises(EmptyCorpusError):
            trainer.sanitize_check([])
