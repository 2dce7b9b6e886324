"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--kind", "wiki", "--size", "8",
                 "--out", str(out)]) == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("corpus", "encode", "pretrain", "behavioral"):
            args = parser.parse_args(
                [command] + (["--out", "x"] if command == "corpus" else
                             ["dummy"] + (["--out", "x"]
                                          if command == "pretrain" else [])))
            assert args.command == command

    @pytest.mark.parametrize("argv", [
        ["pretrain", "corpus", "--out", "bundle"],
        ["predict", "requests.jsonl", "corpus"],
        ["serve", "corpus"],
    ], ids=lambda argv: argv[0])
    def test_removed_compile_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--compile"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "repro: error: unrecognized arguments: --compile")
        assert "Traceback" not in err


class TestCorpusCommand:
    def test_writes_csvs_and_manifest(self, corpus_dir):
        csvs = list(corpus_dir.glob("*.csv"))
        assert len(csvs) == 8
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert len(manifest) == 8
        assert all("table_id" in entry for entry in manifest)

    def test_git_kind(self, tmp_path):
        assert main(["corpus", "--kind", "git", "--size", "3",
                     "--out", str(tmp_path / "git")]) == 0
        assert len(list((tmp_path / "git").glob("*.csv"))) == 3

    def test_infobox_kind(self, tmp_path):
        assert main(["corpus", "--kind", "infobox", "--size", "3",
                     "--out", str(tmp_path / "ib")]) == 0
        assert len(list((tmp_path / "ib").glob("*.csv"))) == 3

    def test_shards_dry_run_prints_fingerprints(self, tmp_path, capsys):
        argv = ["corpus", "--kind", "wiki", "--size", "10",
                "--shard-tables", "4", "--shards"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "stream_fingerprint=" in lines[0]
        assert len(lines) == 1 + 3          # header + ceil(10/4) shards
        assert "shard    2: tables=2" in lines[3]
        assert not list(tmp_path.iterdir())  # dry run writes nothing
        # Determinism: a second invocation prints identical fingerprints.
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_shard_tables_does_not_change_count(self, tmp_path):
        assert main(["corpus", "--kind", "wiki", "--size", "5",
                     "--shard-tables", "2",
                     "--out", str(tmp_path / "sharded")]) == 0
        assert len(list((tmp_path / "sharded").glob("*.csv"))) == 5


class TestEncodeCommand:
    def test_encode_prints_summary(self, corpus_dir, capsys):
        table = sorted(corpus_dir.glob("*.csv"))[0]
        assert main(["encode", str(table), "--model", "bert"]) == 0
        out = capsys.readouterr().out
        assert "table embedding" in out
        assert "top-3 cells" in out

    def test_unknown_model_rejected(self, corpus_dir):
        table = sorted(corpus_dir.glob("*.csv"))[0]
        with pytest.raises(SystemExit):
            main(["encode", str(table), "--model", "gpt9"])


class TestPretrainCommand:
    def test_pretrain_saves_bundle(self, corpus_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["pretrain", str(corpus_dir), "--model", "bert",
                     "--steps", "3", "--dim", "16", "--layers", "1",
                     "--out", str(bundle)]) == 0
        assert (bundle / "weights.npz").exists()
        assert (bundle / "tokenizer.json").exists()
        assert "loss" in capsys.readouterr().out

    def test_encode_with_bundle(self, corpus_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle2"
        main(["pretrain", str(corpus_dir), "--model", "bert", "--steps", "2",
              "--dim", "16", "--layers", "1", "--out", str(bundle)])
        table = sorted(corpus_dir.glob("*.csv"))[0]
        assert main(["encode", str(table), "--model", str(bundle)]) == 0
        assert "bert" in capsys.readouterr().out

    def test_empty_corpus_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["pretrain", str(tmp_path), "--out", str(tmp_path / "b")])

    def test_streamed_pretrain_saves_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "stream-bundle"
        assert main(["pretrain", "wiki", "--stream", "--corpus-size", "12",
                     "--shard-tables", "4", "--model", "bert",
                     "--steps", "3", "--dim", "16", "--layers", "1",
                     "--vocab-size", "400", "--out", str(bundle)]) == 0
        assert (bundle / "weights.npz").exists()
        out = capsys.readouterr().out
        assert "streamed wiki corpus (12 tables)" in out

    def test_streamed_equals_materialized_checkpoints(self, tmp_path):
        """The CLI-level differential: --materialize must not move a
        checkpoint byte relative to the streamed run."""
        snapshots = {}
        for mode, extra in (("stream", []), ("mat", ["--materialize"])):
            ckpts = tmp_path / f"ckpt-{mode}"
            assert main(["pretrain", "wiki", "--stream",
                         "--corpus-size", "12", "--shard-tables", "4",
                         "--model", "bert", "--steps", "4",
                         "--dim", "16", "--layers", "1",
                         "--vocab-size", "400", "--fixed-clock",
                         "--checkpoint-dir", str(ckpts),
                         "--checkpoint-every", "4",
                         "--out", str(tmp_path / f"b-{mode}")] + extra) == 0
            snapshots[mode] = (ckpts / "ckpt-00000004.npz").read_bytes()
        assert snapshots["stream"] == snapshots["mat"]


class TestBehavioralCommand:
    def test_report_printed(self, corpus_dir, capsys):
        code = main(["behavioral", str(corpus_dir), "--model", "tapas"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[INV]" in out and "[MFT]" in out


class TestProfileCommand:
    @pytest.fixture(scope="class")
    def big_corpus_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("profile-corpus")
        assert main(["corpus", "--kind", "wiki", "--size", "12",
                     "--out", str(out)]) == 0
        return out

    def test_profile_prints_op_table_and_writes_metrics(self, big_corpus_dir,
                                                        tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        assert main(["profile", str(big_corpus_dir), "--model", "bert",
                     "--steps", "2", "--epochs", "1", "--dim", "16",
                     "--layers", "1", "--vocab-size", "500",
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "tape profile (per-op)" in out
        assert "matmul" in out
        events = [json.loads(line)
                  for line in metrics.read_text().splitlines()]
        kinds = {event["kind"] for event in events}
        assert {"train_step", "profile_op", "pipeline_run"} <= kinds

    def test_profile_rejects_small_corpus(self, corpus_dir):
        with pytest.raises(SystemExit):
            main(["profile", str(corpus_dir)])


class TestOperatorErrors:
    """Bad paths and corrupt artifacts exit 2 with a one-line message."""

    def _assert_fails_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_pretrain_missing_corpus(self, tmp_path, capsys):
        self._assert_fails_cleanly(
            ["pretrain", str(tmp_path / "nope"), "--out", str(tmp_path / "b")],
            capsys)

    def test_corpus_without_out_or_shards(self, capsys):
        self._assert_fails_cleanly(["corpus", "--kind", "wiki"], capsys)

    def test_corpus_zero_size(self, tmp_path, capsys):
        self._assert_fails_cleanly(
            ["corpus", "--size", "0", "--out", str(tmp_path / "x")], capsys)

    def test_stream_with_unknown_kind(self, tmp_path, capsys):
        self._assert_fails_cleanly(
            ["pretrain", "parquet", "--stream", "--steps", "2",
             "--out", str(tmp_path / "b")], capsys)

    def test_materialize_without_stream(self, corpus_dir, tmp_path, capsys):
        self._assert_fails_cleanly(
            ["pretrain", str(corpus_dir), "--materialize", "--steps", "2",
             "--out", str(tmp_path / "b")], capsys)

    def test_materialize_infinite_stream(self, tmp_path, capsys):
        self._assert_fails_cleanly(
            ["pretrain", "wiki", "--stream", "--corpus-size", "0",
             "--materialize", "--steps", "2", "--out", str(tmp_path / "b")],
            capsys)

    def test_encode_missing_table(self, tmp_path, capsys):
        self._assert_fails_cleanly(["encode", str(tmp_path / "nope.csv")],
                                   capsys)

    def test_profile_missing_corpus(self, tmp_path, capsys):
        self._assert_fails_cleanly(["profile", str(tmp_path / "nope")],
                                   capsys)

    def test_pretrain_missing_resume_path(self, corpus_dir, tmp_path, capsys):
        self._assert_fails_cleanly(
            ["pretrain", str(corpus_dir), "--steps", "2",
             "--resume", str(tmp_path / "nope.npz"),
             "--out", str(tmp_path / "b")], capsys)

    def test_pretrain_resume_malformed_meta(self, corpus_dir, tmp_path,
                                            capsys):
        from repro.nn.io import write_npz_atomic
        import numpy as np

        bad = write_npz_atomic(tmp_path / "bad.npz", {
            "meta": np.array(json.dumps({"format_version": 1}))})
        self._assert_fails_cleanly(
            ["pretrain", str(corpus_dir), "--steps", "2", "--dim", "16",
             "--layers", "1", "--resume", str(bad),
             "--out", str(tmp_path / "b")], capsys)

    def test_encode_corrupt_bundle(self, corpus_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["pretrain", str(corpus_dir), "--model", "bert",
                     "--steps", "2", "--dim", "16", "--layers", "1",
                     "--out", str(bundle)]) == 0
        weights = bundle / "weights.npz"
        weights.write_bytes(weights.read_bytes()[:40])
        table = sorted(corpus_dir.glob("*.csv"))[0]
        capsys.readouterr()
        self._assert_fails_cleanly(
            ["encode", str(table), "--model", str(bundle)], capsys)

    def test_encode_bundle_config_not_an_object(self, corpus_dir, tmp_path,
                                                capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "config.json").write_text(
            json.dumps([{"model_name": "bert"}]))
        table = sorted(corpus_dir.glob("*.csv"))[0]
        self._assert_fails_cleanly(
            ["encode", str(table), "--model", str(bundle)], capsys)


class TestCheckpointResumeCli:
    def test_checkpoint_dir_and_resume(self, corpus_dir, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        common = ["pretrain", str(corpus_dir), "--model", "bert",
                  "--steps", "6", "--dim", "16", "--layers", "1"]
        assert main(common + ["--checkpoint-dir", str(ckpts),
                              "--checkpoint-every", "3",
                              "--out", str(tmp_path / "b1")]) == 0
        snapshots = sorted(p.name for p in ckpts.glob("ckpt-*.npz"))
        assert snapshots == ["ckpt-00000003.npz", "ckpt-00000006.npz"]
        assert all((ckpts / f"{name}.manifest.json").exists()
                   for name in snapshots)

        assert main(common + ["--resume", str(ckpts / "ckpt-00000003.npz"),
                              "--out", str(tmp_path / "b2")]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out

        import numpy as np
        first = np.load(tmp_path / "b1" / "weights.npz")
        second = np.load(tmp_path / "b2" / "weights.npz")
        assert all(np.array_equal(first[name], second[name])
                   for name in first.files)

    def test_resume_from_directory_picks_newest(self, corpus_dir, tmp_path,
                                                capsys):
        ckpts = tmp_path / "ckpts"
        common = ["pretrain", str(corpus_dir), "--model", "bert",
                  "--steps", "4", "--dim", "16", "--layers", "1"]
        assert main(common + ["--checkpoint-dir", str(ckpts),
                              "--checkpoint-every", "2",
                              "--out", str(tmp_path / "b1")]) == 0
        assert main(common + ["--resume", str(ckpts),
                              "--out", str(tmp_path / "b2")]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "nothing to train" in out


class TestPretrainMetricsOut:
    def test_pretrain_writes_metrics_artifact(self, corpus_dir, tmp_path):
        metrics = tmp_path / "pretrain.jsonl"
        assert main(["pretrain", str(corpus_dir), "--model", "bert",
                     "--steps", "2", "--dim", "16", "--layers", "1",
                     "--out", str(tmp_path / "bundle"),
                     "--metrics-out", str(metrics)]) == 0
        events = [json.loads(line)
                  for line in metrics.read_text().splitlines()]
        assert len(events) == 2
        assert all(e["kind"] == "train_step" and e["source"] == "pretrain"
                   for e in events)
