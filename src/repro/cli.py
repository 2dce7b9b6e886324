"""Command-line interface: the tutorial's workflow without writing code.

Subcommands mirror the hands-on session's stages:

- ``repro corpus``     generate a synthetic table corpus to CSV files;
- ``repro encode``     encode a CSV table and summarize the result (§3.1);
- ``repro pretrain``   pretrain a model over a corpus and save the bundle
  (§3.3);
- ``repro behavioral`` run the §2.4 behavioral battery on a model;
- ``repro profile``    run the Fig. 1 pipeline under the tape profiler and
  print the per-op cost table;
- ``repro predict``    answer a JSONL file of requests through the
  batched/cached inference engine (``repro.serve``);
- ``repro serve``      the same engine behind a local HTTP loop, optionally
  replicated (``--replicas``) with admission control and deadlines;
  ``--sanitize-threads`` wraps every lock in the runtime lock sanitizer;
- ``repro check``      statically validate model × task × serializer
  wiring with symbolic shapes — zero forward passes (``repro.analysis``);
  ``--concurrency`` runs the static race / lock-order analysis instead;
- ``repro lint``       run the repo's AST lint rules over source trees
  (including the whole-tree concurrency rules REPRO008/REPRO009).

Every command is pure-stdout and deterministic given ``--seed``.
``encode``, ``pretrain``, ``profile``, ``predict`` and ``serve`` all
accept ``--metrics-out PATH`` (one shared parent parser) to capture
telemetry as a JSONL artifact (see ``repro.runtime``).  ``repro pretrain`` is
fault-tolerant: ``--checkpoint-dir``/``--checkpoint-every`` write periodic
full-state snapshots and ``--resume PATH`` continues an interrupted run
bit-identically.  ``--workers N`` shards each step across N forked worker
processes through :mod:`repro.parallel`; the deterministic fixed-order
all-reduce keeps checkpoints byte-identical to ``--workers 1`` (add
``--fixed-clock`` to pin the wall-time fields too).  Operator errors
(missing paths, corrupt bundles or checkpoints) exit with code 2 and a
one-line message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Neural table representations: models and practice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every telemetry-capable subcommand so the flag reads the
    # same everywhere.
    metrics_parent = argparse.ArgumentParser(add_help=False)
    metrics_parent.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write telemetry events to this JSONL file")

    corpus = sub.add_parser("corpus", help="generate a synthetic table corpus")
    corpus.add_argument("--kind", choices=("wiki", "git", "infobox"),
                        default="wiki")
    corpus.add_argument("--size", type=int, default=20)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--shard-tables", type=int, default=64,
                        help="tables per deterministically seeded shard")
    corpus.add_argument("--shards", action="store_true",
                        help="dry run: print per-shard fingerprints instead "
                             "of writing tables (debugs determinism drift)")
    corpus.add_argument("--out", default=None,
                        help="output directory (required unless --shards)")

    encode = sub.add_parser("encode", help="encode a CSV table (Fig. 2a)",
                            parents=[metrics_parent])
    encode.add_argument("table", help="path to a CSV file")
    encode.add_argument("--model", default="tapas",
                        help="model name or pretrained bundle directory")
    encode.add_argument("--context", default="", help="context/question text")
    encode.add_argument("--seed", type=int, default=0)
    encode.add_argument("--top-cells", type=int, default=3,
                        help="cells to list by attention attribution")

    pretrain = sub.add_parser("pretrain",
                              help="pretrain over a corpus directory of CSVs",
                              parents=[metrics_parent])
    pretrain.add_argument("corpus", help="directory containing *.csv tables")
    pretrain.add_argument("--model", default="turl")
    pretrain.add_argument("--steps", type=int, default=60)
    pretrain.add_argument("--batch-size", type=int, default=8)
    pretrain.add_argument("--learning-rate", type=float, default=3e-3)
    pretrain.add_argument("--vocab-size", type=int, default=1200)
    pretrain.add_argument("--dim", type=int, default=32)
    pretrain.add_argument("--layers", type=int, default=2)
    pretrain.add_argument("--seed", type=int, default=0)
    pretrain.add_argument("--out", required=True,
                          help="bundle output directory")
    pretrain.add_argument("--checkpoint-dir", default=None,
                          help="write periodic trainer snapshots here")
    pretrain.add_argument("--checkpoint-every", type=int, default=0,
                          help="snapshot cadence in steps (0 disables; "
                               "defaults to 10 when --checkpoint-dir is set)")
    pretrain.add_argument("--keep-checkpoints", type=int, default=3,
                          help="snapshots retained on disk (last K)")
    pretrain.add_argument("--resume", default=None, metavar="PATH",
                          help="checkpoint file or snapshot directory to "
                               "resume from")
    pretrain.add_argument("--sanitize", action="store_true",
                          help="trace one preflight forward and report tape "
                               "findings (dead parameters, float64 creep, "
                               "NaN-prone fan-out) before training")
    pretrain.add_argument("--workers", type=int, default=1,
                          help="data-parallel worker processes; any value "
                               "trains bit-identically to --workers 1")
    pretrain.add_argument("--shard-size", type=int, default=0,
                          help="rows per gradient micro-shard "
                               "(0 = auto: batch split four ways)")
    # Hidden operator/testing knobs for the elastic worker supervisor:
    # --inject-faults stages deterministic worker failures
    # (KIND@STEP:WORKER[:SECONDS], comma-separated; kinds die/hang/delay)
    # and --step-deadline bounds how long the supervisor waits for one
    # dispatched step before reaping the worker.
    pretrain.add_argument("--inject-faults", default=None, metavar="PLAN",
                          help=argparse.SUPPRESS)
    pretrain.add_argument("--step-deadline", type=float, default=None,
                          metavar="SECONDS", help=argparse.SUPPRESS)
    pretrain.add_argument("--fixed-clock", action="store_true",
                          help="use a deterministic step clock so wall-time "
                               "fields (and checkpoint bytes) are "
                               "reproducible across runs and machines")
    pretrain.add_argument("--stream", action="store_true",
                          help="treat CORPUS as a generator kind (wiki, git, "
                               "infobox) and stream deterministically seeded "
                               "shards on demand instead of loading a "
                               "directory of CSVs")
    pretrain.add_argument("--corpus-size", type=int, default=256,
                          help="tables in the streamed corpus "
                               "(0 = infinite; only with --stream)")
    pretrain.add_argument("--corpus-seed", type=int, default=None,
                          help="stream corpus seed (defaults to --seed)")
    pretrain.add_argument("--shard-tables", type=int, default=64,
                          help="tables per streamed shard (with --stream)")
    pretrain.add_argument("--stream-window", type=int, default=8,
                          help="max generated shards resident in memory; "
                               "pure cache — never changes training bytes")
    pretrain.add_argument("--materialize", action="store_true",
                          help="load the whole stream into memory before "
                               "training (differential debugging; "
                               "byte-identical to the streamed run)")

    prof = sub.add_parser(
        "profile",
        help="run the Fig. 1 pipeline under the autograd-tape profiler",
        parents=[metrics_parent])
    prof.add_argument("corpus", help="directory containing *.csv tables")
    prof.add_argument("--model", default="bert")
    prof.add_argument("--steps", type=int, default=10,
                      help="pretraining steps")
    prof.add_argument("--epochs", type=int, default=1,
                      help="fine-tuning epochs")
    prof.add_argument("--vocab-size", type=int, default=1200)
    prof.add_argument("--dim", type=int, default=32)
    prof.add_argument("--layers", type=int, default=2)
    prof.add_argument("--seed", type=int, default=0)

    behavioral = sub.add_parser(
        "behavioral", help="run the §2.4 behavioral battery on a model")
    behavioral.add_argument("corpus", help="directory containing *.csv tables")
    behavioral.add_argument("--model", default="tapas",
                            help="model name or pretrained bundle directory")
    behavioral.add_argument("--seed", type=int, default=0)

    predict = sub.add_parser(
        "predict",
        help="answer a JSONL request file through the inference engine",
        parents=[metrics_parent])
    predict.add_argument("requests", help="JSONL file; each line is "
                         '{"task": ..., <task inputs>}')
    predict.add_argument("corpus", help="directory containing *.csv tables "
                         "(seeds vocabularies and the retrieval corpus)")
    predict.add_argument("--model", default="tapas",
                         help="model name or pretrained bundle directory")
    predict.add_argument("--out", default=None, metavar="PATH",
                         help="write responses to this JSONL file "
                              "(default: stdout)")
    predict.add_argument("--cache-entries", type=int, default=128)
    predict.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="serve the inference engine over local HTTP",
        parents=[metrics_parent])
    serve.add_argument("corpus", help="directory containing *.csv tables "
                       "(seeds vocabularies and the retrieval corpus)")
    serve.add_argument("--model", default="tapas",
                       help="model name or pretrained bundle directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--max-batch", type=int, default=8,
                       help="most requests the front-end sends to one "
                            "replica at a time")
    serve.add_argument("--cache-entries", type=int, default=128)
    serve.add_argument("--max-requests", type=int, default=None,
                       help="exit after this many HTTP requests "
                            "(default: run forever)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="forked model replicas behind the front-end "
                            "(0 = serve in-process)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission queue bound; overflow is shed with "
                            "a retryable 503")
    serve.add_argument("--deadline-ms", type=float, default=0.0,
                       help="per-request deadline in milliseconds "
                            "(0 = no deadline)")
    serve.add_argument("--verbose", action="store_true",
                       help="emit HTTP request lines through the runtime "
                            "event stream (visible via --metrics-out)")
    serve.add_argument("--sanitize-threads", action="store_true",
                       help="wrap every lock the serving stack creates in "
                            "the runtime lock sanitizer; report lock-order "
                            "inversions and long holds at shutdown and "
                            "exit 1 on violations")
    serve.add_argument("--seed", type=int, default=0)

    check = sub.add_parser(
        "check",
        help="statically validate model x task wiring (no forward passes)")
    check.add_argument("--model", default=None,
                       help="model family to check (default: every family)")
    check.add_argument("--task", default=None,
                       help="task head to check (default: every task)")
    check.add_argument("--all", action="store_true",
                       help="check every model x task pair explicitly")
    check.add_argument("--serializer", default="row_major",
                       help="serialization strategy to validate against")
    check.add_argument("--numeric", action="store_true",
                       help="also finite-difference check one sampled "
                            "layer per model (runs real forwards)")
    check.add_argument("--concurrency", action="store_true",
                       help="run the static race / lock-order analysis "
                            "(REPRO008/REPRO009) over the installed "
                            "repro package and print the guard map")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--verbose", action="store_true",
                       help="print the full stage trace for passing pairs")

    lint = sub.add_parser("lint", help="run the repo AST lint rules")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids to enable "
                           "(default: all)")

    return parser


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _fail(message: str) -> "NoReturn":  # noqa: F821 — quoted to stay lazy
    """One-line operator error: print to stderr and exit with code 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_corpus_dir(directory: str) -> list:
    from .tables import load_table

    root = Path(directory)
    if not root.is_dir():
        _fail(f"corpus directory not found: {directory}")
    paths = sorted(root.glob("*.csv"))
    if not paths:
        _fail(f"no *.csv files found in {directory}")
    return [load_table(path) for path in paths]


def _resolve_model(spec: str, tables: list, seed: int):
    """A model name builds a fresh model; a directory loads a bundle."""
    from .core import build_tokenizer_for_tables, create_model, load_pretrained
    from .models import MODEL_CLASSES
    from .nn import CheckpointError

    if Path(spec).is_dir():
        try:
            return load_pretrained(spec)
        except (CheckpointError, ValueError) as error:
            _fail(f"cannot load bundle {spec}: {error}")
    if spec not in MODEL_CLASSES:
        _fail(f"unknown model {spec!r}; choose one of {sorted(MODEL_CLASSES)} "
              "or pass a bundle directory")
    tokenizer = build_tokenizer_for_tables(tables)
    return create_model(spec, tokenizer, seed=seed)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import open_stream, shard_fingerprint
    from .tables import save_table

    if args.size < 1:
        _fail("--size must be at least 1")
    if args.shard_tables < 1:
        _fail("--shard-tables must be at least 1")
    stream = open_stream(args.kind, size=args.size, seed=args.seed,
                         shard_tables=args.shard_tables)

    if args.shards:
        # Dry run: the per-shard fingerprints are a stable signature of
        # the generator output, so two builds (or two machines) can be
        # diffed for determinism drift without writing a byte to disk.
        print(f"kind={args.kind} seed={args.seed} size={args.size} "
              f"shard_tables={args.shard_tables} "
              f"shards={stream.num_shards} "
              f"stream_fingerprint={stream.fingerprint()}")
        for index, shard in enumerate(stream):
            print(f"shard {index:4d}: tables={len(shard)} "
                  f"fingerprint={shard_fingerprint(shard)}")
        return 0

    if args.out is None:
        _fail("--out is required unless --shards is given")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for table in stream.iter_tables():  # one shard resident at a time
        path = save_table(table, out / f"{table.table_id}.csv")
        manifest.append({
            "table_id": table.table_id,
            "file": path.name,
            "rows": table.num_rows,
            "columns": table.num_columns,
            "title": table.context.title,
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(manifest)} {args.kind} tables to {out}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from .tables import load_table
    from .viz import attention_attribution

    if not Path(args.table).is_file():
        _fail(f"table file not found: {args.table}")
    table = load_table(args.table, title=args.context)
    model = _resolve_model(args.model, [table], args.seed)
    with _metrics_scope(args.metrics_out):
        encoding = model.encode(table, context=args.context or None)
        attribution = attention_attribution(model, table,
                                            context=args.context or None)

    print(f"table: {table}")
    print(f"model: {model.model_name} ({model.num_parameters()} parameters)")
    print(f"serialized tokens: {len(encoding)}")
    print(f"table embedding: dim={encoding.dim} "
          f"norm={float(np.linalg.norm(encoding.table_embedding)):.3f}")
    print(f"cell embeddings: {len(encoding.cell_embeddings)}; "
          f"column embeddings: {len(encoding.column_embeddings)}")
    print(f"\ntop-{args.top_cells} cells by [CLS] attention:")
    for (row, column), score in attribution.top_cells(args.top_cells):
        value = table.cell(row, column).text()
        print(f"  ({row}, {column}) {value!r}: {score:.4f}")
    return 0


def _metrics_scope(path: str | None):
    """Attach a JSONL sink to the global registry while the block runs.

    The artifact exists afterwards even when the command emitted no
    events, so callers can always point tooling at the path.
    """
    from contextlib import contextmanager, nullcontext

    if path is None:
        return nullcontext()
    from .runtime import JsonlSink, get_registry

    @contextmanager
    def scope():
        sink = JsonlSink(path)
        with get_registry().sink_attached(sink):
            yield sink
        if sink.events_written == 0:
            Path(path).touch()

    return scope()


def _build_cli_config(tokenizer, dim: int, layers: int,
                      num_entities: int = 8):
    from .models import EncoderConfig

    # CSV corpora carry no entity annotations, so the default gives TURL
    # a small slack entity vocabulary; MER simply finds no targets and
    # MLM drives training.  Streamed corpora keep their knowledge-base
    # annotations and size the vocabulary to match.
    return EncoderConfig(
        vocab_size=len(tokenizer.vocab), dim=dim, num_heads=4,
        num_layers=layers, hidden_dim=dim * 2, max_position=192,
        num_entities=max(1, num_entities),
    )


def _cmd_pretrain(args: argparse.Namespace) -> int:
    import time

    from .core import build_tokenizer_for_tables, create_model, save_pretrained
    from .parallel import FixedClock, ParallelConfig, parse_fault_plan
    from .pretrain import Pretrainer, PretrainConfig

    if args.stream:
        from .corpus import STREAM_KINDS, open_stream

        if args.corpus not in STREAM_KINDS:
            _fail(f"--stream interprets CORPUS as a generator kind; choose "
                  f"one of {', '.join(STREAM_KINDS)}, got {args.corpus!r}")
        if args.corpus_size < 0:
            _fail("--corpus-size must be non-negative (0 = infinite)")
        if args.shard_tables < 1:
            _fail("--shard-tables must be at least 1")
        if args.stream_window < 1:
            _fail("--stream-window must be at least 1")
        corpus_seed = (args.seed if args.corpus_seed is None
                       else args.corpus_seed)
        stream = open_stream(args.corpus, size=args.corpus_size or None,
                             seed=corpus_seed,
                             shard_tables=args.shard_tables)
        # The tokenizer sees the same bounded prefix however the corpus
        # is consumed, keeping streamed and materialized checkpoints
        # byte-identical.
        vocab_tables = stream.head_tables(256)
        if args.materialize:
            if stream.is_infinite:
                _fail("--materialize cannot load an infinite stream "
                      "(--corpus-size 0) into memory")
            corpus = stream.materialize()
        else:
            corpus = stream
        size_label = ("unbounded" if stream.is_infinite
                      else f"{stream.size} tables")
        corpus_label = f"a streamed {args.corpus} corpus ({size_label})"
    else:
        if args.materialize:
            _fail("--materialize only applies to --stream runs")
        corpus = vocab_tables = _load_corpus_dir(args.corpus)
        corpus_label = f"{len(corpus)} tables"
    tokenizer = build_tokenizer_for_tables(vocab_tables,
                                           vocab_size=args.vocab_size)
    kb = getattr(stream, "kb", None) if args.stream else None
    config = _build_cli_config(
        tokenizer, args.dim, args.layers,
        num_entities=kb.num_entities if kb is not None else 8)
    model = create_model(args.model, tokenizer, config=config, seed=args.seed)
    checkpoint_every = args.checkpoint_every
    if args.checkpoint_dir and not checkpoint_every:
        checkpoint_every = 10
    try:
        # The CLI always trains through the data-parallel engine so the
        # checkpoint bytes of `--workers 1` and `--workers N` match; the
        # numeric signature stored in checkpoints only records the shard
        # decomposition, never the worker count.
        faults = (parse_fault_plan(args.inject_faults)
                  if args.inject_faults else None)
        supervisor = {}
        if args.step_deadline is not None:
            supervisor["step_deadline"] = args.step_deadline
        parallel = ParallelConfig(workers=args.workers,
                                  shard_size=args.shard_size,
                                  faults=faults, **supervisor)
        pretrain_config = PretrainConfig(
            steps=args.steps, batch_size=args.batch_size,
            learning_rate=args.learning_rate, seed=args.seed,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=args.keep_checkpoints,
            parallel=parallel, stream_window=args.stream_window)
    except ValueError as error:
        _fail(str(error))
    clock = FixedClock() if args.fixed_clock else time.perf_counter
    trainer = Pretrainer(model, pretrain_config, clock=clock)
    if args.resume is not None:
        if not Path(args.resume).exists():
            _fail(f"checkpoint path not found: {args.resume}")
        restored = trainer.resume(args.resume)
        print(f"resumed from {args.resume} at step {restored}")
    with _metrics_scope(args.metrics_out):
        if args.sanitize:
            print(trainer.sanitize_check(corpus).render())
        if len(trainer.history) < args.steps:
            history = trainer.train(corpus,
                                    checkpoint_dir=args.checkpoint_dir)
        else:
            history = trainer.history
            print("checkpoint already covers the requested steps; "
                  "nothing to train")
    print(f"pretrained {args.model} for {args.steps} steps over "
          f"{corpus_label}")
    print(f"loss: {history[0].loss:.3f} -> {history[-1].loss:.3f}")
    tokens_per_second = [r.tokens_per_second for r in history
                         if r.tokens_per_second > 0]
    if tokens_per_second:
        print(f"throughput: {np.mean(tokens_per_second):.0f} tokens/s")
    bundle = save_pretrained(model, args.out)
    print(f"bundle saved to {bundle}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core import build_tokenizer_for_tables, run_imputation_pipeline
    from .pretrain import PretrainConfig
    from .runtime import profile
    from .tasks import FinetuneConfig

    tables = _load_corpus_dir(args.corpus)
    if len(tables) < 10:
        raise SystemExit("profile needs a corpus of at least 10 tables")
    tokenizer = build_tokenizer_for_tables(tables, vocab_size=args.vocab_size)
    config = _build_cli_config(tokenizer, args.dim, args.layers)
    with _metrics_scope(args.metrics_out):
        with profile() as prof:
            result = run_imputation_pipeline(
                tables, model_name=args.model, pretrained=args.steps > 0,
                tokenizer=tokenizer, config=config,
                pretrain_config=PretrainConfig(steps=max(args.steps, 1),
                                               seed=args.seed),
                finetune_config=FinetuneConfig(epochs=args.epochs,
                                               seed=args.seed),
                seed=args.seed)
    print(result.summary())
    print()
    print(prof.table())
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_behavioral(args: argparse.Namespace) -> int:
    from .eval import run_suite

    tables = _load_corpus_dir(args.corpus)
    model = _resolve_model(args.model, tables, args.seed)
    report = run_suite(model, tables, seed=args.seed)
    print(report.render())
    failed = [r for r in report.by_kind("MFT") if r.pass_rate < 1.0]
    return 1 if failed else 0


def _build_engine(args: argparse.Namespace):
    """Shared predict/serve bootstrap: corpus → predictors → engine."""
    from .serve import InferenceEngine, RequestError, ServeConfig, build_predictor
    from .serve.requests import SERVED_TASKS

    tables = _load_corpus_dir(args.corpus)
    model = _resolve_model(args.model, tables, args.seed)
    rng = np.random.default_rng(args.seed)
    try:
        config = ServeConfig(cache_entries=args.cache_entries)
        predictors = {task: build_predictor(task, model, tables, rng)
                      for task in SERVED_TASKS}
    except (RequestError, ValueError) as error:
        _fail(str(error))
    return InferenceEngine(predictors, config)


def _cmd_predict(args: argparse.Namespace) -> int:
    from .serve import RequestError, build_example

    path = Path(args.requests)
    if not path.is_file():
        _fail(f"request file not found: {args.requests}")
    engine = _build_engine(args)
    submissions = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            task = payload.get("task")
            if not isinstance(task, str):
                raise RequestError("missing required field 'task'")
            submissions.append((task, build_example(task, payload)))
        except (json.JSONDecodeError, RequestError) as error:
            _fail(f"{args.requests}:{number}: {error}")
    if not submissions:
        _fail(f"no requests found in {args.requests}")
    with _metrics_scope(args.metrics_out):
        responses = engine.process(submissions)
    lines = [json.dumps(r.to_dict()) for r in responses]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"answered {len(responses)} requests -> {args.out}")
    else:
        for line in lines:
            print(line)
    print(f"cache: {engine.cache.hits} hits / {engine.cache.misses} misses",
          file=sys.stderr)
    return 0


class _EventEchoSink:
    """Stream serving events to stderr as they happen (`serve --verbose`).

    Unlike the table sinks this never buffers: an access-log line that
    only appears at shutdown is useless for watching a live server.
    """

    KINDS = frozenset({"http", "frontend", "concurrency"})

    def emit(self, event: dict) -> None:
        kind = event.get("kind")
        if kind not in self.KINDS:
            return
        detail = " ".join(f"{k}={v}" for k, v in event.items() if k != "kind")
        print(f"[{kind}] {detail}", file=sys.stderr, flush=True)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .parallel import WorkerError
    from .runtime import get_registry
    from .serve import ServerConfig, run_server

    sanitizer = None
    if args.sanitize_threads:
        from .analysis import LockSanitizer

        # Installed before the engine exists so every lock the serving
        # stack creates (cache, front-end, queue, registry sinks) is
        # wrapped from birth.
        sanitizer = LockSanitizer()
        sanitizer.install()
    engine = _build_engine(args)
    try:
        config = ServerConfig(host=args.host, port=args.port,
                              replicas=args.replicas, max_queue=args.max_queue,
                              deadline_ms=args.deadline_ms,
                              max_batch=args.max_batch, verbose=args.verbose,
                              max_requests=args.max_requests)
    except ValueError as error:
        _fail(str(error))
    fleet = (f"{args.replicas} replicas" if args.replicas
             else "in-process engine")
    print(f"serving {sorted(engine.predictors)} on "
          f"http://{args.host}:{args.port} (POST /v1/predict, {fleet})")
    echo = (get_registry().sink_attached(_EventEchoSink())
            if args.verbose else nullcontext())
    with _metrics_scope(args.metrics_out), echo:
        try:
            run_server(engine, config)
        except KeyboardInterrupt:
            pass
        except WorkerError as error:
            _fail(str(error))
        finally:
            if sanitizer is not None:
                sanitizer.uninstall()
                print(sanitizer.render_report(), file=sys.stderr)
    if sanitizer is not None and sanitizer.violations:
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import OpCounter, check_all, numeric_spot_check
    from .models import MODEL_CLASSES
    from .nn.tensor import set_tape_hook
    from .serialize import SERIALIZERS

    if args.concurrency:
        from .analysis import analyze_files

        package_root = Path(__file__).parent
        report = analyze_files([package_root])
        print(report.render())
        return 1 if report.findings else 0

    if args.model is not None and args.model not in MODEL_CLASSES:
        _fail(f"unknown model {args.model!r}; "
              f"choose one of {sorted(MODEL_CLASSES)}")
    if args.serializer not in SERIALIZERS:
        _fail(f"unknown serializer {args.serializer!r}; "
              f"choose one of {sorted(SERIALIZERS)}")
    models = [args.model] if args.model is not None else None
    tasks = [args.task] if args.task is not None else None

    # The counter proves the validation is static: constructors create
    # only leaf parameters, so any recorded op means a forward ran.
    counter = OpCounter()
    previous = set_tape_hook(counter)
    try:
        try:
            results = check_all(models, tasks,
                                serializer_name=args.serializer,
                                seed=args.seed)
        except KeyError as error:
            _fail(str(error.args[0]))
    finally:
        set_tape_hook(previous)

    for result in results:
        print(result.render(verbose=args.verbose))
    failures = [r for r in results if not r.ok]
    print(f"\nchecked {len(results)} pair(s): "
          f"{len(results) - len(failures)} ok, {len(failures)} failed "
          f"({counter.forward_ops} forward ops recorded)")
    if counter.forward_ops:
        _fail("static check unexpectedly executed forward ops — "
              "checker bug, treat results as unsound")
    if args.numeric:
        from .analysis.checker import build_check_fixture
        from .core import create_model

        _, tokenizer, config = build_check_fixture()
        for name in (models if models is not None else sorted(MODEL_CLASSES)):
            model = create_model(name, tokenizer, config=config,
                                 seed=args.seed)
            try:
                info = numeric_spot_check(model, seed=args.seed)
            except AssertionError as error:
                print(f"numeric FAIL {name}: {error}")
                return 1
            print(f"numeric ok   {name}: gradient of {info['layer']} "
                  "matches finite differences")
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import RULES, run_lint

    select = None
    if args.select:
        select = [rule.strip() for rule in args.select.split(",")
                  if rule.strip()]
        unknown = [rule for rule in select if rule not in RULES]
        if unknown:
            _fail(f"unknown rule(s) {unknown}; have {sorted(RULES)}")
    for path in args.paths:
        if not Path(path).exists():
            _fail(f"lint path not found: {path}")
    try:
        findings = run_lint(args.paths, select=select)
    except SyntaxError as error:
        _fail(f"cannot parse {error.filename}:{error.lineno}: {error.msg}")
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} finding(s)")
        return 1
    print(f"clean: {', '.join(args.paths)}")
    return 0


_COMMANDS = {
    "corpus": _cmd_corpus,
    "encode": _cmd_encode,
    "pretrain": _cmd_pretrain,
    "profile": _cmd_profile,
    "behavioral": _cmd_behavioral,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "check": _cmd_check,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Operator errors — nonexistent corpus/checkpoint/table paths, corrupt
    bundles or checkpoints, diverged runs — exit with code 2 and a
    one-line message instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except Exception as error:
        from .corpus import EmptyCorpusError
        from .nn import CheckpointError
        from .parallel import WorkerError
        from .runtime import TrainingDivergedError

        if isinstance(error, (CheckpointError, TrainingDivergedError,
                              WorkerError, EmptyCorpusError,
                              FileNotFoundError, NotADirectoryError,
                              IsADirectoryError, PermissionError,
                              json.JSONDecodeError)):
            _fail(str(error))
        raise


if __name__ == "__main__":
    sys.exit(main())
