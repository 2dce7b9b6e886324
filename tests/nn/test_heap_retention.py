"""Pretraining steps must not page their tape back in every step.

Importing :mod:`repro.nn.backend` tells glibc to keep freed memory in the
heap.  Without that, the allocator trims the freed tape back to the
kernel after every backward pass and the next step faults it in again:
about 10,000 minor page faults per TURL pretraining step at the default
encoder size, against about one with the memory kept.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

MAX_FAULTS_PER_STEP = 500

# A fresh interpreter, so the count sees only this workload's heap.
_PRETRAIN_SCRIPT = r"""
import resource

from repro.core import build_tokenizer_for_tables, create_model
from repro.corpus import open_stream
from repro.models import EncoderConfig
from repro.pretrain import Pretrainer, PretrainConfig

WARMUP, MEASURED = 3, 5
stream = open_stream("wiki", size=64, seed=0)
tables = stream.materialize()
tokenizer = build_tokenizer_for_tables(tables)
config = EncoderConfig(vocab_size=len(tokenizer.vocab),
                       num_entities=stream.kb.num_entities)
model = create_model("turl", tokenizer, config=config, seed=0)
trainer = Pretrainer(model, PretrainConfig(steps=WARMUP + MEASURED,
                                           batch_size=8, seed=0))
for _ in range(WARMUP):
    trainer.train_step(tables)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(MEASURED):
    trainer.train_step(tables)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / MEASURED)
"""


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_pretraining_steady_state_takes_almost_no_page_faults():
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (repo_src + os.pathsep + existing
                         if existing else repo_src)
    result = subprocess.run([sys.executable, "-c", _PRETRAIN_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    faults_per_step = float(result.stdout.strip().splitlines()[-1])
    assert faults_per_step < MAX_FAULTS_PER_STEP, (
        f"{faults_per_step:.0f} minor page faults per pretraining step")
