"""Golden digests: refactors must not move simulated output.

``golden_digests.json`` pins the sha256 of ``run_experiment(x).to_json()``
for every registered experiment that runs in about a second at its full
grid: the coalescing stages (local reads, programs, remote reads), the
queue-depth pipeline, the network figures, the QoS, fault and lifetime
scenarios, the ablations and the paper tables.  It also pins the two
deep-queue sweeps that take a few seconds each, ``gc_steady`` (volume
tenants through the host submit path) and ``dvol_qd_sweep`` (closed-loop
dvol tenants at queue depths up to 64).  A change that is
meant to be behaviour-preserving must leave every digest as committed;
a change that moves one on purpose must say why in its changelog entry.

The in-process check runs under this interpreter's hash seed; the
subprocess check pins a different ``PYTHONHASHSEED`` so an output that
depended on set or ``hash()`` order would fail one of the two.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api.registry import run_experiment

TABLE_PATH = pathlib.Path(__file__).with_name("golden_digests.json")
GOLDEN = json.loads(TABLE_PATH.read_text())


def _digest(exp_id: str) -> str:
    payload = run_experiment(exp_id).to_json().encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("exp_id", sorted(GOLDEN))
def test_experiment_matches_golden_digest(exp_id):
    assert _digest(exp_id) == GOLDEN[exp_id], (
        f"{exp_id} output moved; a behaviour-preserving change must not "
        f"alter {TABLE_PATH.name}")


def test_golden_digests_hold_under_another_hash_seed():
    script = (
        "import hashlib, json, sys\n"
        "from repro.api.registry import run_experiment\n"
        "print(json.dumps({x: hashlib.sha256(run_experiment(x).to_json()"
        ".encode()).hexdigest() for x in sys.argv[1:]}))\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(
                   [str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, *sorted(GOLDEN)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert json.loads(out) == GOLDEN
