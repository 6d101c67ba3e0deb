"""The command-line scripts under scripts/ run to completion."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [["fuzz_systems.py", "-n", "20"]])
def test_script_exits_zero(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_identity_sweep_digests_do_not_depend_on_string_hashing():
    # a slice of the sweep's inputs, digested in two interpreters at once
    src = str(SCRIPTS.parent / "src")
    code = "import identity_sweep, json; print(json.dumps(identity_sweep.digests(small=True)))"
    procs = [subprocess.Popen([sys.executable, "-c", code], cwd=SCRIPTS, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
             for seed in ("1", "2")]
    outs = [p.communicate(timeout=60) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    first, second = (json.loads(out) for out, _ in outs)
    assert len(first) > 300 and first == second
