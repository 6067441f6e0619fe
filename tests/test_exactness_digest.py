"""One pinned sha256 over the observable results of the checker.

The digest covers every bundle assertion's verdict (truth, witness and
explanation) in both modes on plain and mutated simulations of fixed
random scenarios, the universal closure each assertion's plan checks,
``archcheck desugar`` on the shipped pack, and ``check --json`` with its
exit code on two trace files.  A change that is meant to alter no verdict
must leave the digest as it is; a change that alters one on purpose pins
the new digest and says why.

The digest is computed in fresh processes under two hash seeds, so no
result may follow string hashing.
"""
import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import archcheck
from archcheck.blackboard import (
    MUTATIONS,
    algebra_unit,
    random_scenario,
    simulate_blackboard,
    trace_unit,
)
from archcheck.checker import blackboard_bundle, check_simulation
from archcheck.cli import main
from archcheck.constraints import CLOSED, OPEN
from archcheck.parser import print_unit

DIGEST = "d4091e93fcc3f401d3e641d4676ee2b9ed3af2fb0e50d4ec8b7f6f05f5bc8eb8"

SEEDS = range(16)
TRACE_FILE_SEEDS = (3, 5)


def _scenario(seed):
    return random_scenario(random.Random(seed), horizon=40)


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def _lines():
    bundle = blackboard_bundle()
    for seed in SEEDS:
        scenario = _scenario(seed)
        for mutation in (None, *MUTATIONS):
            result = simulate_blackboard(scenario, mutation=mutation)
            for mode in (OPEN, CLOSED):
                report = check_simulation(bundle, result, mode=mode)
                for a in report.assertions:
                    yield f"{seed} {mutation} {mode} {a.name}: {a.verdict}"
    for name in sorted(bundle.plans):
        yield f"{name} closed: {bundle.plans[name].closed!r}"
    pack = Path(archcheck.__file__).parent / "blackboardpack"
    specs = sorted(str(p) for p in pack.glob("*.arch"))
    yield _cli(["desugar", *specs])
    with tempfile.TemporaryDirectory() as tmp:
        for seed, mutation in zip(TRACE_FILE_SEEDS, (None, MUTATIONS[0])):
            result = simulate_blackboard(_scenario(seed), mutation=mutation)
            algebra, trace = Path(tmp, "model.arch"), Path(tmp, "run.arch")
            algebra.write_text(print_unit(algebra_unit(result.scenario)), encoding="utf-8")
            trace.write_text(print_unit(trace_unit(result)), encoding="utf-8")
            yield _cli(["check", *specs, "--algebra", str(algebra),
                        "--trace", str(trace), "--mode", CLOSED, "--json"])


def digest() -> str:
    sha = hashlib.sha256()
    for line in _lines():
        sha.update(line.encode("utf-8") + b"\n")
    return sha.hexdigest()


def test_digest_is_pinned_in_every_process():
    here = Path(__file__).parent
    src = str(Path(archcheck.__file__).parent.parent)
    found = set()
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join((src, str(here)))}
        done = subprocess.run(
            [sys.executable, "-c",
             "from test_exactness_digest import digest; print(digest())"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        found.add(done.stdout.strip())
    assert found == {DIGEST}
