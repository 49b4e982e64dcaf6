"""Self-test of the benchmark; it is not part of the package's test suite.

Run from the root of a checkout; it takes well under a minute::

    python3 bench/selftest.py

It runs every workload at tiny sizes (``--smoke``) with tracing off and on,
and asserts that each run emits exactly the metrics BENCHMARK.json names,
with their units, and passes its output checks.  It then asserts that the
output checks reject corrupted results: a flipped ``r_hat``, a perturbed
eigenvalue, factors that no longer reconstruct the panel, and a study
result that differs from its one-worker recomputation.
"""

import copy
import json
import subprocess
import sys
from dataclasses import replace

import run


def smoke_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                    "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, got)
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def corrupted_outputs_are_rejected() -> None:
    sys.path.insert(0, str(run.SRC))
    from hdfactor import Scenario, generate, serialize, simulation, two_step_estimate

    panel, _ = generate(Scenario(n=40, p=30, seed=5, **run.MIXED_DESIGN))
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    ref = two_step_estimate(panel, k0=2)
    doc = json.loads(json.dumps(serialize.model_to_dict(ref)))
    assert run.check_model(doc, ref, centered) == [], run.check_model(doc, ref, centered)

    def corrupt(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return run.check_model(bad, ref, centered)

    assert corrupt(lambda d: d.update(r_hat=d["r_hat"] + 1))
    assert corrupt(lambda d: d.update(r2_hat=d["r2_hat"] + 1))
    assert corrupt(lambda d: d["eigenvalues"].__setitem__(0, d["eigenvalues"][0] * (1 + 1e-6)))
    assert corrupt(lambda d: d["eigenvalues_step2"].__setitem__(0, d["eigenvalues_step2"][0] * 2))
    assert corrupt(lambda d: d["factors"]["data"].__setitem__(0, d["factors"]["data"][0] + 1e-3))
    print("ok  check_model rejects a flipped r_hat, perturbed eigenvalues and factors")

    scn = Scenario(n=60, p=30, seed=9, **run.MIXED_DESIGN)
    result = simulation.two_step_study(scn, 4)
    assert run.check_study(result, simulation.two_step_study(scn, 4, workers=1)) == []
    assert run.check_study(replace(result, freq_two=result.freq_two + 0.5), result)
    print("ok  check_study rejects a study result that differs from workers=1")


if __name__ == "__main__":
    smoke_runs()
    corrupted_outputs_are_rejected()
    print("selftest passed")
