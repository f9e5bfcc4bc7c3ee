"""Self-test of the benchmark at reduced size.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
from functools import partial
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent

# layers each workload must load, by a per-layer metric that has to be nonzero there
EXERCISED = {
    "bound": [
        "cli.serialize_s",
        "cli.stdout_bytes",
        "primes.phi_sieve_s",
        "primes.phi_sieve_bytes_per_entry",
        "feasibility.bound_records_s",
        "feasibility.useful_ratio",
    ],
    "scan": [
        "primes.cached_primes_s",
        "ideal_arith.ideals_up_to_norm_s",
        "ideal_arith.ideals",
        "analytics.phi_bound_scan_s",
        "analytics.landau_s",
        "analytics.mertens_s",
        "analytics.char_euler_product_s",
    ],
    "audit": [
        "feasibility.refined_table_s",
        "feasibility.chain_audit_s",
        "ray_class_bounds.degree_bounds_s",
        "ideal_arith.brute_force_phi_calls",
        "ideal_arith.phi_K_of_N_s",
        "quad_core.class_number_calls",
        "quad_core.class_number_dirichlet_calls",
        "quad_core.kronecker_calls",
        "galois_image.cn_elements_s",
        "galois_image.kernel_size_s",
        "galois_image.max_stabilizer_order_s",
    ],
}


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run(workload, seed=7, seconds=0, trace=trace, root=ROOT, small=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    if trace:
        assert [k for k in EXERCISED[workload] if not metrics[k]["value"] > 0] == []
        assert 0 < metrics["trace.coverage"]["value"] <= 1
    else:
        assert all(v["value"] > 0 for v in metrics.values())


def test_wrong_expected_value_counts_as_a_failed_op(monkeypatch):
    def rigged(rng, root, small):
        ops = workloads.bound(rng, root, small)
        ops[-1].check = partial(workloads.check_bound_csv, expected=61)  # B(1) is 60
        return ops

    monkeypatch.setitem(workloads.WORKLOADS, "bound", rigged)
    out = run.run("bound", seed=7, seconds=0, trace=False, root=ROOT, small=True)
    assert out["result"]["failed"] == 1 and out["result"]["correct"] is False
    assert out["info"]["ops_failed_frac"] == 1 / out["result"]["attempted"]
    assert "B(1) = 60, expected 61" in out["info"]["errors"][0]


def test_refuses_to_run_without_the_sources(monkeypatch, capsys):
    monkeypatch.chdir(ROOT / "bench")
    assert run.main(["--workload", "bound", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_preflight_refuses_a_sieve_near_the_memory_limit():
    workloads.preflight(3010)
    with pytest.raises(workloads.Refused):
        workloads.preflight(10**6)  # n_max = 237,662,443: about 12 GB of Python ints
