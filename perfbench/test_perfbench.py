"""Tests of the benchmark's own code: the generated families, the tracer's
self-time arithmetic, report bytes under tracing, and the reference file."""

from __future__ import annotations

import hashlib
import os
import signal

import pytest

import families
import probe
import run
import tracing
import workloads
from resloc import cli, kernels, linalg, residues, spaces


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sphere_product_has_2_to_the_k_fixed_points(k):
    assert len(families.sphere_product(k).space.components) == 2 ** k


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_projective_space_has_n_plus_1_fixed_points(n):
    ds = families.projective(n, tuple(families.Q(i + 1, n * (n + 1)) for i in range(n)))
    assert len(ds.space.components) == n + 1


@pytest.mark.parametrize("k", [3, 5])
def test_diagonal_family_has_2_to_the_k_fixed_points(k):
    ds = families.sphere_product_diagonal(k)
    assert len(ds.space.components) == 2 ** k
    assert ds.weyl.order == 2


def test_diagonal_family_rejects_even_k():
    with pytest.raises(ValueError):
        families.sphere_product_diagonal(4)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
def test_chamber_counts(seed):
    s2 = kernels.enumerate_generic_directions(families.sphere_product(3).space)
    assert len(s2.chambers) == s2.expected == 32
    cp = families.projective(3, workloads.projective_offset(seed, 3))
    cp3 = kernels.enumerate_generic_directions(cp.space)
    assert len(cp3.chambers) == cp3.expected == 72


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 12345])
def test_seeded_choices_are_generic_and_reproducible(seed):
    inputs = workloads.generated_inputs("circle-split", seed)
    ops = workloads.workload_ops("circle-split", seed, inputs)
    assert ops == workloads.workload_ops("circle-split", seed, inputs)
    directions = []
    for op in ops:
        ds = inputs[op.source.removesuffix(".json")]
        xi = tuple(int(v) for v in op.argv[2].removeprefix("--circle=").split(","))
        assert not spaces.is_generic(ds.space, spaces.CircleDirection(xi))
        directions.append(xi)
    assert directions[0] in workloads.SPHERE_DIRECTIONS
    assert directions[1] == workloads.CP3_DIRECTION
    assert families.positive_side(inputs["cp3-t3"], workloads.CP3_DIRECTION) == 1
    offset = workloads.projective_offset(seed, 4)
    assert offset == workloads.projective_offset(seed, 4)
    assert len(set(offset)) == 4 and 0 < sum(offset) < 1


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_per_name_counts_nested_calls_once_in_outer_time():
    tracer = tracing.Tracer()
    tracer.names = ["f", "g"]
    for name, start, end, parent in [(0, 0, 100, -1), (0, 10, 30, 0), (1, 40, 60, 0)]:
        tracer.name_of.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.ops.append(0)
    rows = tracer.per_name()
    assert rows["f"] == {"calls": 2, "self_ns": 80, "outer_ns": 100}
    assert rows["g"] == {"calls": 1, "self_ns": 20, "outer_ns": 20}


def _pass(seconds, probe_s, warmup=False):
    return {"traced": False, "warmup": warmup,
            "ops": [{"seconds": t, "probe_s": probe_s} for t in seconds]}


def test_end_to_end_states_times_at_the_probes_nominal_speed():
    slow = 2 * probe.NOMINAL_S
    passes = [_pass([9.0, 9.0], slow, warmup=True),
              _pass([1.0, 2.0], slow), _pass([1.2, 2.4], slow), _pass([0.5, 1.0], slow / 2)]
    metrics = run.end_to_end(passes, [(0.4, slow), (0.5, slow), (9.0, slow)])
    assert metrics["wall_s"][0] == pytest.approx(1.5)
    assert metrics["slowest_op_s"][0] == pytest.approx(1.0)
    assert metrics["setup_s"][0] == pytest.approx(0.25)


def test_sampler_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with probe.Sampler() as sampler:
        probe._ints(1_000_000)
    assert len(sampler.samples) >= 3
    assert sampler.seconds > 0 and sampler.probe_s > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _report_digest(argv, out):
    assert cli.main(argv + ["--output", out]) == 0
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_tracing_leaves_reports_unchanged_and_uninstalls(tmp_path):
    path = str(tmp_path / "s2x3-t3.json")
    families.write_dataset(families.sphere_product(3), path)
    out = str(tmp_path / "report.json")
    ops = [["kernel", "s2xs2-t2", "--full"],
           ["kernel", path, "--circle=1,2,4", "--max-degree", "2"],
           ["kernel", "s2cubed-su2", "--nonabelian"]]
    plain = [_report_digest(argv, out) for argv in ops]
    originals = (kernels.res_x_plus, residues.res_x_plus, linalg.row_reduce, cli.main)
    tracer = tracing.Tracer()
    with tracer:
        assert kernels.res_x_plus is residues.res_x_plus is not originals[0]
        traced = [_report_digest(argv, out) for argv in ops]
    assert traced == plain
    assert (kernels.res_x_plus, residues.res_x_plus, linalg.row_reduce, cli.main) == originals
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["kernels.chambers.found"] == metrics["kernels.chambers.expected"] == 8
    assert metrics["linalg.row_reduce.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_the_recorded_seeds(workload, tmp_path):
    reference = run.load_reference()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            ops, digests = run.set_up(workload, seed)
            for op in ops:
                assert run.reference_key(op, digests[op.source]) in reference["exact"]
                assert op.label in reference["names"]
    finally:
        os.chdir(cwd)
