"""Fast checks of the benchmark's own machinery on tiny job lists."""

import pytest

import compare
import run
import worker
import workloads
from tracer import Tracer, inclusive_times, self_times

CLI = worker.setup()


def tiny_jobs():
    """Three cheap jobs with recorded references: two CLI runs and one library call."""
    certificates = workloads.certificates_pool()
    characters = workloads.characters_pool()
    jobs = certificates["support"][:1] + certificates["tiny"][:1] + characters["r1k2"][:1]
    reference = {**workloads.load_reference("certificates"), **workloads.load_reference("characters")}
    return jobs, {job["key"]: reference[job["key"]] for job in jobs}


def test_jobs_reproduce_their_reference_digests():
    jobs, reference = tiny_jobs()
    seconds, calibration, out_bytes, failures = worker.run_pass(CLI, jobs, reference)
    assert failures == []
    assert len(seconds) == len(jobs) and out_bytes > 0
    assert len(calibration) == len(jobs) + 1 and min(calibration) > 0


def test_a_changed_digest_or_status_is_a_failure():
    jobs, reference = tiny_jobs()
    reference[jobs[0]["key"]] = dict(reference[jobs[0]["key"]], sha256="0" * 64)
    reference[jobs[1]["key"]] = dict(reference[jobs[1]["key"]], status=7)
    _, _, _, failures = worker.run_pass(CLI, jobs, reference)
    assert [f["key"] for f in failures] == [jobs[0]["key"], jobs[1]["key"]]


def test_a_raising_job_is_counted_and_the_run_goes_on():
    jobs, reference = tiny_jobs()

    def execute(cli, job):
        if job is jobs[1]:
            raise RuntimeError("certificate failed exact re-verification")
        return worker.execute(cli, job)

    passes, _, failures = worker.run_passes(CLI, jobs, reference, seconds=0, min_passes=2,
                                         execute=execute)
    assert len(passes) == 2 and all(len(p) == len(jobs) for p in passes)
    assert [f["key"] for f in failures] == [jobs[1]["key"]] * 2
    assert "RuntimeError" in failures[0]["error"]


def test_self_time_on_a_nested_span_tree():
    # job 0: a [0, 8] holds b [1, 5] (which holds c [2, 3]) and c [6, 7];
    # job 1: a [10, 12] is a root alone.  Times are exact binary fractions.
    spans = [
        ("c", 3, 2, 0, 2.0, 3.0),
        ("b", 2, 1, 0, 1.0, 5.0),
        ("c", 4, 1, 0, 6.0, 7.0),
        ("a", 1, 0, 0, 0.0, 8.0),
        ("a", 5, 0, 1, 10.0, 12.0),
    ]
    assert self_times(spans) == {"a": 3.0 + 2.0, "b": 3.0, "c": 2.0}
    assert sum(self_times(spans).values()) == 8.0 + 2.0
    assert inclusive_times(spans) == {"a": 10.0, "b": 4.0, "c": 2.0}


def test_inclusive_time_counts_a_recursive_span_once():
    spans = [("w", 2, 1, 0, 1.0, 2.0), ("w", 1, 0, 0, 0.0, 4.0)]
    assert inclusive_times(spans) == {"w": 4.0}
    assert self_times(spans) == {"w": 4.0}


def traced_counts(jobs, reference):
    tracer = Tracer()
    tracer.install()
    try:
        _, _, _, failures = worker.run_pass(CLI, jobs, reference, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracer


def test_traced_counts_repeat_exactly_and_uninstall_restores():
    from equitau import gradedring, riemannroch

    original_mul, original_exp = gradedring.GradedSeries.__mul__, riemannroch.exp
    jobs = workloads.hrr_pool()["light"][:1] + workloads.certificates_pool()["small"][:1]
    reference = {**workloads.load_reference("hrr"), **workloads.load_reference("certificates")}
    first, second = traced_counts(jobs, reference), traced_counts(jobs, reference)
    assert first.counts == second.counts
    assert first.counts["gradedring.series_mul.calls"] > 0
    assert first.counts["reprring.certificate.calls"] == 1
    assert 0 < first.counts["gradedring.series_mul.kept"] <= first.counts["gradedring.series_mul.pairs"]
    assert {s[3] for s in first.spans} == {0, 1}
    assert gradedring.GradedSeries.__mul__ is original_mul
    assert gradedring.GradedSeries.__rmul__ is original_mul
    assert riemannroch.exp is original_exp


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generate_is_seeded_and_picks_one_job_per_bin(workload):
    reference = workloads.load_reference(workload)
    jobs = workloads.generate(workload, 1, reference)
    assert jobs == workloads.generate(workload, 1, reference)
    assert jobs != workloads.generate(workload, 2, reference)
    assert len(jobs) == sum(workloads.WORKLOADS[workload][1].values())
    assert len({job["key"] for job in jobs}) == len(jobs)
    assert set(reference) == {job["key"] for job in workloads.pool(workload)}
    for job in jobs:
        if "argv" in job:
            assert "--format" in job["argv"] and any(a.startswith("--trunc") for a in job["argv"])


def test_percentiles():
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile([0.0, 10.0], 0.25) == 2.5
    assert run.tail_quantile(200) == 0.9
    assert run.tail_quantile(50) == pytest.approx(0.8)
    assert run.tail_quantile(12) == 0.5


def test_spec_names_every_metric_the_runs_report():
    spec = run.load_spec()
    trace = {"counts": {}, "self_s": {}, "inclusive_s": {},
             "traced_pass_s": 2.0, "untraced_pass_s": [1.0]}
    assert set(run.per_layer(trace, spec)) == {m["name"] for m in spec["per_layer"]}
    result = {"passes": [[0.1, 0.2]], "calibration": [[0.004] * 3], "jobs": 2,
              "peak_rss_mb": 30.0}
    assert set(run.end_to_end([0.05], result)) == {m["name"] for m in spec["end_to_end"]}


def test_job_times_are_scaled_by_the_calibrations_around_them():
    ref = run.CALIBRATION_REFERENCE_S
    # The machine runs at half speed around the second job and speeds up after.
    result = {"passes": [[1.0, 2.0, 3.0]], "calibration": [[ref, ref, 2 * ref, ref]]}
    assert run.job_samples(result) == pytest.approx([1.0, 2.0 / 1.5, 3.0 / 1.5])
    assert run.normalized(0.2, 2 * ref) == pytest.approx(0.1)


def test_compare_flags_a_regression_and_lists_moved_layers():
    spec = run.load_spec()

    def suite(scale, calls):
        e2e = {m["name"]: {"median": 1.0 * scale if m["better"] == "lower" else 1.0}
               for m in spec["end_to_end"]}
        layers = {m["name"]: {"value": 1.0} for m in spec["per_layer"]}
        layers["gradedring.series_mul.calls"] = {"value": calls}
        return {"provenance": {}, "workloads": {"hrr": {
            "end_to_end": e2e, "per_layer": layers, "failed_frac": 0.0}}}

    lines = compare.compare(suite(1.0, 100), suite(2.0, 130), spec)
    assert sum("REGRESSED" in line for line in lines) == sum(
        m["better"] == "lower" for m in spec["end_to_end"])
    assert any("gradedring.series_mul.calls" in line and "+30.0%" in line for line in lines)
