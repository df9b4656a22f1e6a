"""The self-check suite must pass, be filterable, and catch corruption."""

import numpy as np

from relaysim import estimation, link, quantizer, validate

CHECK_NAMES = ("lloydmax-table", "lemma1-mc", "moment-oracles", "kappa-mc",
               "mse-closed-form", "energy-split")


def test_full_suite_passes():
    results = validate.run_validation(seed=123)
    assert tuple(r.name for r in results) == CHECK_NAMES
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing checks: {failed}"


def test_oracle_checks_share_one_trial_run(monkeypatch):
    # moment-oracles and kappa-mc read the same 1500 rate trials
    calls = []
    run_trials = link.trial_outcomes
    monkeypatch.setattr(link, "trial_outcomes",
                        lambda *args, **kw: calls.append(args) or run_trials(*args, **kw))
    results = validate.run_validation(seed=42)
    assert len(calls) == 1
    assert all(r.passed for r in results)


def test_filter_selects_by_substring():
    results = validate.run_validation(name_filter="lloydmax")
    assert [r.name for r in results] == ["lloydmax-table"]
    assert validate.run_validation(name_filter="no-such-check") == []


def test_result_lines_are_single_line_summaries():
    results = validate.run_validation(name_filter="lloydmax")
    line = results[0].line()
    assert line.startswith("PASS") or line.startswith("FAIL")
    assert "lloydmax-table" in line
    assert "\n" not in line


def test_corrupted_distortion_table_is_detected(monkeypatch):
    monkeypatch.setitem(quantizer.DISTORTION_TABLE, 3, quantizer.DISTORTION_TABLE[3] * 1.5)
    results = validate.run_validation(name_filter="lloydmax")
    assert len(results) == 1
    assert not results[0].passed


def _broken_validate(model):
    raise AssertionError("receive-side split does not sum to the true correlation")


def test_a_check_that_raises_fails_and_the_rest_still_run(monkeypatch):
    monkeypatch.setattr(estimation.EstimateModel, "validate", _broken_validate)
    results = validate.run_validation()
    assert tuple(r.name for r in results) == CHECK_NAMES
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["energy-split"]
    assert failed[0].deviation == float("inf")
    assert failed[0].detail == ("AssertionError: receive-side split does not sum "
                                "to the true correlation")
    assert "\n" not in failed[0].line()


def test_a_numerical_error_fails_its_check(monkeypatch):
    # a normal law without tails collapses a quantizer cell: ConvergenceError
    monkeypatch.setattr(quantizer, "_std_normal_cdf", np.zeros_like)
    [result] = validate.run_validation(name_filter="lloydmax")
    assert not result.passed and result.deviation == float("inf")
    assert result.threshold == 1e-3
    assert result.detail.startswith("ConvergenceError: ")


def test_an_arithmetic_error_fails_its_check(monkeypatch):
    def overflowing(model):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(estimation.EstimateModel, "validate", overflowing)
    [result] = validate.run_validation(name_filter="energy-split")
    assert not result.passed and result.deviation == float("inf")
    assert result.detail.startswith("OverflowError: ")
