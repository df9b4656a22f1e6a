"""The self-check suite must pass, be filterable, and catch corruption."""

from relaysim import quantizer, validate


def test_full_suite_passes():
    results = validate.run_validation(seed=123)
    assert len(results) == len(validate.CHECK_NAMES)
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing checks: {failed}"


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
