"""Unit tests for LoC counting and experiment reports."""

import pytest

from repro.metrics import ExperimentReport, count_loc, count_module_loc


def test_count_loc_basic():
    source = "x = 1\n\ny = 2\n"
    assert count_loc(source) == 2


def test_count_loc_ignores_comments_and_blanks():
    source = "# comment\n\nx = 1  # trailing comments still count the line\n"
    assert count_loc(source) == 1


def test_count_loc_ignores_docstrings():
    source = '"""module docstring\nspanning lines\n"""\n\ndef f():\n    """doc."""\n    return 1\n'
    assert count_loc(source) == 2  # def + return


def test_count_loc_docstring_math():
    source = (
        '"""mod doc"""\n'
        "def f(x):\n"
        '    """f doc"""\n'
        "    return x\n"
    )
    assert count_loc(source) == 2


def test_count_loc_rejects_invalid_python():
    with pytest.raises(ValueError):
        count_loc("def broken(:")


def test_count_module_loc_by_path():
    loc = count_module_loc("repro.metrics.loc")
    assert loc > 10


def test_count_module_loc_by_object():
    import repro.metrics.loc as module

    assert count_module_loc(module) == count_module_loc("repro.metrics.loc")


def test_report_rows_and_series():
    report = ExperimentReport("figX", "demo", x_label="n")
    report.add("a", 1, 10.0, paper=8.0)
    report.add("a", 2, 20.0, paper=25.0)
    report.add("b", 1, 5.0)
    assert report.measured_series("a") == [10.0, 20.0]
    assert len(report.series("b")) == 1


def test_relative_error():
    report = ExperimentReport("figX", "demo", x_label="n")
    row = report.add("a", 1, 12.0, paper=10.0)
    assert row.relative_error == pytest.approx(0.2)
    no_paper = report.add("a", 2, 12.0)
    assert no_paper.relative_error is None


def test_to_text_contains_everything():
    report = ExperimentReport("fig99", "demo experiment", x_label="size")
    report.add("script", 100, 12.345, paper=10.0)
    report.notes.append("a note")
    text = report.to_text()
    assert "fig99" in text
    assert "demo experiment" in text
    assert "script" in text
    assert "12.35" in text
    assert "+23.5%" in text
    assert "note: a note" in text
