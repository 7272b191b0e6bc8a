import importlib.util

from .conftest import ROOT

SPEC = importlib.util.spec_from_file_location("import_time", ROOT / "tools" / "import_time.py")
import_time = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(import_time)

STDERR = """\
import time: self [us] | cumulative | imported package
import time:      1483 |      38842 | site
import-time-start
import time:       321 |        321 |   effparse
import time:       204 |        204 |   __future__
import time:      1049 |       1140 |       ast
import time:     15000 |      15000 |   effparse.terms
import time:      1751 |       1751 |     effparse.model
import time:      6395 |      21738 |   effparse.lambda_eval
"""


def test_self_times_are_read_after_the_mark():
    assert import_time.self_times(STDERR) == {
        "effparse": 321, "__future__": 204, "ast": 1049, "effparse.terms": 15000,
        "effparse.model": 1751, "effparse.lambda_eval": 6395}


def test_rows_sum_other_modules_and_the_total():
    rows = import_time.summary_rows(import_time.self_times(STDERR))
    assert rows == {"effparse": 0.321, "effparse.terms": 15.0, "effparse.model": 1.751,
                    "effparse.lambda_eval": 6.395,
                    import_time.OTHER: 1.253, import_time.TOTAL: 24.72}


def test_medians_count_a_missing_row_as_zero():
    runs = [{"effparse.terms": 3.0, import_time.TOTAL: 10.0},
            {"effparse.terms": 1.0, import_time.TOTAL: 12.0},
            {import_time.TOTAL: 11.0}]
    assert import_time.medians(runs) == {"effparse.terms": 1.0, import_time.TOTAL: 11.0}


def test_the_table_has_a_column_per_root_and_dashes_for_absent_modules():
    text = import_time.table(["old", "new"], {
        "old": {"effparse.terms": 12.84, import_time.OTHER: 5.7, import_time.TOTAL: 36.1},
        "new": {"effparse.terms": 0.4, "effparse.record": 0.2,
                import_time.OTHER: 0.1, import_time.TOTAL: 4.2}})
    assert text.splitlines() == [
        "| module | old | new |", "|---|---|---|",
        "| effparse.record | - | 0.2 |", "| effparse.terms | 12.8 | 0.4 |",
        "| (other modules) | 5.7 | 0.1 |", "| (total) | 36.1 | 4.2 |"]
