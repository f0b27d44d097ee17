"""Golden reports: every row of every suite, in both dimensions.

Each file under tests/golden/<n>d/ holds `SuiteReport.to_json_dict()` of
one suite at seed 42, without `environment.version`.  The test runs each
suite once per dimension and compares every row field by field, floats
exactly.  A change that moves a report rewrites the files with

    PYTHONPATH=src python tests/test_golden.py [n ...]

(all dimensions by default), which first prints every field that moved as
`<n>d/suite/case field: old → new`; a change lists these rows in
CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from varhardy.harness import SUITES, ExperimentConfig, run_suite

GOLDEN = Path(__file__).parent / "golden"

# (T, m) per suite.  1-D runs the defaults.  2-D runs small windows where
# every case holds: E4 sweeps sixteen weight/exponent pairs at two
# levels and takes 34 s at T = 2 but 7 s at T = 1; E8's mollification bound
# of 0.01, calibrated in 1-D, reads 0.020 at m = 5 and 0.0036 at m = 6
WINDOWS = {
    1: {s: (8.0, 9) for s in SUITES},
    2: {**{s: (2.0, 5) for s in SUITES}, "E4": (1.0, 5), "E8": (2.0, 6)},
}


def golden_document(n: int, suite: str) -> dict:
    T, m = WINDOWS[n][suite]
    doc = run_suite(ExperimentConfig(n=n, T=T, m=m, suite=suite)).to_json_dict()
    del doc["environment"]["version"]
    return doc


def _path(n: int, suite: str) -> Path:
    return GOLDEN / f"{n}d" / f"{suite}.json"


def changed_rows(want: dict, got: dict) -> list[str]:
    """`suite/case field: old → new` per field that differs between two
    documents of one suite, and `suite/case: added` or `removed` per row
    that only one of them has."""
    old = {c["case"]: c for c in want["cases"]}
    new = {c["case"]: c for c in got["cases"]}
    lines = []
    for case in dict.fromkeys([*old, *new]):
        a, b = old.get(case), new.get(case)
        if a is None or b is None:
            lines.append(f"{got['suite']}/{case}: {'added' if a is None else 'removed'}")
            continue
        lines += [
            f"{got['suite']}/{case} {k}: {a.get(k)!r} → {b.get(k)!r}"
            for k in sorted(a.keys() | b.keys())
            if a.get(k) != b.get(k)
        ]
    return lines


def test_changed_rows_lists_each_moved_field():
    row = {"case": "c", "passed": True, "value_m": 1.0, "value_m1": None}
    want = {"suite": "E0", "cases": [row, {**row, "case": "gone"}]}
    got = {"suite": "E0", "cases": [{**row, "value_m": 0.1 + 0.2, "value_m1": 2.0}, {**row, "case": "new"}]}
    assert changed_rows(want, want) == []
    assert changed_rows(want, got) == [
        "E0/c value_m: 1.0 → 0.30000000000000004",
        "E0/c value_m1: None → 2.0",
        "E0/gone: removed",
        "E0/new: added",
    ]


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("n", sorted(WINDOWS), ids=lambda n: f"{n}d")
def test_report_matches_golden(n, suite):
    got = golden_document(n, suite)
    want = json.loads(_path(n, suite).read_text())
    assert got["all_passed"]
    assert got["environment"] == want["environment"]
    assert [c["case"] for c in got["cases"]] == [c["case"] for c in want["cases"]]
    for row, golden in zip(got["cases"], want["cases"]):
        assert row == golden, row["case"]


if __name__ == "__main__":
    for n in map(int, sys.argv[1:]) if len(sys.argv) > 1 else sorted(WINDOWS):
        _path(n, "E1").parent.mkdir(parents=True, exist_ok=True)
        for suite in sorted(SUITES):
            path, doc = _path(n, suite), golden_document(n, suite)
            if path.exists():
                for line in changed_rows(json.loads(path.read_text()), doc):
                    print(f"{n}d/{line}")
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
