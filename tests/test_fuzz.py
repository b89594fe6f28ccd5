"""The seeded input fuzzer of ``tests/fuzz.py`` at a fixed seed and case count, and its oracle."""

import warnings

import pytest

import fuzz
from factkit import cli

CASES = 300  # about 3 s on a 2-vCPU host; ``python tests/fuzz.py`` runs longer


def test_fuzzed_inputs_end_in_exit_0_or_one_error_line(tmp_path):
    ran, escapes = fuzz.fuzz(tmp_path, seed=0, cases=range(CASES))
    assert ran == CASES
    assert not escapes, "\n".join(escapes)
    assert [path.name for path in tmp_path.glob("case*")] == []


def test_fuzzed_endpoint_replies_end_in_exit_0_or_one_error_line(tmp_path):
    kinds = list(fuzz.READERS)
    cases = [case for case in range(600) if fuzz.case_rng(1, case).choice(kinds) == "reply"]
    assert len(cases) > 50
    ran, escapes = fuzz.fuzz(tmp_path, seed=1, cases=cases)
    assert ran == len(cases)
    assert not escapes, "\n".join(escapes)


@pytest.mark.parametrize(
    "code, err, reason",
    [
        (0, "", None),
        (4, "error: ParseError: line 1: bad\n", None),
        (4, "error: FileNotFoundError: [Errno 2] No such file or directory: 'x'\n", None),
        (0, "RuntimeWarning: overflow\n", "exit 0 with output on stderr"),
        (5, "error: ParseError: line 1: bad\n", "exit 5, but ParseError declares 4"),
        (4, "error: ParseError: line 1: a\nerror: ParseError: line 2: b\n",
         "not exactly one error: line"),
        (4, "error: ParseError: line 1: bad", "not exactly one error: line"),
        (None, "Traceback (most recent call last):\n", "not exactly one error: line"),
        (1, "error: ValueError: bad\n", "unknown category ValueError"),
    ],
    ids=["exit-0", "factkit-error", "os-error", "exit-0-with-a-warning", "wrong-exit-code",
         "two-lines", "no-line-break", "traceback", "not-a-factkit-error"],
)
def test_escape_reason(code, err, reason):
    assert fuzz.escape_reason(code, err) == reason


@pytest.mark.parametrize(
    "saved, mutated, found",
    [
        (1.0, 1, None),
        ({"a": [1.0, "x"]}, {"a": [1, "x"], "b": True}, None),
        (1.0, True, "header: True loads as 1.0"),
        (1.0, "1", "header: '1' loads as 1.0"),
        (False, 0, "header: 0 loads as False"),
        (["a", "b"], "ab", "header: 'ab' loads as ['a', 'b']"),
        ([1.0], [1.0, 2.0], "header: [1.0, 2.0] loads as [1.0]"),
        ({"c": [{"weight": 1.0}]}, {"c": [{"weight": True}]},
         "header/c/0/weight: True loads as 1.0"),
    ],
    ids=["int-for-float", "keys-both-hold", "bool-for-number", "string-for-number",
         "number-for-bool", "string-for-list", "list-length", "nested"],
)
def test_header_difference(saved, mutated, found):
    assert fuzz.header_difference(saved, mutated) == found


real_digest_inputs = cli.digest_inputs


def _raise(*args):
    raise ValueError("not a factkit error")


def _warn(paths):
    warnings.warn("a stray warning", RuntimeWarning)
    return real_digest_inputs(paths)


@pytest.mark.parametrize(
    "patched, reason, shown",
    [(_raise, "not exactly one error: line", "ValueError: not a factkit error"),
     (_warn, "exit 0 with output on stderr", "RuntimeWarning: a stray warning")],
    ids=["traceback", "warning"],
)
def test_a_traceback_or_a_warning_is_an_escape(tmp_path, monkeypatch, patched, reason, shown):
    monkeypatch.setattr(cli, "digest_inputs", patched)
    # case 2 of seed 0 mutates its inputs into ones that eval accepts, so it would exit 0
    ran, escapes = fuzz.fuzz(tmp_path, seed=0, cases=[2])
    assert ran == 1 and len(escapes) == 1
    assert f"case 2: {reason}" in escapes[0] and shown in escapes[0]
