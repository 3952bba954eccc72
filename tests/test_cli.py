import contextlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from collections import deque

import pytest

from trimsum import analyzer, cli, families
from trimsum.cli import main
from trimsum.digits import DigitString, parse
from trimsum.families import FAMILIES, TestRule, iterate
from trimsum.oracle import random_digit_string

GOLDEN = pathlib.Path(__file__).parent / "data" / "compare_golden.csv"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["trim", "-q", "7", "32184"], "3210"),
        (["trim", "-q", "21", "32184"], "3210"),
        (["trim", "-q", "7", "49"], "-14"),
        (["trim", "-q", "17", "32184"], "3198"),
        (["trim", "-q", "13", "32184"], "3234"),
        (["trim", "-q", "39", "3234"], "339"),
        (["sum", "-q", "7", "32184"], "3"),
        (["sum", "-q", "17", "32184"], "1518"),
        (["sum", "-q", "11", "32184"], "-2"),
        (["binomial", "-q", "7", "32184"], "334"),
        (["binomial", "-q", "7", "334"], "40"),
        (["talmud", "32184"], "726"),
        (["lastdigit", "-q", "8", "32184"], "184"),
        (["trim", "-q", "3", "--base", "2", "101"], "1"),
    ],
)
def test_single_application_commands(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected + "\n"


def test_weight_command(capsys):
    code, out, _ = run(capsys, "weight", "-q", "79")
    assert code == 0
    assert out == "q=79 base=10 omega=+8 method=inverse agree=yes\n"
    code, out, _ = run(capsys, "weight", "-q", "17", "--method", "rounding")
    assert out == "q=17 base=10 omega=-5 method=rounding agree=yes\n"
    code, out, _ = run(capsys, "weight", "-q", "5", "--base", "7")
    assert out == "q=5 base=7 omega=-2 method=inverse agree=n/a\n"


def test_weight_json(capsys):
    code, out, _ = run(capsys, "weight", "-q", "79", "--json")
    assert code == 0
    assert json.loads(out) == {
        "q": 79,
        "base": 10,
        "omega": 8,
        "method": "inverse",
        "methods": {"table": 8, "rounding": 8, "inverse": 8},
        "agree": True,
    }


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["-q", "79"], 0, "q=79 base=10 omega=+8 method=inverse agree=yes\n", ""),
        (
            ["-q", "7", "--method", "table", "--json"],
            0,
            '{\n  "q": 7,\n  "base": 10,\n  "omega": -2,\n  "method": "table",\n  "methods": {\n'
            '    "table": -2,\n    "rounding": -2,\n    "inverse": -2\n  },\n  "agree": true\n}\n',
            "",
        ),
        (["-q", "5", "--base", "7"], 0, "q=5 base=7 omega=-2 method=inverse agree=n/a\n", ""),
        (
            ["-q", "7", "--base", "7", "--method", "rounding"],
            1,
            "",
            "error: method 'rounding' is base-10 only; use --method inverse\n",
        ),
        (["-q", "8"], 1, "", "error: q=8 and base=10 share a factor; no trimming weight exists\n"),
        (
            ["-q", "15", "--method", "table"],
            1,
            "",
            "error: no base-10 trimming weight for q=15: last digit must be 1, 3, 7 or 9\n",
        ),
    ],
)
def test_weight_output_is_pinned(capsys, argv, code, out, err):
    assert run(capsys, "weight", *argv) == (code, out, err)


def test_trace_trim_chain(capsys):
    code, out, _ = run(capsys, "trace", "--family", "trim", "-q", "7", "32184")
    assert code == 0
    assert out == (
        "rule: family=trim q=7 base=10 omega=-2\n"
        "step 1: trim -> 3210\n"
        "step 2: trim -> 321\n"
        "step 3: trim -> 30\n"
        "terminal: 30\n"
        "verdict: not divisible\n"
    )


def test_apply_json_shows_k_for_last_digits_only(capsys):
    code, out, err = run(capsys, "lastdigit", "-q", "8", "--json", "32184")
    assert (code, err) == (0, "")
    expected = {"family": "last_digits", "q": 8, "base": 10, "input": "32184", "result": "184", "k": 3}
    assert out == json.dumps(expected, indent=2) + "\n"
    code, out, err = run(capsys, "trim", "-q", "7", "--json", "32184")
    assert (code, err) == (0, "")
    assert "k" not in json.loads(out)


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}

    def python_m(*argv):
        argv = [sys.executable, "-m", "trimsum", *argv]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)

    done = python_m("trace", "--family", "trim", "-q", "7", "32184")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "rule: family=trim q=7 base=10 omega=-2\n"
        "step 1: trim -> 3210\n"
        "step 2: trim -> 321\n"
        "step 3: trim -> 30\n"
        "terminal: 30\n"
        "verdict: not divisible\n"
    )
    done = python_m("lastdigit", "-q", "7", "32184")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error:")


def test_trace_stacked_chain(capsys):
    code, out, _ = run(capsys, "trace", "--family", "trim", "-q", "9", "--stacked", "32184")
    assert code == 0
    assert out == (
        "rule: family=trim q=9 base=10 omega=+1\n"
        "step 1: stack -> [12, 1, 2, 3] = 3222\n"
        "step 2: stack -> [13, 2, 3] = 333\n"
        "step 3: stack -> [15, 3] = 45\n"
        "step 4: stack -> [18] = 18\n"
        "terminal: 18\n"
        "verdict: divisible\n"
    )


def test_trace_left_trim_chain(capsys):
    code, out, _ = run(capsys, "trace", "--family", "left_trim", "-q", "7", "32184")
    assert code == 0
    assert out == (
        "rule: family=left_trim q=7 base=10\n"
        "step 1: left_trim -> [4, 8, 1, 11] = 11184\n"
        "step 2: left_trim -> [4, 8, 34] = 3484\n"
        "step 3: left_trim -> [4, 110] = 1104\n"
        "step 4: left_trim -> [334] = 334\n"
        "terminal: 334\n"
        "verdict: not divisible\n"
    )


def test_trace_json_golden(capsys):
    _, first, _ = run(capsys, "trace", "--family", "trim", "-q", "7", "--json", "32184")
    _, second, _ = run(capsys, "trace", "--family", "trim", "-q", "7", "--json", "32184")
    assert first == second
    doc = json.loads(first)
    assert doc == {
        "rule": {"family": "trim", "q": 7, "base": 10, "omega": -2},
        "steps": [
            {"op": "trim", "coeffs": [0, 1, 2, 3], "collapsed": "3210"},
            {"op": "trim", "coeffs": [1, 2, 3], "collapsed": "321"},
            {"op": "trim", "coeffs": [0, 3], "collapsed": "30"},
        ],
        "terminal": "30",
        "verdict": "not_divisible",
    }
    assert list(doc) == ["rule", "steps", "terminal", "verdict"]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["--family", "sum", "-q", "17", "32184"],
            "rule: family=sum q=17 base=10 omega=-5\n"
            "step 1: sum -> 1518\n"
            "step 2: sum -> -999\n"
            "step 3: sum -> 189\n"
            "step 4: sum -> 186\n"
            "step 5: sum -> 111\n"
            "step 6: sum -> 21\n"
            "terminal: 21\n"
            "verdict: not divisible\n",
        ),
        (  # the one step does not shrink, so it is also the terminal
            ["--family", "binomial", "-q", "39", "32184"],
            "rule: family=binomial q=39 base=10\n"
            "step 1: binomial -> 2073678\n"
            "terminal: 2073678\n"
            "verdict: not divisible\n",
        ),
        (
            ["--family", "last_digits", "-q", "8", "32184"],
            "rule: family=last_digits q=8 base=10\n"
            "step 1: last_digits -> 184\n"
            "step 2: last_digits -> 184\n"
            "terminal: 184\n"
            "verdict: divisible\n",
        ),
        (
            ["--family", "trim", "-q", "7", "5"],
            "rule: family=trim q=7 base=10 omega=-2\nterminal: 5\nverdict: not divisible\n",
        ),
        (
            ["--family", "left_trim", "-q", "7", "--", "-4"],
            "rule: family=left_trim q=7 base=10\nterminal: 4\nverdict: not divisible\n",
        ),
        (  # base - q = -1: a negative coefficient, and negative collapsed values
            ["--family", "left_trim", "-q", "11", "32184"],
            "rule: family=left_trim q=11 base=10\n"
            "step 1: left_trim -> [4, 8, 1, -1] = -816\n"
            "step 2: left_trim -> [4, 8, 2] = 284\n"
            "step 3: left_trim -> [4, 6] = 64\n"
            "step 4: left_trim -> [-2] = -2\n"
            "terminal: -2\n"
            "verdict: not divisible\n",
        ),
        (
            ["--family", "trim", "-q", "37", "--base", "36", "--stacked", "z3k9"],
            "rule: family=trim q=37 base=36 omega=-1\n"
            "step 1: stack -> [11, 3, 35] = z3b\n"
            "step 2: stack -> [-8, 35] = ys\n"
            "step 3: stack -> [43] = 17\n"
            "terminal: 17\n"
            "verdict: not divisible\n",
        ),
    ],
)
def test_trace_text_is_pinned(capsys, argv, expected):
    assert run(capsys, "trace", *argv) == (0, expected, "")


def test_trace_json_left_trim_golden(capsys):
    doc = {  # key order included: the text must be exactly this document at indent 2
        "rule": {"family": "left_trim", "q": 7, "base": 10, "omega": None},
        "steps": [
            {"op": "left_trim", "coeffs": [4, 8, 1, 11], "collapsed": "11184"},
            {"op": "left_trim", "coeffs": [4, 8, 34], "collapsed": "3484"},
            {"op": "left_trim", "coeffs": [4, 110], "collapsed": "1104"},
            {"op": "left_trim", "coeffs": [334], "collapsed": "334"},
        ],
        "terminal": "334",
        "verdict": "not_divisible",
    }
    expected = json.dumps(doc, indent=2) + "\n"
    assert run(capsys, "trace", "--family", "left_trim", "-q", "7", "--json", "32184") == (0, expected, "")


def _text_from_document(doc, stacked):
    """The trace text, written out from the JSON document as the steps read it."""
    r = doc["rule"]
    omega = "" if r["omega"] is None else f" omega={r['omega']:+d}"
    lines = [f"rule: family={r['family']} q={r['q']} base={r['base']}{omega}"]
    for i, step in enumerate(doc["steps"], start=1):
        coeffs = f"{step['coeffs']} = " if stacked else ""
        lines.append(f"step {i}: {step['op']} -> {coeffs}{step['collapsed']}")
    lines += [f"terminal: {doc['terminal']}", f"verdict: {doc['verdict'].replace('_', ' ')}"]
    return "\n".join(lines) + "\n"


def _assert_streams_match_the_document(capsys, a, rule, stacked):
    trace = iterate(a, rule, stacked=stacked)
    text = trace.render() + "\n"
    assert "steps" not in trace.__dict__  # rendering builds no steps
    doc = trace.as_json()
    assert text == _text_from_document(doc, trace.stacked)
    argv = _trace_argv(a, rule, stacked)
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, "trace", "--json", *argv[1:]) == (0, json.dumps(doc, indent=2) + "\n", "")
    return doc


@pytest.mark.parametrize("base", [2, 10, 16, 36])
def test_streamed_trace_is_the_whole_document_byte_for_byte(capsys, base):
    rng = random.Random(1300 + base)
    cases = [(parse("49"), TestRule.trim(7), False)] if base == 10 else []  # 49 trims to -14
    for family in FAMILIES:
        for q in (*range(1, 40), 647):  # 36**2 = 2 (mod 647): a Talmud rule in base 36
            try:
                rule = TestRule(family, q, base)
            except ValueError:
                continue
            for stacked in (False, True) if family == "trim" else (False,):
                for digits in (1, 2, 40):
                    cases.append((random_digit_string(rng, base, max_digits=digits), rule, stacked))
    assert {(rule.family, stacked) for _, rule, stacked in cases} == {*((f, False) for f in FAMILIES), ("trim", True)}
    empty = negative_inputs = negative_steps = 0
    for a, rule, stacked in cases:
        doc = _assert_streams_match_the_document(capsys, a, rule, stacked)
        empty += not doc["steps"]
        negative_inputs += a.sign < 0
        negative_steps += any(step["collapsed"].startswith("-") for step in doc["steps"])
    assert empty and negative_inputs and negative_steps


def _long_binomial_input():
    rng = random.Random(5000)
    return parse(str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(4999)))


def test_streamed_trace_prints_values_past_the_int_to_str_limit(capsys):
    a = _long_binomial_input()
    doc = _assert_streams_match_the_document(capsys, a, TestRule.binomial(2), False)
    assert len(doc["steps"][0]["collapsed"]) > 4300  # past str()'s default limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_trace_json_prints_a_fold_past_the_int_to_str_limit_as_a_json_integer(capsys):
    rng = random.Random(4300)
    text = str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(499))
    rule = TestRule.left_trim(10**9 + 7)  # each step's fold grows by about nine digits
    code, out, err = run(capsys, "trace", "--json", "--family", "left_trim", "-q", str(rule.q), text)
    assert (code, err) == (0, "")
    doc = iterate(parse(text), rule).as_json()
    assert json.loads(out, parse_int=lambda s: parse(s).value) == doc
    with pytest.raises(ValueError):  # a fold of over 4300 digits: str() refuses it under the default limit
        json.dumps(doc)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_streamed_trace_under_the_least_int_to_str_limit(capsys):
    a, limit = _long_binomial_input(), sys.get_int_max_str_digits()
    rng = random.Random(2000)
    long_trim = parse(str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(1999)))
    wide = iterate(long_trim, TestRule.trim(10**700 + 3))  # q and omega have over 640 digits
    table = analyzer.compare([wide.rule.q], [parse("123456789")])
    views = (wide.render, lambda: "".join(wide._json_chunks()), table.to_csv)
    sys.set_int_max_str_digits(0)
    try:
        printed = [view() for view in views]  # as printed with no limit
        sys.set_int_max_str_digits(640)
        _assert_streams_match_the_document(capsys, a, TestRule.binomial(2), False)
        # the digit buffer hands the chain over at a number of about 640 digits, past the limit
        _assert_streams_match_the_document(capsys, long_trim, TestRule.trim(10**639 + 3), False)
        assert [view() for view in views] == printed
    finally:
        sys.set_int_max_str_digits(limit)


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_cli_trace_memory_does_not_grow_with_the_whole_trace(mode):
    rng = random.Random(1500)
    text = str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(1499))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = main(["trace", *mode, "--family", "left_trim", "-q", "7", text])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1024 * 1024  # the whole document peaked at about 110 MiB (json) and 20 MiB (text)


class _Tail(_Discard):
    """Keeps a trace's last two writes: its terminal and verdict lines, or its last step and closing chunk."""

    def __init__(self):
        self.tail = ["", ""]

    def write(self, text):
        self.tail = [self.tail[-1], text]
        return len(text)


def _printed_terminal(text):
    """The terminal a trace's text or JSON prints."""
    match = re.search(r'^terminal: (.*)$|^  "terminal": "(.*)",$', text, re.M)
    return match[1] or match[2]


def _trace_argv(a, rule, stacked):
    stacked_flag = ["--stacked"] if stacked else []
    return ["trace", *stacked_flag, "--family", rule.family, "-q", str(rule.q), "--base", str(a.base), "--", a.render()]


def _cli_tail(argv):
    out = _Tail()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv[:-1]
    return "".join(out.tail)


def _one_rule_of_each_family(base):
    """(rule, stacked) for every family in base, and stacked trim."""
    q, talmud = {2: (3, 2), 10: (7, 7), 36: (37, 647)}[base]  # base**2 = 2 (mod talmud)
    rules = [(TestRule(family, q, base), False) for family in ("trim", "left_trim", "sum", "binomial")]
    rules += [(TestRule.trim(q, base), True), (TestRule("talmud", talmud, base), False)]
    return rules + [(TestRule.last_digits(8, base), False)]


@pytest.mark.parametrize("base", [2, 10, 36])
def test_every_printed_terminal_is_the_one_iterate_reads(base):
    """Each printed form's terminal equals ``iterate(...).terminal``, read on a separate trace."""
    rng = random.Random(2200 + base)
    values = [rng.randrange(base ** (n - 1) if n > 1 else 0, base**n) for n in (1, 2, 3, 4, 40)]
    values += [base ** (n - 1) for n in (5, 13)] + [base**n - 1 for n in (5, 13)]  # 1 0...0, all base - 1
    rules = _one_rule_of_each_family(base)
    cases = [(DigitString.from_int(sign * v, base), *rule) for v in values for sign in (1, -1) for rule in rules]
    if base == 10:  # long enough that a trim trace hands over from its digit buffer to int steps
        long = parse(str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(2999)))
        cases += [(long, TestRule.trim(7), False), (long, TestRule.talmud(), False)]
    steps = set()
    for a, rule, stacked in cases:
        terminal = iterate(a, rule, stacked=stacked).terminal.render()
        trace = iterate(a, rule, stacked=stacked)
        argv = _trace_argv(a, rule, stacked)
        doc = trace.as_json()
        printed = [
            _printed_terminal(trace.render()),
            _printed_terminal(deque(trace._json_chunks(), maxlen=1)[0]),
            _printed_terminal(_cli_tail(argv)),
            _printed_terminal(_cli_tail(["trace", "--json", *argv[1:]])),
            doc["terminal"],
        ]
        assert printed == [terminal] * 5, (rule, stacked, a.render()[:20])
        steps.add(min(len(doc["steps"]), 3))
    assert steps == {0, 1, 2, 3}  # chains of no step, one, two and more


def test_printed_traces_run_no_carried_stack_and_convert_nothing(monkeypatch):
    rng = random.Random(2201)
    inputs = [parse(str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(299))), parse("-32184")]
    inputs.append(DigitString.from_int(rng.randrange(36**299, 36**300), 36))
    carried, from_int, calls = families._carried, DigitString.from_int.__func__, []

    def counting_carried(d, rule):
        calls.append(("_carried", rule))
        return carried(d, rule)

    def counting_from_int(cls, value, base=10):
        calls.append(("from_int", value))
        return from_int(cls, value, base)

    monkeypatch.setattr(families, "_carried", counting_carried)
    monkeypatch.setattr(DigitString, "from_int", classmethod(counting_from_int))
    for a in inputs:
        for rule, stacked in _one_rule_of_each_family(a.base):
            trace = iterate(a, rule, stacked=stacked)  # a sum or binomial verdict runs _carried, which takes no step
            calls.clear()
            trace.render()
            deque(trace._json_chunks(), maxlen=0)
            trace.as_json()
            assert calls == [], (rule, stacked)
            if rule.family in ("trim", "talmud", "left_trim"):
                argv = _trace_argv(a, rule, stacked)
                _cli_tail(argv)
                _cli_tail(["trace", "--json", *argv[1:]])
                assert calls == [], (rule, stacked)


def test_negative_numbers_with_letters_are_numbers_not_options(capsys):
    trace = ["trace", "--family", "trim", "--base", "36"]
    expected = run(capsys, *trace, "-q", "7", "--", "-2u6")
    assert expected[0] == 0 and expected[1].endswith("terminal: 30\nverdict: not divisible\n")
    assert run(capsys, *trace, "-q", "7", "-2u6") == expected
    assert run(capsys, *trace, "-q7", "-2U6") == expected
    assert run(capsys, "trim", "-q", "7", "--base", "36", "-2u6") == (0, "30\n", "")
    code, out, _ = run(capsys, "compare", "-q", "7", "--base", "36", "-2u6", "-49")
    assert code == 0 and len(out.splitlines()) == 7
    with pytest.raises(SystemExit) as exc:
        main(["trace", "-h"])
    assert exc.value.code == 0 and "usage: trimsum trace" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:  # a letter first still reads as an option
        main([*trace, "-q", "7", "-z3k9"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *trace, "-q", "7", "--", "-z3k9")[0] == 0


def test_talmud_trace_default_q(capsys):
    code, out, _ = run(capsys, "trace", "--family", "talmud", "32184")
    assert code == 0
    assert "step 1: talmud -> 726" in out
    assert "step 2: talmud -> 40" in out
    assert out.endswith("verdict: not divisible\n")


def test_compare_matches_golden(capsys):
    code, out, err = run(capsys, "compare", "-q", "7,9,11,17,39,181", "32184")
    assert (code, err) == (0, "")
    assert out == GOLDEN.read_text()


def test_compare_json_mirrors_csv(capsys):
    _, out, _ = run(capsys, "compare", "-q", "7", "--json", "32184")
    rows = json.loads(out)
    assert [r["family"] for r in rows] == ["binomial", "sum", "trim"]
    assert rows[2]["weight_magnitude"] == 2


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--family", "trim", "-q", "7", "--trials", "1000", "--seed", "42")
    assert code == 0
    assert out.startswith("family=trim q=7 base=10 trials=1000 seed=42 mismatches=0 ")


def test_check_json_deterministic(capsys):
    args = ("check", "--family", "sum", "-q", "39", "--trials", "200", "--seed", "9", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["mismatches"] == 0
    assert doc["rule"] == {"family": "sum", "q": 39, "base": 10, "omega": 4}


def test_check_prints_the_pinned_report(capsys):
    code, out, err = run(capsys, "check", "--family", "trim", "-q", "7", "--trials", "1000", "--seed", "42")
    assert (code, err) == (0, "")
    assert out == "family=trim q=7 base=10 trials=1000 seed=42 mismatches=0 mean_length_drop=0.9790\n"


def test_check_json_prints_the_pinned_report(capsys):
    code, out, err = run(capsys, "check", "--family", "sum", "-q", "39", "--trials", "200", "--seed", "9", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "rule": {"family": "sum", "q": 39, "base": 10, "omega": 4},
        "trials": 200,
        "mismatches": 0,
        "mean_length_drop": 11.335,
        "seed": 9,
    }


@pytest.mark.parametrize(
    "args,family,q,base,omega,drop",
    [
        (["--family", "trim", "-q", "7"], "trim", 7, 10, "-2", "0.979"),
        (["--family", "sum", "-q", "13"], "sum", 13, 10, "4", "11.471"),
        (["--family", "binomial", "-q", "13"], "binomial", 13, 10, "null", "15.404"),
        (["--family", "left_trim", "-q", "7"], "left_trim", 7, 10, "null", "0.138"),
        (["--family", "talmud"], "talmud", 7, 10, "null", "1.417"),
        (["--family", "last_digits", "-q", "8", "--base", "2"], "last_digits", 8, 2, "null", "28.51"),
    ],
    ids=["trim", "sum", "binomial", "left_trim", "talmud", "last_digits"],
)
def test_check_json_prints_every_familys_pinned_report(capsys, args, family, q, base, omega, drop):
    """The same seed draws the same inputs on every Python: each report is pinned to the byte."""
    code, out, err = run(capsys, "check", *args, "--trials", "1000", "--seed", "42", "--json")
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "rule": {\n'
        f'    "family": "{family}",\n'
        f'    "q": {q},\n'
        f'    "base": {base},\n'
        f'    "omega": {omega}\n'
        "  },\n"
        '  "trials": 1000,\n'
        '  "mismatches": 0,\n'
        f'  "mean_length_drop": {drop},\n'
        '  "seed": 42\n'
        "}\n"
    )


def test_check_talmud_uses_its_fixed_divisor(capsys):
    code, out, err = run(capsys, "check", "--family", "talmud", "--trials", "200", "--seed", "3")
    assert (code, err) == (0, "")
    assert out.startswith("family=talmud q=7 base=10 trials=200 seed=3 mismatches=0 ")


def test_check_rejects_nonpositive_max_digits(capsys):
    code, out, err = run(capsys, "check", "--family", "trim", "-q", "7", "--max-digits", "0")
    assert code == 1 and out == ""
    assert err == "error: max_digits must be >= 1, got 0\n"


def test_check_caps_trials_and_max_digits(capsys):
    code, out, err = run(capsys, "check", "--family", "trim", "-q", "7", "--trials", "1000001")
    assert code == 1 and out == ""
    assert err == "error: trials must be <= 1000000, got 1000001\n"
    code, out, err = run(capsys, "check", "--family", "trim", "-q", "7", "--max-digits", "10001")
    assert code == 1 and out == ""
    assert err == "error: max_digits must be <= 10000, got 10001\n"


def test_compare_omits_families_without_a_test_for_q(capsys):
    code, out, err = run(capsys, "compare", "-q", "1", "32184")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["1,10,sum,0,1,4,5", "1,10,trim,0,3,3,5"]
    code, out, err = run(capsys, "compare", "-q", "4", "32184")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["4,10,binomial,6,4,12,5"]
    code, out, err = run(capsys, "compare", "-q", "0", "32184")
    assert code == 1 and out == ""
    assert err == "error: divisor must be >= 1, got 0\n"


def test_compare_rejects_a_malformed_or_empty_divisor_list_as_usage(capsys):
    for q in ["abc", "7.5", "7,x", ",", "", "x" * 100000]:  # each exited 1 or printed a header-only table
        with pytest.raises(SystemExit) as exc:
            main(["compare", "-q", q, "12"])
        assert exc.value.code == 2, q[:10]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: trimsum compare"), q[:10]
        shown = f"{q!r:.60}"  # a long text is cut, as every refused value is: its whole was written to stderr
        assert f"argument -q: expected comma-separated integer divisors, got {shown}\n" in err, q[:10]
        assert len(err) < 300, q[:10]
    assert run(capsys, "compare", "-q", "7,,9", "12")[0] == 0  # an empty part is skipped, as before
    for q in ["0", "-7"]:
        code, out, err = run(capsys, "compare", "-q", q, "12")
        assert (code, out) == (1, "") and err == f"error: divisor must be >= 1, got {q}\n", q


def test_domain_errors_exit_one(capsys):
    code, out, err = run(capsys, "trim", "-q", "8", "32184")
    assert code == 1 and out == ""
    assert "share a factor" in err
    code, _, err = run(capsys, "trace", "--family", "sum", "-q", "7", "--stacked", "32184")
    assert code == 1 and "stacked iteration" in err
    code, _, err = run(capsys, "weight", "-q", "17", "--method", "table", "--base", "16")
    assert code == 1 and "base-10 only" in err
    code, _, err = run(capsys, "lastdigit", "-q", "7", "32184")
    assert code == 1 and "no last-digits test" in err
    code, out, err = run(capsys, "trace", "--family", "talmud", "-q", "9", "32184")
    assert code == 1 and out == ""
    assert "alpha = beta * base**k (mod q)" in err and err.endswith("got q=9 base=10\n"), err
    code, _, err = run(capsys, "trim", "-q", "7", "zz")
    assert code == 1 and "invalid digit" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trim", "-q", "seven", "32184"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--family", "trim", "32184"])  # missing -q
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "-q" in err
    with pytest.raises(SystemExit) as exc:
        main(["check", "--family", "sum", "--trials", "5"])  # missing -q
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "-q" in err
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_one_parser_serves_every_call_with_no_state_carried_over(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", None)  # main must not build another
    stacked = run(capsys, "trace", "--family", "trim", "-q", "9", "--stacked", "32184")
    assert stacked[1].startswith("rule: family=trim q=9 base=10 omega=+1\nstep 1: stack -> [12, 1, 2, 3]")
    plain = run(capsys, "trace", "--family", "trim", "-q", "9", "32184")
    assert plain[1].splitlines()[1] == "step 1: trim -> 3222"
    assert run(capsys, "trim", "-q", "13", "32184") == (0, "3234\n", "")
    assert run(capsys, "talmud", "32184") == (0, "726\n", "")  # talmud's q default is still None
    code, out, _ = run(capsys, "talmud", "--json", "32184")
    assert (code, json.loads(out)["q"]) == (0, 7)
    with pytest.raises(SystemExit) as exc:
        main(["trim", "-q", "seven", "32184"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "trim", "-q", "7", "32184") == (0, "3210\n", "")
