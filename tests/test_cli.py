import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corematch
from corematch.cli import main, parse_market
from corematch.rationals import (
    MAX_DIGITS,
    format_decimal,
    format_rational,
    parse_rational,
)

BENCH = {
    "mode": "job-market",
    "firms": [{"id": "f1", "capacity": 2}, {"id": "f2", "capacity": 1}],
    "workers": ["w1", "w2", "w3"],
    "surplus": [["8", "6", "3"], ["7", "6", "4"]],
}
BUYERS = {
    "mode": "buyer-seller",
    "buyers": ["b1", "b2", "b3"],
    "sellers": [{"id": "s1", "capacity": 2}, {"id": "s2", "capacity": 1}],
    "valuations": [["8", "7"], ["6", "6"], ["3", "4"]],
}


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(BENCH))
    return str(path)


@pytest.fixture
def buyers_file(tmp_path):
    path = tmp_path / "buyers.json"
    path.write_text(json.dumps(BUYERS))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rational_parsing():
    assert parse_rational("2.25") == F(9, 4)
    assert parse_rational("143/28") == F(143, 28)
    assert parse_rational(7) == F(7)
    with pytest.raises(ValueError):
        parse_rational("abc")
    with pytest.raises(ValueError):
        parse_rational(0.25)
    for text in ("inf", "-Infinity", "NaN"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_rational_formatting():
    assert format_rational(F(9, 4)) == "9/4"
    assert format_rational(F(8)) == "8"
    assert format_decimal(F(9, 4), 3) == "2.250"
    assert format_decimal(F(-1, 3), 4) == "-0.3333"
    assert format_decimal(F(1, 2), 0) == "0"  # round half to even
    assert format_decimal(F(3, 2), 0) == "2"


def test_the_digit_bound_holds_on_every_path():
    big = "9" * (MAX_DIGITS + 1)
    for text in (big, f"{big}/1", f"1/{big}", f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS}"):
        with pytest.raises(ValueError):
            parse_rational(text)
    assert parse_rational(f"1e{MAX_DIGITS - 1}") == 10 ** (MAX_DIGITS - 1)
    assert format_rational(F(10**MAX_DIGITS - 1)) == "9" * MAX_DIGITS
    with pytest.raises(corematch.CorematchError, match="too large to print"):
        format_rational(F(1, 10**MAX_DIGITS))
    # zero padding is not a digit of any integer printed
    assert format_decimal(F(18), MAX_DIGITS + 9) == "18." + "0" * (MAX_DIGITS + 9)


def test_parse_market_surplus(bench_file):
    parsed = parse_market(bench_file)
    assert parsed.mode == "job-market"
    assert parsed.job.matrix[0] == (F(8), F(6), F(3))


def test_parse_market_raw_form(tmp_path):
    raw = {
        "mode": "job-market",
        "firms": [{"id": "f1", "capacity": 2}, {"id": "f2", "capacity": 1}],
        "workers": ["w1", "w2", "w3"],
        "hire_values": [[9, 7, 3], [8, 7, 4]],
        "reservations": [1, 1, 0],
    }
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(raw))
    parsed = parse_market(str(path))
    assert parsed.job.matrix == ((F(8), F(6), F(3)), (F(7), F(6), F(4)))


def test_parse_exact_decimals(tmp_path):
    data = dict(BENCH, surplus=[[2.25, 6, 3], [7, 6, 4]])
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    assert parse_market(str(path)).job.matrix[0][0] == F(9, 4)


def test_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "match", str(bad))
    assert code == 1 and "malformed JSON" in err and "line 1" in err

    ragged = dict(BENCH, surplus=[["8", "6"], ["7", "6", "4"]])
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(ragged))
    code, _, err = run(capsys, "match", str(path))
    assert code == 1 and "non-rectangular" in err

    negative = dict(BENCH, surplus=[["8", "6", "-3"], ["7", "6", "4"]])
    path.write_text(json.dumps(negative))
    code, _, err = run(capsys, "match", str(path))
    assert code == 1 and "negative" in err

    dupes = dict(BENCH, workers=["w1", "w1", "w3"])
    path.write_text(json.dumps(dupes))
    code, _, err = run(capsys, "match", str(path))
    assert code == 1 and "duplicate" in err


def test_match_command(bench_file, capsys):
    code, out, _ = run(capsys, "match", bench_file)
    assert code == 0
    assert out.splitlines() == [
        "optimal value: 18",
        "f1 <- w1, w2",
        "f2 <- w3",
    ]


def test_salaries_command(bench_file, capsys):
    code, out, _ = run(capsys, "salaries", bench_file, "--min")
    assert code == 0
    assert "salaries: w1=3, w2=2, w3=0" in out
    assert "firm payoffs: f1=9, f2=4" in out
    code, out, _ = run(capsys, "salaries", bench_file, "--max")
    assert "salaries: w1=8, w2=6, w3=4" in out


def test_core_check_command(bench_file, capsys):
    code, out, _ = run(capsys, "core", "check", bench_file, "3,2,0")
    assert code == 0 and "in core: yes" in out
    code, out, _ = run(capsys, "core", "check", bench_file, "0,6,3")
    assert code == 0 and "in core: no" in out
    code, _, err = run(capsys, "core", "check", bench_file, "1,2")
    assert code == 1 and "expected 3" in err


def test_extremes_commands(bench_file, capsys):
    code, out, _ = run(capsys, "extremes", bench_file)
    assert code == 0
    assert "extreme points: 9, witnessing orders: 28" in out
    code, out, _ = run(capsys, "extremes", bench_file, "--witnesses")
    assert code == 0
    assert "extended orders: 48, in core: 28" in out
    code, out, _ = run(capsys, "extremes", bench_file, "--json")
    payload = json.loads(out)
    assert len(payload) == 9
    assert sum(len(p["witnesses"]) for p in payload) == 28


def test_digraph_command(bench_file, capsys):
    code, out, _ = run(capsys, "digraph", bench_file, "3,2,0")
    assert code == 0
    assert out.splitlines() == ["0 -> 3", "3 -> 1", "3 -> 2"]
    code, out, _ = run(capsys, "digraph", bench_file, "8,6,4", "--dot")
    assert out.startswith("digraph tight {")
    for arc in ("1 -> 0;", "2 -> 0;", "3 -> 0;", "3 -> 2;"):
        assert arc in out
    code, _, err = run(capsys, "digraph", bench_file, "9,9,9")
    assert code == 1


def test_point_solutions(bench_file, capsys):
    code, out, _ = run(capsys, "nucleolus", bench_file)
    assert "firm payoffs: f1=4, f2=9/4" in out
    assert "salaries: w1=23/4, w2=17/4, w3=7/4" in out
    code, out, _ = run(capsys, "tau", bench_file)
    assert "f1=143/28" in out
    code, out, _ = run(capsys, "fair-division", bench_file)
    assert "w1=11/2" in out
    code, out, _ = run(capsys, "shapley", bench_file)
    assert code == 0


def test_nucleolus_of_an_18_player_market(tmp_path, capsys):
    # firm i values only worker i, at 2i: beyond the 16-player game table
    diagonal = {
        "mode": "job-market",
        "firms": [{"id": f"f{i}", "capacity": 1} for i in range(1, 10)],
        "workers": [f"w{j}" for j in range(1, 10)],
        "surplus": [
            [str(2 * i) if i == j else "0" for j in range(1, 10)]
            for i in range(1, 10)
        ],
    }
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(diagonal))
    code, out, err = run(capsys, "nucleolus", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "firm payoffs: " + ", ".join(f"f{i}={i}" for i in range(1, 10)),
        "salaries: " + ", ".join(f"w{i}={i}" for i in range(1, 10)),
    ]


def test_decimal_rendering(bench_file, capsys):
    code, out, _ = run(capsys, "fair-division", bench_file, "--decimal", "2")
    assert "f1=4.50" in out and "w1=5.50" in out
    code, out2, _ = run(capsys, "--decimal", "2", "fair-division", bench_file)
    assert out2 == out


def test_kernel_check_command(bench_file, capsys):
    code, out, _ = run(capsys, "kernel", "check", bench_file, "4,9/4;23/4,17/4,7/4")
    assert code == 0 and "in kernel: yes" in out
    code, _, err = run(capsys, "kernel", "check", bench_file, "1,2,3")
    assert code == 1  # missing the firm;worker separator


def test_structure_commands(bench_file, capsys):
    code, out, _ = run(capsys, "dominant-diagonal", bench_file)
    assert code == 0 and "dominant diagonal: no" in out
    assert "best bundle: f2" in out
    code, out, _ = run(capsys, "convex", bench_file)
    assert code == 0 and "convex: no" in out


def test_kaneko_commands(buyers_file, capsys):
    code, out, _ = run(capsys, "kaneko", "extremes", buyers_file)
    assert code == 0
    assert out.splitlines() == [
        "buyer payoffs | seller prices",
        "4 2 0 | 4 4",
        "5 3 0 | 3 4",
        "8 6 3 | 0 1",
        "8 6 4 | 0 0",
    ]
    code, out, _ = run(capsys, "kaneko", "digraph", buyers_file, "4,2,0")
    assert out.splitlines() == ["0 -> 3", "1 -> 2", "2 -> 1", "3 -> 2"]
    code, out, _ = run(capsys, "kaneko", "ce-check", buyers_file, "3,2,0")
    assert "in core: yes" in out and "in CE set: no" in out


def _count_calls(monkeypatch, name, modules):
    calls = []
    real = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_commands_build_one_core_system(bench_file, buyers_file, capsys, monkeypatch):
    from corematch import core

    calls = _count_calls(monkeypatch, "core_constraints", (core,))
    for argv in (
        ["kaneko", "ce-check", buyers_file, "3,2,0"],
        ["kaneko", "digraph", buyers_file, "4,2,0"],
        ["kaneko", "extremes", buyers_file],
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv


def test_bellman_ford_passes_per_command(bench_file, buyers_file, capsys, monkeypatch):
    from corematch import core

    calls = _count_calls(monkeypatch, "_longest_paths", (core,))
    for argv, passes in (
        (["salaries", bench_file, "--min"], 1),
        (["salaries", bench_file, "--max"], 2),
        (["digraph", bench_file, "3,2,0"], 1),
        (["extremes", bench_file], 1),
        (["kaneko", "extremes", buyers_file], 1),
        (["kaneko", "digraph", buyers_file, "4,2,0"], 1),
        (["kaneko", "ce-check", buyers_file, "3,2,0"], 1),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == passes, argv


def test_vectors_outside_the_core_print_as_given(
    tmp_path, bench_file, buyers_file, capsys
):
    assert run(capsys, "digraph", bench_file, "0,5,7") == (
        1, "", "error: (0, 5, 7) is not a competitive salary vector\n"
    )
    assert run(capsys, "kaneko", "digraph", buyers_file, "0,5,7") == (
        1, "", "error: (0, 5, 7) is not a CE payoff vector\n"
    )
    # spare seats and spare units: the dummies' zeros stay out of the message
    spare = tmp_path / "spare.json"
    firms = [{"id": "f1", "capacity": 2}, {"id": "f2", "capacity": 2}]
    spare.write_text(json.dumps(dict(BENCH, firms=firms)))
    assert run(capsys, "digraph", str(spare), "0,5,7/2") == (
        1, "", "error: (0, 5, 7/2) is not a competitive salary vector\n"
    )
    spare_units = tmp_path / "spare_units.json"
    spare_units.write_text(json.dumps(dict(BUYERS, buyers=["b1", "b2"],
                                           valuations=[["8", "7"], ["6", "6"]])))
    assert run(capsys, "kaneko", "digraph", str(spare_units), "9,1/3") == (
        1, "", "error: (9, 1/3) is not a CE payoff vector\n"
    )


def test_mode_mismatch(bench_file, buyers_file, capsys):
    code, _, err = run(capsys, "kaneko", "extremes", bench_file)
    assert code == 1 and "buyer-seller" in err
    code, _, err = run(capsys, "match", buyers_file)
    assert code == 1 and "kaneko" in err


def test_usage_error_exit_code(bench_file):
    with pytest.raises(SystemExit) as exc:
        main(["salaries", bench_file])  # missing required --min/--max
    assert exc.value.code == 2


def test_negative_decimal_is_usage_error(bench_file):
    for argv in (["--decimal", "-1", "match", bench_file],
                 ["match", bench_file, "--decimal", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _run_on(tmp_path, capsys, data, *argv):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(data))
    return run(capsys, *argv, str(path))


def test_boolean_capacity_rejected(tmp_path, capsys):
    firms = [{"id": "f1", "capacity": True}, {"id": "f2", "capacity": 1}]
    code, out, err = _run_on(tmp_path, capsys, dict(BENCH, firms=firms), "match")
    assert code == 1 and out == "" and "capacity" in err
    sellers = [{"id": "s1", "capacity": True}, {"id": "s2", "capacity": 1}]
    code, _, err = _run_on(
        tmp_path, capsys, dict(BUYERS, sellers=sellers), "kaneko", "extremes"
    )
    assert code == 1 and "capacity" in err


def test_agent_lists_must_hold_strings(tmp_path, capsys):
    one_firm = {
        "firms": [{"id": "f1", "capacity": 2}],
        "workers": "ab",
        "surplus": [["8", "6"]],
    }
    code, out, err = _run_on(tmp_path, capsys, one_firm, "match")
    assert code == 1 and out == "" and "list of strings" in err
    code, _, err = _run_on(tmp_path, capsys, dict(BENCH, workers=["w1", 2, "w3"]), "match")
    assert code == 1 and "list of strings" in err
    code, _, err = _run_on(
        tmp_path, capsys, dict(BUYERS, buyers="abc"), "kaneko", "extremes"
    )
    assert code == 1 and "list of strings" in err
    firms = [{"id": 1, "capacity": 2}, {"id": "f2", "capacity": 1}]
    code, _, err = _run_on(tmp_path, capsys, dict(BENCH, firms=firms), "match")
    assert code == 1 and "string" in err


def test_malformed_values_are_domain_errors(tmp_path, capsys):
    raw = {
        "firms": [{"id": "f1", "capacity": 1}],
        "workers": ["w1"],
        "hire_values": [[9]],
        "reservations": ["cheap"],
    }
    code, _, err = _run_on(tmp_path, capsys, raw, "match")
    assert code == 1 and "reservations" in err
    code, _, err = _run_on(
        tmp_path, capsys, dict(BENCH, surplus=[["8", "6", "inf"], ["7", "6", "4"]]), "match"
    )
    assert code == 1 and "not a rational" in err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"workers": ["\xff"]}')
    code, _, err = run(capsys, "match", str(binary))
    assert code == 1 and "UTF-8" in err


def _huge_number_run(tmp_path, capsys, text, *argv):
    """Run on a market file written as raw text, which can hold number
    literals that ``json.dumps`` refuses; return the exit code and stderr
    after checking that it took under a second and printed one error line."""
    path = tmp_path / "huge.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, str(path))
    assert time.perf_counter() - start < 1
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return code, err


@pytest.mark.parametrize("field", ["surplus", "capacity"])
def test_an_over_long_integer_literal_exits_1(tmp_path, capsys, field):
    big = "9" * (MAX_DIGITS + 1)
    capacity, surplus = (big, "1") if field == "capacity" else ("1", big)
    text = (
        f'{{"firms": [{{"id": "f1", "capacity": {capacity}}}], '
        f'"workers": ["w1"], "surplus": [[{surplus}]]}}'
    )
    code, err = _huge_number_run(tmp_path, capsys, text, "match")
    assert code == 1 and f"{MAX_DIGITS + 1} digits exceeds the limit" in err


def test_a_huge_exponent_exits_1(tmp_path, capsys):
    text = (
        '{"firms": [{"id": "f1", "capacity": 1}], "workers": ["w1"], '
        '"surplus": [[1e10000000]]}'
    )
    code, err = _huge_number_run(tmp_path, capsys, text, "match")
    assert code == 1 and "10000001 digits exceeds the limit" in err


def test_an_unprintable_result_exits_1(tmp_path, capsys):
    # each entry is accepted; their sum's denominator has 6,001 digits
    p, q = 10**3000 + 1, 10**3000 + 3
    text = (
        '{"firms": [{"id": "f1", "capacity": 2}], "workers": ["w1", "w2"], '
        f'"surplus": [["1/{p}", "1/{q}"]]}}'
    )
    code, err = _huge_number_run(tmp_path, capsys, text, "match")
    assert code == 1 and "too large to print" in err


JSON_SCALARS = (
    st.none()
    | st.booleans()
    # small: balance() pads one dummy worker per spare seat, so a huge
    # capacity costs time and memory in proportion to its value
    | st.integers(-2, 4)
    | st.sampled_from(["1/2", "2.5", "-1", "1/0", "inf", "x", ""])
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
NUMBERS = st.integers(0, 6) | st.sampled_from(["1/2", "7/3", "2.5"])


def _matrix(rows, cols, entries=NUMBERS):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def near_markets(draw):
    """Well-formed job-market or buyer-seller objects, half of them with one
    field replaced by a faulty value."""
    n_side = draw(st.integers(0, 3))
    n_units = draw(st.integers(0, 4))
    side = [
        {"id": f"s{i}", "capacity": draw(st.integers(1, 3))} for i in range(n_side)
    ]
    units = [f"u{j}" for j in range(n_units)]
    if draw(st.booleans()):
        key = draw(st.sampled_from(["surplus", "hire_values"]))
        market = {
            "mode": "job-market",
            "firms": side,
            "workers": units,
            key: draw(_matrix(n_side, n_units)),
            "reservations": draw(st.lists(NUMBERS, min_size=n_units, max_size=n_units)),
        }
    else:
        market = {
            "mode": "buyer-seller",
            "buyers": units,
            "sellers": side,
            "valuations": draw(_matrix(n_units, n_side)),
        }
    if draw(st.booleans()):
        entry = st.fixed_dictionaries({"id": JSON_SCALARS, "capacity": JSON_SCALARS})
        faults = (
            JSON_VALUES
            | st.lists(entry, max_size=3)
            | st.lists(JSON_SCALARS, max_size=4)
            | _matrix(n_side, n_units, JSON_SCALARS)
            | _matrix(n_units, n_side, JSON_SCALARS)
        )
        market[draw(st.sampled_from(sorted(market)))] = draw(faults)
    return market


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=150, deadline=None)
@given(
    data=near_markets()
    | st.dictionaries(
        st.sampled_from(["mode", "firms", "workers", "surplus", "hire_values",
                         "reservations", "buyers", "sellers", "valuations"]),
        JSON_VALUES,
    )
    | st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3)
)
def test_any_json_object_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "market.json"
    path.write_text(json.dumps(data))
    for argv in (["match"], ["salaries", "--min"], ["kaneko", "extremes"]):
        assert _exit_code(argv + [str(path)]) in (0, 1, 2)


def test_byte_identical_reruns(bench_file, capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "extremes", bench_file, "--witnesses")
        outputs.add(out)
    assert len(outputs) == 1


def _fresh_process(argv, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=str(Path(corematch.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "corematch.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
    )


def test_consecutive_calls_match_fresh_processes(bench_file):
    sequence = [
        ["--decimal", "2", "fair-division", bench_file],
        ["fair-division", bench_file],
        ["salaries", bench_file, "--min"],
        ["salaries", bench_file, "--max"],
        ["salaries", bench_file],  # usage error: --min or --max is required
        ["match", bench_file],
    ]
    codes = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        fresh = _fresh_process(argv)
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 0]


def test_closed_stdout_exits_1_without_traceback(bench_file):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start, so the first write fails
    try:
        proc = _fresh_process(["match", bench_file], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
