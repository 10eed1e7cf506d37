"""Command-line interface: verbs, routes, formats, and exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coverideals
from coverideals import cli, covers, monomials
from helpers import (
    BASE_COVER_GENS,
    CITY_GENS,
    CITY_N,
    CITY_OPTIMUM,
    FIVE_CENTER_ALPHAS,
    FIVE_CENTER_LOOPS,
    SATURATED_LOOPS,
    block_specs,
    count_spec_walks,
    ideal_of,
    positions_by_index,
)

FIVE_CENTER_JSON = json.dumps(
    {"alphas": list(FIVE_CENTER_ALPHAS), "loops": list(FIVE_CENTER_LOOPS)}
)
TRIANGLE_JSON = json.dumps({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]], "loops": []})
CITY_JSON = json.dumps({"n": CITY_N, "gens": [list(g) for g in CITY_GENS]})
SATURATED_JSON = json.dumps({"alphas": list(FIVE_CENTER_ALPHAS), "loops": list(SATURATED_LOOPS)})
SEARCHED_SPEC_JSON = '{"alphas":[2,4,5],"loops":[5]}'  # the canonical order fails
POWERS_JSON = '{"n":4,"gens":[[1,1],[1,2],[1,3],[1,4]]}'
DISJOINT_PAIRS_JSON = '{"n":4,"gens":[[1,2],[3,4]]}'  # no linear order
BASE_IDEAL_JSON = json.dumps(ideal_of(12, *BASE_COVER_GENS).to_json_dict())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def run_error(capsys, *argv):
    """The exit code and stderr of a call that prints nothing on stdout and
    exactly one error line."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return code, captured.err


class TestCoverIdeal:
    def test_text_output_uses_compressed_notation(self, capsys):
        code, out = run_cli(capsys, "cover-ideal", "--json", FIVE_CENTER_JSON)
        assert code == 0
        assert "route: closed-form" in out
        assert "X3X5X6X8X12" in out and "X1X2X5X6X8X9X12" in out

    def test_route_override(self, capsys):
        reports = {}
        for route in ("closed-form", "bruteforce", "intersection"):
            code, report = run_json(capsys, "cover-ideal", "--json", FIVE_CENTER_JSON,
                                    "--route", route)
            assert code == 0 and report["route"] == route
            reports[route] = report["ideal"]
        assert reports["closed-form"] == reports["bruteforce"] == reports["intersection"]

    @settings(max_examples=60)
    @given(block_specs(), st.sampled_from(("cover-ideal", "patrol", "cm-check", "invariants",
                                           "linear-quotients")),
           st.sampled_from(("text", "json")))
    def test_a_spec_answers_alike_on_every_route(self, spec, verb, fmt):
        # each answer is read off the walk; the route names only the code
        # that built the printed ideal, the same ideal on every route
        payload = json.dumps({"alphas": list(spec.alphas), "loops": list(spec.loops)})
        outputs = {}
        for route in cli.ROUTES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main([verb, "--json", payload, "--format", fmt, "--route", route]) == 0
            outputs[route] = out.getvalue()
        routes = {"auto": "closed-form"}
        for route, text in outputs.items():
            if fmt == "json":
                report = json.loads(text)
                assert report.pop("route") == routes.get(route, route)
                outputs[route] = report
            else:
                first, _, rest = text.partition("\n")
                assert first.startswith(f"route: {routes.get(route, route)}")
                outputs[route] = rest
        assert len({json.dumps(o, sort_keys=True) for o in outputs.values()}) == 1

    def test_closed_form_requires_spec_input(self, capsys):
        code, _ = run_cli(capsys, "cover-ideal", "--json", TRIANGLE_JSON,
                          "--route", "closed-form")
        assert code == 1

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(TRIANGLE_JSON, encoding="utf-8")
        code, report = run_json(capsys, "cover-ideal", "--input", str(path))
        assert code == 0
        assert report["ideal"]["gens"] == [[1, 2], [1, 3], [2, 3]]


class TestInvariants:
    def test_five_center_report(self, capsys):
        code, report = run_json(capsys, "invariants", "--json", FIVE_CENTER_JSON)
        assert code == 0
        inv = report["invariants"]
        assert (inv["pd"], inv["depth"], inv["dim"], inv["reg"]) == (2, 10, 11, 6)
        assert inv["cm"] is False and inv["q"] == 1

    def test_round_trip_through_emitted_ideal(self, capsys):
        _, cover = run_json(capsys, "cover-ideal", "--json", FIVE_CENTER_JSON)
        ideal_json = json.dumps(cover["ideal"])
        code, again = run_json(capsys, "invariants", "--json", ideal_json)
        assert code == 0
        direct = run_json(capsys, "invariants", "--json", FIVE_CENTER_JSON)[1]
        inv_direct = dict(direct["invariants"], reg_bounds=None)
        assert again["invariants"] == inv_direct  # the block spec only adds bounds
        patrol_direct = run_json(capsys, "patrol", "--json", FIVE_CENTER_JSON)[1]
        patrol_again = run_json(capsys, "patrol", "--json", ideal_json)[1]
        assert patrol_again["patrol"] == patrol_direct["patrol"]


class TestLinearQuotients:
    def test_five_center_certificate(self, capsys):
        code, report = run_json(capsys, "linear-quotients", "--json", FIVE_CENTER_JSON)
        assert code == 0
        cert = report["certificate"]
        assert cert["linear"] is True and cert["q"] == 1
        assert cert["steps"] == [[6], [3]]
        assert report["resolution"]["shifts"] == [[5, 6, 7], [7, 8]]

    def test_one_leaf_spec_past_the_search_limit(self, capsys):
        # 14 generators, canonical order not linear: the order is read off
        # the walk, so the 12-generator search cap never applies
        spec = json.dumps({"alphas": list(range(2, 27, 2))})
        code, out = run_cli(capsys, "linear-quotients", "--json", spec)
        lines = out.splitlines()
        assert code == 0 and lines[1:3] == ["linear quotients: yes", "q: 1"]
        assert lines[4:6] == ["  X1X4X6X8X10X12X14X16X18X20X22X24X26",
                              "  X2X4X6X8X10X12X14X16X18X20X22X24X26"]

    @pytest.mark.parametrize("route, walks", [
        ("auto", 1), ("closed-form", 1), ("bruteforce", 0), ("intersection", 0)])
    def test_a_spec_builds_the_closed_form_at_most_once(self, capsys, monkeypatch, route,
                                                        walks):
        # no route builds the closed form's masks: the printed ideal is the
        # graph route's, or on the closed form read off the walk once per
        # call, except by linear-quotients, which prints it off its
        # certificate; the order and the invariants always come from the walk
        built, printed = [], []
        monkeypatch.setattr(covers, "kprime_cover_ideal", built.append)
        monkeypatch.setattr(cli, "_walk_covers",
                            lambda spec: printed.append(spec) or covers._walk_covers(spec))
        for verb in ("cover-ideal", "invariants", "linear-quotients"):
            code, report = run_json(capsys, verb, "--route", route, "--json", FIVE_CENTER_JSON)
            assert code == 0 and report["ideal"]["gens"][-1] == [1, 2, 5, 6, 8, 9, 12]
        assert report["certificate"]["q"] == 1
        assert (built, len(printed)) == ([], 2 * walks)

    def test_absence_verdict(self, capsys):
        ideal_json = json.dumps({"n": 4, "gens": [[1, 2], [3, 4]]})
        code, report = run_json(capsys, "linear-quotients", "--json", ideal_json)
        assert code == 0
        assert report["linear"] is False and report["verdict"] == "absence"


class TestCmCheck:
    def test_saturated_with_base_ideal(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        base_path.write_text(
            json.dumps(ideal_of(12, *BASE_COVER_GENS).to_json_dict()), encoding="utf-8"
        )
        spec_json = json.dumps(
            {"alphas": list(FIVE_CENTER_ALPHAS), "loops": list(SATURATED_LOOPS)}
        )
        code, report = run_json(capsys, "cm-check", "--json", spec_json,
                                "--base-ideal", str(base_path))
        assert code == 0
        assert report["invariants"]["cm"] is True
        assert report["saturation"]["satisfied"] is True
        assert report["saturation"]["witness"] == [3, 4, 5, 8, 9, 12]

    def test_loops_override(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        base_path.write_text(
            json.dumps(ideal_of(12, *BASE_COVER_GENS).to_json_dict()), encoding="utf-8"
        )
        ideal_json = json.dumps(
            ideal_of(12, SATURATED_LOOPS).to_json_dict()
        )
        code, report = run_json(capsys, "cm-check", "--json", ideal_json,
                                "--base-ideal", str(base_path),
                                "--loops", ",".join(map(str, SATURATED_LOOPS)))
        assert code == 0 and report["saturation"]["satisfied"] is True

    def test_unreadable_base_ideal_is_one_error_line(self, tmp_path, capsys):
        not_json = tmp_path / "base.txt"
        not_json.write_text("not json", encoding="utf-8")
        for path in (tmp_path / "missing.json", not_json):
            code = cli.main(["cm-check", "--json", TRIANGLE_JSON, "--base-ideal", str(path)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("loops, with_base", [
        ("2,3", False),
        ("0,7", True),
        ("1,4", True),
        ("-1", True),
    ])
    def test_loops_rejected_without_base_or_out_of_range(self, tmp_path, capsys,
                                                          loops, with_base):
        argv = ["cm-check", "--json", TRIANGLE_JSON, "--loops", loops]
        if with_base:
            path = tmp_path / "base.json"
            path.write_text(json.dumps(ideal_of(3, (1, 2), (1, 3), (2, 3)).to_json_dict()),
                            encoding="utf-8")
            argv += ["--base-ideal", str(path)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("loops, witness", [
        ("1_0,1_1", None),
        ("١٠, +11", None),  # Arabic-Indic digits and a sign
        (" 10 , 11 ,", "X10X11"),  # whitespace and an empty token are allowed
    ])
    def test_loops_take_only_ascii_digits(self, tmp_path, capsys, loops, witness):
        path = tmp_path / "base.json"
        path.write_text('{"n": 12, "gens": [[10, 11]]}', encoding="utf-8")
        argv = ["cm-check", "--json", '{"n":12,"gens":[[10,11]]}', "--base-ideal", str(path),
                "--loops", loops]
        if witness is None:
            assert run_error(capsys, *argv)[0] == 1
        else:
            code, out = run_cli(capsys, *argv)
            assert code == 0
            assert out.splitlines()[-1] == f"loop saturation: satisfied, witness {witness}"

    def test_looped_ideal_without_linear_quotients_is_not_cm(self, capsys):
        # X1 divides both generators, so h = 1, and a non-principal ideal
        # has pd >= 2 > n - dim
        code, out = run_cli(capsys, "cm-check", "--json", '{"n":5,"gens":[[1,2,3],[1,4,5]]}')
        assert code == 0
        assert out.splitlines() == ["route: ideal-input / bounds-only", "cohen_macaulay: false"]

    @pytest.mark.parametrize("payload, base", [
        # G - L keeps the edge {4,5}, yet the triangle's cover X1X2 lies in the loops
        ('{"n":5,"edges":[[4,5]],"loops":[1,2]}', '{"n":3,"gens":[[1,2],[1,3],[2,3]]}'),
        ('{"alphas":[2,3],"loops":[1]}', '{"n":3,"gens":[[1],[2,3]]}'),
        # G - L has no edge, yet no cover lies in the loops; the base's
        # positions 1, 2 stand for X1 and X70, and the loop X100 for none
        ('{"n":100,"edges":[[1,100],[70,100]],"loops":[100]}', '{"n":100,"gens":[[1,70]]}'),
    ])
    def test_base_contradicting_the_input_is_one_error_line(self, tmp_path, capsys,
                                                            payload, base):
        path = tmp_path / "base.json"
        path.write_text(base, encoding="utf-8")
        for loops in ((), ("--loops", ",".join(map(str, json.loads(payload)["loops"])))):
            code = cli.main(["cm-check", "--json", payload, "--base-ideal", str(path), *loops])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: the base ideal is not the cover ideal")
            assert captured.err.count("\n") == 1

    def test_unit_base_ideal_gives_the_unit_witness(self, tmp_path, capsys):
        # the unit cover, mask 0, lies in every loop set
        path = tmp_path / "unit.json"
        path.write_text('{"n":3,"gens":[[]]}', encoding="utf-8")
        argv = ["cm-check", "--json", '{"n":3,"gens":[[1],[2]]}', "--base-ideal", str(path),
                "--loops", "1"]
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out.splitlines()[-1] == "loop saturation: satisfied, witness 1"
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["saturation"] == {"satisfied": True, "witness": []}

    def test_ideal_input_without_loops_fails(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        base_path.write_text(
            json.dumps(ideal_of(12, *BASE_COVER_GENS).to_json_dict()), encoding="utf-8"
        )
        ideal_json = json.dumps(ideal_of(12, SATURATED_LOOPS).to_json_dict())
        code, _ = run_cli(capsys, "cm-check", "--json", ideal_json,
                          "--base-ideal", str(base_path))
        assert code == 1


class TestPatrol:
    def test_city_ideal(self, capsys):
        code, report = run_json(capsys, "patrol", "--json", CITY_JSON)
        assert code == 0
        assert report["patrol"]["covering_number"] == 21
        assert report["patrol"]["optimal_covers"] == [list(CITY_OPTIMUM)]

    def test_triangle_text(self, capsys):
        code, out = run_cli(capsys, "patrol", "--json", TRIANGLE_JSON)
        assert code == 0
        assert "covering number: 2" in out
        assert out.count("{") == 3


class TestOracleVerify:
    def test_spec_routes_agree(self, capsys):
        code, report = run_json(capsys, "oracle-verify", "--json", FIVE_CENTER_JSON)
        assert code == 0 and report["agree"] is True
        assert set(report["routes"]) == {"closed-form", "intersection", "bruteforce"}

    def test_graph_routes_agree(self, capsys):
        code, report = run_json(capsys, "oracle-verify", "--json", TRIANGLE_JSON)
        assert code == 0 and report["agree"] is True

    def test_disagreement_exits_three(self, capsys, monkeypatch):
        wrong = ideal_of(3, (1,))
        monkeypatch.setattr(cli, "cover_ideal_by_intersection", lambda g: wrong)
        code = cli.main(["oracle-verify", "--json", TRIANGLE_JSON])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["agree"] is False

    def test_legal_spec_at_the_brute_force_guard(self, capsys):
        spec_json = json.dumps({"alphas": [2, 16, 25], "loops": [1, 18]})
        code, report = run_json(capsys, "oracle-verify", "--json", spec_json)
        assert code == 0 and report["agree"] is True

    def test_rejects_ideal_input(self, capsys):
        code, _ = run_cli(capsys, "oracle-verify", "--json", CITY_JSON)
        assert code == 1

    def test_text_prints_each_route_in_x_notation(self, capsys):
        code, out = run_cli(capsys, "oracle-verify", "--json", '{"n":4,"edges":[[1,2],[3,4]]}')
        assert code == 0
        assert out.splitlines()[2:] == ["intersection: (X1X3, X1X4, X2X3, X2X4)",
                                        "bruteforce: (X1X3, X1X4, X2X3, X2X4)"]
        # nothing to cover: every route gives the unit ideal
        code, out = run_cli(capsys, "oracle-verify", "--json", '{"n":3,"edges":[]}')
        assert code == 0 and out.splitlines()[2:] == ["intersection: (1)", "bruteforce: (1)"]


class TestArgv:
    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate", "--json", TRIANGLE_JSON],
        ["--json", TRIANGLE_JSON, "cover-ideal"],
        ["cover-ideal", "--json", TRIANGLE_JSON, "--verbose", "1"],
        ["cover-ideal", "--json", TRIANGLE_JSON, "stray"],
        ["cover-ideal", "--fo", "json", "--json", TRIANGLE_JSON],
        ["cover-ideal", "--json"],
        ["cover-ideal", "--json", "--format", "json"],
        ["cover-ideal", "--format", "json"],
        ["cover-ideal", "--json", TRIANGLE_JSON, "--input", "g.json"],
        ["cover-ideal", "--json", TRIANGLE_JSON, "--format", "yaml"],
        ["cover-ideal", "--json", TRIANGLE_JSON, "--format", "yaml", "--format", "json"],
        ["cover-ideal", "--json", TRIANGLE_JSON, "--route=fastest"],
        ["oracle-verify", "--json", TRIANGLE_JSON, "--route", "auto"],
        ["invariants", "--json", TRIANGLE_JSON, "--base-ideal", "base.json"],
        ["patrol", "--json", TRIANGLE_JSON, "--loops", "1"],
    ], ids=["empty", "unknown-verb", "verb-not-first", "unknown-option", "stray-argument",
            "abbreviation", "no-value", "option-for-value", "no-source", "both-sources",
            "bad-format", "bad-format-then-good", "bad-route", "route-on-oracle-verify",
            "base-ideal-outside-cm-check", "loops-outside-cm-check"])
    def test_malformed_argv_is_one_error_line(self, capsys, argv):
        assert run_error(capsys, *argv)[0] == 1

    def test_equals_form_and_last_value_win(self, capsys):
        spaced = run_cli(capsys, "cover-ideal", "--json", "{}", "--format", "text",
                         "--json", TRIANGLE_JSON, "--format", "json")
        assert spaced == run_cli(capsys, "cover-ideal", f"--json={TRIANGLE_JSON}",
                                 "--format=json")
        assert spaced[0] == 0 and json.loads(spaced[1])["route"] == "intersection"

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cm-check", "--help"],
                                      ["frobnicate", "-h"],
                                      # where an option name stands, after bad options too
                                      ["cover-ideal", "--json", "{}", "-h"],
                                      ["cover-ideal", "--format", "xml", "--help"],
                                      ["cover-ideal", "--bogus", "-h"],
                                      # a value never starts with --, so this is no value
                                      ["cover-ideal", "--json", "--help"]])
    def test_help_prints_the_module_docstring(self, capsys, argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == cli.__doc__ and captured.err == ""
        assert all(verb in captured.out for verb in cli.HANDLERS)

    @pytest.mark.parametrize("option, message", [
        ("--input", "error: cannot read -h: "), ("--json", "error: input is not valid JSON: ")])
    def test_help_flag_as_an_option_value_is_that_value(self, capsys, option, message):
        # -h where a value stands is the value: a path or JSON, refused like any other
        code, err = run_error(capsys, "cover-ideal", option, "-h")
        assert code == 1 and err.startswith(message)

    def test_help_survives_stripped_docstrings(self):
        # python -OO drops docstrings; the help text is a string constant
        src = str(Path(coverideals.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-OO", "-m", "coverideals.cli", "--help"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli.__doc__, "")


# arbitrary JSON: the integers are small vertex counts and indices, or far
# past a machine word, so that a mask of that width fails at once
_HUGE = st.sampled_from([2**63, 10**30])
_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 13), _HUGE, st.integers(-(10**30), -(2**63)),
    st.floats(), st.text(max_size=3),
)
_VALUES = st.recursive(
    _ATOMS,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=16,
)


def _mostly(shaped, rare=_VALUES, one_in=8):
    """The shaped strategy, or one time in ``one_in`` the rare one."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == 1 else shaped)


@st.composite
def _payloads(draw):
    """A graph, block spec or ideal object on n <= 12 vertices, or past a
    machine word, whose fields and entries are mostly well shaped; or any
    JSON value."""
    kind = draw(st.sampled_from(("graph", "spec", "ideal", "any")))
    if kind == "any":
        return draw(_VALUES)
    n = draw(_mostly(st.integers(1, 12), _HUGE))
    index = st.integers(1, min(n, 12))
    fields = {
        "graph": {"n": st.just(n), "loops": st.lists(index, max_size=4),
                  "edges": st.lists(_mostly(st.lists(index, min_size=2, max_size=2),
                                            _ATOMS, 32), max_size=12)},
        "spec": {"alphas": st.lists(_mostly(st.integers(1, 12), _HUGE, 32), min_size=2,
                                    max_size=5, unique=True).map(sorted),
                 "loops": st.lists(index, max_size=4)},
        "ideal": {"n": st.just(n), "gens": st.lists(
            _mostly(st.lists(index, min_size=1, max_size=4), _ATOMS, 32), max_size=10)},
    }[kind]
    return {key: draw(_mostly(shaped)) for key, shaped in fields.items()
            if key != "loops" or draw(st.booleans())}


_VERBS = tuple(cli.HANDLERS)


@st.composite
def _argvs(draw, base_path):
    """Well-formed argv for any verb, --loops and --base-ideal on cm-check;
    or one time in two such an argv broken."""
    verb = draw(st.sampled_from(_VERBS))
    argv = [verb, "--json=" + json.dumps(draw(_payloads())),
            "--format=" + draw(st.sampled_from(("text", "json")))]
    if verb != "oracle-verify" and draw(st.booleans()):
        argv.append("--route=" + draw(st.sampled_from(cli.ROUTES)))
    if verb == "cm-check":
        if draw(st.booleans()):
            argv.append("--loops=" + draw(st.text(alphabet="0123456789,- x", max_size=8)))
        if draw(st.booleans()):
            base_path.write_text(json.dumps(draw(_payloads())), encoding="utf-8")
            argv.append(f"--base-ideal={base_path}")
    broken = draw(st.sampled_from((None,) * 5 + ("source", "both", "unknown", "cut", "verb")))
    if broken == "source":
        del argv[1]
    elif broken == "both":
        argv.append(f"--input={base_path}")
    elif broken == "unknown":
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(("--fo", "--verbose", "--", "-x", "stray"))))
    elif broken == "cut":
        argv[-1] = argv[-1].partition("=")[0]
    elif broken == "verb":
        argv[0] = draw(st.sampled_from(_VERBS + ("", "frobnicate", "--json")))
    return argv


class TestFuzz:
    @settings(max_examples=400)
    @given(data=st.data())
    def test_any_json_ends_in_one_exit_line(self, tmp_path_factory, data):
        base_path = tmp_path_factory.getbasetemp() / "fuzz-base.json"
        argv = data.draw(_argvs(base_path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""


@st.composite
def _ideal_payloads(draw):
    """Ideal JSON on n <= 6 variables whose index lists may repeat an index."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.lists(st.integers(1, n), min_size=1, max_size=5),
                         min_size=1, max_size=5))
    return json.dumps({"n": n, "gens": gens})


class TestRegBoundsOnIdealJson:
    @settings(max_examples=300)
    @given(_ideal_payloads())
    @example('{"n":1,"gens":[[1,1,1]]}')
    @example('{"n":2,"gens":[[1,2,2]]}')
    def test_reg_within_its_printed_bounds(self, payload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["invariants", "--json", payload, "--format", "json"])
        if code == 0:
            inv = json.loads(out.getvalue())["invariants"]
            if inv["reg"] is not None and inv["reg_bounds"] is not None:
                lo, hi = inv["reg_bounds"]
                assert lo <= inv["reg"] <= hi


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


class TestOneReportPerCall:
    @settings(max_examples=300)
    @given(_JSON_VALUES)
    @example({"kéy \"q\"\n\x00": [True, False, None, 2**64 + 1, -(2**70)], "": {}, "a": ()})
    @example([[], {}, [[1, 2], []], ("x \U0001f600",)])
    # int lists beside an empty list or a bool list: only a list of nonempty
    # int lists is written one join per inner list
    @example([[1, 2], []])
    @example([[], [3]])
    @example([[1, 2], [True]])
    @example([[True], [2, 3]])
    @example({"gens": [[1, 64], [65, 70]], "steps": [[2], [], [False, 1]]})
    def test_writer_equals_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)

    @staticmethod
    def five_path_decodes(capsys, monkeypatch, verb):
        """The JSON report of the verb on the 5-path, and how many masks it decoded."""
        calls = []

        def counted(mask, original=cli._mask_indices):
            calls.append(mask)
            return original(mask)

        for module in (cli, covers, coverideals.monomials, coverideals.quotients):
            monkeypatch.setattr(module, "_mask_indices", counted)
        monkeypatch.setattr(cli, "_compact", lambda ix: pytest.fail("X-notation built"))
        path = '{"n":5,"edges":[[1,2],[2,3],[3,4],[4,5]]}'
        code, report = run_json(capsys, verb, "--json", path)
        gens = report["routes"]["intersection"] if verb == "oracle-verify" else report["ideal"]
        assert code == 0 and gens["gens"] == [[2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5]]
        return report, len(calls)

    def test_json_format_transcribes_each_generator_once(self, capsys, monkeypatch):
        # each of the 5-path's 4 minimal covers becomes indices once, for the
        # report, and no X-notation is built for JSON
        assert self.five_path_decodes(capsys, monkeypatch, "cover-ideal")[1] == 4

    @pytest.mark.parametrize("verb, decodes", [
        # the 4 covers, compared as ideals and printed once, and brute force's table
        ("oracle-verify", 5),
        # the 4 covers, read off the certificate's order, and its 3 steps
        ("linear-quotients", 7),
    ])
    def test_every_verb_transcribes_each_generator_once(self, capsys, monkeypatch, verb,
                                                        decodes):
        assert self.five_path_decodes(capsys, monkeypatch, verb)[1] == decodes

    def test_text_format_never_reaches_the_writer(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_json", lambda *a: pytest.fail("JSON written for text"))
        code, out = run_cli(capsys, "linear-quotients", "--json", FIVE_CENTER_JSON)
        assert code == 0 and out.startswith("route: closed-form\nlinear quotients: yes\n")

    def test_cm_check_on_a_spec_builds_no_mask(self, capsys):
        # m = 3,000 centers over n = 10^6 (23 KB): the closed form's masks
        # would take 375 MB; the answer is read off the spec's walk
        rng = random.Random(24)
        spec = json.dumps({"alphas": sorted(rng.sample(range(1, 10**6), 2999)) + [10**6]})
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "cm-check", "--json", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out == ("route: closed-form / linear-quotients\n"
                                     "cohen_macaulay: true\n")
        assert peak < 20 * 2**20


@st.composite
def ideal_lists(draw):
    """n and index lists that may repeat an index: n up to 150, or 10^9 with
    indices near either end or anywhere, so that positions skip most indices."""
    n = draw(st.one_of(st.integers(1, 150), st.just(10**9)))
    index = st.integers(1, n)
    if n > 150:
        index = st.one_of(st.integers(1, 70), st.integers(n - 70, n), index)
    return n, draw(st.lists(st.lists(index, max_size=8), min_size=1, max_size=6))


def parsed_by_index(n, index_lists):
    """The per-index reference for ``cli._ideal_from_json``: the minimal
    lists as multisets, in canonical order; positions of these alone, so
    none is unheld, unless no index repeats and the largest is at most 64,
    where the positions are the indices. The ring size, the generators over
    positions, the labels, and the minimal lists as printed."""
    printed = []  # a list divides another iff its counts are at most the other's
    for s in sorted({tuple(sorted(ix)) for ix in index_lists}, key=lambda s: (len(s), s)):
        if not any(Counter(k) <= Counter(s) for k in printed):
            printed.append(list(s))
    if all(len(set(ix)) == len(ix) and max(ix, default=0) <= 64 for ix in index_lists):
        return n, tuple(map(tuple, printed)), (), printed
    labels, positions = positions_by_index(printed)
    return n + len(labels) - len(set(labels)), tuple(map(tuple, positions)), labels, printed


class TestPolarizationOnMasks:
    @settings(max_examples=200)
    @given(ideal_lists())
    @example((1, [[1, 1]]))
    @example((130, [[64, 64, 65, 65, 65], [1, 64], [65, 130, 130]]))
    @example((4, [[2, 3], [1, 1, 1, 4]]))
    @example((3, [[2], [1, 3], [2, 2, 3]]))  # X2^2X3's copy of X2 is dropped
    @example((70, [[1, 64], [65, 70], list(range(1, 71))]))  # 4 of 70 indices held
    @example((10**9, [[1, 10**9], [2, 10**9 - 1]]))
    @example((10**9, [[], [5, 5]]))  # the unit ideal holds no position
    def test_masks_equal_the_per_index_reference(self, data):
        n, index_lists = data
        ideal, ring = cli._ideal_from_json({"n": n, "gens": index_lists})
        size, gens, labels, printed = parsed_by_index(n, index_lists)
        assert (ideal.n, ideal.gens, ring) == (size, gens, (labels, size - n))
        # every position prints as its index: the minimal lists come back
        assert cli._ideal_json(ideal, ring) == {"n": n, "gens": printed}

    def test_one_repeat_in_a_long_list(self):
        # X7's copy is the position after X7's: every index above it moves up one
        n = 10**5
        ideal, (labels, copies) = cli._ideal_from_json({"n": n, "gens": [[7, *range(1, n + 1)]]})
        assert ideal.masks == ((1 << (n + 1)) - 1,) and ideal.n == n + 1
        assert (labels, copies) == ((0, *range(1, 8), *range(7, n + 1)), 1)

    def test_positions_are_the_indices_named(self, capsys):
        # two generators at n = 10^9 take 4 positions, not 10^9-bit masks
        payload = '{"n":1000000000,"gens":[[1,1000000000],[2,999999999]]}'
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "invariants", "--json", payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.startswith("route: ideal-input / bounds-only\n"
                                            "n: 1000000000  h: 2  q: -\n")
        assert peak < 20 * 2**20

    def test_many_powers_beside_a_wide_index_within_a_second(self, capsys):
        # 500 generators X_i^2 X_(10^6): 1,001 positions, so each pair test
        # of the minimalization is 16 words, not 10^6 bits
        gens = [[i, i, 10**6] for i in range(1, 501)]
        start = time.perf_counter()
        code, report = run_json(capsys, "cover-ideal", "--json",
                                json.dumps({"n": 10**6, "gens": gens}))
        assert time.perf_counter() - start < 1.0
        assert code == 0 and report["ideal"] == {"n": 10**6, "gens": gens}

    def test_the_printed_ideal_is_the_input(self, capsys):
        gens = [[1, 1, 70], [64, 64, 64, 65], [2, 65, 65, 130]]
        code, report = run_json(capsys, "cover-ideal", "--json",
                                json.dumps({"n": 130, "gens": gens}))
        # in the canonical order of the polarized ring, where X2 precedes X64's copies
        assert code == 0 and report["ideal"] == {"n": 130, "gens": [gens[0], gens[2], gens[1]]}

    def test_sparse_positions_print_as_their_indices(self, tmp_path, capsys):
        # positions 1, 2, 3 stand for X1, X70 and X100 in the patrol covers
        # and in the saturation witness
        ideal = '{"n":100,"gens":[[1,100],[70],[70,70,100]]}'
        code, report = run_json(capsys, "patrol", "--json", ideal)
        assert code == 0 and report["patrol"] == {"covering_number": 1, "optimal_covers": [[70]]}
        base = tmp_path / "base.json"
        base.write_text(ideal, encoding="utf-8")
        code, report = run_json(capsys, "cm-check", "--json", '{"n":100,"gens":[[70]]}',
                                "--base-ideal", str(base), "--loops", "1,70,99")
        assert code == 0 and report["saturation"] == {"satisfied": True, "witness": [70]}


class TestExitCodesAndDeterminism:
    def test_validation_error_is_exit_one(self, capsys):
        assert cli.main(["invariants", "--json", '{"bogus": 1}']) == 1
        assert cli.main(["invariants", "--json", "not json"]) == 1

    @pytest.mark.parametrize("payload, message", [
        ('{"alphas":[1,2],"gens":[[1]]}', 'block spec JSON takes no key "gens"'),
        ('{"n":3,"gens":[[1,2]],"edges":[[1,2]]}', 'ideal JSON takes no key "edges"'),
        ('{"n":5,"gens":[[1,2]],"loops":[3]}', 'ideal JSON takes no key "loops"'),
        ('{"n":3,"loops":[1]}', None),
        ('{"alphas":[2,4],"loops":[1]}', None),
    ])
    def test_a_key_of_another_kind_is_refused(self, capsys, payload, message):
        # the key is refused before any field is read, not dropped
        if message is None:
            assert run_cli(capsys, "cover-ideal", "--json", payload)[0] == 0
        else:
            code, err = run_error(capsys, "cover-ideal", "--json", payload)
            assert (code, err) == (1, f"error: {message}\n")

    def test_size_guard_is_exit_two(self, capsys):
        # the guard counts the f = 26 free vertices of a matching, not n
        matching = json.dumps({"n": 26, "edges": [[2 * i - 1, 2 * i] for i in range(1, 14)]})
        code, err = run_error(capsys, "cover-ideal", "--json", matching)
        assert (code, err) == (2, "error: prime intersection refused for f=26 free vertices > 25; "
                                  "use the structured closed form\n")
        # x^L alone on n = 10^9 passes the f guard and is refused for its
        # output slots, before any table of n entries or mask of n bits
        huge = json.dumps({"n": 10**9, "edges": [[1, 10**9]], "loops": [10**9]})
        code, err = run_error(capsys, "cover-ideal", "--json", huge)
        assert (code, err) == (2, "error: prime intersection refused for 1 minimal covers "
                                  "x n=1000000000 > 1048576 output slots; "
                                  "use the structured closed form\n")

    def test_closed_stdout_is_exit_one_without_a_traceback(self):
        # 6,561 covers print far more than a pipe holds, so the write after
        # the reader closes the pipe must fail, and so would the flush at exit
        edges = [[t + a, t + b] for t in range(0, 24, 3) for a, b in ((1, 2), (1, 3), (2, 3))]
        src = str(Path(coverideals.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "coverideals.cli", "cover-ideal", "--json",
             json.dumps({"n": 24, "edges": edges})],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == "route: intersection\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, "")

    def test_spec_guards_come_before_the_expansion(self, capsys, monkeypatch):
        # each graph route refuses a block spec with its own message, read
        # off the spec: neither the graph nor its G - L is ever built
        def refuse(spec):
            raise AssertionError(f"{spec} was expanded")

        intersection = "prime intersection refused for f=1000000 free vertices"
        bruteforce = "brute force refused for f=1000000 free vertices"
        tail = " > 25; use the structured closed form"
        with monkeypatch.context() as patch:
            patch.setattr(covers, "_spec_open_edges", refuse)
            for argv, message in [
                (["oracle-verify"], intersection),
                (["cover-ideal", "--route", "intersection"], intersection),
                (["cover-ideal", "--route", "bruteforce"], bruteforce),
            ]:
                code, err = run_error(capsys, *argv, "--json", '{"alphas":[1,1000000]}')
                assert (code, err) == (2, f"error: {message}{tail}\n")
            spec = coverideals.KPrimeSpec([1, 10**6])
            for route, message in [(covers.cover_ideal_by_intersection, intersection),
                                   (covers.minimal_covers_bruteforce, bruteforce)]:
                with pytest.raises(coverideals.SizeGuardError) as refused:
                    route(spec)
                assert str(refused.value) == message + tail
        # with the far center looped no vertex is free: brute force runs on
        # the edges of G - L, read off the spec, and the graph is never built
        looped = '{"alphas":[1,1000000],"loops":[1000000]}'
        assert cli.main(["cover-ideal", "--route", "bruteforce", "--json", looped]) == 0
        assert capsys.readouterr().out == "route: bruteforce\ngenerators (1):\n  X1000000\n"

    def test_oracle_verify_refuses_off_the_walk_before_any_mask(self, capsys):
        # the graph routes run first and count f off the walk in O(m); the
        # closed form would build a 10^8-bit mask of C + L before they ran
        tracemalloc.start()
        try:
            code, err = run_error(capsys, "oracle-verify", "--json", '{"alphas":[1,100000000]}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (2, "error: prime intersection refused for f=100000000 free "
                                  "vertices > 25; use the structured closed form\n")
        assert peak < 5 * 2**20

    def test_graph_past_the_hitting_set_guard_gets_h_from_the_loop_rule(self, capsys):
        # brute force accepts f = 2 at n = 30, and the hitting-set search sees
        # only those 2 occurring variables, so h agrees with the loop rule
        graph = json.dumps({"n": 30, "edges": [[1, 2]]})
        code, report = run_json(capsys, "invariants", "--route", "bruteforce", "--json", graph)
        assert code == 0 and report["invariants"]["h"] == 2
        # a graph with nothing to cover still has the unit ideal
        assert cli.main(["invariants", "--json", '{"n": 3, "edges": []}']) == 1

    def test_output_guard_is_exit_two(self, capsys):
        # 8 disjoint triangles: f = 24 passes the free-vertex guard, but 6,561
        # covers over 100,000 vertices are refused before any is built
        edges = [[t, t + 1] for t in range(1, 25, 3)] + [[t, t + 2] for t in range(1, 25, 3)]
        edges += [[t + 1, t + 2] for t in range(1, 25, 3)]
        big = json.dumps({"n": 100_000, "edges": edges, "loops": list(range(25, 100_001))})
        assert cli.main(["cover-ideal", "--route", "bruteforce", "--json", big]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "6561 minimal covers x n=100000" in err

    def test_closed_form_output_guard_is_exit_two(self, capsys):
        # two generators of 1 and 9,999,999 indices: the closed form builds
        # them in a fraction of a second, but printing them is refused
        spec = json.dumps({"alphas": [1, 10_000_000]})
        for verb in ("cover-ideal", "invariants", "linear-quotients"):
            code, err = run_error(capsys, verb, "--json", spec, "--format", "json")
            assert code == 2
            assert err == "error: the ideal holds 10000000 indices > 1048576, too many to print\n"
        # the verbs that never print the ideal still answer
        code, report = run_json(capsys, "patrol", "--json", spec)
        assert code == 0 and report["patrol"] == {"covering_number": 1,
                                                  "optimal_covers": [[10_000_000]]}
        code, report = run_json(capsys, "cm-check", "--json", spec)
        assert code == 0 and report["invariants"]["cm"] is True
        # at 1,000,000 indices in all the ideal is still printed
        assert cli.main(["cover-ideal", "--json", '{"alphas": [1, 1000000]}']) == 0
        assert capsys.readouterr().out.startswith("route: closed-form\ngenerators (2):\n")

    def test_closed_form_mask_budget_is_exit_two(self, capsys):
        # 1,000 generators of 1,000 indices pass the print guard; their masks
        # at n = 10^8 would take 12.5 GB, but no verb builds them
        spec = json.dumps({"alphas": list(range(1, 1001)) + [10**8], "loops": [10**8]})
        start = time.perf_counter()
        # oracle-verify runs the graph routes first, and they refuse off the walk
        code, err = run_error(capsys, "oracle-verify", "--json", spec)
        assert code == 2 and err == ("error: prime intersection refused for f=1000 free "
                                     "vertices > 25; use the structured closed form\n")
        # cm-check reads its answer off the spec's walk and builds no mask
        code, out = run_cli(capsys, "cm-check", "--json", spec)
        assert code == 0 and out.endswith("\ncohen_macaulay: false\n")
        assert time.perf_counter() - start < 1.0

    def test_the_mask_budget_spec_is_printed_off_its_walk(self, capsys):
        # the same spec's ideal and linear order are read off its walk as
        # index tuples: 10^6 indices printed, and no mask of n bits built
        spec = json.dumps({"alphas": list(range(1, 1001)) + [10**8], "loops": [10**8]})
        start = time.perf_counter()
        code, out = run_cli(capsys, "cover-ideal", "--json", spec)
        assert code == 0 and out.splitlines()[1] == "generators (1000):"
        code, out = run_cli(capsys, "linear-quotients", "--json", spec)
        assert code == 0 and out.splitlines()[1:3] == ["linear quotients: yes", "q: 1"]
        assert time.perf_counter() - start < 2.0

    def test_a_huge_spec_is_printed_off_its_walk(self, capsys):
        # one generator, x^L = X(10^8): the closed form's mask of it would
        # peak at 38 MB, the walk's index tuple at a few bytes
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "cover-ideal", "--json",
                                '{"alphas":[1,100000000],"loops":[100000000]}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out == "route: closed-form\ngenerators (1):\n  X100000000\n"
        assert peak < 5 * 2**20

    def test_each_spec_is_walked_once(self, capsys, monkeypatch):
        # invariants and the printed ideal, with its guard, read one walk
        built = count_spec_walks(monkeypatch)
        assert cli.main(["invariants", "--json", FIVE_CENTER_JSON]) == 0
        assert capsys.readouterr().out.startswith("route: closed-form / linear-quotients\n")
        assert len(built) == 1

    def test_patrol_output_guard_is_exit_two(self, capsys):
        # 1,099 bare centers: each optimal cover omits one of them, so 1,099
        # covers of 1,099 indices, refused before any is transcribed
        spec = json.dumps({"alphas": list(range(1, 1100)) + [2000]})
        code, err = run_error(capsys, "patrol", "--json", spec)
        assert code == 2
        assert err == ("error: the optimal covers hold 1207801 indices > 1048576, "
                       "too many to print\n")

    def test_powers_in_a_huge_ring_within_a_second(self, capsys):
        # polarization adds one copy of X1 and builds nothing of size n
        payload = '{"n":10000000,"gens":[[1,1],[1,2]]}'
        start = time.perf_counter()
        code, out = run_cli(capsys, "invariants", "--json", payload)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == (
            "route: ideal-input / linear-quotients\n"
            "n: 10000000  h: 1  q: 1\n"
            "pd: 2  depth: 9999998  dim: 9999999\n"
            "reg: 1\n"
            "cohen_macaulay: false\n"
        )

    def test_polarized_input_is_minimalized_once(self, capsys, monkeypatch):
        # X1^2X2 is not minimal, so the copy of X1 that it alone holds is
        # dropped from the minimal generators, with no second minimalization
        runs, minimal = [], monomials._minimal_masks

        def counting(masks):
            runs.append(minimal(masks))
            return runs[-1]

        for module in (monomials, cli):  # the constructor's, and polarization's on masks
            monkeypatch.setattr(module, "_minimal_masks", counting)
        payload = '{"n":3,"gens":[[1],[1,1,2],[2,2,3],[3,3]]}'
        code, out = run_cli(capsys, "cover-ideal", "--json", payload)
        assert code == 0 and out == "route: ideal-input\ngenerators (3):\n  X1\n  X3^2\n  X2^2X3\n"
        assert len(runs) == 1

    def test_disjoint_pairs_h_within_a_second(self, capsys):
        pairs = json.dumps({"n": 24, "gens": [[i, i + 1] for i in range(1, 25, 2)]})
        start = time.perf_counter()
        code, report = run_json(capsys, "invariants", "--json", pairs)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and report["invariants"]["h"] == 12

    def test_out_of_memory_is_exit_two(self, capsys, monkeypatch):
        # X_(10^10) takes one position, so the call answers; an allocation
        # that fails anywhere in a call is exit 2 with one line
        payload = '{"n":10000000000,"gens":[[10000000000]]}'
        assert run_cli(capsys, "cover-ideal", "--json", payload) == (
            0, "route: ideal-input\ngenerators (1):\n  X10000000000\n")

        def exhausted(source):
            raise MemoryError

        monkeypatch.setattr(cli, "invariants", exhausted)
        assert run_error(capsys, "invariants", "--json", payload) == (
            2, "error: out of memory; the input is too large\n")

    def test_a_real_allocation_failure_is_exit_two(self, tmp_path):
        # X1^(10^6) costs a position per power, about 90 MB of address space
        # in all; under a 50 MB limit an allocation fails in earnest
        resource = pytest.importorskip("resource")
        limit = 50_000_000
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"n": 1, "gens": [[1] * 10**6]}), encoding="utf-8")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(coverideals.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from coverideals import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", "invariants", "--input", str(path)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: out of memory; the input is too large\n"

    def test_input_file_not_utf8_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_bytes(b'\xff\xfe{"n":1}')
        assert run_error(capsys, "invariants", "--input", str(path))[0] == 1

    def test_json_nested_past_the_recursion_limit_is_exit_one(self, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        assert run_error(capsys, "invariants", "--json", deep)[0] == 1

    def test_json_integer_past_the_digit_limit_is_exit_one(self, tmp_path, capsys):
        # json.loads raises a plain ValueError past CPython's 4,300-digit
        # limit on converting a decimal string to an int
        huge = '{"n": 1' + "0" * 5000 + ', "edges": []}'
        path = tmp_path / "huge.json"
        path.write_text(huge, encoding="utf-8")
        for argv in (["cover-ideal", "--json", huge],
                     ["cover-ideal", "--input", str(path)],
                     ["cm-check", "--json", TRIANGLE_JSON, "--base-ideal", str(path)]):
            code, err = run_error(capsys, *argv)
            assert code == 1 and "is not valid JSON" in err

    def test_index_past_a_machine_word_is_exit_two(self, capsys):
        spec = json.dumps({"alphas": [1, 10**30]})
        # the printed size is read off the spec before any mask is built
        code, err = run_error(capsys, "cover-ideal", "--json", spec)
        assert code == 2 and err == (f"error: the ideal holds {10**30} indices > 1048576, "
                                     "too many to print\n")
        # cm-check reads its answer off the spec's walk and builds no mask
        code, report = run_json(capsys, "cm-check", "--json", spec)
        assert code == 0 and report["invariants"]["cm"] is True
        # patrol builds no mask: the one lowest-degree cover is X(10^30)
        code, report = run_json(capsys, "patrol", "--json", spec)
        assert code == 0 and report["patrol"]["optimal_covers"] == [[10**30]]

    def test_byte_determinism(self, capsys):
        first = run_cli(capsys, "invariants", "--json", FIVE_CENTER_JSON,
                        "--format", "json")
        second = run_cli(capsys, "invariants", "--json", FIVE_CENTER_JSON,
                         "--format", "json")
        assert first == second

    def test_missing_file_is_exit_one(self, capsys):
        assert cli.main(["patrol", "--input", "/nonexistent/x.json"]) == 1

    @pytest.mark.parametrize("payload, base", [
        ('{"n":"abc","edges":[]}', None),
        ('{"alphas":5}', None),
        ('{"n":3,"gens":5}', None),
        ('{"n":3,"gens":[[1,"x"]]}', None),
        ('{"n":3,"edges":[1]}', None),
        ('{"n":3,"edges":[[true,2]]}', None),
        ('{"n":3.7,"edges":[[1,2]]}', None),
        ('{"alphas":[2,4],"loops":null}', None),
        (TRIANGLE_JSON, '{"n":3,"gens":[[1,"x"]]}'),
        (TRIANGLE_JSON, '{"n":true,"gens":[[1]]}'),
    ])
    def test_malformed_json_is_one_error_line(self, tmp_path, capsys, payload, base):
        argv = ["cm-check", "--json", payload]
        if base is not None:
            path = tmp_path / "base.json"
            path.write_text(base, encoding="utf-8")
            argv += ["--base-ideal", str(path)]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Exact stdout of each verb: text as printed, JSON as the report that the CLI
# prints with indent 2 and sorted keys, then an optional argv tail, in which
# BASE_IDEAL_FILE stands for a file holding BASE_IDEAL_JSON, POWERED_BASE_FILE
# for one holding (X2, X1X3), the cover ideal of the path 1-2-3, beside
# X2^2X3, whose power no minimal generator keeps.
BASE_IDEAL_FILE, POWERED_BASE_FILE = object(), object()
BASE_FILES = {BASE_IDEAL_FILE: BASE_IDEAL_JSON,
              POWERED_BASE_FILE: '{"n":3,"gens":[[2],[1,3],[2,2,3]]}'}
GOLDEN_STDOUT = [
    (
        # a base is refused only for a power that a minimal generator keeps
        "power-in-a-non-minimal-base-generator",
        '{"n":3,"edges":[[1,2],[2,3]],"loops":[2]}',
        "cm-check",
        "route: intersection / principal\n"
        "cohen_macaulay: true\n"
        "loop saturation: satisfied, witness X2\n",
        {"invariants": {"cm": True,
                        "depth": 2,
                        "dim": 2,
                        "h": 1,
                        "n": 3,
                        "pd": 1,
                        "q": 0,
                        "reg": 0,
                        "reg_bounds": [0, 2],
                        "route": "principal"},
         "route": "intersection",
         "saturation": {"satisfied": True, "witness": [2]}},
        "--base-ideal", POWERED_BASE_FILE,
    ),
    (
        "five-center",
        FIVE_CENTER_JSON,
        "linear-quotients",
        "route: closed-form\n"
        "linear quotients: yes\n"
        "q: 1\n"
        "order:\n"
        "  X3X5X6X8X12\n"
        "  X3X4X5X8X9X12\n"
        "  X1X2X5X6X8X9X12\n"
        "steps:\n"
        "  (X6)\n"
        "  (X3)\n"
        "resolution shifts:\n"
        "  i=0: -5 -6 -7\n"
        "  i=1: -7 -8\n",
        {"certificate": {"linear": True,
                         "order": [[3, 5, 6, 8, 12],
                                   [3, 4, 5, 8, 9, 12],
                                   [1, 2, 5, 6, 8, 9, 12]],
                         "q": 1,
                         "steps": [[6], [3]]},
         "ideal": {"gens": [[3, 5, 6, 8, 12],
                            [3, 4, 5, 8, 9, 12],
                            [1, 2, 5, 6, 8, 9, 12]],
                   "n": 12},
         "resolution": {"shifts": [[5, 6, 7], [7, 8]]},
         "route": "closed-form"},
    ),
    (
        "five-center",
        FIVE_CENTER_JSON,
        "invariants",
        "route: closed-form / linear-quotients\n"
        "n: 12  h: 1  q: 1\n"
        "pd: 2  depth: 10  dim: 11\n"
        "reg: 6  (bounds 5..10)\n"
        "cohen_macaulay: false\n",
        {"ideal": {"gens": [[3, 5, 6, 8, 12],
                            [3, 4, 5, 8, 9, 12],
                            [1, 2, 5, 6, 8, 9, 12]],
                   "n": 12},
         "invariants": {"cm": False,
                        "depth": 10,
                        "dim": 11,
                        "h": 1,
                        "n": 12,
                        "pd": 2,
                        "q": 1,
                        "reg": 6,
                        "reg_bounds": [5, 10],
                        "route": "linear-quotients"},
         "route": "closed-form"},
    ),
    (
        "searched",
        SEARCHED_SPEC_JSON,
        "linear-quotients",
        "route: closed-form\n"
        "linear quotients: yes\n"
        "q: 1\n"
        "order:\n"
        "  X1X4X5\n"
        "  X2X4X5\n"
        "  X2X3X5\n"
        "steps:\n"
        "  (X1)\n"
        "  (X4)\n"
        "resolution shifts:\n"
        "  i=0: -3 -3 -3\n"
        "  i=1: -4 -4\n",
        {"certificate": {"linear": True,
                         "order": [[1, 4, 5], [2, 4, 5], [2, 3, 5]],
                         "q": 1,
                         "steps": [[1], [4]]},
         "ideal": {"gens": [[1, 4, 5], [2, 3, 5], [2, 4, 5]], "n": 5},
         "resolution": {"shifts": [[3, 3, 3], [4, 4]]},
         "route": "closed-form"},
    ),
    (
        "searched",
        SEARCHED_SPEC_JSON,
        "invariants",
        "route: closed-form / linear-quotients\n"
        "n: 5  h: 1  q: 1\n"
        "pd: 2  depth: 3  dim: 4\n"
        "reg: 2  (bounds 2..3)\n"
        "cohen_macaulay: false\n",
        {"ideal": {"gens": [[1, 4, 5], [2, 3, 5], [2, 4, 5]], "n": 5},
         "invariants": {"cm": False,
                        "depth": 3,
                        "dim": 4,
                        "h": 1,
                        "n": 5,
                        "pd": 2,
                        "q": 1,
                        "reg": 2,
                        "reg_bounds": [2, 3],
                        "route": "linear-quotients"},
         "route": "closed-form"},
    ),
    (
        "powers",
        POWERS_JSON,
        "linear-quotients",
        "route: ideal-input\n"
        "linear quotients: yes\n"
        "q: 3\n"
        "order:\n"
        "  X1^2\n"
        "  X1X2\n"
        "  X1X3\n"
        "  X1X4\n"
        "steps:\n"
        "  (X1)\n"
        "  (X1, X2)\n"
        "  (X1, X2, X3)\n"
        "resolution shifts:\n"
        "  i=0: -2 -2 -2 -2\n"
        "  i=1: -3 -3 -3 -3 -3 -3\n"
        "  i=2: -4 -4 -4 -4\n"
        "  i=3: -5\n",
        {"certificate": {"linear": True,
                         "order": [[1, 1], [1, 2], [1, 3], [1, 4]],
                         "q": 3,
                         "steps": [[1], [1, 2], [1, 2, 3]]},
         "ideal": {"gens": [[1, 1], [1, 2], [1, 3], [1, 4]], "n": 4},
         "resolution": {"shifts": [[2, 2, 2, 2],
                                   [3, 3, 3, 3, 3, 3],
                                   [4, 4, 4, 4],
                                   [5]]},
         "route": "ideal-input"},
    ),
    (
        "powers",
        POWERS_JSON,
        "invariants",
        "route: ideal-input / linear-quotients\n"
        "n: 4  h: 1  q: 3\n"
        "pd: 4  depth: 0  dim: 3\n"
        "reg: 1\n"
        "cohen_macaulay: false\n",
        {"ideal": {"gens": [[1, 1], [1, 2], [1, 3], [1, 4]], "n": 4},
         "invariants": {"cm": False,
                        "depth": 0,
                        "dim": 3,
                        "h": 1,
                        "n": 4,
                        "pd": 4,
                        "q": 3,
                        "reg": 1,
                        "reg_bounds": None,
                        "route": "linear-quotients"},
         "route": "ideal-input"},
    ),
    (
        # the power X1^2 lies in no minimal generator: the ideal is (X1)
        "squarefree-minimal",
        '{"n":2,"gens":[[1,1],[1]]}',
        "patrol",
        "route: ideal-input\n"
        "covering number: 1\n"
        "optimal covers (1):\n"
        "  {1}\n",
        {"patrol": {"covering_number": 1, "optimal_covers": [[1]]},
         "route": "ideal-input"},
    ),
    (
        "saturated",
        SATURATED_JSON,
        "cm-check",
        "route: closed-form / principal\n"
        "cohen_macaulay: true\n"
        "loop saturation: satisfied, witness X3X4X5X8X9X12\n",
        {"invariants": {"cm": True,
                        "depth": 11,
                        "dim": 11,
                        "h": 1,
                        "n": 12,
                        "pd": 1,
                        "q": 0,
                        "reg": 7,
                        "reg_bounds": [0, 11],
                        "route": "principal"},
         "route": "closed-form",
         "saturation": {"satisfied": True, "witness": [3, 4, 5, 8, 9, 12]}},
        "--base-ideal", BASE_IDEAL_FILE,
    ),
    (
        "five-center",
        FIVE_CENTER_JSON,
        "cm-check",
        "route: closed-form / linear-quotients\n"
        "cohen_macaulay: false\n"
        "loop saturation: not satisfied\n",
        {"invariants": {"cm": False,
                        "depth": 10,
                        "dim": 11,
                        "h": 1,
                        "n": 12,
                        "pd": 2,
                        "q": 1,
                        "reg": 6,
                        "reg_bounds": [5, 10],
                        "route": "linear-quotients"},
         "route": "closed-form",
         "saturation": {"satisfied": False, "witness": None}},
        "--base-ideal", BASE_IDEAL_FILE,
    ),
    (
        "triangle",
        TRIANGLE_JSON,
        "cm-check",
        "route: intersection / linear-quotients\n"
        "cohen_macaulay: true\n",
        {"invariants": {"cm": True,
                        "depth": 1,
                        "dim": 1,
                        "h": 2,
                        "n": 3,
                        "pd": 2,
                        "q": 1,
                        "reg": 1,
                        "reg_bounds": None,
                        "route": "linear-quotients"},
         "route": "intersection"},
    ),
    (
        "zero-ideal",
        '{"n":3,"gens":[]}',
        "cover-ideal",
        "route: ideal-input\n"
        "generators (0):\n"
        "  (zero ideal)\n",
        {"ideal": {"gens": [], "n": 3}, "route": "ideal-input"},
    ),
    (
        "powers",
        POWERS_JSON,
        "cover-ideal",
        "route: ideal-input\n"
        "generators (4):\n"
        "  X1^2\n"
        "  X1X2\n"
        "  X1X3\n"
        "  X1X4\n",
        {"ideal": {"gens": [[1, 1], [1, 2], [1, 3], [1, 4]], "n": 4}, "route": "ideal-input"},
    ),
    (
        "five-center",
        FIVE_CENTER_JSON,
        "cover-ideal",
        "route: closed-form\n"
        "generators (3):\n"
        "  X3X5X6X8X12\n"
        "  X3X4X5X8X9X12\n"
        "  X1X2X5X6X8X9X12\n",
        {"ideal": {"gens": [[3, 5, 6, 8, 12], [3, 4, 5, 8, 9, 12], [1, 2, 5, 6, 8, 9, 12]],
                   "n": 12},
         "route": "closed-form"},
    ),
    (
        # (X1X2) : X3X4 = (X1X2) is not generated by variables, nor the reverse
        "disjoint-pairs",
        DISJOINT_PAIRS_JSON,
        "linear-quotients",
        "route: ideal-input\n"
        "linear quotients: none exist (all orders fail)\n",
        {"ideal": {"gens": [[1, 2], [3, 4]], "n": 4},
         "linear": False,
         "route": "ideal-input",
         "verdict": "absence"},
    ),
    (
        "disjoint-pairs",
        DISJOINT_PAIRS_JSON,
        "invariants",
        "route: ideal-input / bounds-only\n"
        "n: 4  h: 2  q: -\n"
        "pd: -  depth: -  dim: 2\n"
        "reg: -\n"
        "cohen_macaulay: inconclusive\n",
        {"ideal": {"gens": [[1, 2], [3, 4]], "n": 4},
         "invariants": {"cm": None,
                        "depth": None,
                        "dim": 2,
                        "h": 2,
                        "n": 4,
                        "pd": None,
                        "q": None,
                        "reg": None,
                        "reg_bounds": None,
                        "route": "bounds-only"},
         "route": "ideal-input"},
    ),
    (
        "triangle",
        TRIANGLE_JSON,
        "patrol",
        "route: intersection\n"
        "covering number: 2\n"
        "optimal covers (3):\n"
        "  {1, 2}\n"
        "  {1, 3}\n"
        "  {2, 3}\n",
        {"patrol": {"covering_number": 2, "optimal_covers": [[1, 2], [1, 3], [2, 3]]},
         "route": "intersection"},
    ),
    (
        "five-center",
        FIVE_CENTER_JSON,
        "patrol",
        "route: closed-form\n"
        "covering number: 5\n"
        "optimal covers (1):\n"
        "  {3, 5, 6, 8, 12}\n",
        {"patrol": {"covering_number": 5, "optimal_covers": [[3, 5, 6, 8, 12]]},
         "route": "closed-form"},
    ),
    (
        "five-center",
        FIVE_CENTER_JSON,
        "oracle-verify",
        "routes compared: closed-form, intersection, bruteforce\n"
        "agreement: yes\n"
        "closed-form: (X3X5X6X8X12, X3X4X5X8X9X12, X1X2X5X6X8X9X12)\n"
        "intersection: (X3X5X6X8X12, X3X4X5X8X9X12, X1X2X5X6X8X9X12)\n"
        "bruteforce: (X3X5X6X8X12, X3X4X5X8X9X12, X1X2X5X6X8X9X12)\n",
        {"agree": True,
         "routes": {name: {"gens": [[3, 5, 6, 8, 12],
                                    [3, 4, 5, 8, 9, 12],
                                    [1, 2, 5, 6, 8, 9, 12]],
                           "n": 12}
                    for name in ("bruteforce", "closed-form", "intersection")}},
    ),
    (
        # nothing to cover: the unit ideal, whose one generator is empty
        "edgeless",
        '{"n":3,"edges":[]}',
        "oracle-verify",
        "routes compared: intersection, bruteforce\n"
        "agreement: yes\n"
        "intersection: (1)\n"
        "bruteforce: (1)\n",
        {"agree": True,
         "routes": {"bruteforce": {"gens": [[]], "n": 3},
                    "intersection": {"gens": [[]], "n": 3}}},
    ),
]


class TestGoldenStdout:
    @pytest.mark.parametrize("case", GOLDEN_STDOUT, ids=[f"{g[0]}-{g[2]}" for g in GOLDEN_STDOUT])
    def test_text_and_json_stdout(self, tmp_path, capsys, case):
        _, payload, verb, text, report, *tail = case
        paths = {}
        for k, (marker, content) in enumerate(BASE_FILES.items()):
            paths[marker] = tmp_path / f"base-{k}.json"
            paths[marker].write_text(content, encoding="utf-8")
        argv = [verb, "--json", payload, *(str(paths[a]) if a in paths else a for a in tail)]
        assert run_cli(capsys, *argv) == (0, text)
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert run_cli(capsys, *argv, "--format", "json") == (0, rendered)


# Exact exit code and stderr of refused calls, which print nothing on stdout;
# REPEATED_BASE_FILE stands for a file holding a base ideal with X3^2.
REPEATED_BASE_FILE = object()
GOLDEN_ERRORS = [
    ("power-in-a-minimal-generator", ["patrol", "--json", '{"n":3,"gens":[[1,1],[2]]}'], 1,
     "error: patrol selection needs a squarefree (vertex-cover) ideal\n"),
    ("base-ideal-with-a-power",
     ["cm-check", "--json", SATURATED_JSON, "--base-ideal", REPEATED_BASE_FILE], 1,
     "error: a variable index repeats in a squarefree monomial\n"),
    ("ideal-json-without-a-positive-n", ["cover-ideal", "--json", '{"n":0,"gens":[[1]]}'], 1,
     "error: ambient variable count must be positive\n"),
]


class TestGoldenErrors:
    @pytest.mark.parametrize("case", GOLDEN_ERRORS, ids=[g[0] for g in GOLDEN_ERRORS])
    def test_exit_code_and_stderr(self, tmp_path, capsys, case):
        _, argv, code, err = case
        base = tmp_path / "base.json"
        base.write_text('{"n":12,"gens":[[3,3,4,5,8,9,12]]}', encoding="utf-8")
        argv = [str(base) if a is REPEATED_BASE_FILE else a for a in argv]
        for fmt in ("text", "json"):
            assert run_error(capsys, *argv, "--format", fmt) == (code, err)
