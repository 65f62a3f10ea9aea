import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from tiltwall import (
    CharVector,
    RuledThreefold,
    TiltPoint,
    bg_main_defect,
    bg_nu_zero_defect,
    bg_star_defect,
    bg_weak_defect,
    corollary_defect,
    disc_classical,
    enumerate_destabilizers,
    fiber_bogomolov_defect,
    nabla,
)
from tiltwall.chern import parse_reduced
from tiltwall.cli import _wall_payload, build_parser, run
from wall_oracle import oracle_enumerate, oracle_in_region

SRC = Path(__file__).resolve().parents[1] / "src"
THREEFOLD = ["--genus", "0", "--degree", "3"]


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.strip(), captured.err.strip()


def run_module(args: list[str]) -> subprocess.CompletedProcess:
    """`python -m tiltwall ARGS` in a fresh interpreter, with the package from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "tiltwall", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestChi:
    def test_structure_sheaf_example(self, capsys):
        assert run(["chi", "--genus", "2", "--degree", "5", "--char", "1,0,0,0,0,0"]) == 0
        out, _ = out_of(capsys)
        assert out == "-1"

    def test_pair_from(self, capsys):
        code = run(
            ["chi", "--genus", "0", "--degree", "3", "--char", "1,1,3,1/2,3/2,1/2",
             "--pair-from", "1,0"]
        )
        assert code == 0
        out, _ = out_of(capsys)
        assert out == "1"

    def test_missing_threefold(self, capsys):
        assert run(["chi", "--char", "1,0,0,0,0,0"]) == 2

    def test_negative_degree_note_on_stderr(self, capsys):
        run(["chi", "--genus", "0", "--degree", "-2", "--char", "1,0,0,0,0,0"])
        out, err = out_of(capsys)
        assert "degree < 0" in err
        assert "degree" not in out


class TestSlope:
    def test_nu_example(self, capsys):
        code = run(
            ["slope", "--kind", "nu", "--char", "1,1,3,1/2,3/2,1/2",
             "--alpha2", "1", "--beta", "0"]
        )
        assert code == 0
        assert out_of(capsys)[0] == "0"

    def test_infinite_printed_as_inf(self, capsys):
        run(["slope", "--kind", "muHF", "--char", "0,0,0,0,0,1"])
        assert out_of(capsys)[0] == "inf"

    def test_numixed_needs_threefold(self, capsys):
        code = run(
            ["slope", "--kind", "nuMixed", "--char", "1,0,0,0,0,0",
             "--alpha2", "1", "--beta", "0", "--t", "1"]
        )
        assert code == 2

    def test_nusigma(self, capsys):
        code = run(
            ["slope", "--kind", "nuSigma", "--char", "0,0,0,0,0,1",
             "--alpha2", "1", "--beta", "0", "--s", "1", "--t", "1",
             "--genus", "0", "--degree", "3"]
        )
        assert code == 0
        assert out_of(capsys)[0] == "inf"

    def test_nusigma_flag_errors(self, capsys):
        base = ["slope", "--kind", "nuSigma", "--char", "1,1,3,1/2,3/2,1/2", "--beta", "0"]
        for flags, err in (
            (["--alpha2", "1", *THREEFOLD], "missing required flags: --s, --t"),
            (["--s", "1", *THREEFOLD], "missing required flags: --alpha2"),
            (["--alpha2", "0", "--s", "1", *THREEFOLD], "alpha2 must be positive"),
            (["--alpha2", "1", "--s", "1", "--t", "0", *THREEFOLD], "s and t must be positive"),
            (["--alpha2", "1", "--s", "1", "--t", "1"], "this command needs --genus and --degree"),
        ):
            assert run(base + flags) == 2
            assert out_of(capsys) == ("", f"error: {err}")


class TestApprox:
    def test_decimals_on_slope_check_and_chi(self, capsys):
        for args, out in (
            (["slope", "--kind", "nu", "--char", "1,1,3,1/2,3/2,1/2", "--alpha2", "1",
              "--beta", "1/3"], "-5/12  (approx -0.416667)"),
            (["slope", "--kind", "muC", "--char", "0,0,0,0,0,1"], "inf"),
            (["check", "--ineq", "classical", "--char", "2,1,3,1/2,3/2,1/2", *THREEFOLD],
             "F_defect = -1  (approx -1)\nH_defect = -3  (approx -3)\nverdict: violated"),
            (["chi", "--char", "1,0,0,0,0,0", "--genus", "2", "--degree", "5"], "-1  (approx -1)"),
        ):
            run(args + ["--approx"])
            assert out_of(capsys)[0] == out

    def test_other_subcommands_ignore_it(self, capsys):
        for args in (
            ["walls", "--u", "1,0,-1", "--rank-bound", "2"],
            ["chern", "--char", "1,0,0,-1,0,0", *THREEFOLD],
            ["wall", "--u", "1,0,0", "--w", "1,1,1/2"],
            ["support", "--alpha2", "1", "--beta", "0", "--s", "1", "--t", "1", *THREEFOLD],
        ):
            plain = (run(args), out_of(capsys))
            assert (run(args + ["--approx"]), out_of(capsys)) == plain


class TestCheck:
    def test_holds_exit_zero(self, capsys):
        code = run(
            ["check", "--ineq", "weak", "--char", "1,1,3,1/2,3/2,1/2",
             "--alpha2", "1", "--beta", "0", "--genus", "0", "--degree", "3"]
        )
        assert code == 0
        out, _ = out_of(capsys)
        assert "defect = 1/4" in out
        assert "conditional on semistability" in out

    def test_violated_exit_one(self, capsys):
        code = run(
            ["check", "--ineq", "classical", "--char", "2,1,3,1/2,3/2,1/2",
             "--genus", "0", "--degree", "3"]
        )
        assert code == 1
        out, _ = out_of(capsys)
        assert "violated" in out

    def test_malformed_char_exit_two(self, capsys):
        code = run(
            ["check", "--ineq", "weak", "--char", "1,0,0,1/3,0,0",
             "--alpha2", "1", "--beta", "0", "--genus", "0", "--degree", "3"]
        )
        assert code == 2

    def test_non_ascii_digit_exit_two(self, capsys):
        # `\d` would take U+0661 ARABIC-INDIC DIGIT ONE and compute with 1
        code = run(["chi", *THREEFOLD, "--char", "\u0661,0,0,0,0,0"])
        assert code == 2
        out, err = out_of(capsys)
        assert out == "" and "argument --char: bad character: not a rational" in err

    def test_star_rejects_infinite_slope(self, capsys):
        code = run(
            ["check", "--ineq", "star", "--char", "0,0,0,0,0,1",
             "--alpha2", "1", "--beta", "0", "--genus", "0", "--degree", "3"]
        )
        assert code == 2
        assert out_of(capsys) == ("", "error: star form needs a finite tilt slope at (alpha2, beta)")

    def test_each_kind_reports_its_own_defect(self, capsys):
        X = RuledThreefold(1, 2)
        ch = CharVector(2, 1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 6))
        pt = TiltPoint(Fraction(1, 3), Fraction(-1, 2))
        expected = {
            "conj31": {"defect": bg_main_defect(ch, pt, X)},
            "conj32": {"defect": bg_nu_zero_defect(ch, pt, X)},
            "star": {"defect": bg_star_defect(ch, pt, X)},
            "weak": {"defect": bg_weak_defect(ch, pt, X)},
            "nabla": {"defect": nabla(ch, X)},
            "corollary": {"defect": corollary_defect(ch, X)},
            "fiber-bog": {"defect": fiber_bogomolov_defect(2, ch, X)},
            "classical": dict(zip(("F_defect", "H_defect"), disc_classical(ch, X))),
        }
        flags = ["--char", "2,1,3,1/2,-3/2,1/6", "--alpha2", "1/3", "--beta=-1/2",
                 "--genus", "1", "--degree", "2", "--k", "2", "--format", "json"]
        seen = set()
        for kind, defects in expected.items():
            code = run(["check", "--ineq", kind, *flags])
            holds = all(v >= 0 for v in defects.values())
            assert code == (0 if holds else 1)
            want = {name: str(v) for name, v in defects.items()}
            assert json.loads(out_of(capsys)[0]) == {**want, "holds": holds}
            seen.add(tuple(want.values()))
        assert len(seen) == 7  # nabla and corollary are one quantity; the rest differ

    def test_json_format(self, capsys):
        run(
            ["check", "--ineq", "nabla", "--char", "1,1,3,1/2,3/2,1/2",
             "--genus", "0", "--degree", "3", "--format", "json"]
        )
        payload = json.loads(out_of(capsys)[0])
        assert payload == {"defect": "0", "holds": True}


class TestWall:
    def test_example_json_default(self, capsys):
        code = run(
            ["wall", "--genus", "0", "--degree", "3", "--u", "1,0,0", "--w", "1,1,1/2"]
        )
        assert code == 0
        payload = json.loads(out_of(capsys)[0])
        assert payload == {"type": "semicircle", "center": "1/2", "radius_sq": "1/4"}

    def test_everywhere(self, capsys):
        run(["wall", "--u", "1,0,0", "--w", "2,0,0"])
        assert json.loads(out_of(capsys)[0]) == {"type": "everywhere"}

    def test_none(self, capsys):
        run(["wall", "--u", "1,0,0", "--w", "1,1,0"])
        assert json.loads(out_of(capsys)[0]) == {"type": "none"}

    def test_text_format(self, tmp_path, capsys):
        # argparse takes --form for --format, and a config line counts as a flag
        cfg = tmp_path / "text.cfg"
        cfg.write_text("format = text\n")
        base = ["wall", "--u", "1,0,0", "--w", "0,0,1"]
        for extra in (["--format", "text"], ["--format=text"], ["--form", "text"], ["--config", str(cfg)]):
            assert run(base + extra) == 0
            assert out_of(capsys)[0] == "vertical beta=0"


class TestWalls:
    def test_listing(self, capsys):
        code = run(["walls", "--u", "1,0,-1", "--rank-bound", "2"])
        assert code == 0
        out, _ = out_of(capsys)
        lines = out.splitlines()
        assert lines[0].startswith("vertical beta=0")
        assert "semicircle center=-3/2 radius_sq=1/4" in lines[1]

    def test_csv_and_svg_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "walls.csv"
        svg_path = tmp_path / "walls.svg"
        code = run(
            ["walls", "--u", "1,0,-1", "--rank-bound", "2",
             "--at", "1/16,-3/2",
             "--csv", str(csv_path), "--svg", str(svg_path)]
        )
        assert code == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "w_r,w_c,w_d,wall_type,center,radius_sq"
        assert rows[1] == "-1,2,-2,semicircle,-3/2,1/4"
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "path" in svg

    def test_svg_arcs_span_their_walls(self, tmp_path, capsys):
        p = tmp_path / "walls.svg"
        run(["walls", "--u", "1,0,-6", "--rank-bound", "2", "--svg", str(p)])
        arcs = re.findall(r'<path d="M (\S+) (\S+) A (\S+) \S+ 0 0 1 (\S+) (\S+)"', p.read_text())
        assert len(arcs) == 9
        for x1, y1, rr, x2, y2 in arcs:
            # from beta = center - r to center + r on the axis, radius r
            assert y1 == y2 and float(x1) < float(x2)
            assert abs(float(x2) - float(x1) - 2 * float(rr)) < 1e-3

    def test_svg_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for p in paths:
            run(["walls", "--u", "1,0,-1", "--rank-bound", "2", "--svg", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_svg_has_axes(self, tmp_path, capsys):
        p = tmp_path / "empty.svg"
        run(["walls", "--u", "1,1,1/2", "--rank-bound", "2", "--svg", str(p)])
        svg = p.read_text()
        assert "<line" in svg and "<path" not in svg

    def test_json(self, capsys):
        run(["walls", "--u", "1,0,-1", "--rank-bound", "2", "--format", "json"])
        payload = json.loads(out_of(capsys)[0])
        assert payload["walls"][0] == {"w": "0,0,-1", "type": "vertical", "beta": "0"}

    def test_negative_disc_plain_note(self):
        proc = run_module(["walls", "--u", "1,0,1", "--rank-bound", "2"])
        assert proc.returncode == 0
        assert proc.stdout == "no walls\n"
        assert proc.stderr == "note: disc(u) < 0, no tilt-semistable object has this class\n"
        assert "UserWarning" not in proc.stderr and "cli.py" not in proc.stderr

    def test_every_empty_box_says_why(self, capsys):
        # one note per early return of `candidate_box`, and the oracle agrees
        # that no wall exists
        for u, note in (
            ("1,0,1", "disc(u) < 0, no tilt-semistable object has this class"),
            ("0,0,1", "r = c = 0, the tilt slope of u is infinite everywhere, so no wall exists"),
            ("0,-1,0", "r = 0 and c < 0, no object of a tilted heart has this class"),
        ):
            assert run(["walls", "--u", u, "--rank-bound", "2"]) == 0
            assert out_of(capsys) == ("no walls", f"note: {note}")
            assert oracle_enumerate(parse_reduced(u), 2, 12) == set()

    def test_nonempty_scan_prints_no_note(self, capsys):
        assert run(["walls", "--u", "1,0,-1", "--rank-bound", "2"]) == 0
        assert out_of(capsys)[1] == ""

    def test_empty_scan_says_why(self, capsys):
        # the box holds classes, but none passes (A)-(E)
        assert run(["walls", "--u", "1,1,1/2", "--rank-bound", "2"]) == 0
        assert out_of(capsys) == ("no walls", "note: no class with |rank| <= 2 passes (A)-(E)")
        assert oracle_enumerate(parse_reduced("1,1,1/2"), 2, 12) == set()
        # walls exist, but every one lies below the point
        assert run(["walls", "--u", "1,0,-1", "--rank-bound", "2", "--at", "100,5"]) == 0
        assert out_of(capsys) == (
            "no walls",
            "note: no wall of a class with |rank| <= 2 passes through or above (100, 5)",
        )
        keys = [key for key, _ in oracle_enumerate(parse_reduced("1,0,-1"), 2, 12)]
        assert keys and not any(oracle_in_region(key, TiltPoint(100, 5)) for key in keys)

    def test_huge_rank_bound_refused_without_a_walk(self, capsys):
        # 2R + 1 ranks of at least one class; for r_u = 0, 2R ranks of at
        # least c_u + 1 classes
        for u, least in (("1,0,-1", 2_000_000_001), ("0,1,1/2", 4_000_000_000)):
            assert run(["walls", "--u", u, "--rank-bound", "1000000000"]) == 2
            assert out_of(capsys) == ("", (
                f"error: the scan would test at least {least} candidate classes, "
                "more than the cap of 1000000"
            ))

    def test_csv_rows_match_csv_writer(self, tmp_path):
        # vertical and semicircle rows, against the `csv` module as reference
        path = tmp_path / "walls.csv"
        assert run(["walls", "--u", "1,0,-1", "--rank-bound", "2", "--csv", str(path)]) == 0
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["w_r", "w_c", "w_d", "wall_type", "center", "radius_sq"])
        for w, wall in enumerate_destabilizers(parse_reduced("1,0,-1"), 2):
            p = _wall_payload(wall)
            writer.writerow([*map(str, w.as_tuple()), p["type"], p.get("center", p.get("beta")),
                             p.get("radius_sq", "")])
        assert {"vertical", "semicircle"} <= {row.split(",")[3] for row in reference.getvalue().split()}
        assert path.read_bytes() == reference.getvalue().encode()

    def test_oversized_scan_refused_up_front(self, capsys):
        code = run(["walls", "--u", "1,0,-1000000", "--rank-bound", "1000"])
        assert code == 2
        out, err = out_of(capsys)
        assert out == ""
        assert "8033025441960358 candidate classes" in err

    def test_scan_under_the_cap_runs(self, capsys):
        assert run(["walls", "--u", "3,1,-7", "--rank-bound", "8"]) == 0
        assert len(out_of(capsys)[0].splitlines()) == 57


class TestWireFormat:
    def test_no_flag_reads_with_builtin_int(self):
        # `int` reads '1_0' and non-ASCII digits; `exactnum.parse_int` does not
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert [
            (name, a.dest) for name, sub in subparsers.choices.items() for a in sub._actions
            if a.type is int
        ] == []

    def test_int_outside_the_wire_format_exit_two(self, capsys):
        for args, flag, text in (
            (["chi", "--genus", "1_0", "--degree", "3", "--char", "1,0,0,0,0,0"], "--genus", "1_0"),
            (["chern", *THREEFOLD, "--line-bundle", "1,\u0663"], "--line-bundle", "\u0663"),
            (["walls", "--u", "1,0,-1", "--rank-bound", "\u0662"], "--rank-bound", "\u0662"),
        ):
            assert run(args) == 2
            out, err = out_of(capsys)
            assert out == "" and f"argument {flag}: bad " in err
            assert f"not an integer in 'n' form: '{text}'" in err

    def test_list_count_error_names_what_it_read(self, capsys):
        assert run(["chern", *THREEFOLD, "--line-bundle", "1,2,3"]) == 2
        assert out_of(capsys)[1].endswith(
            "argument --line-bundle: bad pair: pair needs 2 comma-separated entries, got 3: '1,2,3'"
        )


class TestChern:
    def test_line_bundle_report(self, capsys):
        code = run(
            ["chern", "--line-bundle", "1,0", "--genus", "0", "--degree", "3",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out_of(capsys)[0])
        assert payload["char"] == "1,1,3,1/2,3/2,1/2"
        assert payload["disc_bar"] == "0"
        assert payload["beta_bar"] == "1"

    def test_irrational_beta_bar(self, capsys):
        run(
            ["chern", "--char", "1,0,0,-1,0,0", "--genus", "0", "--degree", "3",
             "--format", "json"]
        )
        payload = json.loads(out_of(capsys)[0])
        assert payload["beta_bar"] == "0 - 1*sqrt(2)"

    def test_transforms_compose(self, capsys):
        run(
            ["chern", "--char", "1,0,0,0,0,0", "--tensor-line", "1,0",
             "--twist", "1", "--genus", "0", "--degree", "3", "--format", "json"]
        )
        payload = json.loads(out_of(capsys)[0])
        assert payload["char"] == "1,0,0,0,0,0"

    def test_requires_exactly_one_source(self, capsys):
        assert run(["chern", "--genus", "0", "--degree", "3"]) == 2
        assert (
            run(
                ["chern", "--char", "1,0,0,0,0,0", "--line-bundle", "1,0",
                 "--genus", "0", "--degree", "3"]
            )
            == 2
        )


class TestSupport:
    def test_no_witness_exit_one(self, capsys):
        code = run(
            ["support", "--alpha2", "1/3", "--beta=-1/2", "--s", "2", "--t", "1",
             "--genus", "1", "--degree", "2"]
        )
        assert code == 1
        out, err = out_of(capsys)
        assert out == "no witness"
        assert err.startswith("note: Q_weak and Q_disc both vanish on v = (0,0,1,0,-1/2,7/24) in ker Z")

    def test_flag_errors(self, capsys):
        for flags, err in (
            (THREEFOLD, "missing required flags: --alpha2, --beta, --s, --t"),
            (["--alpha2", "1", *THREEFOLD], "missing required flags: --beta, --s, --t"),
            (["--alpha2", "0", "--beta", "0", "--s", "1", "--t", "1", *THREEFOLD],
             "alpha2 must be positive"),
            (["--alpha2", "1", "--beta", "0", "--s", "1", "--t", "1"],
             "this command needs --genus and --degree"),
        ):
            assert run(["support", *flags]) == 2
            assert out_of(capsys) == ("", f"error: {err}")

    def test_grid_flags_exit_two(self, capsys):
        base = ["support", "--alpha2", "1", "--beta", "0", "--s", "1", "--t", "1",
                "--genus", "0", "--degree", "3"]
        for flag in ("--lambda-grid", "--mu-grid"):
            assert run(base + [flag, "0,1,1/2"]) == 2
            out, err = out_of(capsys)
            assert out == "" and f"unrecognized arguments: {flag} 0,1,1/2" in err

    def test_default_grid_accepted(self, capsys):
        code = run(
            ["support", "--alpha2", "1", "--beta", "0", "--s", "1", "--t", "1",
             "--genus", "0", "--degree", "3"]
        )
        assert code == 1
        assert out_of(capsys) == (
            "no witness",
            "note: Q_weak and Q_disc both vanish on v = (0,0,1,0,0,1/2) in ker Z, "
            "so no mu*Q_weak + lambda*Q_disc is negative definite on ker Z",
        )

    def test_json_reason_names_the_null_kernel_vector(self, capsys):
        code = run(
            ["support", "--alpha2", "1/3", "--beta=-1/2", "--s", "2", "--t", "1",
             "--genus", "1", "--degree", "2", "--format", "json"]
        )
        assert code == 1
        out, err = out_of(capsys)
        assert err == ""
        assert json.loads(out) == {
            "witness": None,
            "reason": {
                "kind": "null_kernel_vector",
                "vector": ["0", "0", "1", "0", "-1/2", "7/24"],
                "vanishing": ["Q_weak", "Q_disc"],
            },
        }


class TestSelftest:
    def test_passes(self, capsys):
        assert run(["selftest", "--seed", "1"]) == 0
        out, _ = out_of(capsys)
        assert "selftest: PASS" in out
        assert "FAIL" not in out

    def test_deterministic_for_fixed_seed(self):
        from tiltwall.selftest import run_selftest

        assert run_selftest(5) == run_selftest(5)

    def test_a_broken_kernel_fails_its_suite(self, capsys, monkeypatch):
        # a twist that ignores negative shifts breaks the group law only
        import tiltwall.selftest as selftest

        real = selftest.twist
        monkeypatch.setattr(selftest, "twist", lambda ch, b, X: real(ch, max(b, 0), X))
        assert run(["selftest", "--seed", "0"]) == 1
        out, err = out_of(capsys)
        assert err == ""
        assert out.splitlines() == [
            "twist group law: FAIL (108/200 checks)",
            "discriminant and slope invariances: PASS (800/800 checks)",
            "Euler characteristic ground truth: PASS (108/108 checks)",
            "main/star defect equivalence: PASS (200/200 checks)",
            "nested walls: PASS (100/100 checks)",
            "selftest: FAIL",
        ]


class TestModule:
    def test_python_m_tiltwall(self):
        proc = run_module(["chi", "--genus", "2", "--degree", "5", "--char", "1,0,0,0,0,0"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-1\n", "")

    def test_value_beyond_float_range_is_an_input_error(self, tmp_path):
        # `--approx` and the SVG draw decimals, and 10^400 has no float
        huge = "1" + "0" * 400
        for args in (
            ["chi", *THREEFOLD, "--char", f"1,0,0,0,0,{huge}", "--approx"],
            ["walls", "--u", "1,0,-1", "--rank-bound", "1", "--at", f"{huge},0",
             "--svg", str(tmp_path / "huge.svg")],
        ):
            proc = run_module(args)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert "Traceback" not in proc.stderr
            assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
                "error: integer division result too large for a float"
            ]


class TestConfigAndRoundTrip:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("genus = 2\ndegree = 5\nchar = 1,0,0,0,0,0\n")
        assert run(["chi", "--config", str(cfg)]) == 0
        assert out_of(capsys)[0] == "-1"

    def test_explicit_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("genus = 2\ndegree = 5\nchar = 1,0,0,0,0,0\n")
        assert run(["chi", "--config", str(cfg), "--genus", "0"]) == 0
        assert out_of(capsys)[0] == "1"

    def test_abbreviated_flag_beats_config(self, tmp_path, capsys):
        # the config entries go in before the command line's flags, so argparse's
        # last-value rule lets an explicit flag win in any spelling it accepts
        cfg = tmp_path / "g.cfg"
        cfg.write_text("genus = 2\n")
        base = ["chi", "--char", "1,0,0,0,0,0", "--degree", "1", "--config", str(cfg)]
        for explicit in (["--gen", "0"], ["--genus=0"], ["--genus", "0"]):
            assert run(base + explicit) == 0
            assert out_of(capsys) == ("1", "")
        assert run(base) == 0
        assert out_of(capsys) == ("-1", "")

    def test_abbreviated_config_flag_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("genus = 2\n")
        for flag in (["--conf", str(cfg)], [f"--conf={cfg}"], ["--config", str(cfg)]):
            assert run(["chi", "--char", "1,0,0,0,0,0", "--degree", "1", *flag]) == 0
            assert out_of(capsys) == ("-1", "")

    def test_ambiguous_config_prefix_is_a_usage_error(self, tmp_path, capsys):
        # `--c` is a prefix of --config and --char (or --csv): argparse reports
        # it before the named file is opened, so a missing file does not show
        missing = str(tmp_path / "missing.cfg")
        for command in (
            ["chi", "--char", "1,0,0,0,0,0", "--genus", "0", "--degree", "1"],
            ["walls", "--u", "1,0,-1", "--rank-bound", "1"],
            ["chern"], ["slope", "--kind", "nu"], ["check", "--ineq", "weak"],
        ):
            for flag in (["--c", missing], [f"--c={missing}"]):
                assert run(command + flag) == 2
                out, err = out_of(capsys)
                assert out == "" and "error: ambiguous option: --c" in err
                assert "No such file" not in err and err.startswith("usage:")

    def test_unambiguous_config_prefix_is_read(self, tmp_path, capsys):
        # in `wall` no other flag starts with --c, so `--c FILE` is --config
        cfg = tmp_path / "j.cfg"
        cfg.write_text("format = text\n")
        assert run(["wall", "--u", "1,0,0", "--w", "0,0,1", "--c", str(cfg)]) == 0
        assert out_of(capsys) == ("vertical beta=0", "")
        assert run(["wall", "--u", "1,0,0", "--w", "0,0,1", "--c", str(tmp_path / "no.cfg")]) == 2
        assert "No such file" in out_of(capsys)[1]

    def test_last_config_flag_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("genus = 2\n")
        base = ["chi", "--char", "1,0,0,0,0,0", "--degree", "1"]
        assert run(base + ["--config", str(tmp_path / "no.cfg"), "--conf", str(cfg)]) == 0
        assert out_of(capsys) == ("-1", "")

    def test_abbreviated_format_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "j.cfg"
        cfg.write_text("format = json\n")
        assert run(["wall", "--u", "1,0,0", "--w", "0,0,1", "--config", str(cfg), "--form", "text"]) == 0
        assert out_of(capsys) == ("vertical beta=0", "")

    def test_config_values_get_flag_checks(self, tmp_path, capsys):
        # a bad config value fails as the same flag on the command line would,
        # also when an explicit flag overrides it
        cfg = tmp_path / "bad.cfg"
        base = ["chi", "--char", "1,0,0,0,0,0", "--genus", "0", "--degree", "1", "--config", str(cfg)]
        for line, message in (
            ("genus = x", "argument --genus: bad integer: not an integer in 'n' form: 'x'"),
            ("format = xml", "argument --format: invalid choice: 'xml'"),
            ("colour = red", "unrecognized arguments: --colour=red"),
        ):
            cfg.write_text(line + "\n")
            assert run(base) == 2
            out, err = out_of(capsys)
            assert out == "" and message in err

    def test_config_value_starting_with_minus(self, tmp_path, capsys):
        flags = ["--alpha2", "1", "--char", "1,1,3,1/2,3/2,1/2"]
        assert run(["slope", "--kind", "nu", *flags, "--beta=-1/2"]) == 0
        by_flag = out_of(capsys)
        cfg = tmp_path / "job.cfg"
        cfg.write_text("beta = -1/2\n")
        assert run(["slope", "--kind", "nu", *flags, "--config", str(cfg)]) == 0
        assert out_of(capsys) == by_flag == ("5/12", "")

    def test_printed_rationals_reparse(self, capsys):
        run(["chi", "--genus", "3", "--degree", "-1", "--char", "2,1,0,1/2,-3/2,5/6"])
        out, _ = out_of(capsys)
        assert Fraction(out) == Fraction(out)  # canonical p/q form parses
        run(
            ["wall", "--u", "1,0,-1", "--w", "0,1,-3/2"]
        )
        payload = json.loads(out_of(capsys)[0])
        assert Fraction(payload["center"]) == Fraction(-3, 2)
        assert Fraction(payload["radius_sq"]) == Fraction(1, 4)

    def test_unknown_subcommand_exit_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_config_file(self, capsys):
        assert run(["chi", "--config", "/nonexistent/f.cfg"]) == 2

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("genus = 0 # \xe9\n".encode("latin-1"))
        assert run(["chi", "--degree", "1", "--char", "1,0,0,0,0,0", "--config", str(cfg)]) == 2
        out, err = out_of(capsys)
        assert out == "" and err.startswith("error: 'utf-8' codec can't decode") and "\n" not in err

    def test_config_naming_a_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        for line in (f"config = {cfg}", f"conf = {cfg}"):
            cfg.write_text(f"genus = 0\n{line}\n")
            assert run(["chi", "--degree", "1", "--char", "1,0,0,0,0,0", "--config", str(cfg)]) == 2
            assert out_of(capsys) == ("", "error: a config file cannot name another config file")
