import contextlib
import copy
import io
import json
import math
import os
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import __version__
from rankforge.analytic import box_norm, chi_table, exact_bias
from rankforge.cli import main
from rankforge.convolutions import conv_chain, zero_set_indicator
from rankforge.forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    map_to_json,
    random_multiaffine,
    random_multilinear,
)
from rankforge.partition import prank_exact


def write_map(tmp_path, f, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(map_to_json(f)))
    return str(path)


def xyz_file(tmp_path):
    sh = Shape(2, (1, 1, 1))
    f = MultilinearMap(sh, 1, np.ones((1, 1, 1, 1), dtype=np.int64))
    return write_map(tmp_path, f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_arank_xyz(tmp_path, capsys):
    code, out = run(capsys, ["arank", "--map", xyz_file(tmp_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["bias_exact"] == {"num": 3, "den": 4}
    assert payload["histogram"] == [7, 1]
    assert payload["arank"] == pytest.approx(0.4150374992788437)


def test_prank_xyz(tmp_path, capsys):
    code, out = run(capsys, ["prank", "--map", xyz_file(tmp_path), "--rmax", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] and payload["prank_lo"] == payload["prank_hi"] == 1
    assert payload["witness_size"] == 1
    w = payload["witness"][0]
    assert w["subset"] == [1]
    assert w["beta"]["p"] == 2


def test_prank_summary_reports_route_pairs(tmp_path, capsys):
    # a k = 3 route answer spends no search node; --summary names its rank reads on stderr only
    f = random_multilinear(Shape(2, (3, 3, 3)), 1, [61, 0])
    path = write_map(tmp_path, f)
    assert main(["prank", "--map", path]) == 0
    plain = capsys.readouterr()
    assert main(["prank", "--map", path, "--summary"]) == 0
    summarized = capsys.readouterr()
    rep = prank_exact(f)
    assert rep.pairs > 0 and summarized.out == plain.out and not plain.err
    assert summarized.err == f"prank {rep.prank} (lovett lower {rep.lovett_lower}, 0 nodes, {rep.pairs} pairs)\n"


def test_boxnorm(tmp_path, capsys):
    sh = Shape(2, (1, 1))
    f = MultilinearMap(sh, 1, np.ones((1, 1, 1), dtype=np.int64))
    code, out = run(capsys, ["boxnorm", "--map", write_map(tmp_path, f)])
    assert code == 0
    payload = json.loads(out)
    assert payload["box_norm_power"] == pytest.approx(0.5)
    assert payload["bias_exact"] == {"num": 1, "den": 2}


def test_boxnorm_multilinear_uses_exact_bias(tmp_path, capsys):
    # the box average of (2,(6,6,6)) has 2^54 points; the exact bias needs 64 slice ranks
    f = random_multilinear(Shape(2, (6, 6, 6)), 1, [53, 0])
    code, out = run(capsys, ["boxnorm", "--map", write_map(tmp_path, f)])
    assert code == 0
    payload = json.loads(out)
    bias = Fraction(payload["bias_exact"]["num"], payload["bias_exact"]["den"])
    assert bias == exact_bias(f)
    assert payload["box_norm"] == float(bias) ** (1 / 8)
    assert payload["box_norm_power"] == pytest.approx(float(bias), rel=1e-12)


@pytest.mark.parametrize("p,dims", [(2, (2, 2)), (3, (1, 2)), (2, (1, 1, 2)), (5, (1, 1)), (2, (1, 1, 1, 1))])
def test_boxnorm_multilinear_matches_enumerated_box_average(tmp_path, capsys, p, dims):
    for seed in range(3):
        f = random_multilinear(Shape(p, dims), 1, [59, seed])
        code, out = run(capsys, ["boxnorm", "--map", write_map(tmp_path, f)])
        assert code == 0
        assert json.loads(out)["box_norm"] == pytest.approx(box_norm(f.shape, chi_table(f)), abs=1e-12)


@pytest.mark.parametrize("p,dims", [(2, (2, 2)), (3, (1, 2)), (2, (1, 1, 2)), (5, (1, 1)), (2, (1, 1, 1, 1))])
def test_boxnorm_multiaffine_matches_enumerated_box_average(tmp_path, capsys, p, dims):
    # every part below the top one cancels in the box product
    for seed in range(3):
        f = random_multiaffine(Shape(p, dims), 1, [67, seed])
        code, out = run(capsys, ["boxnorm", "--map", write_map(tmp_path, f)])
        assert code == 0
        payload = json.loads(out)
        assert payload["box_norm"] == pytest.approx(box_norm(f.shape, chi_table(f)), abs=1e-12)
        assert "bias_exact" not in payload


def test_variety_density_and_connect(tmp_path, capsys):
    sh = Shape(2, (2, 2))
    f = MultilinearMap(sh, 1, np.eye(2, dtype=np.int64).reshape(2, 2, 1))
    path = write_map(tmp_path, f)
    code, out = run(capsys, ["variety", "density", "--map", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["density"] == {"num": 5, "den": 8}
    code, out = run(capsys, ["variety", "connect", "--map", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] is True


def test_variety_bohr(tmp_path, capsys):
    sh = Shape(2, (3,))
    f = MultilinearMap(sh, 3, np.eye(3, dtype=np.int64))
    path = write_map(tmp_path, f)
    code, out = run(capsys, ["variety", "bohr", "--map", path, "--s", "2", "--seed", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["containment"] is True
    assert payload["phi"]["target_dim"] == 2


def test_variety_bohr_epsilon_guard(tmp_path, capsys):
    # --epsilon checks every combination of the r = 40 components: p^r * r = 2^40 * 40
    # lambda digits, refused before any table is built
    f = MultilinearMap(Shape(2, (1,)), 40, np.ones((1, 40), dtype=np.int64))
    assert main(["variety", "bohr", "--map", write_map(tmp_path, f), "--epsilon", "1/2"]) == 3
    assert "lambda grid" in capsys.readouterr().err


def test_conv_command(tmp_path, capsys):
    sh = Shape(2, (1, 1))
    f = MultilinearMap(sh, 1, np.ones((1, 1, 1), dtype=np.int64))
    path = write_map(tmp_path, f)
    code, out = run(capsys, ["conv", "--map", path, "--chain", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["den"] == 2
    assert payload["num"] == [2, 1, 2, 0]
    code, out = run(capsys, ["conv", "--map", path, "--chain", "1", "--histogram"])
    payload = json.loads(out)
    assert {"value": {"num": 0, "den": 1}, "count": 1} in payload["histogram"]


@pytest.mark.parametrize("p, dims", [(2, (3, 3)), (2, (2, 1, 3)), (3, (2, 2)), (3, (1, 1, 2))])
def test_conv_histogram_bytes_match_json_dumps(tmp_path, capsys, p, dims):
    # the rows written from value_counts() are the bytes json.dumps writes for the list of dicts
    for seed in range(4):
        f = random_multiaffine(Shape(p, dims), 1 + seed % 2, [97, seed])
        path = write_map(tmp_path, f)
        chain = [1 + (seed + t) % len(dims) for t in range(len(dims))]
        table = conv_chain(zero_set_indicator(f), chain)
        mean = table.mean()
        payload = {
            "version": __version__, "directions": chain, "den": table.den,
            "mean": {"num": mean.numerator, "den": mean.denominator},
            "histogram": [{"value": {"num": n, "den": d}, "count": c}
                          for n, d, c in zip(*(a.tolist() for a in table.value_counts()))],
        }
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        argv = ["conv", "--map", path, "--chain", ",".join(map(str, chain)), "--histogram"]
        assert run(capsys, argv) == (0, want)
        assert main(argv + ["--out", str(tmp_path / "h.json")]) == 0
        assert (tmp_path / "h.json").read_bytes() == want.encode()


def test_arrange_check(capsys):
    code, out = run(capsys, ["arrange", "--seed", "3", "--count", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["checks"]["identity"] == 10


def test_polarize_command(tmp_path, capsys):
    poly = {"p": 5, "n": 3, "terms": [{"exp": [1, 1, 1], "c": 1}]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(poly))
    code, out = run(capsys, ["polarize", "--poly", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetric"] and payload["diagonal_matches_top_part"]
    assert payload["form"]["dims"] == [3, 3, 3]


def test_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["arank", "--map", str(bad)])
    assert code == 2
    missing = main(["arank", "--map", str(tmp_path / "nope.json")])
    assert missing == 2


def test_resource_guard_exit_3(tmp_path, capsys):
    # arank's and variety density's slice stack: 2^20 slices of 20 x 20 exceed the default guard
    g = MultiaffineMap(Shape(2, (20, 20, 20)), 1, {frozenset(): np.ones(1, dtype=np.int64)})
    assert main(["arank", "--map", write_map(tmp_path, g)]) == 3
    assert "slice stack" in capsys.readouterr().err
    assert main(["variety", "density", "--map", write_map(tmp_path, g)]) == 3
    assert "slice stack" in capsys.readouterr().err
    # codimension 23 on 2^23 points: both the value table and the 2^23
    # character sums exceed it
    h = MultiaffineMap(Shape(2, (23,)), 23, {frozenset(): np.ones(23, dtype=np.int64)})
    assert main(["variety", "density", "--map", write_map(tmp_path, h)]) == 3
    assert "level set characters" in capsys.readouterr().err


def test_density_of_high_codimension_on_small_domain(tmp_path, capsys):
    # codimension 23 on 2 points: 2^23 character sums would exceed the guard,
    # so the two points are enumerated, as they always were
    h = MultiaffineMap(Shape(2, (1,)), 23, {frozenset(): np.ones(23, dtype=np.int64)})
    code, out = run(capsys, ["variety", "density", "--map", write_map(tmp_path, h)])
    assert code == 0
    assert json.loads(out) == {"bound": {"num": 1, "den": 2 ** 23}, "density": {"num": 0, "den": 1},
                               "nonempty": False, "ok": True, "version": __version__}


def test_density_past_enumeration_guard(tmp_path, capsys):
    # the constant map 1 on (2,(12,12)), 2^24 points, has an empty zero set and a
    # full layer 1; both are counted from one 12 x 12 slice
    f = MultiaffineMap(Shape(2, (12, 12)), 1, {frozenset(): np.ones(1, dtype=np.int64)})
    path = write_map(tmp_path, f)
    code, out = run(capsys, ["variety", "density", "--map", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["density"] == {"num": 0, "den": 1}
    assert not payload["nonempty"] and payload["ok"]
    code, out = run(capsys, ["variety", "density", "--map", path, "--layer", "1"])
    assert code == 0 and json.loads(out)["density"] == {"num": 1, "den": 1}


def test_multiaffine_arank_past_enumeration_guard(tmp_path, capsys):
    # x . y + 1 on (2,(12,12)) is one slice [[I, 0], [0, 1]]: rank 12 and t0 = 1,
    # so every value occurs (2^12 - 1) 2^11 times and 1 occurs 2^12 more
    sh = Shape(2, (12, 12))
    f = MultiaffineMap(sh, 1, {frozenset(): np.ones(1, dtype=np.int64),
                               frozenset({1, 2}): np.eye(12, dtype=np.int64).reshape(12, 12, 1)})
    code, out = run(capsys, ["arank", "--map", write_map(tmp_path, f)])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2 ** 24
    assert payload["histogram"] == [4095 * 2 ** 11, 4095 * 2 ** 11 + 2 ** 12]
    assert "bias_exact" not in payload and "arank" not in payload


def test_multilinear_arank_past_enumeration_guard(tmp_path, capsys):
    # a multilinear form is answered from its slice ranks, without enumeration
    sh = Shape(2, (12, 12))
    f = MultilinearMap(sh, 1, np.zeros((12, 12, 1), dtype=np.int64))
    code, out = run(capsys, ["arank", "--map", write_map(tmp_path, f)])
    assert code == 0
    payload = json.loads(out)
    assert payload["bias_exact"] == {"num": 1, "den": 1}
    assert payload["total"] == 2 ** 24
    assert payload["histogram"] == [2 ** 24, 0]


def test_count_overflow_exit_3(tmp_path, capsys):
    # six convolutions in one direction need the denominator 2^63
    sh = Shape(2, (1, 1))
    f = MultilinearMap(sh, 1, np.ones((1, 1, 1), dtype=np.int64))
    path = write_map(tmp_path, f)
    assert main(["conv", "--map", path, "--chain", "1,1,1,1,1"]) == 0
    assert main(["conv", "--map", path, "--chain", "1,1,1,1,1,1"]) == 3


def test_conv_mean_past_int64(tmp_path, capsys):
    # the chain of the zero map on (2,(2,2,2,2,2)) ends at den = 2^62 with every
    # value 1, so the numerators of the mean sum to 2^72
    sh = Shape(2, (2, 2, 2, 2, 2))
    f = MultilinearMap(sh, 1, np.zeros((2,) * 5 + (1,), dtype=np.int64))
    code, out = run(capsys, ["conv", "--map", write_map(tmp_path, f), "--histogram"])
    assert code == 0
    payload = json.loads(out)
    assert payload["den"] == 1 << 62
    assert payload["mean"] == {"num": 1, "den": 1}
    assert payload["histogram"] == [{"value": {"num": 1, "den": 1}, "count": 1024}]


GOOD_MAP = {"p": 2, "dims": [2, 2], "target_dim": 1,
            "parts": [{"subset": [1, 2], "coeffs": [1, 0, 0, 1]}]}


@pytest.mark.parametrize("patch", [
    pytest.param(None, id="top-level-list"),
    pytest.param({"dims": 3}, id="dims-not-a-list"),
    pytest.param({"parts": [{"subset": [1, 3], "coeffs": [1, 0, 0, 1]}]}, id="subset-out-of-range"),
    pytest.param({"parts": [{"subset": [0, 1], "coeffs": [1, 0, 0, 1]}]}, id="subset-zero"),
    pytest.param({"parts": [{"subset": [1, 2], "coeffs": [1.5, 0, 0, 1]}]}, id="float-coefficient"),
])
def test_malformed_map_exit_2(tmp_path, capsys, patch):
    obj = [GOOD_MAP] if patch is None else {**GOOD_MAP, **patch}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["arank", "--map", str(path)]) == 2
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("obj", [
    pytest.param([{"p": 5, "n": 3, "terms": []}], id="top-level-list"),
    pytest.param({"p": 5, "n": 3, "terms": [{"exp": [1, 1, 1], "c": 1.5}]}, id="float-coefficient"),
])
def test_malformed_poly_exit_2(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["polarize", "--poly", str(path)]) == 2
    assert "bad input" in capsys.readouterr().err


def test_scatter_exhaustive_and_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["scatter", "--p", "2", "--dims", "1,1", "--exhaustive", "--seed", "7",
            "--rmax", "3", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("p=2" in l for l in header)
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0].startswith("seed,")
    assert len(rows) == 1 + 2  # column header plus both forms on dims (1, 1)


def test_scatter_row_count_and_invariant(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["scatter", "--p", "2", "--dims", "2,2", "--exhaustive",
                 "--seed", "0", "--rmax", "4", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().strip().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 16
    cols = rows[0].split(",")
    for row in rows[1:]:
        rec = dict(zip(cols, row.split(",")))
        assert int(rec["lovett_lower"]) <= int(rec["prank_hi"])
        assert int(rec["prank_is_exact"]) == 1


def test_scatter_empty_ensemble(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["scatter", "--p", "2", "--dims", "2,2", "--count", "0",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().strip().splitlines() if not l.startswith("#")]
    assert rows == ["seed," + ",".join(
        ["bias_num", "bias_den", "arank", "lovett_lower", "prank_lo", "prank_hi",
         "prank_is_exact", "witness_size", "search_nodes"])]


def test_lemma_violation_exit_1(monkeypatch, tmp_path):
    # a verification failure anywhere must surface as exit code 1
    import rankforge.cli as cli
    from rankforge.errors import LemmaViolationError

    def boom(f):
        raise LemmaViolationError("synthetic violation")

    sh = Shape(2, (1, 1))
    f = MultilinearMap(sh, 1, np.ones((1, 1, 1), dtype=np.int64))
    argv = ["arank", "--map", write_map(tmp_path, f)]
    # the parser is built before the patch, so a command looks its helpers up when it runs
    assert cli.main(argv) == 0
    monkeypatch.setattr(cli, "bias_report", boom)
    assert cli.main(argv) == 1


def test_parser_built_once_and_reused(tmp_path, capsys):
    import rankforge.cli as cli

    cli._parser.cache_clear()
    path = xyz_file(tmp_path)
    first = run(capsys, ["arank", "--map", path])
    assert first[0] == 0 and run(capsys, ["arank", "--map", path]) == first
    assert cli._parser.cache_info().misses == 1
    # an argparse error leaves the parser usable
    with pytest.raises(SystemExit) as err:
        main(["arank", "--map", path, "--rmax", "2"])
    assert err.value.code == 2
    assert run(capsys, ["arank", "--map", path]) == first


def test_bohr_size_options_exclude_each_other_on_every_call(tmp_path):
    # --s and --epsilon are told from their defaults by identity; a reused
    # parser must refuse the pair on its first and on later calls alike
    import rankforge.cli as cli

    cli._parser.cache_clear()
    _cli_files(tmp_path)
    argv = ["variety", "bohr", *MAP_FILE, "--s", "1", "--epsilon", "1/4"]
    assert [_exit_code(argv, tmp_path) for _ in range(2)] == [2, 2]
    assert _exit_code(["variety", "bohr", *MAP_FILE, "--s", "1"], tmp_path) == 0


def test_format_csv_rejected_outside_scatter(tmp_path):
    sh = Shape(2, (1, 1))
    f = MultilinearMap(sh, 1, np.ones((1, 1, 1), dtype=np.int64))
    path = write_map(tmp_path, f)
    assert _exit_code(["arank", "--map", path, "--format", "csv"], tmp_path) == 2


def test_scatter_json_format(tmp_path, capsys):
    code = main(["scatter", "--p", "2", "--dims", "1,1", "--exhaustive",
                 "--seed", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["p"] == "2"
    assert len(payload["records"]) == 2
    assert payload["records"][1]["prank_hi"] == "1"


def test_variety_density_with_layer(tmp_path, capsys):
    sh = Shape(2, (2, 2))
    f = MultilinearMap(sh, 1, np.eye(2, dtype=np.int64).reshape(2, 2, 1))
    path = write_map(tmp_path, f)
    code, out = run(capsys, ["variety", "density", "--map", path, "--layer", "1"])
    assert code == 0
    payload = json.loads(out)
    # the nonzero layer of x.y holds the remaining 6 of 16 points
    assert payload["density"] == {"num": 3, "den": 8}


def test_arank_of_zero_bias_form_prints_infinity(tmp_path, capsys):
    # the linear form f(x) = x on F_2 is balanced: bias 0, analytic rank +inf
    f = MultilinearMap(Shape(2, (1,)), 1, np.ones((1, 1), dtype=np.int64))
    code, out = run(capsys, ["arank", "--map", write_map(tmp_path, f)])
    assert code == 0
    payload = json.loads(out)
    assert payload["bias_exact"] == {"num": 0, "den": 1} and payload["arank"] == math.inf
    assert '"arank": Infinity' in out
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_scatter_exhaustive_trilinear_invariant(tmp_path):
    # all 256 coefficient tensors on dims (2,2,2): every record keeps the
    # analytic lower bound at or below the partition rank
    out = tmp_path / "tri.csv"
    assert main(["scatter", "--p", "2", "--dims", "2,2,2", "--exhaustive",
                 "--seed", "0", "--rmax", "6", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().strip().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 256
    cols = rows[0].split(",")
    for row in rows[1:]:
        rec = dict(zip(cols, row.split(",")))
        assert int(rec["prank_is_exact"]) == 1
        assert int(rec["lovett_lower"]) <= int(rec["prank_lo"])


# ---------------------------------------------------------------------------
#  Fuzzing the front door: bad input exits 2 (or 3 for a resource guard),
#  never 1 and never with an uncaught exception
# ---------------------------------------------------------------------------

def _exit_code(argv, cwd) -> int:
    """`main(argv)` run in `cwd`, so that an `--out` with a relative path writes there."""
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as e:  # argparse: 2 for bad flags, 0 for --help and --version
        return e.code
    finally:
        os.chdir(home)


FIELD_NAMES = ["p", "dims", "target_dim", "parts", "subset", "coeffs", "n", "terms", "exp", "c"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3)
    | st.sampled_from([2 ** 61 - 1, 2 ** 63, -(2 ** 63), 10 ** 30, 0.5, -1e300]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3), kids, max_size=3),
    max_leaves=10,
)
FUZZ_MAPS = [
    GOOD_MAP,
    {"p": 3, "dims": [1, 2], "target_dim": 2,
     "parts": [{"subset": [1], "coeffs": [1, 2]}, {"subset": [], "coeffs": [0, 1]},
               {"subset": [1, 2], "coeffs": [1, 0, 2, 1]}]},
    {"p": 2, "dims": [1, 1, 1], "parts": [{"subset": [1, 2, 3], "coeffs": [1]}]},
]
FUZZ_POLYS = [
    {"p": 5, "n": 2, "terms": [{"exp": [2, 0], "c": 1}, {"exp": [1, 1], "c": 3}]},
    {"p": 3, "n": 3, "terms": [{"exp": [1, 1, 1], "c": 2}, {"exp": [0, 0, 0], "c": 1}]},
]
MAP_COMMANDS = [["arank"], ["prank"], ["boxnorm"], ["variety", "density"], ["variety", "connect"],
                ["variety", "bohr"], ["conv"], ["conv", "--histogram"]]


def _paths(obj, here=()):
    yield here
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, here + (key,))


@st.composite
def mutated(draw, originals):
    """A valid input with one to three values replaced by arbitrary JSON or removed."""
    obj = copy.deepcopy(draw(st.sampled_from(originals)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(JSON_VALUES)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            del parent[path[-1]]
    return obj


def _fuzz_dir(tmp_path_factory):
    # a new directory per example: rewriting a file written moments before can
    # wait for a disk flush, while creating a new one does not
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(mutated(FUZZ_MAPS), st.sampled_from(MAP_COMMANDS))
def test_fuzz_bad_map_json(tmp_path_factory, obj, command):
    path = _fuzz_dir(tmp_path_factory) / "m.json"
    path.write_text(json.dumps(obj))
    assert _exit_code(command + ["--map", str(path)], path.parent) in (0, 2, 3)


@settings(max_examples=50, deadline=None)
@given(mutated(FUZZ_POLYS))
def test_fuzz_bad_poly_json(tmp_path_factory, obj):
    path = _fuzz_dir(tmp_path_factory) / "p.json"
    path.write_text(json.dumps(obj))
    assert _exit_code(["polarize", "--poly", str(path)], path.parent) in (0, 2, 3)


SUBCOMMANDS = ["arank", "prank", "boxnorm", "variety", "conv", "arrange", "polarize", "scatter", "nope"]
FLAGS = ["--map", "--poly", "--out", "--format", "--summary", "--rmax", "--budget-nodes", "--layer",
         "--seed", "--s", "--epsilon", "--chain", "--histogram", "--check", "--count", "--p", "--dims",
         "--exhaustive", "--version", "-h", "--bogus"]
# small numbers only: a well-formed --count or --dims must stay quick
VALUES = ["density", "connect", "bohr", "json", "csv", "x", "", "-1", "0", "1", "2", "3", "4",
          "1,2", "2,1", "1,1", "0,1", "1,,2", "3,-1", "1/2", "-1/2", "nan", "inf", "1e400"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SUBCOMMANDS), st.lists(st.sampled_from(FLAGS + VALUES + ["MAP", "POLY", "FILE"]),
                                              max_size=8))
def test_fuzz_bad_flags(tmp_path_factory, command, tokens):
    d = _fuzz_dir(tmp_path_factory)
    (d / "good_map.json").write_text(json.dumps(GOOD_MAP))
    (d / "good_poly.json").write_text(json.dumps(FUZZ_POLYS[0]))
    files = {"MAP": str(d / "good_map.json"), "POLY": str(d / "good_poly.json"),
             "FILE": str(d / "missing" / "out.json")}
    argv = [command] + [files.get(t, t) for t in tokens]
    assert _exit_code(argv, d) in (0, 2, 3)


# ---------------------------------------------------------------------------
#  Every option is read by the command that takes it
# ---------------------------------------------------------------------------

def _ignored(valid, *extra):
    """`valid` exits 0; with `extra` appended it must exit 2."""
    command = [t for t in valid[:2] if not t.startswith("-")]
    return pytest.param(valid, valid + list(extra), id=" ".join(command + list(extra)))


MAP_FILE = ["--map", "m.json"]
IGNORED_OPTIONS = [
    # options no command read
    *[_ignored(argv, "--format", "json") for argv in [
        ["arank", *MAP_FILE], ["prank", *MAP_FILE], ["boxnorm", *MAP_FILE],
        ["variety", "density", *MAP_FILE], ["conv", *MAP_FILE], ["arrange", "--count", "1"],
        ["polarize", "--poly", "f.json"]]],
    *[_ignored(argv, "--summary") for argv in [
        ["variety", "density", *MAP_FILE], ["variety", "connect", *MAP_FILE],
        ["variety", "bohr", *MAP_FILE], ["conv", *MAP_FILE], ["arrange", "--count", "1"],
        ["polarize", "--poly", "f.json"], ["scatter", "--p", "2", "--dims", "1,1"]]],
    _ignored(["arrange", "--count", "1"], "--check"),
    # combinations in which a command dropped an option
    _ignored(["variety", "bohr", *MAP_FILE], "--layer", "1"),
    _ignored(["variety", "density", *MAP_FILE], "--seed", "9"),
    _ignored(["variety", "connect", *MAP_FILE], "--s", "4"),
    _ignored(["variety", "density", *MAP_FILE], "--epsilon", "1/4"),
    _ignored(["variety", "bohr", *MAP_FILE, "--epsilon", "1/2"], "--s", "5"),
    _ignored(["variety", "bohr", *MAP_FILE, "--epsilon", "1/2"], "--s", "1"),
    _ignored(["scatter", "--p", "2", "--dims", "1,1", "--exhaustive"], "--count", "7"),
    _ignored(["scatter", "--p", "2", "--dims", "1,1", "--exhaustive"], "--count", "0"),
    pytest.param(["variety", "density", *MAP_FILE], ["variety", *MAP_FILE, "density"],
                 id="variety options before the action"),
]
CLI_POLY = {"p": 5, "n": 3, "terms": [{"exp": [1, 1, 1], "c": 1}]}


def _cli_files(d):
    (d / "m.json").write_text(json.dumps(GOOD_MAP))
    (d / "f.json").write_text(json.dumps(CLI_POLY))


@pytest.mark.parametrize("valid,argv", IGNORED_OPTIONS)
def test_ignored_option_exits_2(tmp_path, valid, argv):
    _cli_files(tmp_path)
    assert _exit_code(valid, tmp_path) == 0
    assert _exit_code(argv, tmp_path) == 2


NEGATIVE_COUNTS = [
    ["arrange", "--count", "-3"],
    ["prank", *MAP_FILE, "--rmax", "-2"],
    ["prank", *MAP_FILE, "--budget-nodes", "-5"],
    ["scatter", "--p", "2", "--dims", "2,2", "--count", "-4"],
]


@pytest.mark.parametrize("argv", NEGATIVE_COUNTS, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_negative_count_exits_2(tmp_path, argv):
    # counts, rank caps and budgets are non-negative integers; 0 is one
    _cli_files(tmp_path)
    assert _exit_code(argv[:-1] + ["0"], tmp_path) == 0
    assert _exit_code(argv, tmp_path) == 2


def test_readme_command_line_runs(tmp_path):
    # every line of the README's "Command line" block, so the two cannot drift apart
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(commands) >= 10 and all(argv[0] == "rankforge" for argv in commands)
    _cli_files(tmp_path)
    assert [argv for argv in commands if _exit_code(argv[1:], tmp_path) != 0] == []


def test_readme_small_example_runs():
    # the README's Python "Small example" block, and what its comments say it computes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Small example:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    rep, rank = scope["rep"], scope["rank"]
    assert rep.bias_exact == Fraction(3, 4)
    assert rep.arank == pytest.approx(math.log2(4 / 3))
    assert rank.exact and rank.prank == 1 and len(rank.witness) == 1
    summand = rank.witness.summands[0]  # x * (yz)
    assert summand.subset == frozenset({1})
    assert summand.beta.coeffs.tolist() == [[1]] and summand.gamma.coeffs.tolist() == [[[1]]]
