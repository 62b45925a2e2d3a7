"""Seeded inputs, operations, correctness checks and reach ladders of the three workloads.

Every input is generated here with numpy from the run's seed and handed to
rankforge only as map or polynomial JSON.  An operation is one in-process
`rankforge.cli.main([...])` call, or one public-API call where no subcommand
exists (`cs_amplification_check`).  Each check returns whether the output is
right, whether it is exact, and a record of its exact-contract fields:

* `eq`: a hash of the fields that must stay byte-identical (histograms,
  counts, densities, exact biases, conv histograms, polarized forms);
* `iv`: an interval that must keep containing the true value (the
  partition rank `[prank_lo, prank_hi]`, the diameter `[lower, upper]`).
  Two records agree when their `eq` match and their intervals meet, so a
  search that gets more exact, or finds another witness, still agrees.

Search effort (`nodes`) and which witness was found are left out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

CHI_TOL = 1e-9


@dataclass
class Op:
    """One operation of a deck: a CLI argv (with `{in}` for the input path) or an API call."""

    entry: int           # position in the deck; the key of its expected record
    round: int           # the deck's round it belongs to
    kind: str            # "arank", "prank", "variety_density", ... or "cs_check"
    label: str           # shape tag, e.g. "2x(4,4,4)/planted3"
    payload: dict        # the map or polynomial JSON
    argv: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    path: str = ""


@dataclass
class Outcome:
    ok: bool
    exact: bool
    record: dict | None
    error: str = ""


# ---------------------------------------------------------------------------
#  Input generators (numpy only; the library never generates its own inputs)
# ---------------------------------------------------------------------------

def _proper_subsets_with_1(k: int):
    return [(1,) + rest for size in range(1, k) for rest in combinations(range(2, k + 1), size - 1)]


def multilinear_json(rng, p: int, dims) -> dict:
    coeffs = rng.integers(0, p, size=int(np.prod(dims)))
    return {"p": p, "dims": list(dims), "target_dim": 1,
            "parts": [{"subset": list(range(1, len(dims) + 1)), "coeffs": coeffs.tolist()}]}


def planted_json(rng, p: int, dims, r: int) -> dict:
    """A form of partition rank at most r: a sum of r products beta(x_I) gamma(x_rest)."""
    k = len(dims)
    subsets = _proper_subsets_with_1(k)
    total = np.zeros(dims, dtype=np.int64)
    for _ in range(r):
        I = [i - 1 for i in subsets[int(rng.integers(len(subsets)))]]
        C = [i for i in range(k) if i not in I]
        beta = _nonzero(rng, p, [dims[i] for i in I])
        gamma = _nonzero(rng, p, [dims[i] for i in C])
        outer = np.multiply.outer(beta, gamma).transpose(np.argsort(I + C))
        total = (total + outer) % p
    return {"p": p, "dims": list(dims), "target_dim": 1,
            "parts": [{"subset": list(range(1, k + 1)), "coeffs": total.reshape(-1).tolist()}]}


def _nonzero(rng, p: int, dims) -> np.ndarray:
    while True:
        t = rng.integers(0, p, size=dims)
        if t.any():
            return t


def multiaffine_json(rng, p: int, dims, m: int = 1) -> dict:
    """Random coefficients on every part, with a nonzero constant and linear term so
    that no multilinear shortcut applies."""
    k = len(dims)
    parts = []
    for size in range(k + 1):
        for I in combinations(range(1, k + 1), size):
            n = int(np.prod([dims[i - 1] for i in I])) if I else 1
            coeffs = rng.integers(0, p, size=n * m)
            if size <= 1:
                coeffs[0] = int(rng.integers(1, p))
            parts.append({"subset": list(I), "coeffs": coeffs.tolist()})
    return {"p": p, "dims": list(dims), "target_dim": m, "parts": parts}


def poly_json(rng, p: int, n: int, d: int, per_degree: int = 2) -> dict:
    """A polynomial of degree d with `per_degree` monomials of each degree 1..d.

    A fixed degree profile keeps the cost of evaluating it, which grows with the
    degree of each term, the same from seed to seed."""
    terms = []
    for k in range(1, d + 1):
        mons = [e for e in product(range(p), repeat=n) if sum(e) == k]
        for i in rng.choice(len(mons), size=min(per_degree, len(mons)), replace=False):
            terms.append({"exp": [int(v) for v in mons[i]], "c": int(rng.integers(1, p))})
    return {"p": p, "n": n, "terms": terms}


def _tag(p, dims) -> str:
    return f"{p}x({','.join(map(str, dims))})"


# ---------------------------------------------------------------------------
#  Decks: one round holds one operation of every stratum, in a fixed order
# ---------------------------------------------------------------------------

# Strata of one round, as (shape, copies).  The copies place the median and the
# 90th percentile of the latencies inside a group of like operations, away
# from the boundary between two kinds, so that they do not jump between runs.

# `arank` on multilinear forms from 2^12 to 2^22 points.  The 2^18 group (about 5 ms) holds
# the median: operations of 1-3 ms, where the CLI's Python overhead dominates, were 10-15%
# slower in some processes than in others, while numpy-bound ones kept within 3%.
RANKS_ARANK = [
    ((2, (4, 4, 4)), 3), ((2, (3, 3, 3, 3)), 3), ((2, (4, 5, 5)), 3), ((3, (3, 3, 3)), 3),
    ((2, (5, 5, 6)), 3), ((2, (4, 4, 4, 4)), 3), ((2, (5, 6, 6)), 2), ((2, (6, 6, 6)), 12),
    ((3, (4, 4, 4)), 3), ((2, (6, 7, 7)), 3), ((2, (7, 7, 7)), 3), ((2, (7, 7, 8)), 3),
]
# `prank` on a random form and on planted forms of partition rank 1 to 3, per shape; extra
# random (2,(3,3,4)) forms (about 70 ms each) hold the 90th percentile.  A planted rank-3
# (2,(4,4,4)) form takes 0.1 s or 2 s, depending on where the search meets a witness; one
# per round made ops_per_s swing with the seed.  So every other round has a random
# (2,(4,4,4)) form in its place, which always spends the whole budget.
RANKS_PRANK = [(2, (3, 3, 3)), (3, (3, 3, 3)), (2, (3, 3, 4)), (2, (4, 4, 4))]
RANKS_PRANK_EXTRA = [((2, (3, 3, 4)), 2)]

# Multiaffine maps and zero sets from 2^12 to 2^22 points.  `variety density` on
# (2,(6,6,6)) (single-threaded, about 6 ms) holds the median, and exact diameters of
# (2,(6,6)) zero sets (about 120 ms) the 90th percentile.
ENUM_ARANK = [((2, (6, 6)), 1), ((2, (4, 5, 5)), 1), ((2, (8, 8)), 1), ((2, (6, 6, 6)), 1),
              ((3, (4, 4, 4)), 1), ((2, (10, 10)), 1), ((2, (7, 7, 7)), 1), ((2, (7, 7, 8)), 1)]
ENUM_DENSITY = [(((2, (6, 6)), 1), 1), (((2, (8, 8)), 2), 1), (((2, (6, 6, 6)), 1), 14),
                (((2, (10, 10)), 1), 1), (((2, (7, 7, 7)), 2), 1), (((2, (11, 11)), 1), 1)]  # ((shape, codim), copies)
# explore_diameters.py shapes: sets of at most 4096 points get exact diameters, the rest bounds
ENUM_CONNECT = [((2, (4, 4)), 1), ((2, (5, 5)), 1), ((3, (3, 3)), 1), ((2, (3, 3, 3)), 1),
                ((2, (6, 6)), 4), ((2, (8, 8)), 1), ((2, (10, 10)), 1), ((2, (6, 6, 6)), 1)]
ENUM_CONV = [(2, (3, 3, 3)), (3, (3, 3)), (2, (6, 6)), (2, (4, 4, 4)), (2, (8, 8)), (2, (6, 6, 6))]
ENUM_BOXNORM = [(2, (5, 5)), (3, (3, 3)), (2, (3, 3, 3))]

# (p, n, d) of cs_amplification_check, and of the polarize subcommand
POLAR_CS = [((3, 3, 2), 1), ((3, 4, 2), 1), ((5, 3, 2), 1), ((5, 2, 3), 8), ((7, 3, 2), 1),
            ((7, 2, 3), 1), ((5, 2, 4), 2), ((5, 3, 3), 1)]
POLAR_CMD = [(5, 3, 3), (5, 4, 3), (7, 3, 4), (7, 6, 3)]


def _cli(kind: str) -> list:
    return {
        "arank": ["arank", "--map", "{in}"],
        "prank": ["prank", "--map", "{in}"],
        "variety_density": ["variety", "density", "--map", "{in}"],
        "variety_connect": ["variety", "connect", "--map", "{in}"],
        "conv": ["conv", "--map", "{in}", "--histogram"],
        "boxnorm": ["boxnorm", "--map", "{in}"],
        "polarize": ["polarize", "--poly", "{in}"],
    }[kind]


def _expand(strata, tiny: bool) -> list:
    """One entry per copy; a tiny deck keeps one copy of the first two strata."""
    return [s for s, copies in _first(strata, tiny) for _ in range(1 if tiny else copies)]


def _first(xs, tiny: bool) -> list:
    return xs[:2] if tiny else xs


def _spread(many: list, few: list) -> list:
    """`few` evenly interleaved into `many`, so that slow operations are not adjacent."""
    out, step = [], len(many) / max(1, len(few))
    for j, op in enumerate(few):
        out += many[round(j * step): round((j + 1) * step)] + [op]
    return out


def _round_ranks(rng, r: int, tiny: bool):
    aranks = [("arank", _tag(p, d), multilinear_json(rng, p, d), {}) for p, d in _expand(RANKS_ARANK, tiny)]
    pranks = []
    for p, d in RANKS_PRANK[:1] if tiny else RANKS_PRANK:
        pranks.append(("prank", _tag(p, d) + "/random", multilinear_json(rng, p, d), {}))
        for rank in (1, 2, 3):
            if rank == 3 and d == (4, 4, 4) and r % 2:
                pranks.append(("prank", _tag(p, d) + "/random", multilinear_json(rng, p, d), {}))
            else:
                pranks.append(("prank", _tag(p, d) + f"/planted{rank}", planted_json(rng, p, d, rank),
                               {"planted": rank}))
    if not tiny:
        pranks += [("prank", _tag(p, d) + "/random", multilinear_json(rng, p, d), {})
                   for p, d in _expand(RANKS_PRANK_EXTRA, tiny)]
    return _spread(aranks, pranks)


def _round_enumerate(rng, r: int, tiny: bool):
    ops = [("arank", _tag(p, d), multiaffine_json(rng, p, d), {}) for p, d in _expand(ENUM_ARANK, tiny)]
    ops += [("variety_density", _tag(p, d) + f"/m{m}", multiaffine_json(rng, p, d, m), {})
            for (p, d), m in _expand(ENUM_DENSITY, tiny)]
    ops += [("boxnorm", _tag(p, d), multiaffine_json(rng, p, d), {}) for p, d in _first(ENUM_BOXNORM, tiny)]
    slow = [("variety_connect", _tag(p, d), multiaffine_json(rng, p, d), {})
            for p, d in _expand(ENUM_CONNECT, tiny)]
    slow += [("conv", _tag(p, d), multiaffine_json(rng, p, d), {}) for p, d in _first(ENUM_CONV, tiny)]
    return _spread(ops, slow)


def _round_polarize(rng, r: int, tiny: bool):
    ops = [("cs_check", f"({p},{n},{d})", poly_json(rng, p, n, d), {}) for p, n, d in _expand(POLAR_CS, tiny)]
    cmds = [("polarize", f"({p},{n},{d})", poly_json(rng, p, n, d), {})
            for p, n, d in (POLAR_CMD[:1] if tiny else POLAR_CMD)]
    return _spread(ops, cmds)


ROUNDS = {"ranks": _round_ranks, "enumerate": _round_enumerate, "polarize": _round_polarize}
# Rounds per deck.  One pass over a `ranks` or `polarize` deck takes about one default run.
# An `enumerate` round has 47 input files and costs the same from seed to seed, so its deck
# is half as long and runs twice: writing twice the files made set-up times swing with disk stalls.
DECK_ROUNDS = {"ranks": 6, "enumerate": 12, "polarize": 19}


def build_deck(workload: str, seed: int, tiny: bool = False) -> list:
    rounds = 1 if tiny else DECK_ROUNDS[workload]
    ops = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        for kind, label, payload, meta in ROUNDS[workload](rng, r, tiny):
            ops.append(Op(len(ops), r, kind, label, payload, [] if kind == "cs_check" else _cli(kind), meta))
    return ops


def write_inputs(ops, directory: Path):
    """One JSON file per operation, in a new directory.  Overwriting or deleting files
    written moments ago can wait for a disk flush, so each process writes its own."""
    directory.mkdir(parents=True)
    for op in ops:
        op.path = str(directory / f"{op.entry:04d}.json")
        with open(op.path, "w") as fh:
            json.dump(op.payload, fh)


def warm_caches(ops):
    """Fill the lru_caches of digit_matrix and addition_table for every (p, n) in the deck."""
    from rankforge.forms import addition_table, digit_matrix

    for op in ops:
        p = op.payload["p"]
        # a polynomial in n variables is polarized to a form on copies of F_p^n
        for n in set(op.payload.get("dims", [op.payload.get("n")])):
            digit_matrix(p, n)
            if op.kind == "conv":
                addition_table(p, n)


# ---------------------------------------------------------------------------
#  Running one operation
# ---------------------------------------------------------------------------

def call_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from rankforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects its input this way
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def run_op(op: Op):
    """Execute the operation; returns the raw result for `check`.  This is the timed part."""
    if op.kind == "cs_check":
        from rankforge import polarization

        with open(op.path) as fh:
            f = polarization.PolyDense.from_json(json.load(fh))
        return polarization.cs_amplification_check(f)
    return call_cli([a.replace("{in}", op.path) for a in op.argv])


def _frac(d) -> Fraction:
    return Fraction(d["num"], d["den"])


def _digest(obj) -> str:
    """Short hash of the canonical JSON of the exact fields."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:24]


def check(op: Op, raw) -> Outcome:
    """Correctness gate of one result: the exit code and the invariants visible from outside."""
    if op.kind == "cs_check":
        return _check_cs(op, raw)
    rc, out, err = raw
    if rc != 0:
        return Outcome(False, False, None, f"exit {rc}: {err.strip()[:200]}")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as e:
        return Outcome(False, False, None, f"unparseable output: {e}")
    return CHECKS[op.kind](op, payload)


def _domain(payload) -> int:
    return payload["p"] ** sum(payload["dims"])


def _check_arank(op, o):
    total = _domain(op.payload)
    hist = o["histogram"]
    if sum(hist) != o["total"] or o["total"] != total or len(hist) != op.payload["p"]:
        return Outcome(False, False, None, "histogram does not sum to the domain size")
    eq = {"histogram": hist, "total": o["total"]}
    if "bias_exact" in o:
        p = op.payload["p"]
        b = _frac(o["bias_exact"])
        if b != Fraction(hist[0] - hist[1], total) or any(c != hist[1] for c in hist[1:]):
            return Outcome(False, False, None, "exact bias disagrees with the histogram")
        curried = p ** sum(op.payload["dims"][:-1])
        if Fraction(o["vanishing_count"], curried) != b:
            return Outcome(False, False, None, "vanishing count disagrees with the bias")
        if not math.isclose(o["arank"], math.log(b.denominator / b.numerator, p), abs_tol=1e-9):
            return Outcome(False, False, None, "analytic rank disagrees with the bias")
        eq.update(bias_exact=o["bias_exact"], vanishing_count=o["vanishing_count"])
    return Outcome(True, True, {"eq": _digest(eq), "iv": None})


def _check_prank(op, o):
    from rankforge.forms import map_from_json
    from rankforge.partition import PartitionDecomposition, PartitionSummand

    lo, hi, lovett = o["prank_lo"], o["prank_hi"], o["lovett_lower"]
    if not lovett <= lo <= hi or o["exact"] != (lo == hi):
        return Outcome(False, False, None, f"inconsistent interval lovett={lovett} [{lo}, {hi}]")
    target = map_from_json(op.payload)
    summands = [PartitionSummand(frozenset(s["subset"]), map_from_json(s["beta"]), map_from_json(s["gamma"]))
                for s in o.get("witness", [])]
    if len(summands) != hi or not PartitionDecomposition(target, summands).verify():
        return Outcome(False, False, None, "witness does not reconstruct the target")
    if o["exact"] and lo > op.meta.get("planted", hi):
        return Outcome(False, False, None, f"rank {lo} above the planted rank {op.meta['planted']}")
    return Outcome(True, o["exact"], {"eq": _digest({"lovett_lower": lovett}), "iv": [lo, hi]})


def _check_density(op, o):
    d, bound = _frac(o["density"]), _frac(o["bound"])
    total = _domain(op.payload)
    if (d * total).denominator != 1 or o["nonempty"] != (d > 0) or (d > 0 and d < bound) or not o["ok"]:
        return Outcome(False, False, None, "density is not a count or breaks the bound")
    return Outcome(True, True, {"eq": _digest({k: o[k] for k in ("density", "bound", "nonempty")}), "iv": None})


def _check_connect(op, o):
    size, comps = o["set_size"], o["components"]
    if not 0 <= size <= _domain(op.payload) or o["connected"] != (comps == 1):
        return Outcome(False, False, None, "inconsistent component report")
    eq = _digest({k: o[k] for k in ("connected", "components", "set_size")})
    if not o["connected"]:
        return Outcome(True, True, {"eq": eq, "iv": None})
    lo, hi = o["diameter_lower"], o["diameter"]
    if not 0 <= lo <= hi or (o["diameter_exact"] and lo != hi):
        return Outcome(False, False, None, f"inconsistent diameter [{lo}, {hi}]")
    return Outcome(True, bool(o["diameter_exact"]), {"eq": eq, "iv": [lo, hi]})


def _check_conv(op, o):
    total = _domain(op.payload)
    hist = [(_frac(h["value"]), h["count"]) for h in o["histogram"]]
    if sum(c for _, c in hist) != total:
        return Outcome(False, False, None, "conv histogram does not sum to the domain size")
    if sum(v * c for v, c in hist) / total != _frac(o["mean"]):
        return Outcome(False, False, None, "conv histogram disagrees with the mean")
    eq = {k: o[k] for k in ("directions", "den", "mean", "histogram")}
    return Outcome(True, True, {"eq": _digest(eq), "iv": None})


def _check_boxnorm(op, o):
    k = len(op.payload["dims"])
    nrm = o["box_norm"]
    if not -CHI_TOL <= nrm <= 1 + CHI_TOL or not math.isclose(o["box_norm_power"], nrm ** (1 << k), abs_tol=1e-9):
        return Outcome(False, False, None, "box norm outside [0, 1]")
    # the norm is a float of character values: no exact field to record
    return Outcome(True, True, {"eq": _digest({}), "iv": None})


def _check_polarize(op, o):
    if not (o["symmetric"] and o["diagonal_matches_top_part"]):
        return Outcome(False, False, None, "polarization is not symmetric or misses the top part")
    return Outcome(True, True, {"eq": _digest({"degree": o["degree"], "form": o["form"]}), "iv": None})


def _check_cs(op, rep):
    if not rep.ok or rep.abs_bias_power > rep.signed_sum_mean + CHI_TOL or not 0 < rep.form_bias <= 1:
        return Outcome(False, False, None, "amplification chain does not hold")
    fb = rep.form_bias
    return Outcome(True, True, {"eq": _digest({"form_bias": [fb.numerator, fb.denominator]}), "iv": None})


CHECKS = {
    "arank": _check_arank,
    "prank": _check_prank,
    "variety_density": _check_density,
    "variety_connect": _check_connect,
    "conv": _check_conv,
    "boxnorm": _check_boxnorm,
    "polarize": _check_polarize,
}


def records_agree(a: dict, b: dict) -> bool:
    """Same exact fields, and intervals that both contain the true value."""
    if a["eq"] != b["eq"] or (a["iv"] is None) != (b["iv"] is None):
        return False
    return a["iv"] is None or max(a["iv"][0], b["iv"][0]) <= min(a["iv"][1], b["iv"][1])


# ---------------------------------------------------------------------------
#  Reach ladders: the largest rung answered exactly under the default guards
# ---------------------------------------------------------------------------

@dataclass
class Rung:
    label: str
    points: int
    op: Op


def ladder(workload: str, seed: int, tiny: bool = False):
    """Rungs in growing domain size; each is a single operation."""
    rng = np.random.default_rng([seed, 10_000])
    if workload == "ranks":
        # (2,(n,n,n)) grown one coordinate at a time: (4,4,4), (4,4,5), (4,5,5), (5,5,5), ...
        dims = [4, 4, 4]
        for _ in range(4 if tiny else 25):
            d = tuple(dims)
            yield Rung(_tag(2, d), 2 ** sum(d),
                       Op(-1, -1, "arank", _tag(2, d), multilinear_json(rng, 2, d), _cli("arank")))
            dims[len(dims) - 1 - dims[::-1].index(min(dims))] += 1
    elif workload == "enumerate":
        # variety connect on the zero set of a bilinear form on (2,(n,n))
        for n in range(2, 5 if tiny else 11):
            d = (n, n)
            yield Rung(_tag(2, d), 4 ** n,
                       Op(-1, -1, "variety_connect", _tag(2, d), multilinear_json(rng, 2, d), _cli("variety_connect")))
    else:
        # cs_amplification_check of cubics over F_5 in n variables: p^(n d) points
        for n in range(1, 3 if tiny else 6):
            yield Rung(f"(5,{n},3)", 5 ** (3 * n), Op(-1, -1, "cs_check", f"(5,{n},3)", poly_json(rng, 5, n, 3)))
