"""Command-line front door and the ensemble experiment runner.

Exit codes: 0 ok, 1 a verified identity failed (always a bug report), 2
malformed input, 3 a resource guard refused the computation.  All outputs are
deterministic given the flags: randomness is derived from one root seed split
per task by a counter (task i uses numpy's default_rng seeded with
[root_seed, i]), rationals are emitted as exact num/den integer pairs, and
floats appear only for analytic ranks and character-weighted values.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .analytic import bias_report, exact_bias
from .convolutions import (
    arrangement_identity_check,
    conv_chain,
    position_count_check,
    sample_arrangement_in_set,
    vanishing_propagation_check,
    zero_set_indicator,
)
from .errors import DomainSizeError, LemmaViolationError
from .forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    as_multiaffine,
    code_to_vec,
    map_from_json,
    map_to_json,
    random_multilinear,
    top_part,
    zero_set_table,
)
from .partition import DEFAULT_BUDGET, RankReport, prank_exact
from .polarization import PolyDense, polarize
from .varieties import Variety, bohr_external, bohr_external_sim, connectivity, density_bound_check

BUDGET_HELP = ("budget of the deepening search, in solver unknowns summed over the leaves checked; "
               "it bounds the search only, not the exact k = 3 pair route")
RMAX_HELP = "deepest rank the deepening search tries; it bounds the search only, not the exact k = 3 pair route"

SCATTER_COLUMNS = [
    "seed",
    "bias_num",
    "bias_den",
    "arank",
    "lovett_lower",
    "prank_lo",
    "prank_hi",
    "prank_is_exact",
    "witness_size",
    "search_nodes",
]


def _nonnegative_int(text: str) -> int:
    """argparse type of counts, rank caps and budgets: a negative value exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_map(path: str):
    return map_from_json(_load_json(path))


def _emit(payload: dict | str, out: str | None, summary: str | None = None):
    """Write a payload as json.dumps(payload, indent=2, sort_keys=True), or
    text already in that form, to `out` or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if summary:
        print(summary, file=sys.stderr)


def _rank_payload(rep: RankReport) -> dict:
    payload = {
        "prank_lo": rep.prank_lo,
        "prank_hi": rep.prank_hi,
        "exact": rep.exact,
        "lovett_lower": rep.lovett_lower,
        "nodes": rep.nodes,
    }
    if rep.truncated_reason:
        payload["truncated_reason"] = rep.truncated_reason
    if rep.witness is not None:
        payload["witness_size"] = len(rep.witness)
        payload["witness"] = [
            {
                "subset": sorted(s.subset),
                "beta": map_to_json(s.beta),
                "gamma": map_to_json(s.gamma),
            }
            for s in rep.witness.summands
        ]
    return payload


# ---------------------------------------------------------------------------
#  Subcommands
# ---------------------------------------------------------------------------

def cmd_arank(args) -> int:
    f = _load_map(args.map)
    rep = bias_report(f)
    payload = {
        "version": __version__,
        "bias_real": rep.bias.real,
        "bias_imag": rep.bias.imag,
        "histogram": list(rep.histogram.counts),
        "total": rep.histogram.total,
    }
    summary = f"bias {rep.bias:.6g}"
    if rep.bias_exact is not None:
        payload["bias_exact"] = _frac(rep.bias_exact)
        payload["arank"] = rep.arank
        payload["vanishing_count"] = rep.vanishing_count
        summary = f"bias {rep.bias_exact} arank {rep.arank:.12g}"
    _emit(payload, args.out, summary if args.summary else None)
    return 0


def cmd_prank(args) -> int:
    f = _load_map(args.map)
    if not isinstance(f, MultilinearMap):
        raise ValueError("partition rank needs a multilinear form")
    rep = prank_exact(f, r_max=args.rmax, budget=args.budget_nodes)
    payload = {"version": __version__, **_rank_payload(rep)}
    if rep.exact:
        summary = f"prank {rep.prank} (lovett lower {rep.lovett_lower}, {rep.nodes} nodes, {rep.pairs} pairs)"
    else:
        summary = f"prank in [{rep.prank_lo}, {rep.prank_hi}]: {rep.truncated_reason}"
    _emit(payload, args.out, summary if args.summary else None)
    return 0


def cmd_boxnorm(args) -> int:
    f = _load_map(args.map)
    if f.m != 1:
        raise ValueError("box norm needs a scalar map")
    # ||chi(f)||_box^(2^k) = bias(top part of f): every lower part cancels in the
    # box product, so no box average is enumerated
    bias = exact_bias(top_part(f))
    nrm = float(bias) ** (1 / (1 << f.shape.k))
    payload = {
        "version": __version__,
        "box_norm": nrm,
        "box_norm_power": nrm ** (1 << f.shape.k),
    }
    if isinstance(f, MultilinearMap):
        payload["bias_exact"] = _frac(bias)
    _emit(payload, args.out, f"box norm {nrm:.12g}" if args.summary else None)
    return 0


def cmd_variety(args) -> int:
    f = _load_map(args.map)
    if args.action != "bohr":
        value = tuple(int(t) for t in args.layer.split(",")) if args.layer else None
        V = Variety(f, value)
    if args.action == "density":
        rep = density_bound_check(V)
        payload = {
            "version": __version__,
            "density": _frac(rep.density),
            "bound": _frac(rep.bound),
            "nonempty": rep.nonempty,
            "ok": rep.ok,
        }
    elif args.action == "connect":
        rep = connectivity(V.shape, V.table())
        payload = {
            "version": __version__,
            "connected": rep.is_connected,
            "components": rep.component_count,
            "set_size": rep.set_size,
            "diameter": rep.diameter,
            "diameter_exact": rep.diameter_exact,
            "diameter_lower": rep.diameter_lower,
        }
    elif args.epsilon is not None:  # simultaneous approximation of the components
        eps = Fraction(args.epsilon)
        parts = as_multiaffine(f).parts
        components = [
            MultiaffineMap(f.shape, 1, {I: C[..., j : j + 1] for I, C in parts.items()})
            for j in range(f.m)
        ]
        rep = bohr_external_sim(components, eps, [args.seed, 0])
        payload = {
            "version": __version__,
            "s": rep.s,
            "epsilon": _frac(eps),
            "per_lambda": [
                {"lambda": list(lam), "containment": ok, "exceptional_count": cnt}
                for lam, (ok, cnt) in sorted(rep.per_lambda.items())
            ],
            "phis": [map_to_json(phi) for phi in rep.phis],
        }
    else:  # bohr
        rep = bohr_external(f, args.s, [args.seed, 0])
        payload = {
            "version": __version__,
            "s": rep.s,
            "containment": rep.containment,
            "exceptional_count": rep.exceptional_count,
            "exceptional_density": _frac(rep.exceptional_density),
            "phi": map_to_json(rep.phi),
        }
    _emit(payload, args.out)
    return 0


def cmd_conv(args) -> int:
    f = _load_map(args.map)
    Z = zero_set_indicator(f)
    dirs = [int(t) for t in args.chain.split(",")] if args.chain else list(range(1, f.shape.k + 1))
    table = conv_chain(Z, dirs)
    payload = {
        "version": __version__,
        "directions": dirs,
        "den": table.den,
        "mean": _frac(table.mean()),
    }
    if args.histogram:
        _emit(_histogram_text(payload, *table.value_counts()), args.out)
    else:
        payload["num"] = table.num.reshape(-1).tolist()
        _emit(payload, args.out)
    return 0


# one histogram entry {"count": c, "value": {"den": d, "num": n}} as json.dumps
# indents and sorts it two levels down
_HISTOGRAM_ROW = (
    '    {\n      "count": %d,\n      "value": {\n        "den": %d,\n        "num": %d\n'
    '      }\n    }'
)


def _histogram_text(payload: dict, nums, dens, counts) -> str:
    """The text `_emit` writes for payload with "histogram" set to the list of
    {"value": {"num", "den"}, "count"} entries, written from the arrays by one
    row template in place of json's pure-Python indenter."""
    rows = ",\n".join(map(_HISTOGRAM_ROW.__mod__, zip(counts.tolist(), dens.tolist(), nums.tolist())))
    text = json.dumps(dict(payload, histogram=[]), indent=2, sort_keys=True)
    # only a top-level key sits two spaces in, so this line is the placeholder's own
    return text.replace('\n  "histogram": []', '\n  "histogram": [\n' + rows + "\n  ]", 1)


def cmd_arrange(args) -> int:
    rng = np.random.default_rng([args.seed, 0])
    shapes = [
        Shape(2, (1, 1)),
        Shape(2, (2, 1)),
        Shape(2, (1, 1, 1)),
        Shape(2, (2, 2)),
        Shape(3, (1, 1)),
        Shape(3, (2, 1)),
        Shape(3, (1, 1, 1)),
    ]
    counts = {"identity": 0, "position": 0, "propagation": 0}
    for t in range(args.count):
        shape = shapes[int(rng.integers(0, len(shapes)))]
        member = rng.integers(0, 2, size=shape.sizes).astype(bool)
        i = int(rng.integers(0, shape.k)) + 1
        lengths = tuple(int(rng.integers(0, s)) for s in shape.sizes)
        arrangement_identity_check(shape, member, i, lengths)
        counts["identity"] += 1
        x = tuple(int(rng.integers(0, s)) for s in shape.sizes)
        j = int(rng.integers(1, (1 << i) + 1))
        position_count_check(shape, i, j, lengths, x)
        counts["position"] += 1
        A = random_multilinear(shape, 1, [args.seed, t + 1])
        member_A = zero_set_table(A)
        arr = sample_arrangement_in_set(shape, member_A, i, lengths, rng)
        if arr is not None:
            vanishing_propagation_check(A, arr)
            counts["propagation"] += 1
    _emit({"version": __version__, "checks": counts, "ok": True}, args.out)
    return 0


def cmd_polarize(args) -> int:
    f = PolyDense.from_json(_load_json(args.poly))
    sym = polarize(f)
    round_trip = sym.diagonal().terms == f.top_part().terms
    payload = {
        "version": __version__,
        "degree": sym.d,
        "symmetric": sym.check_symmetry(),
        "diagonal_matches_top_part": round_trip,
        "form": map_to_json(sym.form),
    }
    if not (payload["symmetric"] and round_trip):
        raise LemmaViolationError("polarization verification failed")
    _emit(payload, args.out)
    return 0


def cmd_scatter(args) -> int:
    dims = tuple(int(t) for t in args.dims.split(","))
    shape = Shape(args.p, dims)
    coeff_count = int(np.prod(dims))
    count = shape.p ** coeff_count if args.exhaustive else args.count
    config = [
        ("version", __version__),
        ("p", args.p),
        ("dims", ",".join(map(str, dims))),
        ("count", count),
        ("seed", args.seed),
        ("rmax", args.rmax),
        ("budget", args.budget_nodes),
        ("exhaustive", int(args.exhaustive)),
    ]
    rows = []
    for idx in range(count):
        if args.exhaustive:
            coeffs = np.asarray(code_to_vec(shape.p, coeff_count, idx), dtype=np.int64).reshape(dims + (1,))
            f = MultilinearMap(shape, 1, coeffs)
        else:
            f = random_multilinear(shape, 1, [args.seed, idx])
        rep = bias_report(f)
        rank_rep = prank_exact(f, r_max=args.rmax, budget=args.budget_nodes)
        if not rank_rep.lovett_lower <= rank_rep.prank_hi:
            raise LemmaViolationError("analytic lower bound exceeded the rank upper bound")
        rows.append([
            idx,
            rep.bias_exact.numerator,
            rep.bias_exact.denominator,
            f"{rep.arank:.12g}",
            rank_rep.lovett_lower,
            rank_rep.prank_lo,
            rank_rep.prank_hi,
            int(rank_rep.exact),
            len(rank_rep.witness) if rank_rep.witness else 0,
            rank_rep.nodes,
        ])
    if args.format == "json":
        # every value a string, as read back from the CSV
        _emit({"config": {k: str(v) for k, v in config},
               "records": [{c: str(v) for c, v in zip(SCATTER_COLUMNS, row)} for row in rows]}, args.out)
        return 0
    lines = [f"# {k}={v}" for k, v in config] + [",".join(SCATTER_COLUMNS)]
    lines += [",".join(map(str, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
#  Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Each command, and each `variety` action, takes exactly the options its function reads."""
    ap = argparse.ArgumentParser(prog="rankforge", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(parsers, name, fn, text, summary=False):
        sp = parsers.add_parser(name, help=text)
        sp.add_argument("--out", default=None, help="write output to this file")
        if summary:
            sp.add_argument("--summary", action="store_true", help="print a one-line summary to stderr")
        sp.set_defaults(fn=fn)
        return sp

    sp = command(sub, "arank", cmd_arank, "bias, histogram and analytic rank of a map", summary=True)
    sp.add_argument("--map", required=True)

    sp = command(sub, "prank", cmd_prank, "exact partition rank with witness", summary=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--rmax", type=_nonnegative_int, default=6, help=RMAX_HELP)
    sp.add_argument("--budget-nodes", type=_nonnegative_int, default=DEFAULT_BUDGET, help=BUDGET_HELP)

    sp = command(sub, "boxnorm", cmd_boxnorm, "Gowers box norm of chi composed with a map", summary=True)
    sp.add_argument("--map", required=True)

    sp = sub.add_parser("variety", help="density / connectivity / external approximation")
    actions = sp.add_subparsers(dest="action", required=True)
    for action, text in [("density", "density of a level set against its lower bound"),
                         ("connect", "connectivity and diameter of a level set")]:
        sp = command(actions, action, cmd_variety, text)
        sp.add_argument("--map", required=True)
        sp.add_argument("--layer", default=None, help="comma-separated layer value, default 0")
    sp = command(actions, "bohr", cmd_variety, "external approximation of the zero set")
    sp.add_argument("--map", required=True)
    sp.add_argument("--seed", type=int, default=0)
    # string defaults for --s and --count: argparse tells a given value from the default
    # by identity, so an int default would let `--s 1 --epsilon ...` pass the exclusion
    size = sp.add_mutually_exclusive_group()
    size.add_argument("--s", type=int, default="1", help="codimension of the approximation")
    size.add_argument("--epsilon", default=None,
                      help="error density for the simultaneous component approximation, e.g. 1/4")

    sp = command(sub, "conv", cmd_conv, "iterated directional convolution of a zero set")
    sp.add_argument("--map", required=True)
    sp.add_argument("--chain", default=None, help="comma-separated directions, default 1..k")
    sp.add_argument("--histogram", action="store_true")

    sp = command(sub, "arrange", cmd_arrange, "randomized arrangement identity suites")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_nonnegative_int, default=50)

    sp = command(sub, "polarize", cmd_polarize, "symmetric form of a polynomial")
    sp.add_argument("--poly", required=True)

    sp = command(sub, "scatter", cmd_scatter, "analytic-vs-partition rank ensemble CSV")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--dims", required=True, help="comma-separated dimensions")
    ensemble = sp.add_mutually_exclusive_group()
    ensemble.add_argument("--count", type=_nonnegative_int, default="0")
    ensemble.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rmax", type=_nonnegative_int, default=6, help=RMAX_HELP)
    sp.add_argument("--budget-nodes", type=_nonnegative_int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    return ap


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call and reused: parsing
    leaves the parser unchanged, and building it costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainSizeError, OverflowError) as e:
        # OverflowError: an exact count or denominator would outgrow its 64-bit guard
        print(f"resource guard: {e}", file=sys.stderr)
        return 3
    except LemmaViolationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError, ZeroDivisionError) as e:
        print(f"bad input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
