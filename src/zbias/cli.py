"""Command-line front end.

Subcommands: eval, check, dce, rr, average, mc, scatter.  Machine output is
one line of JSON on stdout; ``eval --table`` prints an aligned text row
instead.  Exit status: 0 success, 1 validation error, 2 I/O error, 3
degenerate population or undefined stratum, 4 internal error (any other
exception, reported as ``error: internal: ...`` instead of a traceback).
Every error prints exactly one diagnostic line on stderr.  The environment
variable ZBIAS_THREADS caps Monte Carlo parallelism (0 or unset means
sequential; larger values are clamped to the number of 32768-draw chunks
and of CPUs): ``mc`` uses threads, ``scatter`` worker processes.
``scatter`` writes its CSV to a temporary file that replaces ``--out`` only
once every row is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import conditions
from .errors import (
    DegeneratePopulationError,
    UndefinedConditionalError,
    UndefinedStratumError,
    ZbiasError,
)
from .estimators import covariate_average, dce, estimates, po_estimates, rr
from .scenario import (
    BinaryScenario,
    CovariateFamily,
    DiscreteScenario,
    PotentialOutcomeScenario,
    to_discrete,
)
from .scenario_io import load_scenario

_BINARY = (BinaryScenario,)
_GRID = (BinaryScenario, DiscreteScenario)
_PO = (PotentialOutcomeScenario,)

# Theorem name -> (accepted scenario kinds, checker), in --theorem choice order.
# Checkers look up ``conditions`` at call time, so patched functions are seen.
_THEOREMS = {
    "thm1": (_GRID, lambda s: conditions.check_thm1(s)),
    "thm2": (_GRID, lambda s: conditions.check_thm2(s)),
    "thm3": (_GRID, lambda s: conditions.check_thm3(s)),
    "cor1": (_BINARY, lambda s: conditions.check_cor1(s)),
    "cor2": (_BINARY, lambda s: conditions.check_cor2(s)),
    "thm4": (_PO, lambda s: conditions.check_thm4(s)),
    "thm5-binary": (_PO, lambda s: conditions.check_thm5_binary(s)),
    "cor3": (_PO, lambda s: conditions.check_cor3(s)),
    "cor4": (_PO, lambda s: conditions.check_cor4(s)),
    "thm7": (_GRID, lambda s: conditions.check_thm7(s)),
    "weaker": (_BINARY, lambda s: conditions.check_weaker_condition(s)),
    "lemma_s5": (_BINARY, lambda s: conditions.check_lemma_s5(*conditions._binary_cells(s))),
    "lemma_s7": (_BINARY, lambda s: conditions.check_lemma_s7(*conditions._binary_cells(s))),
    "collider": (_GRID, lambda s: conditions.check_collider_association(s, 0)
                 + conditions.check_collider_association(s, 1)),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built on first use and reused: parsing leaves no state in the parser.
    parser = _Parser(prog="zbias", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_conditioning(p):
        p.add_argument(
            "--conditioning", choices=("on_z", "on_propensity"), default="on_z"
        )

    p = sub.add_parser("eval", help="estimands of a scenario file")
    p.add_argument("scenario")
    add_conditioning(p)
    p.add_argument("--table", action="store_true", help="aligned text row")
    p.add_argument("--allow-direct-effect", action="store_true")

    p = sub.add_parser("check", help="condition reports for a scenario file")
    p.add_argument("scenario")
    p.add_argument("--theorem", choices=_THEOREMS, required=True)

    p = sub.add_parser("dce", help="distributional effects at a threshold")
    p.add_argument("scenario")
    p.add_argument("--threshold", type=float, required=True)
    add_conditioning(p)

    p = sub.add_parser("rr", help="ratio-scale estimands")
    p.add_argument("scenario")
    add_conditioning(p)

    p = sub.add_parser("average", help="estimands averaged over covariate strata")
    p.add_argument("scenario")
    add_conditioning(p)
    p.add_argument("--allow-direct-effect", action="store_true")

    p = sub.add_parser("mc", help="amplification-region volume estimate")
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--filter", choices=("cor1", "cor2"))

    p = sub.add_parser("scatter", help="per-draw bias CSV")
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    return parser


def _load(path, kinds, command):
    """The scenario at ``path``, which must be one of ``kinds``; a binary
    scenario is widened by ``to_discrete`` where discrete ones are accepted."""
    scenario = load_scenario(path)
    if not isinstance(scenario, kinds):
        names = ", ".join(k.__name__ for k in kinds)
        raise ZbiasError(
            f"{command} needs a scenario of kind {names}, got {type(scenario).__name__}"
        )
    if isinstance(scenario, BinaryScenario) and DiscreteScenario in kinds:
        scenario = to_discrete(scenario)
    return scenario


def _table_row(estimate_set) -> str:
    verdict = conditions.zbias_verdict(estimate_set)
    header = f"{'ACE_true':>10} {'ACE_unadj':>10} {'ACE_adj':>10} {'Z-bias':>7}"
    row = (
        f"{estimate_set.true_all:>10.4f} {estimate_set.unadj:>10.4f} "
        f"{estimate_set.adj_all:>10.4f} {verdict.label:>7}"
    )
    return header + "\n" + row


def _run_eval(args) -> int:
    scenario = _load(
        args.scenario, (BinaryScenario, DiscreteScenario, PotentialOutcomeScenario), "eval"
    )
    if isinstance(scenario, PotentialOutcomeScenario):
        result = po_estimates(scenario)
    else:
        result = estimates(
            scenario, args.conditioning, allow_direct_effect=args.allow_direct_effect
        )
    print(_table_row(result) if args.table else result.to_json())
    return 0


def _run_check(args) -> int:
    kinds, checker = _THEOREMS[args.theorem]
    scenario = _load(args.scenario, kinds, f"check --theorem {args.theorem}")
    print(conditions.reports_to_json(checker(scenario)))
    return 0


def _run_dce(args) -> int:
    scenario = _load(args.scenario, _GRID, "dce")
    print(dce(scenario, args.threshold, args.conditioning).to_json())
    return 0


def _run_rr(args) -> int:
    scenario = _load(args.scenario, _GRID, "rr")
    print(rr(scenario, args.conditioning).to_json())
    return 0


def _run_average(args) -> int:
    family = _load(args.scenario, (CovariateFamily,), "average")
    result = covariate_average(
        family, args.conditioning, allow_direct_effect=args.allow_direct_effect
    )
    print(result.to_json())
    return 0


def _run_mc(args) -> int:
    # Imported here and in _run_scatter: only Monte Carlo needs numpy.
    from .montecarlo import McConfig, estimate_volume

    cfg = McConfig(
        draws=args.draws,
        seed=args.seed,
        filter=(args.filter,) if args.filter else None,
    )
    print(estimate_volume(cfg).to_json())
    return 0


def _run_scatter(args) -> int:
    from .montecarlo import McConfig, export_scatter

    cfg = McConfig(draws=args.draws, seed=args.seed)
    rows = export_scatter(cfg, args.out)
    try:
        args.out.encode("utf-8")
        out = json.dumps(args.out, ensure_ascii=False)
    except UnicodeEncodeError:
        # A path byte that is not UTF-8 arrives as a lone surrogate; only
        # the ASCII escape keeps stdout valid UTF-8 JSON.
        out = json.dumps(args.out)
    print('{"rows": %d, "out": %s}' % (rows, out))
    return 0


_HANDLERS = {
    "eval": _run_eval,
    "check": _run_check,
    "dce": _run_dce,
    "rr": _run_rr,
    "average": _run_average,
    "mc": _run_mc,
    "scatter": _run_scatter,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegeneratePopulationError, UndefinedStratumError, UndefinedConditionalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ZbiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
