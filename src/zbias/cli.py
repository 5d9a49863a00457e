"""Command-line front end.

Subcommands: eval, check, dce, rr, average, mc, scatter.  Machine output is
one line of JSON on stdout; ``eval --table`` prints an aligned text row
instead.  Exit status: 0 success, 1 validation error, 2 I/O error (and
``mc`` or ``scatter`` without numpy: ``error: mc needs numpy, which is not
installed``), 3 degenerate population, undefined stratum or empty
conditioning event, 4 internal error (any other exception, reported as
``error: internal: ...`` instead of a traceback).  Every error prints
exactly one diagnostic line on stderr.  The environment variable
ZBIAS_THREADS caps Monte Carlo parallelism (0 or unset means sequential;
larger values are clamped to the number of CPUs and of chunks the command
runs, 32768-draw chunks for ``mc`` and 8192-row chunks for ``scatter``):
``mc`` uses threads, ``scatter`` worker processes.
``scatter`` writes its CSV to a temporary file that replaces ``--out`` only
once every row is written.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import conditions
from .errors import (
    DegeneratePopulationError,
    UndefinedConditionalError,
    UndefinedStratumError,
    ZbiasError,
)
from .estimators import _json_str, covariate_average, dce, estimates, po_estimates, rr
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


class _UsageError(ZbiasError):
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


@functools.cache
def _commands() -> dict[str, _Parser]:
    """Each command's subparser in the one parser tree, by name."""
    return _build_parser()._subparsers._group_actions[0].choices


def _parse(argv) -> argparse.Namespace:
    """The parsed command line.  When ``argv[0]`` names a command, its
    subparser parses the rest in one pass, as the full parser would after
    matching the name; help, usage errors and their text are the same.
    Anything else (no command, ``-h``, an unknown name) goes to the full
    parser."""
    if argv is None:
        argv = sys.argv[1:]
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        return _build_parser().parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


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


def _run_eval(args) -> str:
    scenario = _load(
        args.scenario, (BinaryScenario, DiscreteScenario, PotentialOutcomeScenario), "eval"
    )
    if isinstance(scenario, PotentialOutcomeScenario):
        result = po_estimates(scenario)
    else:
        result = estimates(
            scenario, args.conditioning, allow_direct_effect=args.allow_direct_effect
        )
    return _table_row(result) if args.table else result.to_json()


def _run_check(args) -> str:
    kinds, checker = _THEOREMS[args.theorem]
    scenario = _load(args.scenario, kinds, f"check --theorem {args.theorem}")
    return conditions.reports_to_json(checker(scenario))


def _run_dce(args) -> str:
    scenario = _load(args.scenario, _GRID, "dce")
    return dce(scenario, args.threshold, args.conditioning).to_json()


def _run_rr(args) -> str:
    scenario = _load(args.scenario, _GRID, "rr")
    return rr(scenario, args.conditioning).to_json()


def _run_average(args) -> str:
    family = _load(args.scenario, (CovariateFamily,), "average")
    return covariate_average(
        family, args.conditioning, allow_direct_effect=args.allow_direct_effect
    ).to_json()


def _montecarlo(command: str):
    """The Monte Carlo module, imported on first use: only it needs numpy."""
    try:
        from . import montecarlo
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise OSError(f"{command} needs numpy, which is not installed") from None
    return montecarlo


def _run_mc(args) -> str:
    mc = _montecarlo("mc")
    cfg = mc.McConfig(
        draws=args.draws,
        seed=args.seed,
        filter=(args.filter,) if args.filter else None,
    )
    return mc.estimate_volume(cfg).to_json()


def _run_scatter(args) -> str:
    mc = _montecarlo("scatter")
    rows = mc.export_scatter(mc.McConfig(draws=args.draws, seed=args.seed), args.out)
    return '{"rows": %d, "out": %s}' % (rows, _json_str(args.out))


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
    """Run one command: its text on stdout and status 0, or exactly one
    ``error: ...`` line on stderr and the status the module docstring lists."""
    try:
        args = _parse(argv)
        # Printed inside the try, so a failed stdout write is one error line too.
        print(_HANDLERS[args.command](args))
        return 0
    except (DegeneratePopulationError, UndefinedStratumError, UndefinedConditionalError) as exc:
        status, message = 3, exc
    except ZbiasError as exc:
        status, message = 1, exc
    except OSError as exc:
        status, message = 2, exc
    except Exception as exc:
        status, message = 4, f"internal: {exc!r}"
    print(f"error: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
