"""Command-line front end: generation, invariants, orientation, verification.

Commands read and write the plain-text format of ``hypercore`` and print
either human-readable lines or, with ``--json``, one JSON document.  Exit
codes: 0 success; 1 usage, parse, or I/O error; 2 infeasible or not found
(an expected negative answer); 3 budget exhausted; 4 verification failure.
Each command takes only the flags it reads: ``--json`` and ``--quiet``
everywhere, ``--seed`` on ``gen`` and ``verify``, and ``--budget`` on the
commands that run a search.  Every search takes one budget, 10**7 by
default; the ``HYPERF_BUDGET`` variable replaces the default and
``--budget`` overrides both per invocation.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from .hypercore import (
    DEFAULT_NODE_BUDGET,
    GENERATORS,
    BudgetExceeded,
    Hypergraph,
    HyperfError,
    Orientation,
    _check_count,
    _content_lines,
    _read_text,
    generate,
    read_path,
    to_json,
    to_text,
    write_path,
)
from .orient import Infeasible, orient_budget, orient_max_outdeg
from .extremal import degeneracy, m_value, mad_certificate
from .fcalc import ThresholdUnknown, bounds, find_tset, packing_bound
from .ramsey import F_METHODS, b_value, chi_r, f_value
from .verify import run_all, verify_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_BUDGET_EXCEEDED = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports errors through exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperf", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, func, help, seed=False, budget=False):
        # --json and --quiet on every command; --seed and --budget only on
        # the commands that read them; each flag has its one full spelling
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if seed:
            p.add_argument("--seed", type=int, default=1,
                           help="seed for randomized work (default 1)")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="search budget override (default: HYPERF_BUDGET or built-in)")
        p.add_argument("--quiet", action="store_true", help="suppress detail lines")
        p.set_defaults(func=func)
        return p

    g = command("gen", _cmd_gen, "generate a hypergraph", seed=True)
    g.add_argument("family", choices=sorted(GENERATORS))
    g.add_argument("--n", type=int, help="number of vertices")
    g.add_argument("--r", type=int, help="edge size")
    g.add_argument("--m", type=int, help="number of edges (random family)")
    g.add_argument("--sizes", help="comma-separated class sizes (multipartite)")
    g.add_argument("-i", "--input", help="input file (join-k2, complement)")
    g.add_argument("-o", "--output", help="output path (default: stdout)")

    p = command("mad", _cmd_mad, "exact maximum average degree")
    p.add_argument("file")

    p = command("degeneracy", _cmd_degeneracy, "degeneracy and elimination order")
    p.add_argument("file")

    p = command("orient", _cmd_orient, "orient with bounded first-position degrees")
    p.add_argument("file")
    p.add_argument("--max-outdeg", type=int, help="uniform per-vertex cap")
    p.add_argument("--budget-file", help="per-vertex caps, one 'vertex cap' pair per line")
    p.add_argument("-o", "--output", help="oriented output path (default: stdout)")

    p = command("f", _cmd_f, "minimum everywhere-full p-set count", budget=True)
    p.add_argument("file")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--method", choices=F_METHODS, default="auto")

    p = command("chi-r", _cmd_chi_r, "Ramsey p-chromatic number", budget=True)
    p.add_argument("file")
    p.add_argument("--p", type=int, default=1)

    p = command("b", _cmd_b, "largest safely colorable p-set family", budget=True)
    p.add_argument("file")
    p.add_argument("--p", type=int, default=1)

    p = command("m", _cmd_m, "largest union of r sparse parts", budget=True)
    p.add_argument("file")
    p.add_argument("--k", type=int, default=1)

    p = command("bounds", _cmd_bounds, "bounds bracketing f(H,1,k)", budget=True)
    p.add_argument("file")
    p.add_argument("--k", type=int, default=1)

    p = command("tset", _cmd_tset, "t-set with all p-subsets everywhere-full (oriented input)",
                budget=True)
    p.add_argument("file")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t", type=int, required=True)

    p = command("pack", _cmd_pack, "greedy packing lower-bound data", budget=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="block size override")

    p = command("verify", _cmd_verify, "run a verification suite", seed=True, budget=True)
    p.add_argument("suite", help="suite name or 'all'")

    return parser


# ------------------------------------------------------------------ helpers


def _resolve_budget(args) -> int:
    budget, source = args.budget, "--budget"
    if budget is None:
        env, source = os.environ.get("HYPERF_BUDGET"), "HYPERF_BUDGET"
        if env is None:
            return DEFAULT_NODE_BUDGET
        try:
            budget = int(env)
        except ValueError:
            budget = env  # refused below, in the same words as a negative budget
    _check_count(source, budget, 0)
    return budget


def _read_hypergraph(path) -> Hypergraph:
    obj = read_path(path)
    if isinstance(obj, Orientation):
        return obj.base
    return obj


# ----------------------------------------------------------------- commands
#
# Each command returns (exit code, JSON payload, text lines) and prints
# nothing on stdout; main prints the payload under --json and the lines
# otherwise, leaving out the _Detail lines under --quiet.  On a command
# that takes --budget, main has already replaced args.budget by the
# budget _resolve_budget settles on.


class _Detail(str):
    """A text line that --quiet drops."""


# the gen flags that fill a generator parameter and have no default
_FAMILY_FLAGS = ("n", "r", "m", "sizes", "input")


def _cmd_gen(args):
    # each generator parameter is filled from the gen flag of its own name,
    # except g, the hypergraph read from --input; --seed defaults to 1, so
    # the families without a seed parameter ignore it
    flags = {name: "input" if name == "g" else name
             for name in inspect.signature(GENERATORS[args.family]).parameters}
    missing = [f"--{flag}" for flag in flags.values() if getattr(args, flag) is None]
    if missing:
        raise _UsageError(f"hyperf gen {args.family}: missing {', '.join(missing)}")
    unexpected = [f"--{flag}" for flag in _FAMILY_FLAGS
              if flag not in flags.values() and getattr(args, flag) is not None]
    if unexpected:
        raise _UsageError(f"hyperf gen {args.family}: unexpected {', '.join(unexpected)}")
    params = {name: getattr(args, flag) for name, flag in flags.items()}
    if "g" in params:
        params["g"] = _read_hypergraph(args.input)
    if "sizes" in params:
        try:
            params["sizes"] = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise _UsageError(f"hyperf gen {args.family}: bad --sizes {args.sizes!r}") from None
    h = generate(args.family, **params)
    if args.output:
        write_path(h, args.output)
        return EXIT_OK, {"written": args.output, "n": h.n, "r": h.r, "e": h.e}, [
            _Detail(f"wrote {args.output}: n={h.n} r={h.r} e={h.e}")]
    return EXIT_OK, h, to_text(h).splitlines()


def _cmd_mad(args):
    value, witness, spread = mad_certificate(_read_hypergraph(args.file))
    return EXIT_OK, {"mad": value, "witness": witness, "spread": spread}, [
        f"{value.numerator}/{value.denominator}",
        _Detail("witness: " + " ".join(map(str, witness)))]


def _cmd_degeneracy(args):
    value, order = degeneracy(_read_hypergraph(args.file))
    return EXIT_OK, {"degeneracy": value, "order": order}, [
        str(value), _Detail("order: " + " ".join(map(str, order)))]


def _cmd_orient(args):
    h = _read_hypergraph(args.file)
    if (args.max_outdeg is None) == (args.budget_file is None):
        raise _UsageError("hyperf orient: give exactly one of --max-outdeg or --budget-file")
    if args.max_outdeg is not None:
        result = orient_max_outdeg(h, args.max_outdeg)
    else:
        result = orient_budget(h, _read_budget_file(args.budget_file))
    if isinstance(result, Infeasible):
        payload = {"feasible": False, "witness": result.witness,
                   "edges_inside": result.edges_inside, "capacity": result.capacity}
        inside = " ".join(map(str, result.witness))
        return EXIT_NEGATIVE, payload, [
            f"infeasible: vertices {inside} span {result.edges_inside} "
            f"edges but have total capacity {result.capacity}"]
    payload = {"feasible": True, "n": h.n, "r": h.r, "orders": result.orders}
    if args.output:
        write_path(result, args.output)
        return EXIT_OK, payload, [_Detail(f"wrote {args.output}")]
    return EXIT_OK, payload, to_text(result).splitlines()


def _read_budget_file(path) -> dict:
    caps = {}
    for lineno, line in _content_lines(_read_text(path)):
        try:
            v, cap = map(int, line.split())
        except ValueError:  # a field that is not an integer, or not two fields
            raise _UsageError(
                f"{path}:{lineno}: expected 'vertex cap', got {line!r}")
        if v in caps:
            raise _UsageError(f"{path}:{lineno}: vertex {v} already has a cap")
        caps[v] = cap
    return caps


def _cmd_f(args):
    rep = f_value(_read_hypergraph(args.file), args.p, args.k, args.budget, args.method)
    if rep is None:
        print("no closed form applies to this instance", file=sys.stderr)
        return EXIT_NEGATIVE, {"applicable": False, "p": args.p, "k": args.k}, []
    return EXIT_OK, rep, [str(rep.value), _Detail(f"method: {rep.method}")]


def _cmd_chi_r(args):
    value = chi_r(_read_hypergraph(args.file), args.p, args.budget)
    return EXIT_OK, {"chi_r": value, "p": args.p}, [str(value)]


def _cmd_b(args):
    result = b_value(_read_hypergraph(args.file), args.p, args.budget)
    colored = " ".join(f"{'-'.join(map(str, pset))}:{c}"
                       for pset, c in sorted(result.coloring.colored.items()))
    return EXIT_OK, {"b": result.value, "p": args.p, "coloring": result.coloring}, [
        str(result.value), _Detail(f"coloring: {colored or '(empty)'}")]


def _cmd_m(args):
    result = m_value(_read_hypergraph(args.file), args.k, args.budget)
    payload = {"m": result.value, "k": args.k, "parts": result.parts,
               "remainder": result.remainder}
    return EXIT_OK, payload, [str(result.value)] + [
        _Detail(f"part {i}: " + " ".join(map(str, part))) for i, part in enumerate(result.parts)]


def _cmd_bounds(args):
    rows = bounds(_read_hypergraph(args.file), args.k, args.budget)
    lines = []
    for b in rows:
        line = f"{b.name}: {b.side} {b.value}"
        if not b.applicable:
            line = _Detail(f"{line}  [not applicable]" + (f"  ({b.note})" if b.note else ""))
        lines.append(line)
    return EXIT_OK, {"k": args.k, "bounds": rows}, lines


def _cmd_tset(args):
    obj = read_path(args.file)
    if not isinstance(obj, Orientation):
        raise _UsageError("hyperf tset: input must be an oriented file")
    found = find_tset(obj, args.p, args.k, args.t, args.budget)
    if found is None:
        return EXIT_NEGATIVE, {"found": False, "p": args.p, "k": args.k, "t": args.t}, [
            f"no {args.t}-set with all {args.p}-subsets everywhere-full at level {args.k}"]
    return EXIT_OK, {"found": True, "tset": found}, [" ".join(map(str, found))]


def _cmd_pack(args):
    result = packing_bound(args.n, args.r, args.p, args.k, m=args.m, budget=args.budget)
    lines = [str(result.count)]
    if result.blocks:
        blocks = "; ".join(" ".join(map(str, b)) for b in result.blocks)
        lines.append(_Detail(f"blocks of size {result.m}: {blocks}"))
    return EXIT_OK, result, lines


def _cmd_verify(args):
    if args.suite == "all":
        reports = run_all(seed=args.seed, budget=args.budget)
    else:
        reports = [verify_suite(args.suite, seed=args.seed, budget=args.budget)]
    lines = []
    for rep in reports:
        lines.append(f"{rep.suite}: {rep.passed} passed, {rep.failed} failed "
                     f"({rep.seconds:.2f}s)")
        lines += [_Detail(f"  FAIL {check.instance}: {check.relation} sees {check.values}")
                  for check in rep.checks if not check.ok]
    code = EXIT_VERIFY if any(rep.failed for rep in reports) else EXIT_OK
    return code, reports[0] if len(reports) == 1 else {"suites": reports}, lines


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "budget" in vars(args):  # the commands that search, and they alone
            args.budget = _resolve_budget(args)
        code, payload, lines = args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        if exc.best is not None:
            print(f"best found: {exc.best}", file=sys.stderr)
        if exc.lower is not None or exc.upper is not None:
            print(f"bracket: [{exc.lower}, {exc.upper}]", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except ThresholdUnknown as exc:
        print(exc, file=sys.stderr)
        return EXIT_NEGATIVE
    except (HyperfError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(to_json(payload))
    else:
        for line in lines:
            if not (args.quiet and isinstance(line, _Detail)):
                print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
