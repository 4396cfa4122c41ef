"""The four seeded workloads: inputs, requests and independent checks.

Each workload turns a seed into a list of requests during set-up; the
loop runs them in order, each once.  A request is one instance with every
route listed for it.  Its result is checked right after it, outside its
time, by code written here that shares no logic with the solver that
produced it: direct edge counts, direct p-set counts, ``mad_bruteforce``
subset enumeration and ``check_mono``.

The generators are written here rather than taken from hyperf, so set-up
time does not follow hyperf's generators (``random_hypergraph`` builds all
C(n,r) edges).  Sizes come from a fixed schedule of ``cycle`` requests;
the seed only picks edges.  A run holds whole cycles, so every run has the
same mix of size classes.  Every request is a new instance, so a cache
that outlives one call cannot answer a request from an earlier one.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

from hyperf import extremal, fcalc, hypercore, orient, ramsey

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# sparse-wide never builds an instance whose degree_vectors would allocate
# more than this many p-sets (C(n,r-1)); the host is shared
MAX_PSETS = 200_000
CLI_TIMEOUT_S = 60


# ------------------------------------------------------------- generators


def _sets(rng, pool, r, m, taken=frozenset()):
    """m distinct sorted r-subsets of pool, none of them in taken."""
    if m > math.comb(len(pool), r) - len(taken):
        raise ValueError(f"cannot draw {m} distinct {r}-sets from {len(pool)} vertices")
    out = set()
    while len(out) < m:
        e = tuple(sorted(rng.sample(pool, r)))
        if e not in taken:
            out.add(e)
    return sorted(out)


def planted_dense(n, rng, core_size=None, core_edges=None, background=None):
    """3-graph: a core of n/5 vertices with 6n/5 edges inside it, plus 2n
    random edges; the densest set is the core, not V."""
    c = core_size or n // 5
    core = sorted(rng.sample(range(n), c))
    inner = _sets(rng, core, 3, core_edges or 6 * n // 5)
    outer = _sets(rng, list(range(n)), 3, background or 2 * n, set(inner))
    return hypercore.canonicalize(inner + outer, n, 3)


def gnp(n, rng):
    """G(n, 1/2)."""
    pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
    return hypercore.canonicalize(pairs, n, 2)


def near_complete(n, drop, rng):
    """The complete 3-graph on n vertices minus `drop` random edges."""
    triples = list(combinations(range(n), 3))
    gone = set(rng.sample(triples, drop))
    return hypercore.canonicalize([t for t in triples if t not in gone], n, 3)


def sparse(n, r, m, rng):
    return hypercore.canonicalize(_sets(rng, list(range(n)), r, m), n, r)


# ------------------------------------------------------ independent checks


def _inside(edges, vertices):
    vs = set(vertices)
    return sum(1 for e in edges if vs.issuperset(e))


def _orders_ok(h, orders):
    return len(orders) == h.e and all(tuple(sorted(o)) == e for o, e in zip(orders, h.edges))


def _full_psets(h, orders, p, k):
    """p-sets whose C(r,p) position-subset counts are all >= k, counted
    edge by edge over position subsets."""
    if k == 0:
        return math.comb(h.n, p)
    npos = math.comb(h.r, p)
    counts: dict[tuple, dict] = {}
    for order in orders:
        for positions in combinations(range(h.r), p):
            c = counts.setdefault(tuple(sorted(order[i] for i in positions)), {})
            c[positions] = c.get(positions, 0) + 1
    return sum(1 for c in counts.values() if len(c) == npos and min(c.values()) >= k)


def _degree_vector_errors(d, p):
    """Degree vectors against a direct count over position subsets:
    ``degree_vector`` of every p-set inside an edge and, at p = 1, the
    whole table ``degree_vectors`` returns."""
    h = d.base
    counts: dict[tuple, dict] = {}
    for order in d.orders:
        for positions in combinations(range(h.r), p):
            c = counts.setdefault(tuple(sorted(order[i] for i in positions)), {})
            c[positions] = c.get(positions, 0) + 1
    want = {pset: tuple(c.get(pos, 0) for pos in combinations(range(h.r), p))
            for pset, c in counts.items()}
    for pset, coords in want.items():
        if hypercore.degree_vector(d, pset).coords != coords:
            return [f"degree vector of {pset} is not {coords}"]
    if p == 1:
        zero = (0,) * h.r
        table = hypercore.degree_vectors(d, 1)
        if len(table) != h.n or any(tuple(v) != want.get(a, zero) for a, v in table.items()):
            return ["degree_vectors at p = 1 disagrees with the direct count"]
    return []


def _parts_errors(h, parts, remainder, mad_bound):
    """Parts disjoint, covering V with the remainder, each with Mad <= bound."""
    errs = []
    seen = [v for part in parts for v in part]
    if len(parts) > h.r or len(seen) != len(set(seen)):
        errs.append("parts not disjoint or more than r parts")
    if sorted(seen + list(remainder)) != list(range(h.n)):
        errs.append("parts and remainder do not partition V")
    for part in parts:
        if mad_bound == 0:
            sparse_enough = _inside(h.edges, part) == 0
        else:
            index = {v: i for i, v in enumerate(part)}
            inner = [[index[v] for v in e] for e in h.edges if set(e) <= index.keys()]
            sub = hypercore.canonicalize(inner, len(part), h.r)
            sparse_enough = extremal.mad_bruteforce(sub) <= mad_bound
        if not sparse_enough:
            errs.append(f"part {list(part)} has Mad above {mad_bound}")
    return errs


def _via_m_errors(h, k, value, orders, parts, remainder):
    errs = _parts_errors(h, parts, remainder, h.r * (k - 1))
    if value != h.n - sum(len(p) for p in parts):
        errs.append(f"f(H,1,{k}) = {value} is not n - |parts|")
    if not _orders_ok(h, orders):
        errs.append("certificate is not an orientation of H")
    elif _full_psets(h, orders, 1, k) != value:
        errs.append(f"certificate does not attain f(H,1,{k}) = {value}")
    return errs


def _coloring_errors(h, p, colors, colored):
    if ramsey.check_mono(h, ramsey.PSetColoring(p, colors, dict(colored))):
        return [f"p={p} coloring has a monochromatic edge"]
    return []


def _via_b_errors(h, p, value, orders, colored):
    errs = _coloring_errors(h, p, math.comb(h.r, p), colored)
    if value != math.comb(h.n, p) - len(colored):
        errs.append(f"f(H,{p},1) = {value} is not C(n,p) - b")
    if not _orders_ok(h, orders):
        errs.append("certificate is not an orientation of H")
    elif _full_psets(h, orders, p, 1) != value:
        errs.append(f"certificate does not attain f(H,{p},1) = {value}")
    return errs


def _density_errors(h, mad, witness):
    if not witness or Fraction(h.r * _inside(h.edges, witness), len(witness)) != mad:
        return [f"witness density is not Mad = {mad}"]
    return []


# ------------------------------------------------------------- workloads


class Workload:
    """A seeded request list plus how to run, check and summarise a request.

    ``cycle`` is the length of the size schedule.  ``nominal_s`` is the
    mean time of a request on the reference host, which sizes the request
    list to ``--seconds``.  A ``clocked`` workload builds more requests
    than that and its run ends on the clock; the others run their whole
    list.
    """

    cycle = 1
    nominal_s: float
    clocked = True
    trace_count = 0

    def build(self, seed, count, tiny, workdir):
        """`count` requests, whole cycles, from the seed."""
        raise NotImplementedError

    def run(self, req, tracer=None):
        raise NotImplementedError

    def check(self, req, res):
        """Problems found in a result; empty when it is correct."""
        raise NotImplementedError

    def value(self, req, res):
        """The answer as JSON values, compared with the recorded answers."""
        raise NotImplementedError

    def same(self, a, b):
        """Whether two runs of one request gave identical answers."""
        return a == b


class FlowDense(Workload):
    """Mad, then orientations at k = ceil(Mad/r) (feasible) and k-1."""

    cycle = 3
    nominal_s = 0.16
    trace_count = 24

    def build(self, seed, count, tiny, workdir):
        rng = random.Random(seed)
        sizes = (20,) if tiny else (32, 36, 40)
        return [planted_dense(sizes[i % len(sizes)], rng, core_size=8) for i in range(count)]

    def run(self, h, tracer=None):
        mad, witness = extremal.mad_exact(h)
        k = math.ceil(mad / h.r)
        return mad, witness, k, orient.orient_max_outdeg(h, k), orient.orient_max_outdeg(h, k - 1)

    def check(self, h, res):
        mad, witness, k, feasible, infeasible = res
        errs = _density_errors(h, mad, witness)
        if not isinstance(feasible, hypercore.Orientation) or not _orders_ok(h, feasible.orders):
            errs.append(f"no orientation at k={k}")
        else:
            first = [0] * h.n
            for order in feasible.orders:
                first[order[0]] += 1
            if max(first) > k:
                errs.append(f"first-position degree {max(first)} > k={k}")
        if not isinstance(infeasible, orient.Infeasible):
            errs.append(f"k-1={k - 1} reported feasible")
        else:
            w = infeasible.witness
            inside = _inside(h.edges, w)
            if not (inside > (k - 1) * len(w) and inside == infeasible.edges_inside
                    and infeasible.capacity == (k - 1) * len(w)):
                errs.append(f"infeasibility witness {list(w)} does not violate capacity")
        return errs

    def value(self, h, res):
        return [str(res[0]), res[2]]


class SearchGnp(Workload):
    """f(H,1,k) for k in {1,2} on G(16,1/2), then f(H,p,1) for p in {1,2}
    on the complete 3-graph on 7 vertices minus 0-2 edges."""

    nominal_s = 0.045
    trace_count = 30

    def build(self, seed, count, tiny, workdir):
        # One size class, so the median and the 90th percentile are
        # quantiles of one cost distribution over every request of the
        # run; the 90th is the hard searches.  G(16,1/2) rather than a
        # larger n so that a run holds several hundred requests: over ten
        # seeds, the 90th percentile of flow-network arcs built per request
        # moved by 0.16 (IQR / median) with 100 G(17,1/2) requests, and by
        # 0.08 with 200 G(16,1/2).  Larger triple systems are left out: K8
        # at p = 2 takes 0.56 s, and K8 minus a few edges takes 0.004 s to
        # over 10 s with the edges dropped.
        rng = random.Random(seed)
        n, m = (10, 6) if tiny else (16, 7)
        return [(gnp(n, rng), near_complete(m, rng.randint(0, 2), rng)) for _ in range(count)]

    def run(self, req, tracer=None):
        g, t = req
        return [fcalc.f_via_m(g, k) for k in (1, 2)], [ramsey.f_p1_exact(t, p) for p in (1, 2)]

    def check(self, req, res):
        (g, t), (via_m, via_b) = req, res
        errs = []
        for k, rep in enumerate(via_m, start=1):
            errs += _via_m_errors(g, k, rep.value, rep.orientation.orders, rep.witness_parts,
                                  rep.witness_remainder)
        for p, rep in enumerate(via_b, start=1):
            errs += _via_b_errors(t, p, rep.value, rep.orientation.orders, rep.witness_coloring)
        return errs

    def value(self, req, res):
        return [rep.value for reps in res for rep in reps]


class SparseWide(Workload):
    """f_count at p = r-1 and p = 1 on a seeded random orientation, then
    f(H,1,1) through M(H,0), on hundreds of vertices and n/10 edges."""

    cycle = 5
    nominal_s = 0.05
    trace_count = 30

    def build(self, seed, count, tiny, workdir):
        rng = random.Random(seed)
        sizes = ((3, 60), (4, 40)) if tiny else ((3, 120), (3, 160), (3, 200), (4, 60), (4, 80))
        out = []
        for i in range(count):
            r, n = sizes[i % len(sizes)]
            if math.comb(n, r - 1) > MAX_PSETS:
                raise ValueError(f"C({n},{r - 1}) p-sets exceed the cap of {MAX_PSETS}")
            h = sparse(n, r, n // 10, rng)
            out.append((h, hypercore.random_orientation(h, rng.randrange(1 << 30))))
        return out

    def run(self, req, tracer=None):
        h, d = req
        return fcalc.f_count(d, h.r - 1, 1), fcalc.f_count(d, 1, 1), fcalc.f_via_m(h, 1)

    def check(self, req, res):
        h, d = req
        high, low, rep = res
        errs = _degree_vector_errors(d, h.r - 1) + _degree_vector_errors(d, 1)
        if high != _full_psets(h, d.orders, h.r - 1, 1) or low != _full_psets(h, d.orders, 1, 1):
            errs.append("f_count disagrees with the direct p-set count")
        errs += _via_m_errors(h, 1, rep.value, rep.orientation.orders, rep.witness_parts,
                              rep.witness_remainder)
        return errs

    def value(self, req, res):
        return [res[0], res[1], res[2].value]


SUITE_NAMES = ("hakimi", "via-m", "closed-form", "ramsey-chi", "via-b", "multipartite",
               "perfect-graph", "complement", "mop", "accounting", "join-reduction")


class CliVerify(Workload):
    """One ``hyperf`` subprocess per request, one at a time: every suite
    once per cycle, under the cycle's own seed, then FILES commands on
    small files written during set-up.  The run is its whole request
    list, not ended on the clock, so every run has the same mix.

    The cycle length puts p90 in the middle of one cost class.  The top
    tenth of a cycle of 25 is 2.5 requests: ``complement`` (about 1.8 s),
    then half-way into ``accounting``, ``closed-form`` and ``hakimi``
    (0.35-0.6 s each).  The median falls among the file commands and the
    cheap suites, all near 0.2 s, which is mostly interpreter start-up.
    """

    FILES = 14
    cycle = len(SUITE_NAMES) + FILES
    nominal_s = 0.31
    clocked = False
    trace_count = cycle

    def build(self, seed, count, tiny, workdir):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.workdir = workdir
        suites = ("ramsey-chi",) if tiny else SUITE_NAMES
        out = []
        for cycle in range(max(1, count // self.cycle)):
            out += [(("verify", suite, "--seed", str(seed * 10 + cycle)), None) for suite in suites]
            for j in range(self.FILES):
                cmd, h = self._file(j % 4, rng)
                path = workdir / f"in{len(out)}.txt"
                hypercore.write_path(h, path)
                out.append(((cmd[0], str(path), *cmd[1:]), h))
        return out

    @staticmethod
    def _file(kind, rng):
        if kind == 0:
            return ("mad",), planted_dense(14, rng, core_size=5, core_edges=8, background=28)
        if kind == 1:
            return ("f", "--p", "1", "--k", "1"), gnp(12, rng)
        if kind == 2:
            return ("m", "--k", "1"), gnp(13, rng)
        return ("b", "--p", "2"), sparse(7, 3, 15, rng)

    def run(self, req, tracer=None):
        argv = [*req[0], "--json"]
        if tracer is None:
            cmd = [sys.executable, "-m", "hyperf.cli", *argv]
        else:
            span_file = self.workdir / f"spans{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "launcher.py"), str(span_file), *argv]
        spawned = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"hyperf {' '.join(argv)} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")
        if tracer is not None:
            with open(span_file, encoding="utf-8") as fh:
                traced = json.load(fh)
            span_file.unlink()
            tracer.merge(traced["spans"], traced["add_arcs"], tracer.request)
            tracer.startup.append(traced["imported"] - spawned)
            tracer.output_bytes += len(proc.stdout)
        return json.loads(proc.stdout)

    def check(self, req, out):
        argv, h = req
        cmd = argv[0]
        if cmd == "verify":
            ok = out.get("suite") == argv[1] and out.get("failed") == 0 and out.get("passed", 0) > 0
            return [] if ok else [f"suite {argv[1]}: {out.get('failed')} checks failed"]
        if cmd == "mad":
            num, den = out["mad"].split("/")
            return _density_errors(h, Fraction(int(num), int(den)), out["witness"])
        if cmd == "m":
            parts = out["parts"]
            errs = _parts_errors(h, parts, out["remainder"], h.r * out["k"])
            return errs + ([] if out["m"] == sum(len(p) for p in parts) else ["M is not |parts|"])
        if cmd == "f":
            if out["method"] == "closed":  # a closed form carries no certificate
                return []
            k = int(argv[argv.index("--k") + 1])
            orders = [tuple(o) for o in out["orientation"]["orders"]]
            return _via_m_errors(h, k, out["value"], orders, out["witness_parts"],
                                 out["witness_remainder"])
        p = int(argv[argv.index("--p") + 1])
        colored = {tuple(a): c for a, c in out["coloring"]["colored"]}
        errs = _coloring_errors(h, p, out["coloring"]["colors"], colored)
        if out["b"] != len(colored):
            errs.append("b is not the number of colored p-sets")
        return errs

    def value(self, req, out):
        cmd = req[0][0]
        return None if cmd == "verify" else out[{"f": "value"}.get(cmd, cmd)]

    def same(self, a, b):
        return _untimed(a) == _untimed(b)


def _untimed(out):
    """A CLI JSON document without its wall-time fields."""
    if isinstance(out, dict):
        return {k: _untimed(v) for k, v in out.items() if k != "seconds"}
    if isinstance(out, list):
        return [_untimed(v) for v in out]
    return out


WORKLOADS = {
    "flow-dense": FlowDense,
    "search-gnp": SearchGnp,
    "sparse-wide": SparseWide,
    "cli-verify": CliVerify,
}
