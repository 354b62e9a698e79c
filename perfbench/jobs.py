"""The benchmark's workloads: fixed job lists and a seeded query stream.

A job is one `jetcalc` command line, the exit code it must return and an
optional check of facts known by construction.  Facts are checked on the
structured (JSON) output with the small canonical-polynomial reader below,
which does not use jetcalc, so a check never trusts the code it checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

EQN_DIR = "perfbench/eqn"
EQN_FILES = {name: f"{EQN_DIR}/{name}.eqn" for name in ("burgers", "kdv", "nls1", "nls2")}
DEFAULT_SEED = 1
HELD_OUT_SEED = 97


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    exit: int = 0
    check: Callable[[dict], str | None] | None = None

    @property
    def key(self) -> str:
        return json.dumps(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    files: tuple[str, ...]  # equation files the workload reads (for setup_s)
    jobs: tuple[Job, ...]


# --------------------------------------------------------------------------
# Canonical polynomial strings, read without jetcalc


def poly(text: str) -> dict[tuple, Fraction]:
    """Read `3/2*u*u_x^2 - x + 1` (expanded, no parentheses) into
    {sorted ((name, exponent), ...): coefficient}."""
    out: dict[tuple, Fraction] = {}
    for chunk in text.strip().replace(" - ", " + -").split(" + "):
        coef = Fraction(1)
        if chunk.startswith("-"):
            coef, chunk = Fraction(-1), chunk[1:]
        factors: dict[str, int] = {}
        for part in chunk.split("*"):
            if part[0].isdigit():
                coef *= Fraction(part)
                continue
            name, _, exp = part.partition("^")
            factors[name] = factors.get(name, 0) + (int(exp) if exp else 1)
        key = tuple(sorted(factors.items()))
        out[key] = out.get(key, Fraction(0)) + coef
    return {k: c for k, c in out.items() if c}


def scaled(p: dict, c: Fraction) -> dict:
    return {k: v * c for k, v in p.items()}


def _rank(vectors: list[dict]) -> int:
    rows = [dict(v) for v in vectors if v]
    rank = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        key, val = next(iter(pivot.items()))
        rank += 1
        for r in rows:
            f = r.get(key)
            if f:
                for k, v in pivot.items():
                    nv = r.get(k, Fraction(0)) - f / val * v
                    if nv:
                        r[k] = nv
                    else:
                        r.pop(k, None)
    return rank


def in_span(basis: list[dict], target: dict) -> bool:
    return _rank(basis) == _rank(basis + [target])


# --------------------------------------------------------------------------
# Fact checks on structured documents


def _all_verified(doc) -> str | None:
    if "verified" in doc and not all(doc["verified"]):
        return f"verified = {doc['verified']}"
    return None


def facts(*checks, verified=True):
    """All checks must pass; `verified` also requires every reported
    certificate to be true (off for queries whose expected verdict is no)."""
    def run(doc):
        for chk in ((_all_verified,) if verified else ()) + checks:
            err = chk(doc)
            if err:
                return err
        return None
    return run


def basis_len(n):
    return lambda doc: None if len(doc["basis"]) == n else f"basis has {len(doc['basis'])} elements, not {n}"


def basis_contains(*texts):
    def chk(doc):
        basis = [poly(s) for s in doc["basis"]]
        for t in texts:
            if not in_span(basis, poly(t)):
                return f"basis does not span {t}"
        return None
    return chk


def basis_is(strings):
    return lambda doc: None if doc["basis"] == list(strings) else f"basis {doc['basis']} != {strings}"


def iterates(count, first, c=Fraction(1)):
    def chk(doc):
        res = doc["result"]
        if len(res) != count:
            return f"{len(res)} iterates, not {count}"
        if poly(res[0]) != scaled(poly(first), c):
            return f"first iterate {res[0]} != {c}*({first})"
        return None
    return chk


def field(key, value):
    return lambda doc: None if doc.get(key) == value else f"{key} = {doc.get(key)!r}, not {value!r}"


def result_poly(expected, c=Fraction(1)):
    return lambda doc: (None if poly(doc["result"]) == scaled(poly(expected), c)
                        else f"result {doc['result']} != {c}*({expected})")


def components(m):
    def chk(doc):
        r = doc["result"]
        got = 1 if isinstance(r, str) else len(r)
        return None if got == m else f"{got} components, not {m}"
    return chk


def all_currents(doc):
    return None if doc["currents"] and all(doc["currents"]) else f"currents {doc['currents']}"


# --------------------------------------------------------------------------
# Workloads


def _ansatz(order, deg, xt):
    return ("--order", str(order), "--deg", str(deg), "--xt-deg", str(xt))


def _shuffled(jobs: list[Job], seed: int) -> tuple[Job, ...]:
    random.Random(seed).shuffle(jobs)
    return tuple(jobs)


def solve_ansatz(seed: int) -> Workload:
    """The determining-equation solvers at large ansaetze; the seed only
    orders the jobs."""
    f = EQN_FILES
    jobs = [
        Job(("symmetries", f["nls1"]) + _ansatz(3, 3, 1), 0, facts(basis_len(6))),
        Job(("symmetries", f["kdv"]) + _ansatz(7, 3, 1), 0, facts(basis_len(5), basis_contains("u_x"))),
        Job(("conslaws", f["kdv"]) + _ansatz(6, 3, 1), 0, facts(basis_len(5), basis_contains("1", "u"))),
        # Rigidity: the only local recursion shadow of Burgers is the identity.
        Job(("recursion", f["burgers"]) + _ansatz(3, 2, 2), 0, facts(basis_is(["om(u)"]))),
    ]
    return Workload("solve_ansatz", (f["nls1"], f["kdv"], f["burgers"]), _shuffled(jobs, seed))


def nonlocal_recursion(seed: int) -> Workload:
    """Many iterates of the recursion operators of Burgers and KdV in the
    potential covering; the seed only orders the jobs."""
    f = EQN_FILES
    jobs = [
        Job(("apply-recursion", f["burgers"], "--covering", "pot") + _ansatz(1, 1, 0)
            + ("--to", "u_x", "--times", "16"), 0, facts(iterates(16, "u*u_x + u_{xx}"))),
        Job(("apply-recursion", f["kdv"], "--covering", "pot") + _ansatz(2, 1, 0)
            + ("--to", "u_x", "--times", "10"), 0, facts(iterates(10, "u*u_x + u_{xxx}"))),
    ]
    return Workload("nonlocal_recursion", (f["burgers"], f["kdv"]), _shuffled(jobs, seed))


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 5))


def _q(c: Fraction) -> str:
    return f"({c})"


# Jets of order <= 2 in the spatial variables of each equation file.
_JETS = {
    "burgers": ["u", "u_x", "u_{xx}"],
    "kdv": ["u", "u_x", "u_{xx}"],
    "nls1": ["v", "w", "v_x", "w_x", "v_{xx}", "w_{xx}"],
    "nls2": ["v", "w", "v_x", "w_x", "v_y", "w_y", "v_{xx}", "w_{xy}", "v_{yy}"],
}
_DEPS = {"burgers": 1, "kdv": 1, "nls1": 2, "nls2": 2}


def calculus_queries(seed: int) -> Workload:
    """110 small queries over every command.  The kinds, files and shapes of
    the queries are the same for every seed, so that seeds cost the same;
    the seed draws the rational parameters and the order.  Verdicts are
    known by construction."""
    rng = random.Random(seed)
    shape = random.Random(0)
    f = EQN_FILES
    jobs: list[Job] = []
    seen: set[tuple] = set()

    def add(make):
        while True:
            job = make()
            if job.argv not in seen:
                seen.add(job.argv)
                jobs.append(job)
                return

    def euler(name):
        monos = ["*".join(shape.choice(_JETS[name]) for _ in range(3)) for _ in range(3)]

        def make():
            density = " + ".join(f"{_q(_rat(rng))}*{m}" for m in monos)
            return Job(("euler", f[name], "--density", density), 0, facts(components(_DEPS[name])))
        return make

    def adjoint(name, order):
        u = _JETS[name]

        def make():
            a, b, c = _rat(rng), _rat(rng), _rat(rng)
            op = f"D_x^{order} + ({_q(a)}*{u[0]} + {_q(b)}*{u[1]})*D_x + {_q(c)}*{u[2]}"
            return Job(("adjoint", f[name], "--op", op), 0, facts())
        return make

    for name in f:
        for _ in range(6):
            add(euler(name))
        for order in (2, 3, 2, 3):
            add(adjoint(name, order))
        add(lambda name=name: Job(("linearize", f[name]), 0, facts()))

    # a*u_xx + b*(u*u_xx + u_x^2/2) + c*u^2 + d*x*u is the Euler image of a
    # density; adding e*u*u_x breaks self-adjointness of its linearization.
    def inverse(name, variational):
        def make():
            a, b, c, d, e = (_rat(rng) for _ in range(5))
            if name == "nls1":
                pv = f"{_q(a)}*v_{{xx}} + {_q(c)}*v*(v^2 + w^2)"
                pw = f"{_q(a)}*w_{{xx}} + {_q(c)}*w*(v^2 + w^2)"
                if not variational:
                    pv += f" + {_q(e)}*w_x"
                psi = ("--psi", pv, "--psi", pw)
            else:
                p = f"{_q(a)}*u_{{xx}} + {_q(b)}*(u*u_{{xx}} + u_x^2/2) + {_q(c)}*u^2 + {_q(d)}*x*u"
                if not variational:
                    p += f" + {_q(e)}*u*u_x"
                psi = ("--psi", p)
            return Job(("inverse-problem", f[name]) + psi, 0 if variational else 1,
                       facts(field("self-adjoint", variational), verified=variational))
        return make

    for name in ("burgers", "kdv", "nls1"):
        for variational in (True, False, True, False):
            add(inverse(name, variational))

    # Conserved currents scaled by a random rational stay conserved; a term
    # e*u_x added to the flux leaves the residual e*u_xx.
    currents = {
        "burgers": ("u", ["-(u^2/2 + u_x)"], "u_x"),
        "kdv": ("u^2/2", ["-(u^3/3 + u*u_{xx} - u_x^2/2)"], "u_x"),
        "nls1": ("v^2 + w^2", ["2*(w*v_x - v*w_x)"], "v_x"),
        "nls2": ("v^2 + w^2", ["2*(w*v_x - v*w_x)", "2*(w*v_y - v*w_y)"], "v_x"),
    }

    def current(name, conserved):
        def make():
            dens, flux, bad = currents[name]
            c, e = _rat(rng), _rat(rng)
            fluxes = [f"{_q(c)}*({x})" for x in flux]
            if not conserved:
                fluxes[0] += f" + {_q(e)}*{bad}"
            text = f"({_q(c)}*({dens}), {', '.join(fluxes)})"
            return Job(("verify-current", f[name], "--current", text), 0 if conserved else 1,
                       facts(field("result", conserved)))
        return make

    for name in ("nls1", "nls2"):
        add(lambda name=name: Job(("verify-current", f[name], "--current", "J"), 0,
                                  facts(field("result", True))))
    for name in f:
        for conserved in (True, False, True):
            add(current(name, conserved))

    # D_x^3 + (a + b*u)*D_x + (b/2)*u_x is Hamiltonian for all rational a, b;
    # with b*u_x in the last term it is not even skew-adjoint.
    def hamiltonian(name, ok):
        def make():
            a, b = _rat(rng), _rat(rng)
            last = f"({b / 2})" if ok else f"({b})"
            op = f"D_x^3 + ({a} + {_q(b)}*u)*D_x + {last}*u_x"
            return Job(("check-hamiltonian", f[name], "--op", op), 0 if ok else 1,
                       facts(field("skew-adjoint", ok), field("result", ok)))
        return make

    for op in ("A1", "A2"):
        add(lambda op=op: Job(("check-hamiltonian", f["kdv"], "--op", op), 0,
                              facts(field("jacobi", True), field("result", True))))
    for name in ("kdv", "burgers"):
        for ok in (True, False, True, False, True):
            add(hamiltonian(name, ok))

    # Both KdV structures give the KdV flow, scaled with the Hamiltonian.
    def flow(op):
        def make():
            c = _rat(rng)
            dens = f"{_q(c)}*u^2/2" if op == "A2" else f"{_q(c)}*(u^3/6 - u_x^2/2)"
            return Job(("flow", f["kdv"], "--op", op, "--density", dens), 0,
                       facts(result_poly("u*u_x + u_{xxx}", c)))
        return make

    # Conserved densities of KdV are in involution; {x*u, u^2/2} under D_x
    # has the density u up to scale, whose Euler image is a nonzero constant.
    def bracket(trivial):
        def make():
            c1, c2 = _rat(rng), _rat(rng)
            if trivial:
                h1, h2 = f"{_q(c1)}*(u^3/6 - u_x^2/2)", f"{_q(c2)}*u^2/2"
            else:
                h1, h2 = f"{_q(c1)}*x*u", f"{_q(c2)}*u^2/2"
            return Job(("bracket", f["kdv"], "--op", "A1", "--density", h1, "--density2", h2), 0,
                       facts(field("trivial", trivial)))
        return make

    for k in range(8):
        add(flow(("A1", "A2")[k % 2]))
        add(bracket(k % 2 == 0))

    for name in ("burgers", "kdv"):
        for deg in (1, 2):
            add(lambda name=name, deg=deg: Job(
                ("conslaws", f[name]) + _ansatz(4, deg, 0) + ("--currents",), 0,
                facts(all_currents, basis_contains("1"))))
    add(lambda: Job(("symmetries", f["burgers"]) + _ansatz(2, 2, 2), 0, facts(
        basis_len(5), basis_contains("u_x", "t^2*u*u_x + t*x*u_x + t^2*u_{xx} + t*u + x"))))
    add(lambda: Job(("recursion", f["burgers"], "--covering", "pot") + _ansatz(1, 1, 0), 0,
                    facts(basis_len(2))))
    add(lambda: Job(("recursion", f["kdv"], "--covering", "pot") + _ansatz(2, 1, 0), 0, facts()))
    add(lambda: Job(("recursion", f["burgers"]) + _ansatz(1, 2, 2), 0, facts(basis_is(["om(u)"]))))

    def recursion(name, first, order):
        def make():
            c = _rat(rng)
            return Job(("apply-recursion", f[name], "--covering", "pot") + _ansatz(order, 1, 0)
                       + ("--to", f"{_q(c)}*u_x", "--times", "3"), 0, facts(iterates(3, first, c)))
        return make

    for _ in range(2):
        add(recursion("burgers", "u*u_x + u_{xx}", 1))
        add(recursion("kdv", "u*u_x + u_{xxx}", 2))
    return Workload("calculus_queries", tuple(f.values()), _shuffled(jobs, seed))


WORKLOADS = {
    "solve_ansatz": solve_ansatz,
    "nonlocal_recursion": nonlocal_recursion,
    "calculus_queries": calculus_queries,
}
