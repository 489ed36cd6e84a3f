"""Seeded inputs: one round of CLI argument lists per workload.

``make_round(workload, seed)`` is a pure function of its arguments
(``random.Random`` streams are stable across Python versions). A round has a
fixed shape per workload; the seed draws the couplings, quantum numbers and
ζ within each slot's range, so the cost of a round barely depends on the
seed while the inputs do. Every argument list is what a user would type
after ``twomode-jcx`` (the runner appends ``--out``).

Why each workload exists is in bench/README.md.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

WORKLOADS = ("sector_sweep", "verify_suite", "states")

# The tilt strength 2|f||g|/(|f|²+|g|²) bound and magnitude range that
# ``verify`` uses for its own random coupling pairs.
TILT_MAX = 0.8
COUPLING_RANGE = (0.4, 2.0)


@dataclass(frozen=True)
class Op:
    command: str
    params: dict
    argv: tuple

    def as_dict(self) -> dict:
        return {"command": self.command, "argv": list(self.argv)}


def _num(x: float) -> str:
    return repr(float(x))


def _couplings(rng: random.Random, f_dominant: bool):
    """(f, g) with |f| > |g| or |g| > |f|, magnitudes in range, tilt <= TILT_MAX."""
    while True:
        a, b = rng.uniform(*COUPLING_RANGE), rng.uniform(*COUPLING_RANGE)
        if 2 * a * b / (a * a + b * b) <= TILT_MAX:
            break
    big, small = max(a, b), min(a, b)
    fa, ga = (big, small) if f_dominant else (small, big)
    f = fa * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    g = ga * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return f, g


def _coupling_args(f: complex, g: complex) -> list:
    return ["--f-re", _num(f.real), "--f-im", _num(f.imag),
            "--g-re", _num(g.real), "--g-im", _num(g.imag)]


def _zeta(rng: random.Random, lo: float, hi: float) -> complex:
    z = rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return complex(float(z.real), float(z.imag))


def _zeta_args(z: complex) -> list:
    return ["--zeta-re", _num(z.real), "--zeta-im", _num(z.imag)]


def _diagonalize(rng, model, cutoff, sectors, f_dominant, count=8) -> Op:
    f, g = _couplings(rng, f_dominant)
    argv = ["diagonalize", "--model", model, *_coupling_args(f, g), "--cutoff", str(cutoff)]
    for q in sectors or ():
        argv += ["--sector", str(q)]
    argv += ["--count", str(count)]
    params = {"model": model, "f": f, "g": g, "mc2": 1.0, "hbar": 1.0,
              "cutoff": cutoff, "sectors": list(sectors or ()), "count": count}
    return Op("diagonalize", params, tuple(argv))


def _sector_sweep(rng: random.Random, seed: int) -> list:
    # Slot i takes |f| > |g| when (i + seed) is even, so both dominances
    # appear in every round for both models. The three equal-cost JC+AJC
    # sector-0 slots sit in the middle of the round's latencies, so the
    # median op is one kind of op rather than the boundary between two.
    dom = [(i + seed) % 2 == 0 for i in range(6)]
    near = lambda cutoff: sorted(rng.sample(range(cutoff - 4, cutoff + 1), 2))
    return [
        _diagonalize(rng, "jc-ajc", 280, [0], dom[0]),
        _diagonalize(rng, "jc-ajc", 280, [0], dom[1]),
        _diagonalize(rng, "jc-ajc", 280, [0], dom[2]),
        _diagonalize(rng, "jc-ajc", 160, None, dom[3]),
        _diagonalize(rng, "jc-jc", 400, near(400), dom[4]),
        _diagonalize(rng, "jc-jc", 300, near(300), dom[5]),
    ]


def _verify_suite(rng: random.Random, seed: int) -> list:
    # Two |f| > |g| ops and one |g| > |f| op: an odd round with the majority
    # of one kind, so the median op is a |f| > |g| verify rather than the
    # boundary between the two kinds.
    ops = []
    for f_dominant in (True, False, True):
        f, g = _couplings(rng, f_dominant)
        vseed = rng.randrange(1, 2**31)
        argv = ["verify", *_coupling_args(f, g), "--seed", str(vseed)]
        ops.append(Op("verify", {"f": f, "g": g, "seed": vseed}, tuple(argv)))
    return ops


def _su11_state(rng, k2_range, n_range, zeta_range) -> Op:
    k = rng.randint(*k2_range) / 2.0
    n = rng.randint(*n_range)
    z = _zeta(rng, *zeta_range)
    argv = ["coherent-state", "--algebra", "su11", "--k", _num(k), "--n", str(n), *_zeta_args(z)]
    return Op("coherent-state", {"algebra": "su11", "k": k, "n": n, "zeta": z}, tuple(argv))


def _su2_state(rng, j2_range, mu_frac, zeta_range) -> Op:
    j2 = rng.randint(*j2_range)
    lim = int(mu_frac * j2)
    mu2 = rng.choice([m for m in range(-lim, lim + 1) if (m - j2) % 2 == 0])
    z = _zeta(rng, *zeta_range)
    j, mu = j2 / 2.0, mu2 / 2.0
    argv = ["coherent-state", "--algebra", "su2", "--j", _num(j), "--mu", _num(mu), *_zeta_args(z)]
    return Op("coherent-state", {"algebra": "su2", "j": j, "mu": mu, "zeta": z}, tuple(argv))


def _wavefunction(rng, n_range, m_range, zeta_range=None) -> Op:
    n_l, m_n = rng.randint(*n_range), rng.randint(*m_range)
    argv = ["wavefunction", "--n-l", str(n_l), "--m-n", str(m_n)]
    z = 0j
    if zeta_range is not None:
        z = _zeta(rng, *zeta_range)
        argv += _zeta_args(z)
    params = {"n_l": n_l, "m_n": m_n, "zeta": z, "n_rho": 100, "n_phi": 64}
    return Op("wavefunction", params, tuple(argv))


def _states(rng: random.Random, seed: int) -> list:
    # Fixed slot mix per round. The float64 double sum holds in the first
    # two kinds of coefficient slots; it loses the norm in the next two
    # (su(2) with j >= 24; su(1,1) with n near 40 and |zeta| near 0.9).
    # Ranges of the costly slots are narrow so that a round's cost does not
    # depend on the seed.
    ops = [_su11_state(rng, (1, 5), (0, 6), (0.05, 0.6)) for _ in range(3)]
    ops += [_su2_state(rng, (1, 10), 1.0, (0.2, 1.4)) for _ in range(3)]
    ops += [_su2_state(rng, (48, 80), 0.5, (0.6, 1.4)) for _ in range(2)]
    ops += [_su11_state(rng, (5, 7), (39, 41), (0.89, 0.9))]
    ops += [_wavefunction(rng, (0, 6), (0, 6)) for _ in range(4)]
    ops += [_wavefunction(rng, (0, 4), (0, 4), (0.25, 0.4)) for _ in range(4)]
    return ops


_BUILDERS = {"sector_sweep": _sector_sweep, "verify_suite": _verify_suite, "states": _states}


def make_round(workload: str, seed: int) -> list:
    """The op list of one round; every round of a run repeats it."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, seed)
