"""Output checker: every op's output against an independent reference.

The references are written here from the closed forms, not imported from
the package, so a change to the package cannot move its own yardstick:

* su(1,1) sector spectrum of JC+AJC (N_d = d, level n):
  E² = m²c⁴ + ħ²[|Δ|(n + (|d|+1)/2) + (Δ/2)(d+1)],  Δ = |f|² − |g|²;
* su(2) sector spectrum of JC+JC (N_s ≤ cutoff): E² = m²c⁴ + ħ² S q,
  q = 0..N_s, S = |f|² + |g|²;
* number coherent states: the column of exp(ξG₊ − ξ*G₋) in the irrep
  (finite for su(2); a ladder truncated where the column has no mass left
  for su(1,1)), with |ξ| = artanh|ζ| or arctan|ζ| and the phase of ζ;
* wavefunctions: the polar oscillator eigenfunctions and their coherent
  superposition with the reference coefficients.

Tolerances are the README's acceptance tolerances, never looser.

Each check returns a ``Verdict``. ``ok`` is false when the op failed: a
nonzero exit, an exception, or an output outside its tolerance.
``violation`` is set, in addition, when the output breaks a promise the
command makes about itself: an uncaught exception, an exit code outside
0/1/2, unparseable or incomplete output, a wrong value reported with a
certifying exit 0 (``diagonalize``, ``verify``), seeded ``verify`` output
that is not byte-identical, or metadata that contradicts the rows.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import eval_genlaguerre, gammaln

SPECTRUM_TOL = {"jc-ajc": 1e-8, "jc-jc": 1e-10}  # relative, per level
COLUMN_TOL = {"su11": 1e-8, "su2": 1e-10}  # max abs deviation per coefficient
NORM_TOL = 1e-10  # |1 - sum |c|^2|
WAVEFUNCTION_NORM_TOL = 1e-7  # |norm_estimate - 1|
WAVEFUNCTION_SAMPLE_TOL = 1e-9  # max abs deviation at sampled grid points
META_CONSISTENCY_TOL = 1e-12  # relative, reported norm vs rows
SAMPLE_STRIDE = 53  # every 53rd grid row is compared with the reference
DEFAULT_SECTORS = {"jc-ajc": list(range(-3, 4)), "jc-jc": list(range(0, 7))}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    violation: bool = False


PASS = Verdict(True)


def fail(reason: str, violation: bool = False) -> Verdict:
    return Verdict(False, reason, violation)


# ---------------------------------------------------------------------------
# closed-form references


def su11_sector_energy_sq(f: complex, g: complex, mc2: float, hbar: float, d: int, n: int) -> float:
    dlt = abs(f) ** 2 - abs(g) ** 2
    return mc2**2 + hbar**2 * (abs(dlt) * (n + (abs(d) + 1) / 2.0) + 0.5 * dlt * (d + 1))


def su2_sector_energy_sq(f: complex, g: complex, mc2: float, hbar: float, n_s: int) -> np.ndarray:
    s = abs(f) ** 2 + abs(g) ** 2
    return mc2**2 + hbar**2 * s * np.arange(n_s + 1, dtype=float)


def sector_dim(model: str, cutoff: int, charge: int) -> int:
    if model == "jc-ajc":
        return cutoff + 1 - abs(charge)
    return charge + 1 if charge <= cutoff else 2 * cutoff - charge + 1


def _xi(algebra: str, zeta: complex) -> complex:
    mag = abs(zeta)
    r = math.atanh(mag) if algebra == "su11" else math.atan(mag)
    return r * zeta / mag


@functools.lru_cache(maxsize=None)
def irrep_column(algebra: str, weight: float, start: int, zeta: complex) -> np.ndarray:
    """Column ``start`` of exp(ξG₊ − ξ*G₋) over the irrep ladder.

    ``weight`` is the Bargmann index k (su11) or the spin j (su2); entry r
    is the state r steps above the lowest weight. su(1,1) ladders are
    truncated and doubled until the last entries carry no mass.
    """
    if zeta == 0:
        length = start + 1 if algebra == "su11" else int(round(2 * weight)) + 1
        out = np.zeros(length, dtype=complex)
        out[start] = 1.0
        return out
    xi = _xi(algebra, zeta)
    if algebra == "su2":
        length = int(round(2 * weight)) + 1
        m = np.arange(length - 1) - weight  # J+ |j, m> = sqrt((j-m)(j+m+1)) |j, m+1>
        hop = np.sqrt((weight - m) * (weight + m + 1))
        return _exp_column(xi, hop, start)
    length = max(64, 2 * start + 64)
    while True:
        r = np.arange(length - 1)  # K+ |k, r> = sqrt((r+1)(r+2k)) |k, r+1>
        col = _exp_column(xi, np.sqrt((r + 1) * (r + 2 * weight)), start)
        if np.max(np.abs(col[-8:])) < 1e-20:
            return col
        length *= 2


def _exp_column(xi: complex, hop: np.ndarray, start: int) -> np.ndarray:
    gen = sp.diags([xi * hop, -np.conj(xi) * hop], [-1, 1], format="csr", dtype=complex)
    unit = np.zeros(len(hop) + 1, dtype=complex)
    unit[start] = 1.0
    return expm_multiply(gen, unit)


def oscillator(n: int, m: int, rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(-1)^n sqrt(n!/(π (n+m)!)) ρ^m L_n^m(ρ²) e^{-ρ²/2} e^{imφ}."""
    pref = (-1) ** n * math.exp(0.5 * (gammaln(n + 1) - gammaln(n + m + 1))) / math.sqrt(math.pi)
    return pref * rho**m * eval_genlaguerre(n, m, rho**2) * np.exp(-0.5 * rho**2) * np.exp(1j * m * phi)


def wavefunction_reference(n_l: int, m_n: int, zeta: complex, rho, phi) -> np.ndarray:
    if zeta == 0:
        return oscillator(n_l, m_n, rho, phi)
    coeffs = irrep_column("su11", 0.5 * (m_n + 1), n_l, zeta)
    out = np.zeros(np.shape(rho), dtype=complex)
    for r, c in enumerate(coeffs):
        if abs(c) > 1e-18:
            out += c * oscillator(r, m_n, rho, phi)
    return out


# ---------------------------------------------------------------------------
# per-command checks


def _parse(output: bytes):
    try:
        payload = json.loads(output)
        return payload["rows"], payload.get("meta", {})
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"unparseable output: {exc}") from exc


def _exit_verdict(code, error: str) -> Verdict:
    if code not in (1, 2):
        return fail(f"exit {code}: {error}", violation=True)
    return fail(f"exit {code}: {error}")


def check_diagonalize(params: dict, code, output: bytes, error: str) -> Verdict:
    if code != 0:
        return _exit_verdict(code, error)
    model = params["model"]
    f, g, mc2, hbar = params["f"], params["g"], params["mc2"], params["hbar"]
    rows, _ = _parse(output)
    got: dict[int, dict[int, float]] = {}
    for row in rows:
        got.setdefault(int(row["sector"]), {})[int(row["level"])] = float(row["energy_sq"])
    worst, where = 0.0, ""
    for q in params["sectors"] or DEFAULT_SECTORS[model]:
        levels = min(params["count"], sector_dim(model, params["cutoff"], q))
        if model == "jc-ajc":
            ref = [su11_sector_energy_sq(f, g, mc2, hbar, q, n) for n in range(levels)]
        else:
            ref = su2_sector_energy_sq(f, g, mc2, hbar, q)[:levels]
        for n, want in enumerate(ref):
            have = got.get(q, {}).get(n)
            if have is None:
                return fail(f"sector {q} level {n} missing", violation=True)
            dev = abs(have - want) / abs(want)
            if dev > worst:
                worst, where = dev, f"sector {q} level {n}"
    if worst > SPECTRUM_TOL[model]:
        return fail(f"E^2 off by {worst:.2e} (rel) at {where}", violation=True)
    return PASS


def check_verify(params: dict, code, output: bytes, error: str, first_output: bytes | None) -> Verdict:
    if code not in (0, 1):
        return _exit_verdict(code, error)
    rows, _ = _parse(output)
    bad = [r["anchor"] for r in rows if r["status"] not in ("PASS", "SKIP")]
    if not rows:
        return fail("no records", violation=True)
    if (code == 0) == bool(bad):
        return fail(f"exit {code} with {len(bad)} failing record(s)", violation=True)
    if first_output is not None and output != first_output:
        return fail("seeded output not byte-identical to the first run", violation=True)
    if bad:
        return fail(f"records failed: {', '.join(bad)}")
    return PASS


def check_coherent_state(params: dict, code, output: bytes, error: str) -> Verdict:
    if code != 0:
        return _exit_verdict(code, error)
    rows, meta = _parse(output)
    coeffs = np.array([complex(r["re"], r["im"]) for r in rows])
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    if abs(meta["norm_sq"] - norm_sq) > META_CONSISTENCY_TOL * max(1.0, norm_sq):
        return fail(f"reported norm_sq {meta['norm_sq']!r} != rows {norm_sq!r}", violation=True)
    if abs(1.0 - norm_sq) > NORM_TOL:
        return fail(f"|1 - norm_sq| = {abs(1.0 - norm_sq):.2e}")
    algebra, zeta = params["algebra"], params["zeta"]
    if algebra == "su11":
        ref = irrep_column("su11", params["k"], params["n"], zeta)
    else:
        ref = irrep_column("su2", params["j"], int(round(params["j"] + params["mu"])), zeta)
    m = min(len(ref), len(coeffs))
    dev = float(np.max(np.abs(coeffs[:m] - ref[:m]))) if m else 0.0
    if dev > COLUMN_TOL[algebra]:
        return fail(f"coefficients off the displacement column by {dev:.2e}")
    return PASS


def check_wavefunction(params: dict, code, output: bytes, error: str) -> Verdict:
    if code != 0:
        return _exit_verdict(code, error)
    rows, meta = _parse(output)
    if len(rows) != params["n_rho"] * params["n_phi"]:
        return fail(f"{len(rows)} rows for a {params['n_rho']}x{params['n_phi']} grid", violation=True)
    norm_dev = abs(meta["norm_estimate"] - 1.0)
    if norm_dev > WAVEFUNCTION_NORM_TOL:
        return fail(f"|norm_estimate - 1| = {norm_dev:.2e}")
    sample = rows[::SAMPLE_STRIDE]
    rho = np.array([r["rho"] for r in sample])
    phi = np.array([r["phi"] for r in sample])
    have = np.array([complex(r["re"], r["im"]) for r in sample])
    want = wavefunction_reference(params["n_l"], params["m_n"], params["zeta"], rho, phi)
    dev = float(np.max(np.abs(have - want)))
    if dev > WAVEFUNCTION_SAMPLE_TOL:
        return fail(f"samples off the reference by {dev:.2e}")
    return PASS


def check(op, code, output: bytes, error: str, first_output: bytes | None = None) -> Verdict:
    """Verdict for one op; ``first_output`` is an earlier output of the same argv."""
    try:
        if op.command == "diagonalize":
            return check_diagonalize(op.params, code, output, error)
        if op.command == "verify":
            return check_verify(op.params, code, output, error, first_output)
        if op.command == "coherent-state":
            return check_coherent_state(op.params, code, output, error)
        return check_wavefunction(op.params, code, output, error)
    except (ValueError, KeyError, TypeError) as exc:
        return fail(f"malformed output: {exc}", violation=True)
