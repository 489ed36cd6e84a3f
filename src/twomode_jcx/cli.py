"""Command-line surface: spectra, diagonalization, verification, samples.

Output contract: each command builds one ``table`` of typed columns. JSON
is one top-level object with a ``schema_version`` field; CSV is UTF-8,
comma-separated, LF line endings, mandatory header row, floats printed with
17 significant digits, a string raw unless it holds a comma, a double quote,
CR or LF, in which case it is double-quoted with inner quotes doubled
(RFC 4180), metadata appended as ``# key=value`` comment lines.
Exit codes: 0 success, 1 verification failure, 2 usage or domain errors.
The command group is the one place where a library exception becomes
exit 2; commands translate none themselves.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

import click
import numpy as np

from . import spectra, wavefunc
from .displace import MAX_LADDER_LENGTH, su11_ncs_coefficients, su2_ncs_coefficients
from .errors import QuadratureError, TwoModeJcxError
# build_basis and parallel stay bound here for the benchmark (bench/) alone:
# its span tests check that by-name imports such as cli.build_basis are
# traced and restored, and its spans wrap parallel's functions, which must
# be loaded with the CLI.
from . import parallel  # noqa: F401
from .fock import ChargeKind, build_basis, sector_basis, su2_irrep  # noqa: F401
from .models import Component, ModelKind, ModelParams, conserved_charge
from .verify import run_verification_suite

SCHEMA_VERSION = 1
# wavefunction norm: node-doubling change and |norm - 1| (README, bench)
NORM_TOL = 1e-7
# Most rows a table may hold (spectrum, wavefunction): as many as the
# longest coherent-state ladder, displace.MAX_LADDER_LENGTH.
MAX_ROWS = MAX_LADDER_LENGTH
# Largest diagonalize and verify cutoff. Cutoff doubling solves each N_d
# sector again on up to 2 cutoff + 1 states; with --count near the sector size
# it keeps every eigenvector of that ladder, 4095² doubles (134 MB) at the cap.
# An N_s sector (N_s <= 2 cutoff) of N_s + 1 states is one eigenvalue-only solve,
# or a seed of at most tridiag.WHOLE_COUNT_LIMIT of its eigenvectors (1.6 MB at the cap).
# verify's su(2) spectrum stage grows roughly as cutoff³ (0.4 s at the cap).
MAX_CUTOFF = 2047

_CASES = {
    "dirac1p1": lambda o1, o2, ph: spectra.Dirac1p1(o1),
    "dirac2p1": lambda o1, o2, ph: spectra.Dirac2p1(o1),
    "ndpa": lambda o1, o2, ph: spectra.NondegenerateParametricAmplifier(o1, o2, ph),
    "coupled-osc": lambda o1, o2, ph: spectra.CoupledOscillators(o1, o2, ph),
}


def _check_cap(value: int, cap: int, what: str) -> None:
    """Exit 2 with one line, before anything is allocated, when ``value`` > ``cap``."""
    if value > cap:
        raise click.UsageError(f"{what} = {value} exceeds the cap of {cap}")


_NON_FINITE = "non-finite number in output; refusing to serialize"

# How each scalar type is written, by numpy dtype kind. JSON writes a float
# or an int as its repr and a string through json's own escaper, as
# json.dumps does (whose indenting encoder is pure Python, twice the time on a
# 6 400-row table); CSV writes a float to 17 significant digits and a string
# raw, or quoted (RFC 4180) when it holds a separator, a quote or a newline.
_FORMATS = {
    "json": {"f": "{!r}", "i": "{!r}", "O": "{}"},
    "csv": {"f": "{:.17g}", "i": "{!r}", "O": "{}"},
}
_KINDS = {float: "f", int: "i", str: "O"}


def table(**columns) -> np.ndarray:
    """A table: one row per index and one typed field per keyword, in order.

    Numbers keep their numpy dtype. Strings are held as Python objects,
    since a fixed-width unicode field drops trailing NULs.
    """
    arrays = {}
    for name, values in columns.items():
        col = np.asarray(values)
        arrays[name] = np.array(values, dtype=object) if col.dtype.kind == "U" else col
    length = len(next(iter(arrays.values())))
    rows = np.empty(length, dtype=[(name, col.dtype) for name, col in arrays.items()])
    for name, col in arrays.items():
        rows[name] = col
    return rows


def _csv_str(value: str) -> str:
    """A CSV string cell: raw, or in double quotes with inner quotes doubled
    when it holds a comma, a quote, CR or LF (RFC 4180)."""
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _cells(values: list, kind: str, fmt: str) -> list:
    """One column's Python values, ready for its format: a non-finite float
    exits 2, and a string is escaped for JSON or quoted for CSV."""
    if kind == "f" and not all(map(math.isfinite, values)):
        raise click.UsageError(_NON_FINITE)
    if kind == "O":
        return list(map(_json_str if fmt == "json" else _csv_str, values))
    return values


def _scalar(value, fmt: str) -> str:
    """One metadata value, written as a one-cell column of its type."""
    value = float(value) if isinstance(value, float) else value  # numpy's repr is not JSON
    kind = _KINDS[type(value)]
    return _FORMATS[fmt][kind].format(*_cells([value], kind, fmt))


def _text(rows: np.ndarray, fmt: str, meta: dict) -> str:
    """The whole output, from one row template, in one join. Its columns
    are freed on return, before the text is written."""
    names = rows.dtype.names
    kinds = [rows.dtype[n].kind for n in names]
    columns = [_cells(rows[n].tolist(), k, fmt) for n, k in zip(names, kinds)]
    meta = [(k, _scalar(v, fmt)) for k, v in meta.items()]
    specs = [_FORMATS[fmt][k] for k in kinds]
    if fmt == "csv":
        return "\n".join([",".join(names), *map(",".join(specs).format, *columns),
                          *(f"# {k}={v}" for k, v in meta), ""])
    # each row starts with the comma that separates it from the one before
    fields = ",\n      ".join(f"{_json_str(n)}: {spec}" for n, spec in zip(names, specs))
    parts = [f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "rows": [',
             *map((",\n    {{\n      " + fields + "\n    }}").format, *columns)]
    if len(parts) > 1:
        parts[1] = parts[1][1:]
        parts.append("\n  ")
    parts.append("]")
    if meta:
        parts.append(',\n  "meta": {\n    '
                     + ",\n    ".join(f"{_json_str(k)}: {v}" for k, v in meta) + "\n  }")
    parts.append("\n}\n")
    return "".join(parts)


def emit_rows(rows: np.ndarray, fmt: str, out_path: str | None, meta: dict | None = None):
    """Write a ``table`` and a flat str/int/float ``meta`` dict.

    Every cell is encoded before the first byte is written, so a non-finite
    float exits 2 with nothing written. JSON is byte-equal to
    ``json.dumps(payload, indent=2) + "\n"`` of the rows as dicts.
    """
    text = _text(rows, fmt, meta or {})
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _model_params(ctx_params) -> ModelParams:
    return ModelParams(
        g=complex(ctx_params["g_re"], ctx_params["g_im"]),
        f=complex(ctx_params["f_re"], ctx_params["f_im"]),
        mc2=ctx_params["mc2"],
        hbar=ctx_params["hbar"],
    )


def _resolve_model(params):
    """(ModelParams, ModelKind) from either --case or --model with couplings."""
    if params.get("case"):
        case = _CASES[params["case"]](params["omega1"], params["omega2"], params["phase"])
        return spectra.special_case_params(case, mc2=params["mc2"], hbar=params["hbar"])
    return _model_params(params), ModelKind(params["model"])


def model_options(fn):
    opts = [
        click.option("--model", type=click.Choice(["jc-ajc", "jc-jc"]), default="jc-ajc", show_default=True),
        click.option("--case", type=click.Choice(sorted(_CASES)), default=None, help="Named preset; overrides --model and the couplings."),
        click.option("--f-re", "f_re", type=float, default=2.0, show_default=True),
        click.option("--f-im", "f_im", type=float, default=0.0, show_default=True),
        click.option("--g-re", "g_re", type=float, default=1.0, show_default=True),
        click.option("--g-im", "g_im", type=float, default=0.0, show_default=True),
        click.option("--omega1", "--omega", "omega1", type=float, default=0.1, show_default=True, help="Preset frequency."),
        click.option("--omega2", type=float, default=0.2, show_default=True),
        click.option("--phase", type=float, default=0.0, show_default=True),
        click.option("--mc2", type=float, default=1.0, show_default=True),
        click.option("--hbar", type=float, default=1.0, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def output_options(fn):
    opts = [
        click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True),
        click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


class _DomainErrorBoundary(click.Group):
    """Turns every domain error raised below the group into exit 2.

    Package errors, ``ValueError``, ``ArithmeticError`` and ``OSError`` (an
    unwritable ``--out``) end as one ``Error:`` line; overflow keeps a
    ``numeric overflow:`` prefix. ``verify``'s exit 1 is a ``SystemExit``
    and passes through.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (TwoModeJcxError, ValueError, ArithmeticError, OSError) as exc:
            overflow = isinstance(exc, (OverflowError, FloatingPointError))
            raise click.UsageError(f"numeric overflow: {exc}" if overflow else str(exc)) from exc


@click.group(cls=_DomainErrorBoundary)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with per-command defaults; CLI flags win.")
@click.pass_context
def main(ctx, config):
    """Two-mode spin-boson models: spectra, verification, and state samples."""
    if config:
        with open(config, encoding="utf-8") as fh:
            defaults = json.load(fh)
        if not (isinstance(defaults, dict) and all(isinstance(v, dict) for v in defaults.values())):
            raise click.UsageError("--config must hold a JSON object of per-command objects")
        ctx.default_map = defaults


@main.command()
@model_options
@output_options
@click.option("--nmax", type=int, default=5, show_default=True)
@click.option("--mmax", type=int, default=5, show_default=True)
def spectrum(**params):
    """Closed-form energy table over the (n_l, m_n) grid, both branches."""
    # up to four rows per grid point: two branches, two inner signs
    grid = (max(params["nmax"], 0) + 1) * (max(params["mmax"], 0) + 1)
    _check_cap(grid, MAX_ROWS // 4, "(--nmax + 1)(--mmax + 1)")
    p, kind = _resolve_model(params)
    rows = _spectrum_table(p, kind, params["nmax"], params["mmax"])
    emit_rows(rows, params["fmt"], params["out_path"], meta={"model": kind.value})


# spectrum's branch and inner-sign names, indexed by 0 (plus) or 1 (minus):
# each cell of those columns refers to one of these strings.
_SIGN_NAMES = np.array(["plus", "minus"], dtype=object)


def _spectrum_table(p: ModelParams, kind: ModelKind, nmax: int, mmax: int) -> np.ndarray:
    """spectrum's rows: n_l, then m_n, then four slots per grid point, in the
    order plus +1, plus -1, minus +1, minus -1 (branch, inner sign). A -1
    slot is a row only for JC+JC at m_n > 0; JC+AJC has no inner sign (na)."""
    jc_jc = kind is ModelKind.JC_JC
    point, slot = np.divmod(np.arange(4 * max(nmax + 1, 0) * max(mmax + 1, 0)), 4)
    n_l, m_n = np.divmod(point, max(mmax + 1, 1))
    minus, inner_minus = np.divmod(slot, 2)
    keep = (inner_minus == 0) | (jc_jc & (m_n > 0))
    n_l, m_n, minus, inner_minus = n_l[keep], m_n[keep], minus[keep], inner_minus[keep]
    if jc_jc:
        energy = spectra.analytic_energy_su2(p, n_l, m_n, inner_sign=1 - 2 * inner_minus)
        inner_sign = _SIGN_NAMES[inner_minus]
    else:
        energy = spectra.analytic_energy_su11(p, n_l, m_n)
        inner_sign = np.full(len(n_l), "na", dtype=object)
    return table(n_l=n_l, m_n=m_n, branch=_SIGN_NAMES[minus], inner_sign=inner_sign,
                 energy=np.where(minus, -energy, energy))


@main.command()
@model_options
@output_options
@click.option("--cutoff", type=int, default=120, show_default=True,
              help="Fock cutoff per mode. It truncates the JC+AJC (N_d) ladders, which "
                   "doubling it certifies; a JC+JC sector is solved whole, and the cutoff "
                   "only admits N_s <= 2 cutoff.")
@click.option("--sector", "sectors", type=int, multiple=True,
              help="Charge values; repeatable. Default: small symmetric range.")
@click.option("--count", type=int, default=8, show_default=True)
@click.option("--component", type=click.Choice(["upper", "lower"]), default="upper", show_default=True)
def diagonalize(**params):
    """Numeric sector spectra (E^2 values) with convergence certification."""
    if params["cutoff"] < 4:
        raise click.UsageError("--cutoff must be at least 4")
    _check_cap(params["cutoff"], MAX_CUTOFF, "--cutoff")
    if params["count"] < 1:
        raise click.UsageError("--count must be at least 1")
    p, kind = _resolve_model(params)
    charge = conserved_charge(kind)
    charges = list(params["sectors"])
    if not charges:
        charges = list(range(-3, 4)) if charge is ChargeKind.DIFFERENCE_ND else list(range(0, 7))
    sectors = [sector_basis(params["cutoff"], charge, q) for q in charges]
    if charge is ChargeKind.SUM_NS:
        # the cutoff decides which N_s exist; each is solved whole, as its irrep
        sectors = [su2_irrep(q) for q in charges]
    component = Component(params["component"])
    # In order, in this thread: LAPACK's dstebz and dstein hold the GIL, so
    # threads cannot overlap sector solves.
    vals = [spectra.numeric_spectrum(kind, component, p, sec, min(params["count"], sec.dim))
            for sec in sectors]
    rows = table(
        sector=np.repeat([sec.charge_value for sec in sectors], [len(v) for v in vals]),
        level=np.concatenate([np.arange(len(v)) for v in vals]),
        energy_sq=np.concatenate(vals),
    )
    emit_rows(
        rows,
        params["fmt"],
        params["out_path"],
        meta={"model": kind.value, "cutoff": params["cutoff"], "component": params["component"]},
    )


@main.command()
@model_options
@output_options
@click.option("--cutoff", type=int, default=120, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=2024, show_default=True)
@click.option("--tol", type=click.FloatRange(min=0.0), default=None,
              help="Tighten every tolerance to at most this value.")
@click.option("--timing", is_flag=True, default=False,
              help="Include wall-clock runtimes (breaks byte-identical output).")
def verify(**params):
    """Run the full self-verification suite; exit 0 iff every record passes."""
    if params["cutoff"] < 10:
        # the suite asks the N_d = -3 sector, of cutoff - 2 states, for 8 levels
        raise click.UsageError("--cutoff must be at least 10")
    _check_cap(params["cutoff"], MAX_CUTOFF, "--cutoff")
    if params["tol"] is not None and math.isnan(params["tol"]):
        raise click.UsageError("--tol must be a number, got nan")
    p, kind = _resolve_model(params)
    report = run_verification_suite(p, cutoff=params["cutoff"], seed=params["seed"])
    records = report.records
    tols = [r.tolerance for r in records]
    status = [r.status for r in records]
    if params["tol"] is not None:
        # Tighten-only: no flag can turn a FAIL into a PASS.
        tols = [min(params["tol"], t) for t in tols]
        status = [s if s == "SKIP" else "PASS" if r.residual <= t else "FAIL"
                  for r, s, t in zip(records, status, tols)]
    columns = dict(
        name=[r.name for r in records],
        anchor=[r.anchor for r in records],
        computed=[r.computed for r in records],
        reference=[r.reference for r in records],
        residual=[r.residual for r in records],
        tolerance=[0.0 if s == "SKIP" else t for s, t in zip(status, tols)],
        status=status,
        detail=[r.detail for r in records],
    )
    if params["timing"]:
        columns["runtime_s"] = [r.runtime if r.runtime is not None else 0.0 for r in records]
    emit_rows(
        table(**columns),
        params["fmt"],
        params["out_path"],
        meta={"model": kind.value, "seed": params["seed"], "cutoff": params["cutoff"]},
    )
    n_fail = status.count("FAIL")
    if n_fail:
        click.echo(f"{n_fail} verification record(s) failed", err=True)
        sys.exit(1)


@main.command()
@output_options
@click.option("--n-l", "n_l", type=int, default=0, show_default=True)
@click.option("--m-n", "m_n", type=int, default=0, show_default=True)
@click.option("--zeta-re", type=float, default=0.0, show_default=True)
@click.option("--zeta-im", type=float, default=0.0, show_default=True)
@click.option("--rho-max", type=float, default=4.0, show_default=True)
@click.option("--n-rho", type=int, default=100, show_default=True)
@click.option("--n-phi", type=int, default=64, show_default=True)
@np.errstate(over="raise")  # rho**2 at a huge --rho-max: an error, not a warning
def wavefunction(**params):
    """Sample the oscillator (zeta = 0) or coherent-state wavefunction on a
    polar grid; exit 2 unless its quadrature norm is certified to NORM_TOL."""
    # each axis is allocated even when the other is empty
    _check_cap(max(params["n_rho"], 1) * max(params["n_phi"], 1), MAX_ROWS, "--n-rho * --n-phi")
    if not 0.0 <= params["rho_max"] < math.inf:
        raise click.UsageError(f"--rho-max must be nonnegative and finite, got {params['rho_max']}")
    zeta = complex(params["zeta_re"], params["zeta_im"])
    n_l, m_n = params["n_l"], params["m_n"]
    if n_l < 0 or m_n < 0:
        raise ValueError("n_l and m_n must be nonnegative")
    coeffs = su11_ncs_coefficients(0.5 * (m_n + 1), n_l, zeta).coeffs
    quad = wavefunc.quadrature_inner_product(coeffs, coeffs, m_n, tol=NORM_TOL)
    norm = quad.value.real
    if not abs(norm - 1.0) <= NORM_TOL:
        raise QuadratureError(f"quadrature norm {norm:.9g} is not 1 within {NORM_TOL:.0e}")
    rho = np.linspace(0.0, params["rho_max"], params["n_rho"])
    phi = np.linspace(0.0, 2 * np.pi, params["n_phi"], endpoint=False)
    vals = wavefunc._radial_series(coeffs, m_n, rho[:, None], phi[None, :]).ravel()
    rows = table(rho=np.repeat(rho, len(phi)), phi=np.tile(phi, len(rho)),
                 re=vals.real, im=vals.imag, abs2=np.abs(vals) ** 2)
    emit_rows(
        rows,
        params["fmt"],
        params["out_path"],
        meta={"norm_estimate": norm, "norm_error_estimate": quad.error_estimate,
              "n_l": n_l, "m_n": m_n, "zeta_re": zeta.real, "zeta_im": zeta.imag},
    )


@main.command("coherent-state")
@output_options
@click.option("--algebra", type=click.Choice(["su11", "su2"]), default="su11", show_default=True)
@click.option("--k", type=float, default=0.5, show_default=True, help="Bargmann index (su11).")
@click.option("--n", type=int, default=0, show_default=True, help="Excitation (su11).")
@click.option("--j", type=float, default=1.0, show_default=True, help="Spin length (su2).")
@click.option("--mu", type=float, default=-1.0, show_default=True, help="Projection (su2).")
@click.option("--zeta-re", type=float, default=0.3, show_default=True)
@click.option("--zeta-im", type=float, default=0.0, show_default=True)
@click.option("--max-index", type=int, default=None)
def coherent_state(**params):
    """Number-coherent-state expansion coefficients."""
    zeta = complex(params["zeta_re"], params["zeta_im"])
    if params["algebra"] == "su11":
        coeffs = su11_ncs_coefficients(params["k"], params["n"], zeta, max_index=params["max_index"])
    else:
        coeffs = su2_ncs_coefficients(params["j"], params["mu"], zeta)
    c = coeffs.coeffs
    emit_rows(
        table(index=np.arange(len(c)), re=c.real, im=c.imag, abs2=np.abs(c) ** 2),
        params["fmt"],
        params["out_path"],
        meta={"algebra": params["algebra"], "norm_sq": coeffs.norm_sq,
              "zeta_re": zeta.real, "zeta_im": zeta.imag},
    )


@main.command()
@output_options
@click.option("--case", type=click.Choice(["ndpa", "coupled-osc"]), default="coupled-osc", show_default=True)
@click.option("--omega1", type=float, default=1.0, show_default=True)
@click.option("--omega2", type=float, default=2.0, show_default=True)
@click.option("--phase", type=float, default=0.0, show_default=True)
@click.option("--charge", type=int, default=None, help="Sector charge (default: 0 for ndpa, 2 for coupled-osc).")
@click.option("--index", type=int, default=1, show_default=True)
@click.option("--scales", default="1e4,1e5,1e6", show_default=True)
def limits(**params):
    """Weak-coupling limit study across mass scales, with decay exponent."""
    case = _CASES[params["case"]](params["omega1"], params["omega2"], params["phase"])
    charge = params["charge"]
    if charge is None:
        charge = 0 if params["case"] == "ndpa" else 2
    try:
        scales = [float(s) for s in params["scales"].split(",") if s]
    except ValueError as exc:
        raise click.UsageError(f"bad --scales list: {params['scales']}") from exc
    # the limit level is solved once, for every scale and the exponent
    reports = spectra.nonrelativistic_limit_checks(case, charge, params["index"], scales)
    rows = table(
        scale=scales,
        eps_model=[r.eps_model for r in reports],
        eps_analytic=[r.eps_analytic for r in reports],
        offset=[r.offset for r in reports],
        rel_error=[r.rel_error for r in reports],
    )
    meta = {"case": params["case"], "charge": charge, "index": params["index"]}
    if len(scales) >= 2:
        meta["decay_exponent"] = spectra.decay_exponent(reports)
    emit_rows(rows, params["fmt"], params["out_path"], meta=meta)


if __name__ == "__main__":
    main()
