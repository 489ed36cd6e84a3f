"""Command-line surface: spectra, diagonalization, verification, samples.

Output contract: JSON is one top-level object with a ``schema_version``
field; CSV is UTF-8, comma-separated, LF line endings, mandatory header
row, floats printed with 17 significant digits, metadata appended as
``# key=value`` comment lines. Exit codes: 0 success, 1 verification
failure, 2 usage or domain errors. The command group is the one place where
a library exception becomes exit 2; commands translate none themselves.
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
# build_basis stays bound here: the benchmark's span tests (bench/) check
# that by-name imports such as cli.build_basis are traced and restored.
from .fock import ChargeKind, build_basis, sector_basis  # noqa: F401
from .models import Branch, Component, ModelKind, ModelParams, conserved_charge
from .parallel import parallel_map
from .verify import run_verification_suite

SCHEMA_VERSION = 1
# wavefunction norm: node-doubling change and |norm - 1| (README, bench)
NORM_TOL = 1e-7
# Most rows a table may hold (spectrum, wavefunction): as many as the
# longest coherent-state ladder, displace.MAX_LADDER_LENGTH.
MAX_ROWS = MAX_LADDER_LENGTH
# Largest diagonalize cutoff. Cutoff doubling solves each sector again on up
# to 2 cutoff + 1 states; with --count near the sector size it keeps every
# eigenvector of that ladder, 4095² doubles (134 MB) at the cap.
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


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise click.UsageError(_NON_FINITE)
    return x


def _fmt_float(x: float) -> str:
    return f"{_finite(x):.17g}"


_JSON_LITERALS = {None: "null", True: "true", False: "false"}
# The C encoders json.dumps applies to these exact scalar types.
_JSON_BY_TYPE = {float: float.__repr__, int: int.__repr__, str: _json_str}


def _json_value(value, pad: str) -> str:
    """``value`` as json.dumps(value, indent=2) writes it, nested at indent
    ``pad``; a non-finite float exits 2.

    json.dumps falls back to its pure-Python encoder when it indents, twice
    the time of its C encoder on a 6 400-row table. Here each dict key of a
    list of like dicts is encoded once, and each column of values in one
    pass of json's C scalar encoders (``_json_column``).
    """
    if isinstance(value, dict):
        return _json_dicts([value], pad)[0]
    if not isinstance(value, list):
        return _json_scalar(value)
    if not value:
        return "[]"
    inner = pad + "  "
    keys = list(value[0]) if isinstance(value[0], dict) else None
    if keys is not None and all(isinstance(v, dict) and list(v) == keys for v in value):
        items = _json_dicts(value, inner)
    else:
        items = [_json_value(v, inner) for v in value]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _json_dicts(dicts: list, pad: str) -> list:
    """Each of ``dicts``, which share their string keys in order, as JSON at ``pad``."""
    keys = list(dicts[0])
    if not keys:
        return ["{}"] * len(dicts)
    inner = pad + "  "
    fields = (_json_str(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys)
    template = f"{{{{\n{inner}" + f",\n{inner}".join(fields) + f"\n{pad}}}}}"
    columns = [_json_column([d[k] for d in dicts], inner) for k in keys]
    return list(map(template.format, *columns))


def _json_column(values: list, pad: str) -> list:
    kinds = set(map(type, values))
    encode = _JSON_BY_TYPE.get(kinds.pop()) if len(kinds) == 1 else None
    if encode is None:
        return [_json_value(v, pad) for v in values]
    if encode is float.__repr__ and not all(map(math.isfinite, values)):
        raise click.UsageError(_NON_FINITE)
    return list(map(encode, values))


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if value is None or isinstance(value, bool):
        return _JSON_LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(_finite(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_rows(rows, fmt: str, out_path: str | None, meta: dict | None = None,
              fields: list | None = None):
    """Serialize a list of flat dicts; deterministic field order.

    ``fields`` supplies the CSV header when the table is empty (the header
    row is part of the format contract either way). JSON is byte-equal to
    ``json.dumps(payload, indent=2) + "\n"``; a non-finite float exits 2.
    """
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, "rows": rows}
        if meta:
            payload["meta"] = meta
        text = _json_value(payload, "") + "\n"
    else:
        header = list(rows[0].keys()) if rows else list(fields or [])
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for key in header:
                v = row[key]
                cells.append(_fmt_float(v) if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        if meta:
            for k, v in meta.items():
                lines.append(f"# {k}={_fmt_float(v) if isinstance(v, float) else v}")
        text = "\n".join(lines) + "\n"
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
        click.option("--omega", "omega1", type=float, default=0.1, show_default=True, help="Preset frequency (alias of --omega1)."),
        click.option("--omega1", "omega1", type=float, default=0.1),
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
    rows = []
    for n_l in range(params["nmax"] + 1):
        for m_n in range(params["mmax"] + 1):
            for branch in (Branch.PLUS, Branch.MINUS):
                if kind is ModelKind.JC_AJC:
                    levels = [spectra.analytic_energy_su11(p, n_l, m_n, branch)]
                else:
                    levels = [
                        spectra.analytic_energy_su2(p, n_l, m_n, branch, inner)
                        for inner in ((1,) if m_n == 0 else (1, -1))
                    ]
                for lvl in levels:
                    rows.append(
                        {
                            "n_l": n_l,
                            "m_n": m_n,
                            "branch": lvl.branch.name.lower(),
                            "inner_sign": lvl.inner_sign.name.lower(),
                            "energy": lvl.energy,
                        }
                    )
    emit_rows(rows, params["fmt"], params["out_path"], meta={"model": kind.value},
              fields=["n_l", "m_n", "branch", "inner_sign", "energy"])


@main.command()
@model_options
@output_options
@click.option("--cutoff", type=int, default=120, show_default=True)
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
    component = Component(params["component"])

    def solve(sec):
        count = min(params["count"], sec.dim)
        vals = spectra.numeric_spectrum(kind, component, p, sec, count)
        return [
            {"sector": sec.charge_value, "level": i, "energy_sq": float(v)}
            for i, v in enumerate(vals)
        ]

    rows = [row for chunk in parallel_map(solve, sectors) for row in chunk]
    emit_rows(
        rows,
        params["fmt"],
        params["out_path"],
        meta={"model": kind.value, "cutoff": params["cutoff"], "component": params["component"]},
        fields=["sector", "level", "energy_sq"],
    )


@main.command()
@model_options
@output_options
@click.option("--cutoff", type=int, default=120, show_default=True)
@click.option("--seed", type=int, default=2024, show_default=True)
@click.option("--tol", type=float, default=None,
              help="Tighten every tolerance to at most this value.")
@click.option("--timing", is_flag=True, default=False,
              help="Include wall-clock runtimes (breaks byte-identical output).")
def verify(**params):
    """Run the full self-verification suite; exit 0 iff every record passes."""
    p, kind = _resolve_model(params)
    report = run_verification_suite(p, cutoff=params["cutoff"], seed=params["seed"])
    rows = []
    for r in report.records:
        # Tighten-only: no flag can turn a FAIL into a PASS.
        tol = r.tolerance if params["tol"] is None else min(params["tol"], r.tolerance)
        status = r.status
        if status != "SKIP" and params["tol"] is not None:
            status = "PASS" if r.residual <= tol else "FAIL"
        row = {
            "name": r.name,
            "anchor": r.anchor,
            "computed": r.computed,
            "reference": r.reference,
            "residual": r.residual,
            "tolerance": tol if status != "SKIP" else 0.0,
            "status": status,
            "detail": r.detail,
        }
        if params["timing"]:
            row["runtime_s"] = r.runtime if r.runtime is not None else 0.0
        rows.append(row)
    emit_rows(
        rows,
        params["fmt"],
        params["out_path"],
        meta={"model": kind.value, "seed": params["seed"], "cutoff": params["cutoff"]},
    )
    n_fail = sum(1 for row in rows if row["status"] == "FAIL")
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
    fn = lambda r, p: wavefunc.ncs_wavefunction_series(zeta, n_l, m_n, r, p)
    rho = np.linspace(0.0, params["rho_max"], params["n_rho"])
    phi = np.linspace(0.0, 2 * np.pi, params["n_phi"], endpoint=False)
    quad = wavefunc.quadrature_inner_product(fn, fn, tol=NORM_TOL)
    norm = quad.value.real
    if not abs(norm - 1.0) <= NORM_TOL:
        raise QuadratureError(f"quadrature norm {norm:.9g} is not 1 within {NORM_TOL:.0e}; "
                              "the state is not resolved by the Gauss-Laguerre rule")
    rows = [
        {"rho": float(r), "phi": float(p), "re": float(v.real), "im": float(v.imag),
         "abs2": float(np.abs(v) ** 2)}
        for r, vals_r in zip(rho, fn(rho[:, None], phi[None, :]))
        for p, v in zip(phi, vals_r)
    ]
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
    rows = [
        {"index": i, "re": float(c.real), "im": float(c.imag), "abs2": float(abs(c) ** 2)}
        for i, c in enumerate(coeffs.coeffs)
    ]
    emit_rows(
        rows,
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
    rows = []
    for s in scales:
        rep = spectra.nonrelativistic_limit_check(case, charge, params["index"], s)
        rows.append(
            {
                "scale": s,
                "eps_model": rep.eps_model,
                "eps_analytic": rep.eps_analytic,
                "offset": rep.offset,
                "rel_error": rep.rel_error,
            }
        )
    meta = {"case": params["case"], "charge": charge, "index": params["index"]}
    if len(scales) >= 2:
        meta["decay_exponent"] = spectra.limit_decay_exponent(case, charge, params["index"], scales)
    emit_rows(rows, params["fmt"], params["out_path"], meta=meta)


if __name__ == "__main__":
    main()
