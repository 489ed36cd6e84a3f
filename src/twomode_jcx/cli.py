"""Command-line surface: spectra, diagonalization, verification, samples.

Output contract: each command builds one ``table`` of typed columns. JSON
is one top-level object with a ``schema_version`` field; CSV is UTF-8,
comma-separated, LF line endings, mandatory header row, floats printed with
17 significant digits, a string raw unless it holds a comma, a double quote,
CR or LF, in which case it is double-quoted with inner quotes doubled
(RFC 4180), metadata appended as ``# key=value`` comment lines.
Exit codes: 0 success, 1 verification failure, 2 usage or domain errors,
each of which is one ``Error:`` line on stderr. ``main`` is the one place
where a library exception becomes exit 2; commands translate none
themselves.

Arguments are parsed from one option table per command, built at import:
each row (``Option``) holds an option's names, the key of its value, how
its values read, its default and its help. ``main`` reads
``[--config FILE] COMMAND [--opt VALUE | --opt=VALUE | --flag]...`` in one
pass; the same rows write ``--help`` and check the ``--config`` defaults.
A value is the next argument whatever it looks like, so ``--f-re -1e-05``
and ``--g-im -inf`` reach the command.
"""

from __future__ import annotations

import codecs
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, NamedTuple

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


class UsageError(Exception):
    """A usage or domain error: ``main`` writes it as one ``Error:`` line
    and exits 2."""


def _echo(text: str, stream) -> None:
    """Write ``text`` to ``stream`` and flush. A stream whose encoding is
    ASCII gets UTF-8 on its byte buffer instead, so that ``verify``'s CSV
    details and errors such as ``hbar² overflows`` still write."""
    encoding = getattr(stream, "encoding", None) or "ascii"
    buffer = getattr(stream, "buffer", None)
    if buffer is not None and codecs.lookup(encoding).name == "ascii":
        stream.flush()
        buffer.write(text.encode("utf-8", "replace"))
        buffer.flush()
    else:
        stream.write(text)
        stream.flush()


def _check_cap(value: int, cap: int, what: str) -> None:
    """Exit 2 with one line, before anything is allocated, when ``value`` > ``cap``."""
    if value > cap:
        raise UsageError(f"{what} = {value} exceeds the cap of {cap}")


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
        raise UsageError(_NON_FINITE)
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
        _echo(text, sys.stdout)


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


class OptionType(NamedTuple):
    """How an option's values read: ``metavar`` names them in ``--help``, and
    ``convert`` turns a command-line string or a ``--config`` value into one,
    raising ValueError with the reason it cannot."""

    metavar: str
    convert: Callable[[object], object]


class Option(NamedTuple):
    """One row of a command's option table: the names it answers to, the
    key of its value in the command's params and in ``--config``, how its
    values read, its default and its help. A ``multiple`` option keeps every
    value given, in order; any other keeps the last."""

    names: tuple
    dest: str
    type: OptionType
    default: object = None
    help: str = ""
    multiple: bool = False


def _number(cast: type, name: str, minimum=None) -> OptionType:
    """``cast`` (int or float) of a value, refused below ``minimum``."""

    def convert(value):
        try:
            number = cast(value)
        except (TypeError, ValueError):
            raise ValueError(f"{value!r} is not a valid {name}.") from None
        if minimum is not None and number < minimum:  # NaN passes: verify names a NaN --tol
            raise ValueError(f"{number!r} is not in the range x>={minimum!r}.")
        return number

    return OptionType(name.upper(), convert)


def _choice(*choices: str) -> OptionType:
    """One of ``choices``, exactly."""

    def convert(value):
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(map(repr, choices))}.")
        return value

    return OptionType(f"[{'|'.join(choices)}]", convert)


def _file(must_exist: bool) -> OptionType:
    """A file path; a directory is refused, and so is a missing file when
    ``must_exist``."""

    def convert(value):
        if not isinstance(value, str):
            raise ValueError(f"{value!r} is not a file path.")
        if os.path.isdir(value):
            raise ValueError(f"File '{value}' is a directory.")
        if must_exist and not os.path.exists(value):
            raise ValueError(f"File '{value}' does not exist.")
        return value

    return OptionType("FILE", convert)


def _flag(value) -> bool:
    """A flag's ``--config`` value; on the command line a flag takes none."""
    word = str(value).strip().lower()
    if word in ("1", "true", "t", "yes", "y", "on"):
        return True
    if word in ("0", "false", "f", "no", "n", "off"):
        return False
    raise ValueError(f"{value!r} is not a valid boolean.")


INT = _number(int, "integer")
FLOAT = _number(float, "float")
TEXT = OptionType("TEXT", str)
FLAG = OptionType("", _flag)


def _opt(*names: str, type: OptionType, default=None, help: str = "", dest: str | None = None,
         multiple: bool = False) -> Option:
    """An ``Option`` whose key is its first name, dashes as underscores, unless given."""
    return Option(names, dest or names[0][2:].replace("-", "_"), type, default, help, multiple)


MODEL_OPTIONS = (
    _opt("--model", type=_choice("jc-ajc", "jc-jc"), default="jc-ajc"),
    _opt("--case", type=_choice(*sorted(_CASES)), help="Named preset; overrides --model and the couplings."),
    _opt("--f-re", type=FLOAT, default=2.0),
    _opt("--f-im", type=FLOAT, default=0.0),
    _opt("--g-re", type=FLOAT, default=1.0),
    _opt("--g-im", type=FLOAT, default=0.0),
    _opt("--omega1", "--omega", type=FLOAT, default=0.1, help="Preset frequency."),
    _opt("--omega2", type=FLOAT, default=0.2),
    _opt("--phase", type=FLOAT, default=0.0),
    _opt("--mc2", type=FLOAT, default=1.0),
    _opt("--hbar", type=FLOAT, default=1.0),
)
OUTPUT_OPTIONS = (
    _opt("--format", type=_choice("json", "csv"), default="json", dest="fmt"),
    _opt("--out", type=_file(must_exist=False), dest="out_path"),
)


HELP = _opt("--help", type=FLAG, help="Show this message and exit.")


class _Command(NamedTuple):
    """A command: its function, called with one keyword per option, its
    option table, and each name of each option (``--help`` too) mapped once
    to its row."""

    run: Callable
    options: tuple
    by_name: dict


def _table(run: Callable, options: tuple) -> _Command:
    return _Command(run, options, {name: opt for opt in (*options, HELP) for name in opt.names})


COMMANDS: dict = {}


def _command(*options: Option, name: str | None = None):
    """Register the decorated function as the command ``name`` (default: its own)."""

    def register(fn):
        COMMANDS[name or fn.__name__] = _table(fn, options)
        return fn

    return register


@_command(
    *MODEL_OPTIONS, *OUTPUT_OPTIONS,
    _opt("--nmax", type=INT, default=5),
    _opt("--mmax", type=INT, default=5),
)
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


@_command(
    *MODEL_OPTIONS, *OUTPUT_OPTIONS,
    _opt("--cutoff", type=INT, default=120,
         help="Fock cutoff per mode. It truncates the JC+AJC (N_d) ladders, which "
              "doubling it certifies; a JC+JC sector is solved whole, and the cutoff "
              "only admits N_s <= 2 cutoff."),
    _opt("--sector", type=INT, dest="sectors", multiple=True, default=(),
         help="Charge values; repeatable. Default: small symmetric range."),
    _opt("--count", type=INT, default=8),
    _opt("--component", type=_choice("upper", "lower"), default="upper"),
)
def diagonalize(**params):
    """Numeric sector spectra (E^2 values) with convergence certification."""
    if params["cutoff"] < 4:
        raise UsageError("--cutoff must be at least 4")
    _check_cap(params["cutoff"], MAX_CUTOFF, "--cutoff")
    if params["count"] < 1:
        raise UsageError("--count must be at least 1")
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


@_command(
    *MODEL_OPTIONS, *OUTPUT_OPTIONS,
    _opt("--cutoff", type=INT, default=120),
    _opt("--seed", type=_number(int, "integer", minimum=0), default=2024),
    _opt("--tol", type=_number(float, "float", minimum=0.0),
         help="Tighten every tolerance to at most this value."),
    _opt("--timing", type=FLAG, default=False,
         help="Include wall-clock runtimes (breaks byte-identical output)."),
)
def verify(**params):
    """Run the full self-verification suite; exit 0 iff every record passes."""
    if params["cutoff"] < 10:
        # the suite asks the N_d = -3 sector, of cutoff - 2 states, for 8 levels
        raise UsageError("--cutoff must be at least 10")
    _check_cap(params["cutoff"], MAX_CUTOFF, "--cutoff")
    if params["tol"] is not None and math.isnan(params["tol"]):
        raise UsageError("--tol must be a number, got nan")
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
        _echo(f"{n_fail} verification record(s) failed\n", sys.stderr)
        sys.exit(1)


@_command(
    *OUTPUT_OPTIONS,
    _opt("--n-l", type=INT, default=0),
    _opt("--m-n", type=INT, default=0),
    _opt("--zeta-re", type=FLOAT, default=0.0),
    _opt("--zeta-im", type=FLOAT, default=0.0),
    _opt("--rho-max", type=FLOAT, default=4.0),
    _opt("--n-rho", type=INT, default=100),
    _opt("--n-phi", type=INT, default=64),
)
@np.errstate(over="raise")  # rho**2 at a huge --rho-max: an error, not a warning
def wavefunction(**params):
    """Sample the oscillator (zeta = 0) or coherent-state wavefunction on a
    polar grid; exit 2 unless its quadrature norm is certified to NORM_TOL."""
    # each axis is allocated even when the other is empty
    _check_cap(max(params["n_rho"], 1) * max(params["n_phi"], 1), MAX_ROWS, "--n-rho * --n-phi")
    if not 0.0 <= params["rho_max"] < math.inf:
        raise UsageError(f"--rho-max must be nonnegative and finite, got {params['rho_max']}")
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


@_command(
    *OUTPUT_OPTIONS,
    _opt("--algebra", type=_choice("su11", "su2"), default="su11"),
    _opt("--k", type=FLOAT, default=0.5, help="Bargmann index (su11)."),
    _opt("--n", type=INT, default=0, help="Excitation (su11)."),
    _opt("--j", type=FLOAT, default=1.0, help="Spin length (su2)."),
    _opt("--mu", type=FLOAT, default=-1.0, help="Projection (su2)."),
    _opt("--zeta-re", type=FLOAT, default=0.3),
    _opt("--zeta-im", type=FLOAT, default=0.0),
    _opt("--max-index", type=INT),
    name="coherent-state",
)
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


@_command(
    *OUTPUT_OPTIONS,
    _opt("--case", type=_choice("ndpa", "coupled-osc"), default="coupled-osc"),
    _opt("--omega1", type=FLOAT, default=1.0),
    _opt("--omega2", type=FLOAT, default=2.0),
    _opt("--phase", type=FLOAT, default=0.0),
    _opt("--charge", type=INT, help="Sector charge (default: 0 for ndpa, 2 for coupled-osc)."),
    _opt("--index", type=INT, default=1),
    _opt("--scales", type=TEXT, default="1e4,1e5,1e6"),
)
def limits(**params):
    """Weak-coupling limit study across mass scales, with decay exponent."""
    case = _CASES[params["case"]](params["omega1"], params["omega2"], params["phase"])
    charge = params["charge"]
    if charge is None:
        charge = 0 if params["case"] == "ndpa" else 2
    try:
        scales = [float(s) for s in params["scales"].split(",") if s]
    except ValueError as exc:
        raise UsageError(f"bad --scales list: {params['scales']}") from exc
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


_GROUP = _table(None, (_opt("--config", type=_file(must_exist=True),
                            help="JSON file with per-command defaults; CLI flags win."),))


def _no_such(what: str, name: str, known) -> str:
    """The refusal of an unknown ``name``, with its close matches among ``known``."""
    from difflib import get_close_matches  # loaded on this error alone

    matches = sorted(get_close_matches(name, known))
    hint = (f" Did you mean {matches[0]!r}?" if len(matches) == 1 else
            f" (Did you mean one of: {', '.join(map(repr, matches))}?)" if matches else "")
    return f"No such {what} {name!r}.{hint}"


def _parse(command: _Command, args: list, interspersed: bool):
    """One pass over ``args``: each given option's raw value (a list of them
    for a ``multiple`` one) by key, ``help`` among them, and the positional
    arguments; without ``interspersed`` the first positional argument ends
    the options, and it and all after it are returned."""
    given, positional = {}, []
    i = 0
    while i < len(args):
        token = args[i]
        i += 1
        if token == "--":
            positional += args[i:]
            break
        if token[:1] != "-" or token == "-":
            if not interspersed:
                positional += args[i - 1:]
                break
            positional.append(token)
            continue
        if token[:2] != "--":
            raise UsageError(_no_such("option", token[:2], ()))
        name, has_value, value = token.partition("=")
        opt = command.by_name.get(name)
        if opt is None:
            raise UsageError(_no_such("option", name, command.by_name))
        if opt.type is FLAG:
            if has_value:
                raise UsageError(f"Option {name!r} does not take a value.")
            value = True
        elif not has_value:
            if i == len(args):
                raise UsageError(f"Option {name!r} requires an argument.")
            value = args[i]
            i += 1
        if opt.multiple:
            given.setdefault(opt.dest, []).append(value)
        else:
            given[opt.dest] = value
    return given, positional


def _values(command: _Command, given: dict, defaults: dict) -> dict:
    """Each option's value: from the command line, else from ``--config``
    (where null stands for no value), else its default. Both sources pass
    the same converter; a value it refuses exits 2 naming the option."""
    params = {}
    for opt in command.options:
        raw = given.get(opt.dest, defaults.get(opt.dest))
        try:
            if raw is None:
                value = opt.default
            elif not opt.multiple:
                value = opt.type.convert(raw)
            elif isinstance(raw, list):
                value = tuple(map(opt.type.convert, raw))
            else:
                raise ValueError(f"{raw!r} is not a list.")
        except ValueError as exc:
            names = " / ".join(f"'{name}'" for name in opt.names)
            raise UsageError(f"Invalid value for {names}: {exc}") from None
        params[opt.dest] = value
    return params


def _load_config(path: str) -> dict:
    """The per-command defaults of a ``--config`` file, every command name
    and option key in it checked."""
    with open(path, encoding="utf-8") as fh:
        defaults = json.load(fh)
    if not (isinstance(defaults, dict) and all(isinstance(v, dict) for v in defaults.values())):
        raise UsageError("--config must hold a JSON object of per-command objects")
    for name, values in defaults.items():
        if name not in COMMANDS:
            raise UsageError("--config: " + _no_such("command", name, COMMANDS))
        keys = [opt.dest for opt in COMMANDS[name].options]
        for key in values:
            if key not in keys:
                raise UsageError("--config: " + _no_such(f"{name} option", key, keys))
    return defaults


def _about(fn) -> str:
    """The first paragraph of ``fn``'s docstring, on one line."""
    return " ".join(fn.__doc__.split("\n\n")[0].split())


def _help(usage: str, about: str, sections) -> str:
    """--help text: usage, ``about``, then each (title, rows) section in two
    columns, the right one wrapped."""
    import textwrap  # loaded by --help alone

    lines = [f"Usage: {usage}", "", textwrap.fill(about, 78, initial_indent="  ", subsequent_indent="  ")]
    for title, rows in sections:
        width = min(max(len(left) for left, _ in rows), 30)
        lines += ["", f"{title}:"]
        for left, right in rows:
            wrapped = textwrap.wrap(right, 74 - width, break_on_hyphens=False)
            if len(left) > width:
                lines.append(f"  {left}")
            else:
                lines.append(f"  {left:<{width}}  {wrapped.pop(0) if wrapped else ''}".rstrip())
            lines += [" " * (width + 4) + line for line in wrapped]
    return "\n".join(lines) + "\n"


def _option_rows(options) -> list:
    """(names and metavar, help and default) of each option and of --help."""
    rows = []
    for opt in (*options, HELP):
        shown = f"[default: {opt.default}]" if opt.default is not None and not opt.multiple else ""
        rows.append((" ".join(filter(None, [", ".join(opt.names), opt.type.metavar])),
                     "  ".join(filter(None, [opt.help, shown]))))
    return rows


def _run(args: list, prog: str) -> None:
    """Parse ``args`` and run the command they name, or write its help.

    The one boundary where a domain error becomes exit 2: package errors,
    ``ValueError``, ``ArithmeticError`` and ``OSError`` (an unwritable
    ``--out``) become a ``UsageError``, an overflow keeping a ``numeric
    overflow:`` prefix. ``verify``'s exit 1 is a ``SystemExit`` and passes
    through.
    """
    given, rest = _parse(_GROUP, args, interspersed=False)
    if given.pop("help", False):
        commands = [(name, _about(command.run)) for name, command in COMMANDS.items()]
        _echo(_help(f"{prog} [--config FILE] COMMAND [OPTIONS]", _about(main),
                    [("Options", _option_rows(_GROUP.options)), ("Commands", commands)]), sys.stdout)
        return
    config = _values(_GROUP, given, {})["config"]
    if not rest:
        raise UsageError(f"Missing command, one of: {', '.join(COMMANDS)} (see --help).")
    name, args = rest[0], rest[1:]
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(_no_such("command", name, COMMANDS))
    try:
        defaults = _load_config(config).get(name, {}) if config else {}
        given, extra = _parse(command, args, interspersed=True)
        if given.pop("help", False):
            _echo(_help(f"{prog} {name} [OPTIONS]", _about(command.run),
                        [("Options", _option_rows(command.options))]), sys.stdout)
            return
        params = _values(command, given, defaults)
        if extra:
            raise UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} "
                             f"({' '.join(extra)})")
        command.run(**params)
    except (TwoModeJcxError, ValueError, ArithmeticError, OSError) as exc:
        overflow = isinstance(exc, (OverflowError, FloatingPointError))
        raise UsageError(f"numeric overflow: {exc}" if overflow else str(exc)) from exc


def main(args=None, prog_name: str | None = None, standalone_mode: bool = True):
    """Two-mode spin-boson models: spectra, verification, and state samples.

    Runs one command on ``args`` (default ``sys.argv[1:]``). Standalone, it
    exits 0, 1 (a ``verify`` FAIL) or 2 after one ``Error:`` line; else it
    returns, or raises ``UsageError``.
    """
    try:
        _run(list(sys.argv[1:] if args is None else args), prog_name or main.name)
    except UsageError as exc:
        if not standalone_mode:
            raise
        _echo(f"Error: {exc}\n", sys.stderr)
        sys.exit(2)
    except KeyboardInterrupt:
        if not standalone_mode:
            raise
        _echo("\nAborted!\n", sys.stderr)
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)


# The calling convention of a click command, which click.testing.CliRunner
# and the benchmark use: main.main(args=..., prog_name=..., standalone_mode=...)
# and main.name.
main.main = main
main.name = "twomode-jcx"


if __name__ == "__main__":
    main()
