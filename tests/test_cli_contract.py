"""Property tests of the CLI exit-code contract over all six commands.

Every argv ends in one of three ways: exit 0 with strict JSON (no NaN or
Infinity), exit 1 from ``verify`` with at least one FAIL row, or exit 2
with one ``Error:`` line. None ends in a traceback. The argv strategies
draw negative, zero, NaN and infinite values (and, for ``spectrum``,
couplings, ``--mc2`` and ``--hbar`` whose squares overflow), out-of-range
sectors, charges and indices, and duplicate or nonpositive ``--scales``; sizes stay
small (cutoff <= 48, grids <= 24 points) so the whole file runs in a few
seconds; coherent states reach j = 300, n = 200 and |zeta| = 0.99, and
wavefunctions n_l, m_n = 40 and |zeta| components 0.99, now and then
n_l = 400, m_n = 2000 or 10^9 and |zeta| components 0.999, where an exit 0
must carry a norm within 1e-7 of 1. Sizes above their caps are drawn too:
coherent-state ladders longer than ``MAX_LADDER_LENGTH``, ``spectrum`` and
``wavefunction`` tables longer than ``MAX_ROWS`` and ``diagonalize`` and
``verify`` cutoffs above ``MAX_CUTOFF``; they must exit 2 before anything of
that size is allocated. An ``--mc2`` whose square underflows and a NaN
``--tol`` must exit 2 up front, with no RuntimeWarning on the way.
"""

import json
import math
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twomode_jcx import cli, spectra, wavefunc
from twomode_jcx.cli import MAX_CUTOFF, MAX_ROWS, main
from twomode_jcx.displace import MAX_LADDER_LENGTH


def _contract(max_examples):
    """Reproducible runs: fixed examples, no example database, no deadline."""
    return settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)


SPECIALS = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]


def _reals(lo, hi):
    """Finite floats in [lo, hi] or one of the edge values a user can type."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(SPECIALS))


def _flags(options):
    """argv fragment: each ``--flag value`` pair present or absent."""
    parts = [
        st.one_of(st.just([]), values.map(lambda v, flag=flag: [flag, str(v)]))
        for flag, values in options.items()
    ]
    return st.tuples(*parts).map(lambda ps: [tok for part in ps for tok in part])


def _model_flags(coupling, scale=_reals(-2.0, 3.0)):
    return _flags({
        "--model": st.sampled_from(["jc-ajc", "jc-jc"]),
        "--case": st.sampled_from(["dirac1p1", "dirac2p1", "ndpa", "coupled-osc"]),
        "--f-re": coupling,
        "--f-im": coupling,
        "--g-re": coupling,
        "--g-im": coupling,
        "--omega1": _reals(-1.0, 2.0),
        "--omega2": _reals(-1.0, 2.0),
        "--phase": _reals(-4.0, 4.0),
        "--mc2": scale,
        "--hbar": scale,
    })


def _argv(command, *fragments):
    return st.tuples(*fragments).map(
        lambda ps: [command, *(tok for part in ps for tok in part), "--format", "json"]
    )


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _run(argv):
    """Invoke the CLI and check the part of the contract every command shares."""
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, repr(result.exception))
    assert "Traceback" not in result.output, (argv, result.output)
    if result.exit_code == 2:
        errors = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
        assert len(errors) == 1, (argv, result.output)
    if result.exit_code == 0:
        _strict_json(result.stdout)
    return result


# Sizes just and far above their caps.
OVER_ROWS = [MAX_ROWS + 1, 10**18]
OVER_CUTOFF = [MAX_CUTOFF + 1, 10**18]

# Values whose squares or products overflow a double: a spectrum must exit 2
# with one line for them, not end in a numpy overflow warning.
HUGE = [1e150, -1e154, 1e154, 1e200]
SPECTRUM = _argv(
    "spectrum",
    _model_flags(st.one_of(_reals(-3.0, 3.0), st.sampled_from(HUGE)),
                 scale=st.one_of(_reals(-2.0, 3.0), st.sampled_from(HUGE))),
    _flags({
        "--nmax": st.one_of(st.integers(-2, 6), st.sampled_from(OVER_ROWS)),
        "--mmax": st.one_of(st.integers(-2, 6), st.sampled_from(OVER_ROWS)),
    }),
)

DIAGONALIZE = _argv(
    "diagonalize",
    _model_flags(_reals(-3.0, 3.0)),
    _flags({
        "--cutoff": st.one_of(st.integers(-2, 48), st.sampled_from(OVER_CUTOFF)),
        "--count": st.integers(-2, 12),
        "--component": st.sampled_from(["upper", "lower"]),
    }),
    st.lists(st.integers(-60, 60), max_size=3).map(
        lambda qs: [tok for q in qs for tok in ("--sector", str(q))]
    ),
)

# Small couplings let some cutoff <= 48 runs pass, and a tiny --tol turns
# passes into FAILs, so exits 0 and 1 are drawn as well as 2. The presets and
# the mc2/hbar checks are shared with spectrum and diagonalize.
VERIFY_COUPLING = st.sampled_from([0.0, 0.1, 0.2, 0.5, -0.3, 1.0, 2.0, math.nan, math.inf])
VERIFY = _argv(
    "verify",
    _flags({
        "--f-re": VERIFY_COUPLING,
        "--f-im": VERIFY_COUPLING,
        "--g-re": VERIFY_COUPLING,
        "--g-im": VERIFY_COUPLING,
        "--cutoff": st.one_of(st.integers(-3, 48), st.sampled_from(OVER_CUTOFF)),
        "--seed": st.integers(-2, 5),
        "--tol": st.sampled_from([1e-30, 1e-8, 1.0, 0.0, -1.0, math.nan, math.inf]),
    }),
    st.sampled_from([[], ["--timing"]]),
)

# Labels and |zeta| drawn now and then far out: the norm rule grows with
# the state (2000 nodes at m_n = 2000) until its node cap refuses it.
WAVEFUNCTION_ZETA = st.one_of(st.floats(-0.99, 0.99), st.sampled_from([*SPECIALS, 0.999, -0.999]))
WAVEFUNCTION = _argv(
    "wavefunction",
    _flags({
        "--n-l": st.sampled_from([*range(-2, 41), 400]),
        "--m-n": st.sampled_from([*range(-2, 41), 2000, 10**9]),
        "--zeta-re": WAVEFUNCTION_ZETA,
        "--zeta-im": WAVEFUNCTION_ZETA,
        "--rho-max": _reals(-1.0, 6.0),
        "--n-rho": st.one_of(st.integers(-2, 24), st.sampled_from(OVER_ROWS)),
        "--n-phi": st.one_of(st.integers(-2, 24), st.sampled_from(OVER_ROWS)),
    }),
)

# Ladder lengths (n + 1, max_index + 1) just and far above the cap.
OVER_CAP = [MAX_LADDER_LENGTH, 10**18]
COHERENT_STATE = _argv(
    "coherent-state",
    _flags({
        "--algebra": st.sampled_from(["su11", "su2"]),
        "--k": _reals(-1.0, 5.0),
        "--n": st.one_of(st.integers(-2, 200), st.sampled_from(OVER_CAP)),
        "--j": st.sampled_from(
            [-1.0, 0.0, 0.3, 0.5, 1.0, 1.5, 3.0, 8.0, 24.0, 299.5, 300.0, math.nan, math.inf]
            + [MAX_LADDER_LENGTH / 2, 1e300]
        ),
        "--mu": st.one_of(
            st.integers(-9, 9).map(lambda m: m / 2),
            st.integers(-600, 600).map(lambda m: m / 2),
            st.sampled_from(SPECIALS),
        ),
        "--zeta-re": _reals(-0.99, 0.99),
        "--zeta-im": _reals(-0.99, 0.99),
        "--max-index": st.one_of(st.integers(-2, 60), st.sampled_from(OVER_CAP)),
    }),
)

LIMITS = _argv(
    "limits",
    _flags({
        "--case": st.sampled_from(["ndpa", "coupled-osc"]),
        "--omega1": _reals(-1.0, 3.0),
        "--omega2": _reals(-1.0, 3.0),
        "--phase": _reals(-4.0, 4.0),
        "--charge": st.integers(-5, 200),
        "--index": st.integers(-2, 5),
        "--scales": st.lists(
            st.sampled_from(["1e4", "1e5", "1e6", "-1", "0", "nan", "inf", "x"]), max_size=4
        ).map(",".join),
    }),
)


@_contract(40)
@given(argv=SPECTRUM)
def test_spectrum_contract(argv):
    _run(argv)


@pytest.mark.parametrize("model", ["jc-ajc", "jc-jc"])
@pytest.mark.parametrize("flags, error", [
    (["--f-re", "1e154", "--g-re", "1"], "Error: non-finite number in output; refusing to serialize"),
    (["--f-re", "1e150", "--hbar", "1e150"], "Error: non-finite number in output; refusing to serialize"),
    (["--hbar", "1e160"], "Error: numeric overflow: hbar² overflows float64"),
    (["--mc2", "1e200"], "Error: numeric overflow: mc2² overflows float64"),
    (["--g-re", "1e200"], "Error: numeric overflow: g² overflows float64"),
])
def test_spectrum_overflow_exits_2(model, flags, error):
    # an overflowing array element reaches the encoder as inf or nan, and
    # a parameter whose square overflows is refused by name
    result = _run(["spectrum", "--model", model, *flags, "--nmax", "3", "--mmax", "3",
                   "--format", "json"])
    assert result.exit_code == 2, result.output
    assert error in result.output, result.output


@pytest.mark.parametrize("argv, error", [
    (["verify", "--mc2", "1e-170"], "Error: mc2² underflows float64"),
    (["verify", "--mc2", "1e-300"], "Error: mc2² underflows float64"),
    (["diagonalize", "--mc2", "1e-300", "--f-re", "0", "--g-re", "0"],
     "Error: mc2² underflows float64"),
    (["verify", "--tol", "nan"], "Error: --tol must be a number, got nan"),
])
def test_refused_up_front_without_a_warning(argv, error):
    # an m²c⁴ below the smallest normal double reached 0/0 in the relative
    # checks, and a NaN --tol reached the encoder as a NaN cell
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = _run([*argv, "--format", "json"])
    assert result.exit_code == 2, result.output
    assert error in result.output, result.output


@_contract(40)
@given(argv=DIAGONALIZE)
def test_diagonalize_contract(argv):
    _run(argv)


@_contract(15)
@given(argv=VERIFY)
def test_verify_contract(argv):
    result = _run(argv)
    if result.exit_code in (0, 1):
        statuses = {row["status"] for row in _strict_json(result.stdout)["rows"]}
        assert ("FAIL" in statuses) == (result.exit_code == 1), (argv, statuses)


@_contract(60)
@given(argv=WAVEFUNCTION)
@example(argv=["wavefunction", "--m-n", "2000", "--format", "json"])
@example(argv=["wavefunction", "--m-n", str(10**9), "--format", "json"])
@example(argv=["wavefunction", "--n-l", "400", "--zeta-im", "0.5", "--format", "json"])
@example(argv=["wavefunction", "--zeta-re", "0.999", "--format", "json"])
def test_wavefunction_contract(argv):
    result = _run(argv)
    if result.exit_code == 0:
        norm = _strict_json(result.stdout)["meta"]["norm_estimate"]
        assert abs(norm - 1.0) <= 1e-7, (argv, norm)


@_contract(40)
@given(argv=COHERENT_STATE)
def test_coherent_state_contract(argv):
    _run(argv)


@pytest.mark.parametrize("argv", [
    ["--algebra", "su2", "--j", str(MAX_LADDER_LENGTH / 2), "--mu", "0"],
    ["--algebra", "su2", "--j", "1e300", "--mu", "0", "--zeta-re", "0"],
    ["--max-index", str(MAX_LADDER_LENGTH)],
    ["--max-index", str(10**18), "--zeta-re", "0.99"],
    ["--n", str(10**18), "--zeta-re", "0"],
])
def test_coherent_state_over_cap_exits_before_allocating(argv):
    result = _run(["coherent-state", *argv])
    assert result.exit_code == 2, (argv, result.output)
    assert f"exceeds the cap of {MAX_LADDER_LENGTH}" in result.output, result.output


@pytest.mark.parametrize("argv, flag, cap", [
    (["spectrum", "--nmax", str(10**18), "--mmax", "-1"], "(--nmax + 1)(--mmax + 1)", MAX_ROWS // 4),
    (["spectrum", "--model", "jc-jc", "--nmax", "181", "--mmax", "180"],
     "(--nmax + 1)(--mmax + 1)", MAX_ROWS // 4),
    (["diagonalize", "--cutoff", str(MAX_CUTOFF + 1)], "--cutoff", MAX_CUTOFF),
    (["diagonalize", "--cutoff", str(10**18), "--sector", "0"], "--cutoff", MAX_CUTOFF),
    (["verify", "--cutoff", str(MAX_CUTOFF + 1)], "--cutoff", MAX_CUTOFF),
    (["verify", "--cutoff", str(10**18), "--f-re", "1", "--g-re", "2"], "--cutoff", MAX_CUTOFF),
    (["wavefunction", "--n-rho", str(10**18), "--n-phi", "0"], "--n-rho * --n-phi", MAX_ROWS),
    (["wavefunction", "--n-rho", "513", "--n-phi", "256"], "--n-rho * --n-phi", MAX_ROWS),
])
def test_sizes_over_cap_exit_before_computing(monkeypatch, argv, flag, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap command started computing")

    for owner, attr in [
        (spectra, "analytic_energy_su11"), (spectra, "analytic_energy_su2"),
        (spectra, "su11_sector_energy_sq"), (spectra, "su2_energy_sq"), (cli, "table"),
        (cli, "sector_basis"), (spectra, "numeric_spectrum"), (cli, "run_verification_suite"),
        (wavefunc, "quadrature_inner_product"), (wavefunc, "ncs_wavefunction_series"),
        (cli, "su11_ncs_coefficients"),
    ]:
        monkeypatch.setattr(owner, attr, refuse)
    result = _run([*argv, "--format", "json"])
    assert result.exit_code == 2, (argv, result.output)
    assert f"Error: {flag} = " in result.output, result.output
    assert f"exceeds the cap of {cap}" in result.output, result.output


@_contract(40)
@given(argv=LIMITS)
def test_limits_contract(argv):
    _run(argv)
