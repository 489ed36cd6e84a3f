"""Start-up: every command loads numpy and scipy's compiled LAPACK module
alone, never click (the CLI parses its own option tables) or
``dataclasses`` (each of its classes compiles generated code at import),
and ``tridiag``'s routines are the very objects ``scipy.linalg.lapack``
exports, however scipy is reached.

Each check runs in a fresh interpreter, since this test process has long
imported scipy.linalg, scipy.sparse and scipy.special.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import twomode_jcx

SRC = str(Path(twomode_jcx.__file__).resolve().parent.parent)

# modules no command may load
HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.special", "concurrent.futures", "dataclasses",
         "click")


def _run(*blocks: str) -> str:
    """stdout of the code ``blocks``, each dedented, run in turn in a fresh
    interpreter that imports twomode_jcx from SRC."""
    env = {**os.environ, "PYTHONPATH": SRC}
    code = "\n".join(map(textwrap.dedent, blocks))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_commands_load_no_heavy_module(tmp_path):
    out = _run(f"""
        import sys
        from twomode_jcx.cli import main

        HEAVY = {HEAVY!r}
        OUT = {str(tmp_path / "out.json")!r}
        argvs = [
            ["spectrum"],
            ["diagonalize"],
            ["diagonalize", "--model", "jc-jc"],
            ["coherent-state"],
            ["coherent-state", "--algebra", "su2"],
            ["limits"],
            ["limits", "--case", "ndpa"],
            ["verify"],
            ["wavefunction"],
            ["wavefunction", "--zeta-re", "0.5", "--n-l", "2", "--m-n", "3"],
        ]
        for argv in argvs:
            main([*argv, "--out", OUT], standalone_mode=False)
            loaded = [m for m in HEAVY if m in sys.modules]
            assert not loaded, (argv, loaded)
        assert "scipy.linalg._flapack" in sys.modules
        print("ok")
    """)
    assert out.strip() == "ok"


IDENTITY = """
    import scipy.linalg
    import scipy.linalg.lapack as lapack
    from twomode_jcx import tridiag

    for name in ("dstebz", "dstein", "dsterf", "dstevd"):
        assert getattr(tridiag, name) is getattr(lapack, name), name
    assert tridiag.LinAlgError is scipy.linalg.LinAlgError
"""


def test_routines_are_scipys_when_scipy_linalg_comes_first():
    _run("import scipy.linalg\nimport twomode_jcx", IDENTITY)


def test_routines_are_scipys_when_scipy_linalg_comes_after():
    _run("""
        import sys
        import twomode_jcx.cli

        assert "scipy.linalg" not in sys.modules
    """, IDENTITY)


def test_missing_extension_falls_back_to_the_public_module():
    # no suffix names an extension file, so the loader finds none and
    # tridiag imports the routines from scipy.linalg.lapack
    _run("""
        import importlib.machinery
        import sys

        importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
        from twomode_jcx import tridiag

        assert tridiag._flapack is None
        assert "scipy.linalg.lapack" in sys.modules
    """, IDENTITY)
