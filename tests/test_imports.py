"""The package runs on numpy alone: scipy is a test-only dependency, and
quadrature nodes computed by LAPACK (numpy.polynomial.legendre.leggauss)
would make the report bytes depend on the machine's linear-algebra build."""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_cli_imports_neither_scipy_nor_numpy_polynomial():
    probe = (
        "import sys, reliatree.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
