"""The package runs on numpy alone: scipy is a test-only dependency, and
quadrature nodes computed by LAPACK (numpy.polynomial.legendre.leggauss)
would make the report bytes depend on the machine's linear-algebra build."""
import subprocess
import sys

from conftest import package_env


def test_cli_imports_neither_scipy_nor_numpy_polynomial():
    probe = (
        "import sys, reliatree.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
