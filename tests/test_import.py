import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    # scipy.optimize alone costs most of a second at start-up; the package
    # needs only numpy.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mtnpass; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
