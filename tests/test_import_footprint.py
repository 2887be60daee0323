"""The import path carries only what computes: no standard-library module
that runs no answer is loaded by the command line or by Weyl enumeration."""

import subprocess
import sys
from pathlib import Path

import demazure_crystals

UNUSED = ("dataclasses", "inspect", "ast", "typing", "fractions", "decimal")

PROBE = """
import sys
sys.path.insert(0, {root!r})
import demazure_crystals.cli
from demazure_crystals import SUPPORTED_TYPES, cartan_matrix, enumerate_weyl
for type_label in SUPPORTED_TYPES:
    enumerate_weyl(cartan_matrix(type_label))
print(" ".join(name for name in {unused!r} if name in sys.modules))
"""


def test_the_cli_and_weyl_enumeration_import_no_unused_module():
    """-S keeps site (and whatever .pth files import) out of the count."""
    root = str(Path(demazure_crystals.__file__).resolve().parents[1])
    probe = PROBE.format(root=root, unused=UNUSED)
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
