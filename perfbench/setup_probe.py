"""Set-up probe: what a CLI run does from interpreter start to its first solve.

Usage: ``python3 perfbench/setup_probe.py CONFIG MODEL`` with the package on
``PYTHONPATH``.  It imports the CLI, loads the config and makes the
validation build, then exits.
"""

import sys

from dispersive_nphoton.cli import build_model
from dispersive_nphoton.models import SystemSpec

if __name__ == "__main__":
    build_model(SystemSpec.from_json_file(sys.argv[1]), sys.argv[2])
