"""Make the shared benchmark helpers importable as ``common``, and the
test suite's exhaustive oracle as ``tests.exhaustive``."""

import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))
sys.path.append(str(HERE.parent))
