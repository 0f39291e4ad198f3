"""Put ``ledger/`` and ``src/`` on the path, as ``run.py`` does."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(LEDGER), str(LEDGER.parent / "src")]
