import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
# the benchmark's modules, and rkfw from the checkout it sits in
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
