import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent))  # the benchmark's modules
sys.path.insert(0, str(_HERE.parents[1] / "src"))  # pensionlab from this checkout
