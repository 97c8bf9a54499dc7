import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property battery: small, derandomized and database-free, so the suite stays reproducible
settings.register_profile("csnc", max_examples=25, deadline=None, derandomize=True, database=None)
settings.load_profile("csnc")
