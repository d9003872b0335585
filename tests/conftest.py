"""Suite-wide test settings.

Every hypothesis property test runs under one profile: 60 examples drawn
from a fixed derandomized sequence, no per-example deadline (some examples
train or factorize), and no example database, so runs are reproducible.
Hypothesis still caches the constants it mines from the code under test and
its Unicode tables; that cache goes to the system temporary directory, so a
test run writes no ``.hypothesis/`` directory into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gpprog-hypothesis")
settings.register_profile(
    "gpprog", max_examples=60, deadline=None, derandomize=True, database=None
)
settings.load_profile("gpprog")
