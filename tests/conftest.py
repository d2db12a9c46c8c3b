"""Test-run settings shared by the whole suite.

Property tests keep no example database and have no deadline, so a slow
host does not turn a long example into a failure. They are derandomized:
every run draws the same examples, so a failing run can be rerun as is. Hypothesis also caches
the constants it reads from local modules; that cache goes to the
system's temporary directory, so a run writes no ``.hypothesis/``
directory into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "spiderbp-hypothesis")
settings.register_profile("spiderbp", database=None, deadline=None, derandomize=True)
settings.load_profile("spiderbp")
