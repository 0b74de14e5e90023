import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# CI runs the properties on a fixed set of examples, with no time limit per
# example, so a slow runner cannot make them flake
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
