"""Session-wide test settings.

Hypothesis draws its examples from a seed derived from each test function
(``derandomize=True``, which also turns off the example database), so every
machine runs the same examples whatever ``.hypothesis/`` holds.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
