"""Remote photoplethysmography benchmark toolkit.

Pulse extraction from RGB video (chrominance projection, adaptive
illumination rectification, spatial subspace rotation), spectral and
peak-based heart-rate estimation, synthetic data generation, and a
train/test evaluation harness with greedy parameter search.
"""

from . import bench, chrom, errors, hr, io, licvpr, roi, signals, ssr, synth
from .bench import *  # noqa: F403
from .chrom import *  # noqa: F403
from .errors import *  # noqa: F403
from .hr import *  # noqa: F403
from .io import *  # noqa: F403
from .licvpr import *  # noqa: F403
from .roi import *  # noqa: F403
from .signals import *  # noqa: F403
from .ssr import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

#: The public names of every module, each listed once in its own module.
__all__ = [name for module in (bench, chrom, errors, hr, io, licvpr, roi, signals, ssr, synth) for name in module.__all__]
