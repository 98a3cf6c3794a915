"""Geometric multipath error propagation for direct position estimation.

Multipath shifts a receiver's correlation ridges; in a grid search over
candidate positions (velocities) the biased solutions land on intersections
of straight center lines, one per path, each tangent to a bias circle whose
radius is the elevation-projected range (range-rate) bias.  This package
models the correlation surfaces, computes the tangent-line geometry and its
error bounds, and bundles deterministic sweep / Monte Carlo drivers plus a
CLI that reproduces the reference tables and figure data.  Names are
imported from the module that defines them, e.g. ``dpe_multipath.scmb``.
"""
import os

# Set before numpy loads: OpenBLAS's thread pool costs more start-up than our one polyfit saves.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
