"""equitau: exact equivariant Riemann-Roch computations on projective-space models."""

__version__ = "0.1.0"
