"""Exact computation in the noncommutative Connes-Kreimer Hopf algebra on plane forests.

Subpackages cover the combinatorial layer (plane forests, codes, linear
extensions), exact coefficient arithmetic (sparse multivariate polynomials,
Laurent polynomials with a polar-part splitting), the Tamari order, the Hopf
algebra and its dual, noncommutative/quasi-symmetric functions, the Birkhoff
factorization with its refined Catalan idempotents, classical Lie idempotents,
and order-polytope Ehrhart polynomials.
"""

__version__ = "0.1.0"
