"""Exact invariants separating surface mapping classes up to conjugacy.

Modules
-------
kernel    exact scalars, Laurent polynomials, rational functions, F[t] Smith forms
lattice   integer Smith forms, extended Euclid
torus     conjugacy in SL(2,Z) and GL(2,Z/n), congruence sweeps
surfgrp   surface group presentations, twisted Alexander polynomials, torsion
cellular  chain-level mapping torus models, zeta functions, Lefschetz numbers
ntform    canonical-form data, dilatation, fixed point classes
chars     finite group character tables, orbit-class projections
serialize fixture and result JSON grammar
record    the immutable value record every data type builds on; integer grammar
cli       the `procong` command line tool
"""

__version__ = "0.1.0"
