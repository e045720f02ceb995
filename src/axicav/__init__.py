"""axicav: optical-cavity beam-bifurcation simulator and sensitivity toolkit.

A laser beam bouncing in a two-mirror cavity picks up a tiny angular kick
on every pass through a transverse field gradient, splitting into a
weighted ensemble of sub-beams.  This package propagates that ensemble
as arrays under paraxial affine updates, renders detector-plane density
changes, fits their growth with traversal count, and converts the result
into shot-noise-limited coupling reach, alongside the analytic profile
mathematics and a planar-lattice toy model used as cross-checks.

The package re-exports nothing: every name is imported from its module
(``from axicav.cavity import CavityConfig``), so importing the bare package
loads no submodule.
"""

__version__ = "0.1.0"
