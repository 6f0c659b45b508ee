"""satqlink: deterministic simulator for LEO satellite-to-ground quantum
links with an onboard multimode spin-wave memory.

Modules: orbital pass geometry, free-space optical link budget, analytic
comb-memory model, coupled spin-diffusion dynamics, BB84 secret-key rates
and the architecture comparison that ties them together. Each name is
imported from its own module, e.g. ``from satqlink.scenario import
compare_scenarios``; importing the package itself loads nothing.
"""

__version__ = "0.1.0"
