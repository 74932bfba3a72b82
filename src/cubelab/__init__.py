"""Exact, exhaustive analysis of Boolean functions and halfspaces on the
discrete cube: Fourier weights, influences, vertex boundaries, local tail
decay, constructive flip injections, and a theorem-check harness.
"""
