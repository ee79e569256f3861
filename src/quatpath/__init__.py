"""Quaternion-path toolkit: orders and ideals in B_{p,oo}, binary quadratic
forms, norm equations, and the equivalent-ideal search built on them."""

__version__ = "0.1.0"
