"""Census and verification tools for elliptic-curve group orders.

The library counts points on elliptic curves over prime fields, classifies
the group orders n(p) = p + 1 - a_p as prime, Fermat pseudoprime, or
composite, and checks the matrix class counts, sifting densities, and
multiplicative-order statistics that govern how often each case occurs.
"""
