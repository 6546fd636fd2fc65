"""Randomized construction and certified verification of k-chromatic
vertex-critical graphs whose chromatic number survives the deletion of any
r edges."""
