"""Bundled scenario fixtures: the one definition of the reference scenarios."""
