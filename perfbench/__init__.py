"""Seeded, traced benchmark of the KOSR serving stack (see README.md)."""
