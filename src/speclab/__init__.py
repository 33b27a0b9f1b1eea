"""Desk-scale verification laboratory for multi-draft block speculative decoding."""
