"""Experiment harness: per-figure drivers and the first-mile extension."""
