"""Tests for the live key lifecycle: the replicated KDC on the TCP host."""
