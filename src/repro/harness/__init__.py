"""Experiment drivers and reporting for the paper's evaluation."""

from . import experiments, report

__all__ = ["experiments", "report"]
