"""Evaluation metrics: F1 accuracy against ground truth."""

from .accuracy import AccuracyReport, accuracy_report, f1_score

__all__ = ["AccuracyReport", "accuracy_report", "f1_score"]
