"""Data-scaled exchange fan-out: re-exported from the KG core
(``stages/partitioning.py``) for the registry's operators."""

from ..stages.partitioning import adaptive_parts, estimate_rows  # noqa: F401
