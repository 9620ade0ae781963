"""Row-by-row reference forms of the campaign's per-UE report.

``DropReport`` is one UE's record; its ``row()`` is the reference text of
one report line, which ``calib.write_report`` must produce from columns.
``geometry_factor_row_db`` is the one-row geometry factor the block form in
``chan3d.calib`` must match bit for bit: a row of a C-ordered block sums
pairwise as a lone row does, while numpy sums the rows of a Fortran-ordered
block (the campaign's phase-1 blocks, from fancy indexing over cells) left
to right, one column at a time. ``tests/test_calib.py``
checks ``calib.write_report`` and ``calib.geometry_factor_db`` against them.
"""
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass
class DropReport:
    """Per-UE calibration record; spread/eigenvalue fields stay NaN in phase 1."""

    ue_id: int
    site: int
    cell: int
    cl_db: float
    gf_db: float
    asd_deg: float = math.nan
    asa_deg: float = math.nan
    esd_deg: float = math.nan
    esa_deg: float = math.nan
    ds_s: float = math.nan
    lambda1: float = math.nan
    lambda2: float = math.nan

    def row(self) -> str:
        fields = [str(self.ue_id), str(self.site), str(self.cell)]
        for v in (
            self.cl_db, self.gf_db, self.asd_deg, self.asa_deg,
            self.esd_deg, self.esa_deg, self.ds_s, self.lambda1, self.lambda2,
        ):
            fields.append(repr(float(v)))
        return " ".join(fields)


def geometry_factor_row_db(rsrp_values, serving: int, left_to_right: bool = False) -> float:
    """Serving power over the linear sum of all other cells' powers, in dB,
    for one UE row, summed pairwise or left to right."""
    values = np.asarray(rsrp_values, dtype=float)
    linear = 10.0 ** (values / 10.0)
    total = functools.reduce(operator.add, linear) if left_to_right else linear.sum()
    interference = float(total - linear[serving])
    if interference <= 0.0:
        return math.inf
    return 10.0 * float(np.log10(float(linear[serving]) / interference))
