"""Network layout, tri-sector cells, and 3D UE dropping."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CELL_BEARINGS_DEG = (0.0, 120.0, 240.0)


@dataclass
class Drop:
    """UEs of one drop as arrays, in (site, cell, UE) order.

    xyz is (n, 3) in meters, indoor (n,) bool, floor (n,) the floor number
    of indoor UEs (0 outdoors) and velocity (n, 3) in m/s.
    """

    xyz: np.ndarray
    indoor: np.ndarray
    floor: np.ndarray
    velocity: np.ndarray

    def __len__(self) -> int:
        return self.xyz.shape[0]


def hex_layout(n_rings: int, isd: float) -> np.ndarray:
    """(n_site, 2) positions of a hexagonal grid of sites, nearest exactly `isd` apart.

    n_rings=2 gives the standard 19-site deployment. The layout is
    deterministic: sites are ordered ring by ring, counter-clockwise. Each
    site carries one cell per CELL_BEARINGS_DEG entry, numbered site-major.
    """
    if isd <= 0:
        raise ValueError("inter-site distance must be positive")
    if n_rings < 0:
        raise ValueError("ring count must be non-negative")
    u = np.array([1.0, 0.0])
    v = np.array([0.5, math.sqrt(3.0) / 2.0])
    coords = [(0, 0)]
    for ring in range(1, n_rings + 1):
        ring_coords = []
        for i in range(-ring, ring + 1):
            for j in range(-ring, ring + 1):
                if max(abs(i), abs(j), abs(i + j)) == ring:
                    ring_coords.append((i, j))
        ring_coords.sort(key=lambda c: math.atan2((c[0] * u + c[1] * v)[1], (c[0] * u + c[1] * v)[0]) % (2 * math.pi))
        coords.extend(ring_coords)
    return np.array([isd * (i * u + j * v) for i, j in coords])


def wrap_basis(n_rings: int, isd: float) -> np.ndarray:
    """Rows t1, t2 of the lattice that tiles the plane with this layout.

    A layout of r rings has 3r^2+3r+1 sites and tiles under
    t1 = (r+1)u + r v (u, v the site lattice basis) and t2 = t1 rotated by
    60 degrees. Wrap-around geometry folds UE-site offsets onto the nearest
    lattice image.
    """
    u = np.array([1.0, 0.0])
    v = np.array([0.5, math.sqrt(3.0) / 2.0])
    t1 = isd * ((n_rings + 1) * u + n_rings * v)
    c, s = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
    t2 = np.array([c * t1[0] - s * t1[1], s * t1[0] + c * t1[1]])
    return np.array([t1, t2])


def fold_to_nearest_image(delta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Fold 2D offsets onto their minimum-norm lattice image.

    Exact for this (reduced) basis: the nearest lattice point always lies in
    the 3x3 integer neighborhood of the rounded fractional coordinates.
    """
    delta = np.asarray(delta, dtype=float).reshape(-1, 2)
    frac = delta @ np.linalg.inv(basis)
    base = np.round(frac)
    best = None
    best_norm = None
    for di in (-1.0, 0.0, 1.0):
        for dj in (-1.0, 0.0, 1.0):
            image = delta - (base + np.array([di, dj])) @ basis
            norm = np.einsum("ik,ik->i", image, image)
            if best is None:
                best, best_norm = image, norm
            else:
                take = norm < best_norm
                best = np.where(take[:, None], image, best)
                best_norm = np.where(take, norm, best_norm)
    return best


def _hexagon_mask(xy: np.ndarray, half_isd: float) -> np.ndarray:
    """Points inside the flat-side hexagonal coverage area centered at origin.

    Sides face the six neighbor directions (multiples of 60 degrees) at
    distance isd/2, matching the Voronoi cell of the site grid.
    """
    inside = np.ones(xy.shape[0], dtype=bool)
    for k in range(3):
        n = np.array([math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)])
        inside &= np.abs(xy @ n) <= half_isd + 1e-12
    return inside


def sample_cell_positions(
    n: int,
    site_xy: np.ndarray,
    bearing_deg: float,
    isd: float,
    min_dist_2d: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform 2D positions in one cell's 120-degree wedge of the site hexagon,
    at least min_dist_2d from the site."""
    half = isd / 2.0
    radius = isd / math.sqrt(3.0)
    bearing = math.radians(bearing_deg)
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = rng.uniform(-radius, radius, size=(4 * (n - filled), 2))
        keep = _hexagon_mask(cand, half)
        az = np.arctan2(cand[:, 1], cand[:, 0])
        rel = (az - bearing + math.pi) % (2.0 * math.pi) - math.pi
        keep &= np.abs(rel) <= math.pi / 3.0
        keep &= np.hypot(cand[:, 0], cand[:, 1]) >= min_dist_2d
        cand = cand[keep]
        take = min(len(cand), n - filled)
        out[filled : filled + take] = cand[:take]
        filled += take
    return out + site_xy


def drop_ues(
    n_per_cell: int,
    layout: np.ndarray,
    rng: np.random.Generator,
    isd: float,
    min_dist_2d: float = 35.0,
    speed_kmh: float = 3.0,
    three_d: bool = True,
) -> Drop:
    """3D drop over the hex_layout site positions: 80% of UEs indoors on a
    uniform floor of a 4-8 story building (height 3(floor-1)+1.5 m), the rest
    outdoors at 1.5 m. Equal count per cell. Without three_d, the legacy
    drop: the same positions under the same rng, every UE outdoors at 1.5 m.
    """
    # The attribute stream is consumed identically in both drop modes so that
    # matched seeds give matched x/y positions.
    if n_per_cell < 1:
        raise ValueError("need at least one UE per cell")
    xy, indoor, floor, heading = [], [], [], []
    for site_xy in layout:
        for bearing in CELL_BEARINGS_DEG:
            xy.append(sample_cell_positions(n_per_cell, site_xy, bearing, isd, min_dist_2d, rng))
            indoor.append(rng.random(n_per_cell) < 0.8)
            # Floor uniform in a building of 4-8 stories; the story count is not kept.
            floor.append(rng.integers(1, rng.integers(4, 9, n_per_cell) + 1))
            heading.append(rng.uniform(0.0, 2.0 * math.pi, n_per_cell))
    xy, heading = np.concatenate(xy), np.concatenate(heading)
    indoor = np.concatenate(indoor) & three_d  # legacy drops are all outdoors
    floor = np.where(indoor, np.concatenate(floor), 0)
    z = np.where(indoor, 3.0 * (floor - 1) + 1.5, 1.5)
    speed = speed_kmh / 3.6
    velocity = np.column_stack(
        [speed * np.cos(heading), speed * np.sin(heading), np.zeros_like(heading)]
    )
    return Drop(np.column_stack([xy, z]), indoor, floor, velocity)
