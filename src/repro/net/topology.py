"""Node placement: the grid layouts used throughout the paper.

Distances are in feet to match the paper's reporting (4 ft inter-node
spacing in the mote experiments, 10 ft in the TOSSIM simulations).

Range queries (``nodes_within``) are served by a uniform-grid bucket
index built lazily per query-radius class, so neighborhood lookups cost
O(neighborhood) instead of O(network size); the linear reference scan is
kept as ``nodes_within_linear`` and both paths return identical lists
(same ids, same ascending order), so routing callers through the index
never perturbs RNG draw order or metrics.
"""

import math


class GridIndex:
    """Uniform-grid spatial bucket index over a fixed set of positions.

    The cell size equals the query radius class, so a radius query
    inspects at most a 3x3 block of cells around the query point.
    Positions must not change after construction
    (:meth:`Topology.grid_index` caches instances per cell size).
    """

    __slots__ = ("cell_ft", "_positions", "_buckets")

    def __init__(self, positions, cell_ft):
        if cell_ft <= 0:
            raise ValueError(f"cell size must be positive, got {cell_ft}")
        self.cell_ft = cell_ft
        self._positions = positions
        buckets = {}
        for i, (x, y) in enumerate(positions):
            key = (int(x // cell_ft), int(y // cell_ft))
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = []
            bucket.append(i)
        self._buckets = buckets

    def nodes_within(self, i, radius_ft):
        """Ids of all nodes other than ``i`` at distance <= ``radius_ft``.

        Uses the exact same distance predicate (``math.hypot(...) <=
        radius``) as the linear scan and sorts the result, so the returned
        list is identical -- same ids, same ascending order.
        """
        positions = self._positions
        x, y = positions[i]
        cell = self.cell_ft
        buckets = self._buckets
        cx_lo = int((x - radius_ft) // cell)
        cx_hi = int((x + radius_ft) // cell)
        cy_lo = int((y - radius_ft) // cell)
        cy_hi = int((y + radius_ft) // cell)
        hypot = math.hypot
        out = []
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                bucket = buckets.get((cx, cy))
                if bucket is None:
                    continue
                for j in bucket:
                    if j == i:
                        continue
                    px, py = positions[j]
                    if hypot(px - x, py - y) <= radius_ft:
                        out.append(j)
        out.sort()
        return out


class Topology:
    """A set of node positions on the plane.

    Node ids are dense integers ``0..n-1``.  The paper's convention is that
    the base station is a corner node; helpers below expose the common
    corners.
    """

    def __init__(self, positions):
        self.positions = list(positions)
        if not self.positions:
            raise ValueError("topology must contain at least one node")
        # radius class -> GridIndex, built lazily on first query.
        self._grid_indices = {}

    # ------------------------------------------------------------------
    # Constructors for the paper's layouts
    # ------------------------------------------------------------------
    @classmethod
    def grid(cls, rows, cols, spacing_ft):
        """``rows x cols`` grid; node id ``r*cols + c`` sits at
        ``(c*spacing, r*spacing)``."""
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        if spacing_ft <= 0:
            raise ValueError(f"grid spacing must be positive, "
                             f"got {spacing_ft} ft")
        return cls(
            [(c * spacing_ft, r * spacing_ft) for r in range(rows) for c in range(cols)]
        )

    @classmethod
    def line(cls, n, spacing_ft):
        """A 1 x n line of nodes (degenerate grid)."""
        return cls.grid(1, n, spacing_ft)

    @classmethod
    def random_uniform(cls, n, width_ft, height_ft, rng):
        """``n`` nodes placed uniformly at random in a rectangle."""
        if n < 1:
            raise ValueError("need at least one node")
        return cls(
            [(rng.uniform(0, width_ft), rng.uniform(0, height_ft)) for _ in range(n)]
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.positions)

    def node_ids(self):
        return range(len(self.positions))

    def distance(self, i, j):
        """Euclidean distance in feet between nodes ``i`` and ``j``."""
        (xi, yi), (xj, yj) = self.positions[i], self.positions[j]
        return math.hypot(xi - xj, yi - yj)

    def grid_index(self, cell_ft):
        """The :class:`GridIndex` for this cell size (built lazily, then
        cached; positions must not be mutated afterwards)."""
        index = self._grid_indices.get(cell_ft)
        if index is None:
            index = GridIndex(self.positions, cell_ft)
            self._grid_indices[cell_ft] = index
        return index

    @staticmethod
    def radius_class(radius_ft):
        """Cell size class serving ``radius_ft``: the smallest power of
        two >= the radius.  Quantizing keeps the number of cached
        indexes logarithmic in the radius spread, so a power sweep over
        arbitrary ranges shares a handful of indexes instead of paying
        an O(n) index build (and its memory) per distinct radius."""
        return 2.0 ** math.ceil(math.log2(radius_ft))

    def nodes_within(self, i, radius_ft):
        """Ids of all nodes other than ``i`` at distance <= ``radius_ft``,
        in ascending id order.

        Served by the uniform-grid index of the radius's power-of-two
        class (O(neighborhood)): the scan window covers every cell
        overlapping the query disc, so any radius <= the class cell size
        resolves exactly.  Degenerate radii fall back to the linear
        scan.  Both paths return identical lists.
        """
        if radius_ft <= 0:
            return self.nodes_within_linear(i, radius_ft)
        cell = self.radius_class(radius_ft)
        return self.grid_index(cell).nodes_within(i, radius_ft)

    def nodes_within_linear(self, i, radius_ft):
        """Reference O(n) scan (differential-tested against the index)."""
        return [
            j
            for j in self.node_ids()
            if j != i and self.distance(i, j) <= radius_ft
        ]

    def bounding_box(self):
        """``(width, height)`` of the deployment area."""
        xs = [p[0] for p in self.positions]
        ys = [p[1] for p in self.positions]
        return (max(xs) - min(xs), max(ys) - min(ys))

    # Corner helpers (the paper places the base station at a corner).
    def corner_node(self, which="bottom-left"):
        """Node id closest to the requested corner of the bounding box."""
        xs = [p[0] for p in self.positions]
        ys = [p[1] for p in self.positions]
        corners = {
            "bottom-left": (min(xs), min(ys)),
            "bottom-right": (max(xs), min(ys)),
            "top-left": (min(xs), max(ys)),
            "top-right": (max(xs), max(ys)),
        }
        try:
            cx, cy = corners[which]
        except KeyError:
            raise ValueError(f"unknown corner {which!r}") from None
        return min(
            self.node_ids(),
            key=lambda i: (self.positions[i][0] - cx) ** 2
            + (self.positions[i][1] - cy) ** 2,
        )

    def center_node(self):
        """Node id closest to the centroid of the bounding box."""
        xs = [p[0] for p in self.positions]
        ys = [p[1] for p in self.positions]
        cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
        return min(
            self.node_ids(),
            key=lambda i: (self.positions[i][0] - cx) ** 2
            + (self.positions[i][1] - cy) ** 2,
        )
