"""Skyway network graph, region grid, per-company density heatmaps, dataset ingestion.

Networks are immutable after construction and safe to share across parallel
per-provider compositions. A network's one store of its segments is its
adjacency: each node's (neighbour, length) pairs in ascending neighbour id.
Components, the dump and the edge list are all derived from it.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class SkywayNode:
    node_id: int
    x: float  # projected meters
    y: float
    station_owner: int  # charging provider owning the rooftop station
    pad_count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"node {self.node_id}: coordinates must be finite")
        if self.pad_count < 1:
            raise ValueError(f"node {self.node_id}: pad_count must be at least 1")
        # the heatmaps sum pad counts as floats, exact up to 2**53; no rooftop
        # holds a million pads
        if self.pad_count > 1_000_000:
            raise ValueError(f"node {self.node_id}: pad_count must be at most 1000000")


class SkywayNetwork:
    """Undirected geometric graph of charging-station rooftops and line-of-sight segments.

    Edges are node pairs; each segment's length is the Euclidean distance
    between its end nodes, and a pair given twice is one segment. Neither
    coordinate spans more than the largest float: the grid's box is finite.
    """

    def __init__(self, nodes: Iterable[SkywayNode], edges: Iterable[tuple[int, int]]):
        self.nodes: dict[int, SkywayNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise ValueError(f"duplicate node id {node.node_id}")
            self.nodes[node.node_id] = node
        if not self.nodes:
            raise ValueError("network must contain at least one node")

        pairs: set[tuple[int, int]] = set()
        for a, b in edges:
            a, b = min(a, b), max(a, b)
            for end in (a, b):
                if end not in self.nodes:
                    raise ValueError(f"segment references unknown node {end}")
            pairs.add((a, b))
        # taken in sorted order, the pairs fill every neighbour list in
        # ascending neighbour id
        adjacency: dict[int, list[tuple[int, float]]] = {nid: [] for nid in self.nodes}
        for a, b in sorted(pairs):
            if a == b:
                raise ValueError(f"segment endpoints must differ (node {a})")
            na, nb = self.nodes[a], self.nodes[b]
            length = math.hypot(na.x - nb.x, na.y - nb.y)
            if not 0 < length < math.inf:
                raise ValueError(f"segment ({a}, {b}): length must be positive and finite")
            adjacency[a].append((b, length))
            adjacency[b].append((a, length))
        for axis in ("x", "y"):
            values = [getattr(node, axis) for node in self.nodes.values()]
            if max(values) - min(values) == math.inf:
                raise ValueError(f"network {axis} coordinates span more than the largest float")
        self._adjacency = {nid: tuple(nbrs) for nid, nbrs in adjacency.items()}
        self.charging_providers: tuple[int, ...] = tuple(
            sorted({n.station_owner for n in self.nodes.values()})
        )

    def neighbors(self, node_id: int) -> tuple[tuple[int, float], ...]:
        return self._adjacency[node_id]

    def edges(self) -> list[tuple[int, int]]:
        """The segments as sorted (a, b) pairs with a < b."""
        return [(a, b) for a, nbrs in sorted(self._adjacency.items()) for b, _ in nbrs if a < b]

    def length(self, a: int, b: int) -> float:
        for nbr, length in self._adjacency[a]:
            if nbr == b:
                return length
        raise ValueError(f"no segment between {a} and {b}")

    def heading(self, a: int, b: int) -> float:
        """Flight heading in radians when traversing the segment from a to b."""
        na, nb = self.nodes[a], self.nodes[b]
        return math.atan2(nb.y - na.y, nb.x - na.x)

    def components(self) -> list[set[int]]:
        """Connected components by depth-first search, ordered by their smallest node id."""
        seen: set[int] = set()
        comps = []
        for start in sorted(self._adjacency):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for nbr, _ in self._adjacency[stack.pop()]:
                    if nbr not in comp:
                        comp.add(nbr)
                        stack.append(nbr)
            seen |= comp
            comps.append(comp)
        return comps


def _records(stream: Iterable[str], what: str, types: tuple[type, ...]) -> Iterator[tuple[int, list]]:
    """(line number, fields converted by types) for each record of one text
    input, skipping blank lines and # comments."""
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != len(types):
            raise ParseError(f"{what} line {line_no}: expected {len(types)} fields, got {len(parts)}: {line!r}")
        try:
            fields = [convert(part) for convert, part in zip(types, parts)]
        except ValueError as exc:
            raise ParseError(f"{what} line {line_no}: {exc}") from None
        yield line_no, fields


def load_network(
    edge_list: Iterable[str],
    coords: Iterable[str],
    stations: Iterable[str],
) -> SkywayNetwork:
    """Build a network from the three text inputs.

    Formats, one record per line, whitespace separated:
      coords     "node_id x y"                       (projected meters)
      stations   "node_id charging_provider_id pad_count"
      edge list  "node_a node_b"                     (lengths derived from coords)

    Disconnected inputs keep the largest connected component with a warning.
    """
    # each node's values, and the coords and stations lines that gave them
    positions: dict[int, tuple[float, float]] = {}
    coords_line: dict[int, int] = {}
    for line_no, (nid, x, y) in _records(coords, "coords", (int, float, float)):
        if nid in positions:
            raise ParseError(f"coords line {line_no}: duplicate node {nid}")
        positions[nid] = (x, y)
        coords_line[nid] = line_no
    if not positions:
        raise ParseError("empty network: no coordinates given")

    station_info: dict[int, tuple[int, int]] = {}
    stations_line: dict[int, int] = {}
    for line_no, (nid, owner, pads) in _records(stations, "stations", (int, int, int)):
        if nid not in positions:
            raise ParseError(f"stations line {line_no}: node {nid} has no coordinates")
        if nid in station_info:
            raise ParseError(f"stations line {line_no}: duplicate station record for node {nid}")
        station_info[nid] = (owner, pads)
        stations_line[nid] = line_no
    missing = sorted(set(positions) - set(station_info))
    if missing:
        raise ParseError(f"node {missing[0]} has no station record")

    # each segment as its sorted pair, and the first edge-list line giving it
    edge_line: dict[tuple[int, int], int] = {}
    for line_no, (a, b) in _records(edge_list, "edge list", (int, int)):
        for end in (a, b):
            if end not in positions:
                raise ParseError(f"edge list line {line_no}: node {end} has no coordinates")
        if a == b:
            raise ParseError(f"edge list line {line_no}: self-loop on node {a}")
        edge_line.setdefault((min(a, b), max(a, b)), line_no)

    # SkywayNode refuses non-finite coordinates and pad counts out of range,
    # naming the one it refuses, which says whose line gave it
    nodes = []
    for nid in sorted(positions):
        try:
            nodes.append(SkywayNode(nid, *positions[nid], *station_info[nid]))
        except ValueError as exc:
            where = (
                f"coords line {coords_line[nid]}" if "coordinates" in str(exc) else f"stations line {stations_line[nid]}"
            )
            raise ParseError(f"{where}: {exc}") from None
    # the network refuses segments of zero or overflowing length, naming the
    # sorted pair, which says whose line gave it
    try:
        network = SkywayNetwork(nodes, edge_line)
    except ValueError as exc:
        lines = [n for pair, n in edge_line.items() if str(exc).startswith(f"segment {pair}:")]
        raise ParseError(f"edge list line {lines[0]}: {exc}" if lines else str(exc)) from None
    return _largest_component(network)


def _largest_component(network: SkywayNetwork) -> SkywayNetwork:
    """The loaders' connectivity rule: a disconnected network keeps its largest
    component, ties going to the one with the smallest node id, with a warning."""
    comps = network.components()
    if len(comps) == 1:
        return network
    keep = max(comps, key=lambda c: (len(c), -min(c)))
    warnings.warn(
        f"network is disconnected; keeping the largest component "
        f"({len(keep)} of {len(network.nodes)} nodes)",
        stacklevel=3,
    )
    return SkywayNetwork(
        [n for n in network.nodes.values() if n.node_id in keep],
        [(a, b) for a, b in network.edges() if a in keep],
    )


def dump_network(network: SkywayNetwork) -> str:
    """Canonical single-file dump, round-trippable via load_network_dump."""
    payload = {
        "nodes": [
            [n.node_id, n.x, n.y, n.station_owner, n.pad_count]
            for n in sorted(network.nodes.values(), key=lambda n: n.node_id)
        ],
        "edges": network.edges(),
    }
    return json.dumps(payload, separators=(",", ":"))


def _integral(value: object) -> int:
    """An integer field of a dump: an int, or a float with an integral value.
    Bools, strings and other floats are refused, so a loaded dump re-dumps
    with plain ints."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _coordinate(value: object) -> float:
    """A coordinate of a dump: an int or a float. Bools and strings are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def load_network_dump(text: str) -> SkywayNetwork:
    """Load a dump_network blob; like load_network, a disconnected dump keeps
    its largest component with a warning."""
    try:
        payload = json.loads(text)
        nodes = [
            SkywayNode(_integral(i), _coordinate(x), _coordinate(y), _integral(o), _integral(p))
            for i, x, y, o, p in payload["nodes"]
        ]
        network = SkywayNetwork(nodes, [(_integral(a), _integral(b)) for a, b in payload["edges"]])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(f"malformed network dump: {exc}") from None
    return _largest_component(network)


# --- region grid and density heatmaps -------------------------------------


def _axis_cell(value: float, lo: float, hi: float, resolution: int) -> int:
    span = hi - lo
    if span <= 0:
        return 0
    position = (value - lo) / span * resolution
    index = math.ceil(position) - 1  # exact boundary hits go to the lower cell
    return min(max(index, 0), resolution - 1)


@dataclass(frozen=True)
class RegionGrid:
    """G x G partition of the network bounding box; cells are flat row-major indices."""

    resolution: int
    cell_of: Mapping[int, int]  # node_id -> flat cell index

    @property
    def cell_count(self) -> int:
        return self.resolution * self.resolution

    def cell_xy(self, cell: int) -> tuple[int, int]:
        return cell % self.resolution, cell // self.resolution

    def chebyshev(self, cell_a: int, cell_b: int) -> int:
        ax, ay = self.cell_xy(cell_a)
        bx, by = self.cell_xy(cell_b)
        return max(abs(ax - bx), abs(ay - by))

    def cell_neighbors(self, cell: int) -> tuple[int, ...]:
        """The up to 8 adjacent cells in ascending order, which the region path search's order rests on."""
        g = self.resolution
        cx, cy = self.cell_xy(cell)
        out = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < g and 0 <= ny < g:
                    out.append(ny * g + nx)
        return tuple(out)


def build_region_grid(network: SkywayNetwork, resolution: int) -> RegionGrid:
    xs = [n.x for n in network.nodes.values()]
    ys = [n.y for n in network.nodes.values()]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    membership = {
        nid: _axis_cell(n.y, ymin, ymax, resolution) * resolution
        + _axis_cell(n.x, xmin, xmax, resolution)
        for nid, n in network.nodes.items()
    }
    return RegionGrid(resolution, membership)


def build_all_heatmaps(network: SkywayNetwork, grid: RegionGrid) -> dict[int, tuple[float, ...]]:
    """Per-cell pad density of each charging company, keyed by company, in one
    pass over the nodes."""
    cells = {cp: [0.0] * grid.cell_count for cp in network.charging_providers}
    for nid, node in network.nodes.items():
        cells[node.station_owner][grid.cell_of[nid]] += node.pad_count
    return {cp: tuple(density) for cp, density in cells.items()}


def t_shortest_region_paths(
    grid: RegionGrid, source_cell: int, dest_cell: int, t: int
) -> list[tuple[int, ...]]:
    """Up to t loop-free cell paths ordered by hop count, then lexicographically.

    Cells are 8-connected and all hops count equally. Intended for small t; the
    enumeration deepens one hop level at a time and stops as soon as t paths exist.
    Each level is a depth-first walk on an explicit stack of neighbour
    iterators, one per cell on the path, so a long path needs no recursion.
    t is at least 1 (the t_paths rule) and both cells are ``RegionGrid.cell_of``
    entries, so in the grid.
    """
    if source_cell == dest_cell:
        return [(source_cell,)]

    out: list[tuple[int, ...]] = []
    for budget in range(grid.chebyshev(source_cell, dest_cell), grid.cell_count):
        path, visited = [source_cell], {source_cell}
        stack = [iter(grid.cell_neighbors(source_cell))]
        while stack:
            # step to the next neighbour that is unvisited and within reach of
            # the destination in the hops left; the Chebyshev bound keeps one
            # hop left whenever the walk stands off the destination
            left = budget - len(path)
            for nbr in stack[-1]:
                if nbr not in visited and grid.chebyshev(nbr, dest_cell) <= left:
                    break
            else:
                stack.pop()
                visited.remove(path.pop())
                continue
            if nbr != dest_cell:
                path.append(nbr)
                visited.add(nbr)
                stack.append(iter(grid.cell_neighbors(nbr)))
            elif left == 0:
                out.append((*path, nbr))
                if len(out) == t:
                    return out
    return out


# --- shortest paths ---------------------------------------------------------


def shortest_path_tree(network: SkywayNetwork, root: int) -> tuple[dict[int, float], dict[int, int | None]]:
    """Dijkstra by segment length from root; returns (distance, parent) maps."""
    dist: dict[int, float] = {root: 0.0}
    parent: dict[int, int | None] = {root: None}
    heap: list[tuple[float, int]] = [(0.0, root)]
    while heap:
        d, v = heapq.heappop(heap)
        # a node is pushed only on a strict improvement, so exactly one of
        # its entries carries its final distance
        if d > dist[v]:
            continue
        for nbr, length in network.neighbors(v):
            nd = d + length
            if nbr not in dist or nd < dist[nbr]:
                dist[nbr] = nd
                parent[nbr] = v
                heapq.heappush(heap, (nd, nbr))
    return dist, parent


# --- synthetic networks ------------------------------------------------------

# chance that a station belongs to its district's company rather than to a
# uniformly drawn one
DISTRICT_SHARE = 0.6
PADS_PER_STATION = (1, 4)  # inclusive range of a station's pad count
K_NEAREST = 4  # nearest neighbours each node links to before stitching


# The ring search stops only once the k-th squared distance is below the
# squared bound ring * size on the unsearched rings by this margin: relative on
# squared distances and, times area_m, absolute on the bound, it covers the
# rounding of a point's cell near a cell edge and of the squared distances.
_RING_MARGIN = 1e-9

_Positions = Mapping[int, tuple[float, float]]  # node id -> (x, y)


def _k_nearest(queries: _Positions, targets: _Positions, k: int, area_m: float) -> dict[int, list[tuple[float, int]]]:
    """Each query's k nearest targets other than itself, nearest first: the
    k smallest (squared distance, id) keys, for positions in the square
    [0, area_m]^2, found by the cell list ``synthetic_network`` describes,
    built over the targets. The stop bound holds for any query point in the
    square, a target or not, since it rests only on the query's own cell.
    It ignores where the query sits in that cell, so every search reads
    ring 1: cheap for the builder's uniform positions, dear for tightly
    clustered ones."""
    if k == 0:
        return {nid: [] for nid in queries}
    side = max(1, math.isqrt(len(targets) // 2))
    size = area_m / side

    def cell(value: float) -> int:
        return min(int(value / size), side - 1)

    cells: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for nid, (x, y) in targets.items():
        cells.setdefault((cell(x), cell(y)), []).append((nid, x, y))

    nearest = {}
    for nid, (x, y) in queries.items():
        cx, cy = cell(x), cell(y)
        keys: list[tuple[float, int]] = []
        for ring in range(side):
            for gx in range(cx - ring, cx + ring + 1):
                on_edge = gx in (cx - ring, cx + ring)
                for gy in range(cy - ring, cy + ring + 1, 1 if on_edge else 2 * ring):
                    for other, ox, oy in cells.get((gx, gy), ()):
                        if other != nid:
                            keys.append(((x - ox) ** 2 + (y - oy) ** 2, other))
            # every unsearched target lies ring + 1 or more cells from the
            # query's own cell, so more than ring * size away
            reach = ring * size - _RING_MARGIN * area_m
            if len(keys) >= k and reach > 0 and heapq.nsmallest(k, keys)[-1][0] < reach * reach * (1 - _RING_MARGIN):
                break
        nearest[nid] = heapq.nsmallest(k, keys)
    return nearest


def synthetic_network(seed: int, node_count: int, n_charging_providers: int, area_m: float) -> SkywayNetwork:
    """Seeded random geometric network: each node linked to its K_NEAREST
    nearest others, stitched connected.

    A node's nearest are the others with the smallest (squared distance, id)
    keys, so equal distances go to the smaller id. ``_k_nearest`` finds
    them with a cell list (Bentley, Stanat and Williams, 1977): the nodes are
    bucketed into square cells of about two nodes each, and each node searches
    rings of cells outward. After ring r every unsearched node lies more than
    r cell sides away, so the search stops once the k-th key is strictly
    below the square of that bound, with a small margin for rounding. No
    unsearched node can then beat or tie that key, so the edges are those of
    a scan over every pair, in near-linear time. The bound rests only on the
    searching point's own cell, so it holds as well for a point that is not
    one of the bucketed targets. Each other component is then stitched onto
    the first through its closest cross pair, the least of the outside nodes'
    nearest in the first component, which ``_stitches`` keeps across joins."""
    rng = random.Random(seed)
    positions = {nid: (rng.uniform(0, area_m), rng.uniform(0, area_m)) for nid in range(1, node_count + 1)}
    # Charging companies concentrate in districts (soft Voronoi around seeded
    # anchors) but keep scattered background presence elsewhere, mirroring how
    # real operators cover a city.
    anchors = {
        cp: (rng.uniform(0, area_m), rng.uniform(0, area_m))
        for cp in range(1, n_charging_providers + 1)
    }
    owners = {}
    for nid, (x, y) in positions.items():
        if rng.random() < DISTRICT_SHARE:
            best_cp, best_score = 1, float("inf")
            for cp, (ax, ay) in anchors.items():
                score = math.hypot(x - ax, y - ay) * rng.uniform(0.7, 1.3)
                if score < best_score:
                    best_cp, best_score = cp, score
            owners[nid] = best_cp
        else:
            owners[nid] = rng.randint(1, n_charging_providers)
    pads = {nid: rng.randint(*PADS_PER_STATION) for nid in positions}

    # the (squared distance, id) keys live only as long as this list is
    # being built, which keeps them out of the builder's peak memory
    edges = [
        (nid, other) for nid, keys in _k_nearest(positions, positions, K_NEAREST, area_m).items() for _, other in keys
    ]
    nodes = [SkywayNode(nid, x, y, owners[nid], pads[nid]) for nid, (x, y) in positions.items()]
    network = SkywayNetwork(nodes, edges)
    stitches = _stitches(network.components(), positions, area_m)
    return SkywayNetwork(nodes, edges + stitches) if stitches else network


def _stitches(components: list[set[int]], positions: _Positions, area_m: float) -> list[tuple[int, int]]:
    """The edges that stitch the other components one by one onto the first
    (the one holding the smallest id), each time through the closest cross
    pair (a, b), a in the first, by (squared distance, a, b): the least of
    the outside nodes' nearest in the first, kept as (squared distance, id)
    keys. A join asks a cell list over the component it joined (the first
    join, over the first) for each outside node's nearest there and keeps the
    lesser key: a union's nearest is the nearer of its parts'. The stop rule
    holds for queries that are not targets."""
    joined, *rest = components
    outside = {b: positions[b] for comp in rest for b in comp}
    nearest: dict[int, tuple[float, int]] = {}
    edges = []
    while rest:
        for b, (key,) in _k_nearest(outside, {a: positions[a] for a in joined}, 1, area_m).items():
            nearest[b] = min(nearest.get(b, key), key)
        _, a, b = min((*key, b) for b, key in nearest.items())
        joined = rest.pop(next(i for i, comp in enumerate(rest) if b in comp))
        for node in joined:
            del outside[node], nearest[node]
        edges.append((a, b))
    return edges
