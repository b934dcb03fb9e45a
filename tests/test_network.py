import hashlib
import io
import json
import math
import warnings

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skybroker.config import ConfigurationError
from skybroker.harness import ExperimentConfig, run_experiment
from skybroker.network import (
    ParseError,
    _k_nearest,
    _stitches,
    SkywayNetwork,
    SkywayNode,
    build_all_heatmaps,
    build_region_grid,
    dump_network,
    load_network,
    load_network_dump,
    shortest_path_tree,
    t_shortest_region_paths,
)

from conftest import (
    brute_k_nearest, brute_stitches, default_network, network_to_streams, oracle_region_paths, recursive_region_paths,
    region_grid, tree_path,
)


def load(edges, coords, stations):
    return load_network(io.StringIO(edges), io.StringIO(coords), io.StringIO(stations))


class TestLoadNetwork:
    def test_minimal_two_node_segment(self):
        net = load("1 2\n", "1 0 0\n2 100 0\n", "1 1 2\n2 1 3\n")
        assert net.n_nodes == 2
        assert net.edges() == [(1, 2)]
        assert net.length(1, 2) == pytest.approx(100.0)

    def test_edge_referencing_unknown_node_names_it(self):
        with pytest.raises(ParseError, match="node 3"):
            load("1 3\n", "1 0 0\n2 100 0\n", "1 1 2\n2 1 3\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load("1 2\n", "1 0 0\n2 100\n", "1 1 2\n2 1 3\n")

    def test_node_without_station_record(self):
        with pytest.raises(ParseError, match="node 2 has no station record"):
            load("1 2\n", "1 0 0\n2 100 0\n", "1 1 2\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            load("", "", "")

    def test_disconnected_keeps_largest_component_with_warning(self):
        coords = "1 0 0\n2 100 0\n3 0 500\n4 100 500\n5 900 900\n"
        stations = "".join(f"{i} 1 1\n" for i in range(1, 6))
        edges = "1 2\n2 3\n3 4\n"  # node 5 isolated
        with pytest.warns(UserWarning, match="largest component"):
            net = load(edges, coords, stations)
        assert sorted(net.nodes) == [1, 2, 3, 4]
        assert len(net.components()) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            load("1 1\n", "1 0 0\n2 100 0\n", "1 1 2\n2 1 3\n")

    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    def test_non_finite_coordinate_rejected(self, x):
        with pytest.raises(ParseError, match="node 2: coordinates must be finite"):
            load("", f"1 0 0\n2 {x} 0\n", "1 1 2\n2 1 3\n")

    def test_zero_pads_rejected(self):
        with pytest.raises(ParseError, match="node 2: pad_count"):
            load("1 2\n", "1 0 0\n2 100 0\n", "1 1 2\n2 1 0\n")

    def test_overflowing_segment_rejected(self):
        with pytest.raises(ParseError, match="length must be positive and finite"):
            load("1 2\n", "1 -1e308 0\n2 1e308 0\n", "1 1 2\n2 1 3\n")

    def test_zero_length_segment_rejected(self):
        # the network model's length rule is what segment_energy trusts
        with pytest.raises(ParseError, match=r"segment \(1, 2\): length must be positive and finite"):
            load("1 2\n", "1 5 5\n2 5 5\n", "1 1 2\n2 1 3\n")

    def test_492_node_subnetwork_loads_connected(self):
        # mirrors ingesting an urban edge-list extract of 492 connected nodes
        net = default_network(42, 492)
        edges, coords, stations = network_to_streams(net)
        loaded = load(edges, coords, stations)
        assert loaded.n_nodes == 492
        assert len(loaded.components()) == 1
        assert dump_network(loaded) == dump_network(net)


class TestCanonicalDump:
    def test_round_trip_identical(self):
        net = default_network(7, 60)
        blob = dump_network(net)
        again = load_network_dump(blob)
        assert dump_network(again) == blob

    def test_malformed_dump(self):
        with pytest.raises(ParseError):
            load_network_dump("{\"nodes\": 3}")

    @pytest.mark.parametrize(
        "n_nodes, edges, kept",
        [
            (5, [[1, 2], [2, 3], [3, 4]], [1, 2, 3, 4]),  # node 5 isolated
            (4, [[1, 2], [3, 4]], [1, 2]),  # equal sizes: the smallest id wins
        ],
        ids=["isolated_node", "equal_halves"],
    )
    def test_disconnected_keeps_largest_component_with_warning(self, n_nodes, edges, kept):
        nodes = [[i, 100.0 * i, 0.0, 1, 1] for i in range(1, n_nodes + 1)]
        with pytest.warns(UserWarning, match="largest component"):
            net = load_network_dump(json.dumps({"nodes": nodes, "edges": edges}))
        assert sorted(net.nodes) == kept
        assert len(net.components()) == 1

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([[1, 0, 0, 1, 1], [1, 5, 0, 1, 1]], "duplicate node id 1"),
            ([], "at least one node"),
            ([[1, float("nan"), 0, 1, 1]], "finite"),
            ([[1, 0, 0, 1, 0]], "pad_count"),
            ([[True, 0, 0, 1, 1]], "expected an integer, got True"),
            ([[1.5, 0, 0, 1, 1]], "expected an integer, got 1.5"),
            ([["1", 0, 0, 1, 1]], "expected an integer, got '1'"),
            ([[1, True, 5, 1, 1]], "expected a number, got True"),
            ([[1, 1, "5", 1, 1]], "expected a number, got '5'"),
            ([[1, None, 5, 1, 1]], "expected a number, got None"),
        ],
    )
    def test_invalid_dump_contents(self, nodes, message):
        with pytest.raises(ParseError, match=message):
            load_network_dump(json.dumps({"nodes": nodes, "edges": []}))

    @pytest.mark.parametrize("edges, bad", [([[True, 2.0]], "True"), ([[1, 2.5]], "2.5")])
    def test_non_integer_edge_end_rejected(self, edges, bad):
        nodes = [[1, 0, 0, 1, 1], [2, 30, 40, 1, 1]]
        with pytest.raises(ParseError, match=f"expected an integer, got {bad}"):
            load_network_dump(json.dumps({"nodes": nodes, "edges": edges}))

    def test_integral_floats_load_as_ints(self):
        net = load_network_dump('{"nodes": [[1.0, 0, 0, 1, 1], [2, 30, 40, 1.0, 2.0]], "edges": [[2.0, 1]]}')
        assert dump_network(net) == '{"nodes":[[1,0.0,0.0,1,1],[2,30.0,40.0,1,2]],"edges":[[1,2]]}'


@st.composite
def fuzzed_networks(draw, odd):
    """Nodes [id, x, y, owner, pads] and edges [a, b] on up to five nodes, with
    up to two values replaced by draws from odd. Coordinates of +-1e308 are
    finite, but a segment between them is not."""
    n = draw(st.integers(1, 5))
    coord = st.sampled_from([-1e308, -200.0, 0.0, 100.0, 300.0, 1e308])
    node = st.integers(0, n - 1)
    nodes = [[i, draw(coord), draw(coord), draw(st.integers(1, 3)), draw(st.integers(1, 4))] for i in range(n)]
    edges = [[draw(node), draw(node)] for _ in range(draw(st.integers(0, 2 * n)))]
    records = nodes + edges
    for _ in range(draw(st.integers(0, 2))):
        record = draw(st.sampled_from(records))
        record[draw(st.integers(0, len(record) - 1))] = draw(odd)
    return nodes, edges


def as_text(network):
    nodes, edges = network
    lines = lambda records: "\n".join(" ".join(map(str, r)) for r in records)
    return lines(edges), lines(n[:3] for n in nodes), lines([n[0], *n[3:]] for n in nodes)


odd_tokens = st.one_of(st.sampled_from(["inf", "-inf", "nan", "0", "-1", "1e400", "x"]), st.text(max_size=3))
odd_scalars = st.one_of(st.floats(), st.sampled_from([10**400, "1", None, True]), st.text(max_size=2))
dump_blobs = st.one_of(
    fuzzed_networks(odd_scalars).map(lambda net: json.dumps({"nodes": net[0], "edges": net[1]})),
    st.lists(odd_scalars).map(json.dumps),
    st.text(max_size=30),
)


def assert_canonical(net):
    """The dump of net holds plain ints and loads back to net, whose dump it is again."""
    blob = dump_network(net)
    payload = json.loads(blob)
    integers = [v for n in payload["nodes"] for v in (n[0], n[3], n[4])] + sum(payload["edges"], [])
    assert all(type(v) is int for v in integers)
    again = load_network_dump(blob)
    assert dump_network(again) == blob


class TestLoaderFuzz:
    """Both loaders either return a network or raise ParseError, nothing else,
    and a loaded dump re-dumps canonically."""

    @given(fuzzed_networks(odd_tokens).map(as_text))
    @settings(max_examples=300, deadline=None)
    def test_text_triple(self, streams):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # disconnected inputs warn and load
            try:
                load(*streams)
            except ParseError:
                pass

    @given(dump_blobs)
    @settings(max_examples=300, deadline=None)
    def test_dump_blob(self, blob):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # disconnected dumps warn and load
            try:
                net = load_network_dump(blob)
            except ParseError:
                return
        assert_canonical(net)

    @given(st.integers(1, 20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_dump_ids_in_other_json_forms(self, seed, data):
        """Integers spelled as integral floats load as the same network; an
        integer spelled as a bool, a string or a fraction, or a coordinate
        spelled as a bool or a string, is refused."""
        net = default_network(seed, 6)
        payload = json.loads(dump_network(net))
        ints = [(n, i) for n in payload["nodes"] for i in (0, 3, 4)]
        ints += [(e, i) for e in payload["edges"] for i in (0, 1)]
        for record, i in ints:
            record[i] = data.draw(st.sampled_from([record[i], float(record[i])]))
        fields = [(r, i, [int(r[i]) + 0.5]) for r, i in ints]
        fields += [(n, i, []) for n in payload["nodes"] for i in (1, 2)]
        odd = data.draw(st.lists(st.sampled_from(fields), max_size=2))
        spellings = [data.draw(st.sampled_from([True, False, str(r[i]), *fractions])) for r, i, fractions in odd]
        for (record, i, _), spelling in zip(odd, spellings):
            record[i] = spelling
        try:
            loaded = load_network_dump(json.dumps(payload))
        except ParseError:
            assert odd
            return
        assert not odd and dump_network(loaded) == dump_network(net)
        assert_canonical(loaded)


class TestSegmentInvariants:
    def test_pairs_in_either_order_are_one_euclidean_segment(self):
        nodes = [SkywayNode(1, 0, 0, 1, 1), SkywayNode(2, 30, 40, 1, 1)]
        net = SkywayNetwork(nodes, [(2, 1), (1, 2)])
        assert net.neighbors(1) == ((2, 50.0),) and net.neighbors(2) == ((1, 50.0),)

    def test_pad_count_positive(self):
        with pytest.raises(ValueError):
            SkywayNode(1, 0, 0, 1, 0)


class TestRegionGrid:
    def test_four_corner_nodes_distinct_cells(self):
        nodes = [
            SkywayNode(1, 0, 0, 1, 1),
            SkywayNode(2, 100, 0, 1, 1),
            SkywayNode(3, 0, 100, 1, 1),
            SkywayNode(4, 100, 100, 1, 1),
        ]
        net = SkywayNetwork(nodes, [(1, 2)])
        grid = build_region_grid(net, 2)
        assert len(set(grid.cell_of.values())) == 4

    def test_coincident_nodes_single_cell(self):
        nodes = [SkywayNode(i, 5.0, 5.0, 1, 1) for i in range(1, 4)]
        net = SkywayNetwork(nodes, [])
        grid = build_region_grid(net, 8)
        assert set(grid.cell_of.values()) == {0}

    def test_resolution_below_two_rejected(self):
        # the experiment config's rule keeps it from build_region_grid
        with pytest.raises(ConfigurationError, match=r"^experiment config grid_resolution must be in \[2, 256\]"):
            ExperimentConfig(grid_resolution=1)

    def test_boundary_ties_go_to_lower_cell(self):
        # bounds 0..8 with G=8 gives unit cells; x=3.0 sits exactly between
        # cells 2 and 3 and must land in cell 2
        nodes = [
            SkywayNode(1, 0.0, 0.0, 1, 1),
            SkywayNode(2, 8.0, 8.0, 1, 1),
            SkywayNode(3, 3.0, 0.0, 1, 1),
        ]
        net = SkywayNetwork(nodes, [])
        grid = build_region_grid(net, 8)
        assert grid.cell_of[3] == 2

    def test_membership_matches_rectangle_oracle(self):
        net = default_network(11, 100)
        g = 8
        grid = build_region_grid(net, g)
        xs = [n.x for n in net.nodes.values()]
        ys = [n.y for n in net.nodes.values()]
        xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)

        def oracle_axis(v, lo, hi):
            width = (hi - lo) / g
            for i in range(g):
                low, high = lo + i * width, lo + (i + 1) * width
                if (v > low or (i == 0 and v >= low)) and v <= high:
                    return i
            raise AssertionError("point outside bounds")

        for nid, node in net.nodes.items():
            expected = oracle_axis(node.y, ymin, ymax) * g + oracle_axis(node.x, xmin, xmax)
            assert grid.cell_of[nid] == expected

    def test_partition_every_node_exactly_one_cell(self):
        net = default_network(3, 80)
        grid = build_region_grid(net, 8)
        assert set(grid.cell_of) == set(net.nodes)
        assert all(0 <= c < grid.cell_count for c in grid.cell_of.values())


class TestHeatmaps:
    def test_single_station_single_cell(self):
        nodes = [SkywayNode(1, 0, 0, 7, 3), SkywayNode(2, 100, 100, 8, 1)]
        net = SkywayNetwork(nodes, [])
        grid = build_region_grid(net, 2)
        heatmaps = build_all_heatmaps(net, grid)
        assert sorted(heatmaps[7], reverse=True)[0] == 3.0
        assert sum(1 for c in heatmaps[7] if c > 0) == 1
        assert sum(heatmaps[8]) == 1.0

    def test_matches_one_pass_per_company(self):
        net = default_network(4, 90)
        grid = build_region_grid(net, 6)
        heatmaps = build_all_heatmaps(net, grid)
        assert list(heatmaps) == list(net.charging_providers)
        for cp, hm in heatmaps.items():
            cells = [0.0] * grid.cell_count
            for nid, node in net.nodes.items():
                if node.station_owner == cp:
                    cells[grid.cell_of[nid]] += node.pad_count
            assert hm == tuple(cells)

    def test_conservation_across_providers(self):
        net = default_network(5, 120)
        grid = build_region_grid(net, 8)
        heatmaps = build_all_heatmaps(net, grid)
        total_pads = sum(n.pad_count for n in net.nodes.values())
        assert sum(sum(hm) for hm in heatmaps.values()) == total_pads
        # cell-wise sum equals the all-provider pad heatmap
        for cell in range(grid.cell_count):
            direct = sum(
                n.pad_count for nid, n in net.nodes.items() if grid.cell_of[nid] == cell
            )
            assert sum(hm[cell] for hm in heatmaps.values()) == direct

    def test_argmax_cell_matches_independent_count(self):
        net = default_network(9, 150)
        grid = build_region_grid(net, 8)
        heatmaps = build_all_heatmaps(net, grid)
        for cp in net.charging_providers:
            hm = heatmaps[cp]
            counts = {}
            for nid, node in net.nodes.items():
                if node.station_owner == cp:
                    counts[grid.cell_of[nid]] = counts.get(grid.cell_of[nid], 0) + node.pad_count
            if not counts:
                continue
            best = max(hm)
            assert best == max(counts.values())

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_heatmap_conservation_property(self, seed):
        net = default_network(seed, 30)
        grid = build_region_grid(net, 4)
        heatmaps = build_all_heatmaps(net, grid)
        total_pads = sum(n.pad_count for n in net.nodes.values())
        assert sum(sum(hm) for hm in heatmaps.values()) == total_pads


class TestRegionPaths:
    def test_adjacent_cells_first_path_one_hop(self):
        grid = region_grid(3)
        paths = t_shortest_region_paths(grid, 0, 1, 3)
        assert len(paths) == 3
        assert len(paths[0]) == 2
        for p in paths:
            assert len(set(p)) == len(p)
            assert p[0] == 0 and p[-1] == 1

    def test_same_cell_single_zero_length_path(self):
        grid = region_grid(3)
        assert t_shortest_region_paths(grid, 4, 4, 5) == [(4,)]

    def test_saturation_returns_all_paths(self):
        # 2x2 grid cells form a complete graph on 4 vertices: exactly 5 loop-free
        # paths exist between any two distinct cells
        grid = region_grid(2)
        paths = t_shortest_region_paths(grid, 0, 3, 50)
        assert len(paths) == 5

    def test_opposite_corners_match_enumeration_oracle(self):
        grid = region_grid(4)
        got = t_shortest_region_paths(grid, 0, 15, 5)
        assert got == oracle_region_paths(grid, 0, 15, 5, cutoff=2 * grid.resolution + 2)

    def test_hop_counts_non_decreasing(self):
        grid = region_grid(4)
        paths = t_shortest_region_paths(grid, 1, 14, 12)
        hops = [len(p) for p in paths]
        assert hops == sorted(hops)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_explicit_stack_matches_recursive_oracle(self, data):
        grid = region_grid(data.draw(st.integers(min_value=2, max_value=12)))
        cell = st.integers(min_value=0, max_value=grid.cell_count - 1)
        source, dest, t = data.draw(cell), data.draw(cell), data.draw(st.integers(min_value=1, max_value=6))
        assert t_shortest_region_paths(grid, source, dest, t) == recursive_region_paths(grid, source, dest, t)

    def test_paths_across_the_largest_grid(self):
        # the largest grid the config allows, 255 hops a path
        grid = region_grid(256)
        paths = t_shortest_region_paths(grid, 0, 255, 3)
        assert [len(p) for p in paths] == [256] * 3 and len(set(paths)) == 3


class TestShortestPaths:
    def test_tree_against_networkx(self):
        net = default_network(21, 60)
        graph = nx.Graph()
        for a, b in net.edges():
            graph.add_edge(a, b, weight=net.length(a, b))
        root = min(net.nodes)
        dist, parent = shortest_path_tree(net, root)
        expected = nx.single_source_dijkstra_path_length(graph, root)
        assert set(dist) == set(expected)
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)
        # parent walk reconstructs a path of the computed length
        far = max(dist, key=dist.get)
        path = tree_path(parent, far)
        assert path[0] == far and path[-1] == root
        total = sum(net.length(a, b) for a, b in zip(path, path[1:]))
        assert total == pytest.approx(dist[far])

    def test_unknown_root_fails(self):
        """The harness builds the destination tree before the request
        context, so an endpoint off the network fails here."""
        net = default_network(21, 20)
        with pytest.raises(KeyError):
            shortest_path_tree(net, max(net.nodes) + 1)


@st.composite
def point_sets(draw):
    """Query and target points in the square [0, area_m]^2 and a k, which may
    reach the target count or more. The queries are the targets themselves,
    or other points whose ids interleave with the targets'. Coordinates are
    floats in an area of side 1 to 1e150, or integer-lattice points whose
    cells span a whole number of lattice steps, so that ties fall on the cell
    list's ring edges."""
    n = draw(st.integers(min_value=2, max_value=60))
    n_apart = draw(st.just(0) | st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=0, max_value=8) | st.integers(min_value=n - 1, max_value=n + 1))
    if draw(st.booleans()):
        area_m = draw(st.floats(min_value=1.0, max_value=1e150))
        coordinate = st.floats(min_value=0.0, max_value=area_m)
    else:
        cells_per_side = max(1, math.isqrt(n // 2))  # as the cell list sizes its grid over the targets
        area_m = float(cells_per_side * draw(st.integers(min_value=1, max_value=4)))
        coordinate = st.integers(min_value=0, max_value=int(area_m)).map(float)
    ids = draw(st.permutations(range(1, n + n_apart + 1)))
    positions = {nid: (draw(coordinate), draw(coordinate)) for nid in ids}
    targets = {nid: positions[nid] for nid in ids[:n]}
    queries = {nid: positions[nid] for nid in ids[n:]} if n_apart else targets
    return queries, targets, k, area_m


@st.composite
def cut_point_sets(draw):
    """The points ``point_sets`` draws, queries and targets alike, cut into up
    to 6 components ordered by their smallest id, as
    ``SkywayNetwork.components`` orders them, with the area."""
    queries, targets, _, area_m = draw(point_sets())
    positions = {**targets, **queries}
    ids = sorted(positions)
    labels = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=len(ids), max_size=len(ids)))
    components = [{nid for nid, own in zip(ids, labels) if own == label} for label in dict.fromkeys(labels)]
    return components, positions, area_m


# a stop one ring early, after ring r at (r + 1) cell sides, gives node 8
# node 5 (2 m away, its own cell) instead of node 2 (1 m, the next cell)
RING_EDGE_POINTS = {1: (3, 3), 2: (3, 0), 3: (0, 3), 4: (6, 1), 5: (0, 0), 6: (4, 4), 7: (1, 5), 8: (2, 0)}


class TestSyntheticNetwork:
    @given(point_sets())
    @settings(max_examples=300, deadline=None)
    @example((RING_EDGE_POINTS, RING_EDGE_POINTS, 1, 6.0))
    def test_cell_list_matches_brute_oracle(self, points):
        queries, targets, k, area_m = points
        assert _k_nearest(queries, targets, k, area_m) == brute_k_nearest(queries, targets, k)

    @given(cut_point_sets())
    @settings(max_examples=100, deadline=None)
    def test_stitching_matches_brute_oracle(self, cut):
        components, positions, area_m = cut
        expected = brute_stitches([set(comp) for comp in components], positions)
        assert _stitches(components, positions, area_m) == expected

    @pytest.mark.parametrize("seed, n, k, joins", [(1, 30, 4, 0), (3, 30, 4, 1), (1, 30, 1, 11)])
    def test_one_cell_list_search_per_join(self, seed, n, k, joins, monkeypatch):
        # the nearest-neighbour edges take one search, and each stitch one
        # more; a connected network makes no other
        searches = []

        def counting(queries, targets, k, area_m):
            searches.append(k)
            return _k_nearest(queries, targets, k, area_m)

        monkeypatch.setattr("skybroker.network.K_NEAREST", k)
        monkeypatch.setattr("skybroker.network._k_nearest", counting)
        net = default_network(seed, n)
        assert searches == [k] + [1] * joins
        assert len(net.components()) == 1

    def test_deterministic_and_connected(self):
        a = default_network(5, 100)
        b = default_network(5, 100)
        assert dump_network(a) == dump_network(b)
        assert len(a.components()) == 1
        assert set(a.charging_providers) <= set(range(1, 6))

    def test_stitching_alone_builds_the_minimum_spanning_tree(self, monkeypatch):
        # with no nearest-neighbour edges every node starts alone, and joining
        # the closest cross pair onto the first component is Prim's algorithm
        monkeypatch.setattr("skybroker.network.K_NEAREST", 0)
        net = default_network(8, 30)
        complete = nx.Graph()
        for a in net.nodes:
            for b in net.nodes:
                if a < b:
                    na, nb = net.node(a), net.node(b)
                    complete.add_edge(a, b, weight=math.hypot(na.x - nb.x, na.y - nb.y))
        mst = nx.minimum_spanning_tree(complete)
        assert net.edges() == sorted((min(e), max(e)) for e in mst.edges)

    def test_builder_bytes_are_pinned_stitching_included(self, monkeypatch):
        """One sha256 over the dumps of a grid of synthetic networks. K_NEAREST
        0 and 1 leave most grids disconnected, so the stitching is pinned too.
        The cell-list nearest-neighbour search, and any other rework of the
        builder, must keep this digest."""
        grid = [(seed, n, k) for seed in (1, 2, 3) for n in (2, 10, 50, 100) for k in (0, 1, 2, 4)]
        grid += [(seed, 300, 4) for seed in (1, 2, 3)]
        digest = hashlib.sha256()
        for seed, n, k in grid:
            monkeypatch.setattr("skybroker.network.K_NEAREST", k)
            digest.update(dump_network(default_network(seed, n)).encode() + b"\n")
        assert digest.hexdigest() == "49ee1a9ad3092123a40fb0f421452a117978079dd5b3b528803c14832d5f43f4"

    def test_builder_bytes_are_pinned_at_scale(self):
        """One sha256 over the dumps of the default networks of 3,000 and
        10,000 nodes, whose cell lists are 38 x 38 and 70 x 70 cells."""
        digest = hashlib.sha256()
        for n in (3000, 10000):
            digest.update(dump_network(default_network(1, n)).encode() + b"\n")
        assert digest.hexdigest() == "8e56901fe8fe8f202ad0f9c3b141e7948d02e54301d9b1f6d396ca52ac682a0b"

    @pytest.mark.parametrize("area_m", [0.0, -5.0, 5e-324, math.nan, math.inf, 1e160])
    def test_area_not_positive_and_finite_rejected(self, area_m):
        # the experiment config's rule keeps it from synthetic_network
        with pytest.raises(ConfigurationError, match="^experiment config area_m must be "):
            ExperimentConfig(area_m=area_m)

    def test_largest_area_runs(self):
        # the builder squares coordinate differences; beyond area_m's bound
        # they overflow
        result = run_experiment(ExperimentConfig(area_m=1e150, synthetic_nodes=20, n_providers=3, n_requests=2))
        assert result.manifest["requests"] == {"served": 0, "rejected": 0, "unserved": 2}  # no swarm flies that far

    def test_segment_lengths_euclidean(self):
        net = default_network(3, 40)
        for a, b in net.edges():
            na, nb = net.node(a), net.node(b)
            assert net.length(a, b) == net.length(b, a) == pytest.approx(math.hypot(na.x - nb.x, na.y - nb.y))
