"""Derived routing tables against their eager enumeration.

``xy_routing``, ``yx_routing`` and ``fat_tree_routing`` return tables
that compute each route on first lookup.  The enumerated side of every
comparison builds the same routes eagerly: ``route_all`` over the same
switch-path function for meshes, the same per-pair resolver for fat
trees.  Everything a caller can observe must agree — routes, length,
iteration order (also after lookups in a shuffled order), link loads,
serialisation and the netlist LUT export — and malformed fabrics must
still raise when the table is built, not at the first packet.
"""

import pickle
import random
from functools import partial

import pytest

from repro.apps import pip
from repro.chips import bone, faust, teraflops
from repro.core import CommunicationSpec, mesh_baseline
from repro.core.netlist import generate_netlist
from repro.lab.hashing import canonical_json
from repro.topology import (
    Topology,
    fat_tree,
    fat_tree_routing,
    mesh,
    route_all,
    routing_table_to_dict,
    xy_routing,
    yx_routing,
)
from repro.topology.routing import _enumerate, _fat_tree_route, _xy_switch_path


def _mesh_case(topo, x_first):
    derived = (xy_routing if x_first else yx_routing)(topo)
    enumerated = route_all(
        topo, partial(_xy_switch_path, topo, x_first=x_first)
    )
    return derived, enumerated


def _fat_tree_case(topo):
    return fat_tree_routing(topo), _enumerate(topo, partial(_fat_tree_route, topo))


def _pip_baseline():
    design = mesh_baseline(CommunicationSpec.from_workload(pip()))
    return design.topology


MESHES = {
    "mesh1x2": lambda: mesh(1, 2),
    "mesh3x5": lambda: mesh(3, 5),
    "mesh4x4": lambda: mesh(4, 4),
    "mesh8x8": lambda: mesh(8, 8),
    "faust": lambda: faust.build().topology,
    "teraflops": lambda: teraflops.build().topology,
    "pip_baseline": _pip_baseline,  # 8 cores on 3x3 tiles: one empty
    "bone_mesh": lambda: bone.build_mesh_reference().topology,
}
FAT_TREES = {
    "fattree_k2_n1": lambda: fat_tree(2, 1),
    "fattree_k2_n2": lambda: fat_tree(2, 2),
    "fattree_k2_n3": lambda: fat_tree(2, 3),
    "fattree_k3_n2": lambda: fat_tree(3, 2),
}


def _cases():
    for name, build in MESHES.items():
        for x_first in (True, False):
            order = "xy" if x_first else "yx"
            yield pytest.param(
                lambda b=build, xf=x_first: _mesh_case(b(), xf),
                id=f"{name}-{order}",
            )
    for name, build in FAT_TREES.items():
        yield pytest.param(lambda b=build: _fat_tree_case(b()), id=name)


CASES = list(_cases())


def _paths(table):
    return [route.path for route in table]


@pytest.mark.parametrize("case", CASES)
class TestDerivedMatchesEnumerated:
    def test_tables_are_derived_and_enumerated(self, case):
        derived, enumerated = case()
        assert derived.derived
        assert not enumerated.derived

    def test_same_routes_and_length(self, case):
        derived, enumerated = case()
        assert len(derived) == len(enumerated)
        cores = derived.topology.cores
        for src in cores:
            for dst in cores:
                assert derived.has_route(src, dst) == enumerated.has_route(src, dst)
                if enumerated.has_route(src, dst):
                    assert derived.route(src, dst) == enumerated.route(src, dst)

    def test_iteration_order_is_canonical(self, case):
        derived, enumerated = case()
        assert derived.pairs() == enumerated.pairs()
        assert _paths(derived) == _paths(enumerated)

    def test_iteration_order_ignores_prior_lookups(self, case):
        derived, enumerated = case()
        pairs = enumerated.pairs()
        random.Random(5).shuffle(pairs)
        for src, dst in pairs[: len(pairs) // 2 + 1]:
            derived.route(src, dst)
        assert derived.pairs() == enumerated.pairs()
        assert _paths(derived) == _paths(enumerated)

    def test_link_loads(self, case):
        derived, enumerated = case()
        assert list(derived.link_loads().items()) == list(
            enumerated.link_loads().items()
        )
        rng = random.Random(3)
        rates = {pair: rng.uniform(1e6, 1e9) for pair in enumerated.pairs()}
        assert list(derived.link_loads(rates).items()) == list(
            enumerated.link_loads(rates).items()
        )

    def test_serialisation_and_netlist_luts(self, case):
        derived, enumerated = case()
        assert canonical_json(routing_table_to_dict(derived)) == canonical_json(
            routing_table_to_dict(enumerated)
        )
        topo = derived.topology
        assert generate_netlist(topo, derived).luts == generate_netlist(
            topo, enumerated
        ).luts

    def test_pickles_without_the_routes(self, case):
        derived, enumerated = case()
        restored = pickle.loads(pickle.dumps(derived))
        assert restored.derived
        assert _paths(restored) == _paths(enumerated)
        if len(enumerated) >= 1000:
            assert len(pickle.dumps(derived)) * 4 < len(pickle.dumps(enumerated))


class TestDerivedTableSemantics:
    def test_lookup_is_memoised(self):
        table = xy_routing(mesh(3, 3))
        assert table.route("c_0_0", "c_2_2") is table.route("c_0_0", "c_2_2")

    def test_unknown_pairs_raise_key_error(self):
        table = xy_routing(mesh(2, 2))
        assert not table.has_route("c_0_0", "c_0_0")
        assert not table.has_route("c_0_0", "ghost")
        with pytest.raises(KeyError, match="no route"):
            table.route("c_0_0", "c_0_0")
        with pytest.raises(KeyError, match="no route"):
            table.route("ghost", "c_0_0")

    def test_set_route_overrides_in_place(self):
        from repro.topology import Route

        m = mesh(2, 2)
        table = xy_routing(m)
        detour = Route(("c_0_0", "s_0_0", "s_0_1", "s_1_1", "c_1_1"))
        table.set_route(detour)
        assert table.route("c_0_0", "c_1_1") == detour
        assert len(table) == 12
        assert table.pairs() == route_all(
            m, partial(_xy_switch_path, m, x_first=True)
        ).pairs()

    def test_set_route_outside_the_pair_set_rejected(self):
        from repro.topology import Route

        m = mesh(2, 1)
        table = xy_routing(m)
        with pytest.raises(ValueError, match="distinct cores"):
            table.set_route(Route(("c_0_0", "s_0_0", "c_0_0")))

    def test_single_core_table_is_empty(self):
        t = Topology()
        t.add_switch("s_0_0", x=0, y=0)
        t.add_core("a")
        t.add_link("a", "s_0_0")
        table = xy_routing(t)
        assert len(table) == 0
        assert list(table) == []


# ----------------------------------------------------------------------
# Malformed fabrics: still rejected when the table is built
# ----------------------------------------------------------------------
def _grid(width, height, skip=()):
    """A ``width`` x ``height`` mesh with one core per switch, leaving
    out the directed switch links in ``skip``."""
    t = Topology(f"grid{width}x{height}")
    for y in range(height):
        for x in range(width):
            t.add_switch(f"s_{x}_{y}", x=x, y=y)
            t.add_core(f"c_{x}_{y}")
            t.add_link(f"c_{x}_{y}", f"s_{x}_{y}")
    for y in range(height):
        for x in range(width):
            for nx_, ny in ((x + 1, y), (x, y + 1)):
                if nx_ < width and ny < height:
                    a, b = f"s_{x}_{y}", f"s_{nx_}_{ny}"
                    for u, v in ((a, b), (b, a)):
                        if (u, v) not in skip:
                            t.add_link(u, v, bidirectional=False)
    return t


@pytest.mark.parametrize("routing", [xy_routing, yx_routing])
class TestMeshValidationAtBuild:
    def test_switch_without_coordinates(self, routing):
        t = _grid(2, 1)
        t.add_switch("s_extra")
        t.add_core("c_extra")
        t.add_link("c_extra", "s_extra")
        t.add_link("s_extra", "s_1_0")
        with pytest.raises(ValueError, match="lacks x/y mesh coordinates"):
            routing(t)

    def test_missing_unit_hop_link(self, routing):
        t = _grid(3, 3, skip={("s_1_1", "s_2_1")})
        with pytest.raises(ValueError, match="missing link 's_1_1'->'s_2_1'"):
            routing(t)

    def test_hole_in_the_grid(self, routing):
        t = Topology()
        for x in (0, 2):
            t.add_switch(f"s_{x}_0", x=x, y=0)
            t.add_core(f"c_{x}")
            t.add_link(f"c_{x}", f"s_{x}_0")
        t.add_link("s_0_0", "s_2_0")
        with pytest.raises(ValueError, match=r"no switch at mesh position \(1, 0\)"):
            routing(t)

    def test_core_attached_to_no_switch(self, routing):
        t = _grid(2, 2)
        t.add_core("lonely")
        with pytest.raises(ValueError, match="no usable attachments"):
            routing(t)

    def test_error_matches_eager_enumeration(self, routing):
        """The same message the eager build raises, first broken pair."""
        t = _grid(4, 4, skip={("s_2_3", "s_1_3"), ("s_0_1", "s_0_2")})
        x_first = routing is xy_routing
        with pytest.raises(ValueError) as eager:
            route_all(t, partial(_xy_switch_path, t, x_first=x_first))
        with pytest.raises(ValueError) as built:
            routing(t)
        assert str(built.value) == str(eager.value)


class TestConservativeCheckFallsBack:
    def test_unused_missing_link_still_routes_eagerly(self):
        """A dual-homed core makes the O(N) check cover a link no chosen
        route uses; the table is then enumerated, exactly as before."""
        t = Topology()
        for x in range(3):
            t.add_switch(f"s_{x}_0", x=x, y=0)
        t.add_link("s_0_0", "s_1_0")
        t.add_core("m")
        t.add_link("m", "s_0_0")
        t.add_link("m", "s_2_0")
        t.add_core("b")
        t.add_link("b", "s_1_0")
        table = xy_routing(t)
        assert not table.derived
        assert table.route("m", "b").path == ("m", "s_0_0", "s_1_0", "b")
        assert table.route("b", "m").path == ("b", "s_1_0", "s_0_0", "m")


class TestFatTreeValidationAtBuild:
    def test_core_without_address(self):
        t = fat_tree(2, 2)
        t.add_core("stray")
        t.add_link("stray", "s_0_0")
        with pytest.raises(ValueError, match="lacks a fat-tree address"):
            fat_tree_routing(t)

    def test_core_attached_to_no_switch(self):
        t = fat_tree(2, 2)
        t.add_core("lonely", address=(1, 1))
        with pytest.raises(ValueError, match="missing link"):
            fat_tree_routing(t)


def _damaged_mesh(rng):
    """A small mesh with random holes, missing links, homeless and
    dual-homed cores: every way the structure check can be wrong."""
    width, height = rng.randint(1, 4), rng.randint(1, 4)
    t = Topology()
    for y in range(height):
        for x in range(width):
            if rng.random() < 0.08:
                continue  # a hole in the grid
            t.add_switch(f"s_{x}_{y}", x=x, y=y)
    switches = t.switches
    if not switches:
        return t
    for i in range(rng.randint(1, 6)):
        core = f"c{i}"
        t.add_core(core)
        homes = rng.sample(switches, min(len(switches), rng.choice((0, 1, 1, 1, 2))))
        for sw in homes:
            t.add_link(core, sw, bidirectional=rng.random() < 0.9)
    for a in switches:
        for b in switches:
            pa, pb = t.node_attrs(a), t.node_attrs(b)
            if abs(pa["x"] - pb["x"]) + abs(pa["y"] - pb["y"]) == 1:
                if rng.random() < 0.93:
                    t.add_link(a, b, bidirectional=False)
    return t


@pytest.mark.parametrize("routing,x_first", [(xy_routing, True), (yx_routing, False)])
def test_damaged_meshes_agree_with_eager_enumeration(routing, x_first):
    """Derived or not, a table equals the eager one, or both raise the
    same error."""
    rng = random.Random(2024)
    derived_count = 0
    for _ in range(400):
        t = _damaged_mesh(rng)
        try:
            eager = route_all(t, partial(_xy_switch_path, t, x_first=x_first))
        except ValueError as exc:
            with pytest.raises(ValueError) as built:
                routing(t)
            assert str(built.value) == str(exc)
            continue
        table = routing(t)
        derived_count += table.derived
        assert _paths(table) == _paths(eager)
    assert derived_count > 50
