import tracemalloc

import numpy as np
import pytest

from compass_consensus.errors import DomainError
from compass_consensus.geometry import ConeQuery, gamma_cone_contains, supporting_hyperrectangle
from compass_consensus.graphs import SignedDigraph, complete_graph
from compass_consensus.protocols import ProtocolKind, ProtocolSpec, rotation_matrix
from helpers import in_arcs_cases

MUTUAL_PAIR = {"g": SignedDigraph(2, [(1, 2), (2, 1)])}


def weighted(family, weights=1.0, gamma=1.0):
    return ProtocolSpec(kind=ProtocolKind.WEIGHTED_CONSENSUS, family=family, gamma=gamma, weights=weights)


class TestConsensusField:
    def test_two_agents(self):
        spec = weighted(MUTUAL_PAIR)
        f = spec.field("g", np.array([0.0, 2.0]))
        assert np.array_equal(f, [2.0, -2.0])

    def test_equal_states_fixed_point(self):
        spec = weighted({"g": complete_graph(4)})
        x = np.tile([1.5, -2.0], 4)
        assert np.array_equal(spec.field("g", x), np.zeros(8))

    def test_equal_states_fixed_point_all_cooperative_kinds(self):
        fam = {"g": complete_graph(3)}
        x = np.tile([0.3, -0.9], 3)
        for spec in (
            weighted(fam),
            ProtocolSpec(kind="RotatedConsensus", family=fam, gamma=1.0, rotation=0.7),
            ProtocolSpec(kind="SignedConsensus", family=fam, gamma=1.0),
        ):
            assert np.array_equal(spec.field("g", x), np.zeros(6))

    def test_isolated_agent_zero_block(self):
        spec = weighted({"g": SignedDigraph(3, [(1, 2)])})
        f = spec.field("g", np.array([5.0, 1.0, -9.0]))
        assert f[0] == 0.0 and f[2] == 0.0 and f[1] == 4.0

    def test_weight_map(self):
        spec = weighted(MUTUAL_PAIR, weights={(1, 2): 3.0, (2, 1): 0.5})
        f = spec.field("g", np.array([0.0, 2.0]))
        assert np.array_equal(f, [1.0, -6.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            weighted(MUTUAL_PAIR, weights=0.0)

    @pytest.mark.parametrize("weights", [
        np.nan, np.inf, {(1, 2): np.nan, (2, 1): 1.0}, {(1, 2): 1.0, (2, 1): np.inf},
        {(1, 2): 1.0, (2, 1): 1.0, (2, 2): np.nan}, True, {(1, 2): True, (2, 1): 1.0},
    ], ids=["nan", "inf", "map-nan", "map-inf", "unused-arc-nan", "bool", "map-bool"])
    def test_weights_must_be_finite(self, weights):
        with pytest.raises(DomainError, match="weights must be positive and finite"):
            weighted(MUTUAL_PAIR, weights=weights)

    def test_self_loop_ignored(self):
        fam = {"g": SignedDigraph(2, [(1, 1), (2, 1)], allow_self_loops=True)}
        spec = weighted(fam)
        f = spec.field("g", np.array([0.0, 2.0]))
        assert np.array_equal(f, [2.0, 0.0])


class TestRotatedField:
    def test_zero_rotation_matches_consensus(self):
        fam = {"g": complete_graph(3)}
        plain = weighted(fam)
        rot = ProtocolSpec(kind="RotatedConsensus", family=fam, gamma=1.0, rotation=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=6)
            assert np.allclose(rot.field("g", x), plain.field("g", x))

    def test_quarter_pi_single_arc(self):
        fam = {"g": SignedDigraph(2, [(2, 1)])}
        spec = ProtocolSpec(kind="RotatedConsensus", family=fam, gamma=1.0, rotation=np.pi / 4)
        x = np.array([0.0, 0.0, 1.0, 0.0])
        f = spec.field("g", x)
        assert np.allclose(f[:2], [np.sqrt(2) / 2, np.sqrt(2) / 2])
        assert np.array_equal(f[2:], [0.0, 0.0])

    def test_half_pi_leaves_carrier_subspace(self):
        fam = {"g": SignedDigraph(2, [(2, 1)])}
        spec = ProtocolSpec(kind="RotatedConsensus", family=fam, gamma=0.1, rotation=np.pi / 2)
        x = np.array([0.0, 0.0, 1.0, 0.0])
        f = spec.field("g", x)
        assert np.allclose(f[:2], [0.0, 1.0], atol=1e-15)
        box = supporting_hyperrectangle([x[:2], x[2:]])
        q = ConeQuery(x[:2], box, f[:2], gamma=0.1)
        assert not gamma_cone_contains(q)

    def test_rotation_preserves_magnitude(self):
        fam = {"g": complete_graph(3)}
        plain = weighted(fam)
        spec = ProtocolSpec(kind="RotatedConsensus", family=fam, gamma=1.0, rotation=[0.3, -1.1, 2.0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=6)
            fr = spec.field("g", x).reshape(3, 2)
            fc = plain.field("g", x).reshape(3, 2)
            assert np.allclose(np.linalg.norm(fr, axis=1), np.linalg.norm(fc, axis=1))

    def test_per_agent_rotations(self):
        fam = {"g": SignedDigraph(2, [(2, 1), (1, 2)])}
        spec = ProtocolSpec(
            kind="RotatedConsensus", family=fam, gamma=1.0, rotation=[np.pi / 2, 0.0]
        )
        x = np.array([0.0, 0.0, 1.0, 0.0])
        f = spec.field("g", x)
        assert np.allclose(f, [0.0, 1.0, -1.0, 0.0])

    def test_rotation_matrix_givens_3d(self):
        R = rotation_matrix([0.4, -0.2, 1.3], 3)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_rotation_angle_count_checked(self):
        with pytest.raises(DomainError):
            rotation_matrix([0.1, 0.2], 3)


class TestSignedField:
    def test_all_positive_matches_consensus(self):
        fam = {"g": complete_graph(3)}
        spec = ProtocolSpec(kind="SignedConsensus", family=fam, gamma=1.0)
        plain = weighted(fam)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=3)
            assert np.allclose(spec.field("g", x), plain.field("g", x))

    def test_bipartite_equilibrium(self):
        fam = {"g": SignedDigraph(2, [(1, 2, -1), (2, 1, -1)])}
        spec = ProtocolSpec(kind="SignedConsensus", family=fam, gamma=1.0)
        f = spec.field("g", np.array([1.0, -1.0]))
        assert np.array_equal(f, [0.0, 0.0])

    def test_mutual_negative_from_equal(self):
        fam = {"g": SignedDigraph(2, [(1, 2, -1), (2, 1, -1)])}
        spec = ProtocolSpec(kind="SignedConsensus", family=fam, gamma=1.0)
        f = spec.field("g", np.array([1.0, 1.0]))
        assert np.array_equal(f, [-2.0, -2.0])

    def test_cooperative_kind_rejects_negative_arcs(self):
        fam = {"g": SignedDigraph(2, [(1, 2, -1)])}
        with pytest.raises(DomainError):
            weighted(fam)


class TestProtocolSpecValidation:
    def test_gamma_positive_required(self):
        with pytest.raises(DomainError):
            ProtocolSpec(kind="WeightedConsensus", family=MUTUAL_PAIR, gamma=0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, True])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            ProtocolSpec(kind="WeightedConsensus", family=MUTUAL_PAIR, gamma=gamma)

    def test_custom_needs_callback(self):
        with pytest.raises(DomainError):
            ProtocolSpec(kind="Custom", family=MUTUAL_PAIR, gamma=1.0)

    def test_custom_field_used(self):
        spec = ProtocolSpec(
            kind="Custom",
            family=MUTUAL_PAIR,
            gamma=1.0,
            field_fn=lambda p, x: -x,
        )
        assert np.array_equal(spec.field("g", np.array([1.0, -2.0])), [-1.0, 2.0])

    def test_family_node_counts_must_match(self):
        fam = {"a": SignedDigraph(2, []), "b": SignedDigraph(3, [])}
        with pytest.raises(DomainError):
            weighted(fam)

    def test_rotation_only_for_rotated_kind(self):
        with pytest.raises(DomainError):
            ProtocolSpec(kind="WeightedConsensus", family=MUTUAL_PAIR, gamma=1.0, rotation=0.1)

    def test_operator_is_one_read_only_array(self):
        spec = weighted(MUTUAL_PAIR, weights={(1, 2): 3.0, (2, 1): 0.5})
        L = spec.operator("g")
        assert spec.operator("g") is L
        assert np.array_equal(L, [[-0.5, 0.5], [3.0, -3.0]])
        with pytest.raises(ValueError):
            L[0, 0] = 1.0

    def test_equal_inputs_compare_equal(self):
        # The operators are derived from the compared fields, not compared.
        assert weighted(MUTUAL_PAIR) == weighted(MUTUAL_PAIR)
        assert weighted(MUTUAL_PAIR) != weighted(MUTUAL_PAIR, weights=2.0)

    @pytest.mark.parametrize("seed", range(40))
    def test_operator_bitwise_matches_the_dense_formula(self, seed):
        # W∘S − diag(rowsum(W)) with all four n x n arrays, signs of zero included.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        kind = ["WeightedConsensus", "SignedConsensus", "Custom"][seed % 3]
        arcs = {(int(j), int(i)): 1 if kind == "WeightedConsensus" else int(rng.choice([-1, 1]))
                for j, i in rng.integers(1, n + 1, size=(int(rng.integers(0, 3 * n)), 2))}
        family = {"g": SignedDigraph(n, [(j, i, s) for (j, i), s in arcs.items()],
                                     allow_self_loops=True)}
        weights = ({a: float(rng.uniform(0.1, 3.0)) for a in arcs} if seed % 2
                   else float(rng.uniform(0.1, 3.0)))
        spec = ProtocolSpec(kind=kind, family=family, gamma=1.0, weights=weights,
                            field_fn=(lambda p, x: -x) if kind == "Custom" else None)
        W, S = np.zeros((n, n)), np.ones((n, n))
        for (j, i), s in arcs.items():
            if j != i:
                W[i - 1, j - 1] = weights[j, i] if seed % 2 else weights
                S[i - 1, j - 1] = s
        want = (W * S if kind == "SignedConsensus" else W) - np.diag(W.sum(axis=1))
        assert spec.operator("g").tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", in_arcs_cases())
    @pytest.mark.parametrize("kind", ["WeightedConsensus", "SignedConsensus"])
    @pytest.mark.parametrize("per_arc", [False, True])
    def test_operator_matches_a_build_from_the_arcs(self, case, kind, per_arc):
        g = in_arcs_cases()[case]
        if kind == "WeightedConsensus":  # the cooperative kinds refuse antagonistic arcs
            g = SignedDigraph(g.n, [(j, i) for j, i, _s in g.arcs], g.allow_self_loops)
        weights = {(j, i): 0.5 + j + 0.25 * i for j, i, _s in g.arcs} if per_arc else 1.5
        spec = ProtocolSpec(kind=kind, family={"g": g}, gamma=1.0, weights=weights)
        want = np.zeros((g.n, g.n))
        for j, i, s in g.arcs:
            if j != i:
                w = weights[j, i] if per_arc else weights
                want[i - 1, j - 1] = w * s if kind == "SignedConsensus" else w
                want[i - 1, i - 1] -= w
        np.testing.assert_allclose(spec.operator("g"), want, rtol=0, atol=1e-12)

    def test_operator_build_peaks_at_one_n_by_n_array(self):
        rng = np.random.default_rng(0)
        n = 1000
        arcs = [(int(j), i, int(rng.choice([-1, 1])))
                for i in range(1, n + 1)
                for j in rng.choice([j for j in range(1, n + 1) if j != i], 3, replace=False)]
        family = {"g": SignedDigraph(n, arcs)}
        tracemalloc.start()
        try:
            ProtocolSpec(kind="SignedConsensus", family=family, gamma=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_node_count_numpy_refuses_is_domain_error(self):
        # numpy refuses a 2**63-row shape without allocating anything.
        with pytest.raises(DomainError, match="too many nodes"):
            weighted({"g": SignedDigraph(2**63, [(1, 2)])})
