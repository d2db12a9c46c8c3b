"""Self-check suites: spider fusion and reshape route independence."""

import numpy as np

from spiderbp.checks import (
    check_reshape_routes,
    check_spider_fusion,
    random_split,
    reshape_via,
    run_all_checks,
)
from spiderbp.tensor import DenseTensor, matricize


class TestSpiderFusion:
    def test_exhaustive_small_sizes(self):
        report = check_spider_fusion(max_dim=4, max_arity=4)
        assert report.ok, report.failures[:3]
        assert report.checks > 100

    def test_scaled_down(self):
        report = check_spider_fusion(max_dim=2, max_arity=2)
        assert report.ok


class TestReshapeRoutes:
    def test_randomized_routes_agree(self):
        report = check_reshape_routes(samples=200, seed=3)
        assert report.ok, report.failures[:3]
        assert report.checks == 200

    def test_reshape_via_single_case(self):
        rng = np.random.default_rng(8)
        arr = rng.uniform(size=(2, 3, 4))
        t = DenseTensor(arr.shape, arr.reshape(-1))
        final = ((2,), (0, 1))
        direct = matricize(t, *final)
        routed = reshape_via(t, ((0, 1, 2), ()), final)
        assert direct.shape == routed.shape
        assert np.array_equal(direct.data, routed.data)

    def test_random_split_partitions(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rows, cols = random_split(rng, 4)
            assert sorted(rows + cols) == [0, 1, 2, 3]


class TestRunAll:
    def test_everything_passes(self):
        reports = run_all_checks(samples=200, seed=5)
        assert all(r.ok for r in reports)
        names = [r.name for r in reports]
        assert "spider_fusion" in names
        assert "reshape_routes" in names
        assert sum(n.startswith("semiring_axioms") for n in names) == 5
