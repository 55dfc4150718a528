"""The fixed testbeds the acceptance criteria run on."""

import numpy as np

from treemotion.fixtures import conflicting_demo_fixture, three_link_stability_fixture


def test_conflicting_demo_fixture_shape():
    tree, params, demos, lam, _ = conflicting_demo_fixture(seed=0)
    assert len(list(demos.samples())) == 124
    assert lam.tolist() == [1.0, 0.0, 0.0]
    assert params.registry == [
        ("edge[1->2].map", 0, 384),
        ("edge[0->3].map", 384, 768),
        ("leaf[2].metric", 1152, 371),
        ("leaf[3].metric", 1523, 438),
    ]
    assert params.size == tree.n_params == 1961


def test_three_link_stability_fixture_shape():
    tree, params, info = three_link_stability_fixture()
    assert params.size == 0
    assert tree.leaves == [2, 3, 4]
    assert np.array_equal(info["goal"], [1.5, 0.8])
    assert np.array_equal(info["obstacle"], [1.75, 1.45])
    assert info["margin"] == 0.35
    assert info["lengths"] == [1.0, 1.0, 1.0]
