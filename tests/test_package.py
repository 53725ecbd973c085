import mplindex


def test_public_names_resolve_and_are_unique():
    names = mplindex.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mplindex, name)] == []


def test_dense_design_oracles_are_not_exported():
    for name in ("build_design_system", "ols_fit", "transition_matrix"):
        assert not hasattr(mplindex, name)
