"""The public API is pinned, so that adding or removing a name is a
deliberate change."""

import corecover

PUBLIC = """
Arrangement BOUNDED Certificate ComplementReport Constraint CoreComponent
CoreEmptyReport CoverReport FULL_ALPHABET GuardError NO_BOTH_ALPHABET
ParseError Polyhedron Relation StabilityVerdict Status TorusData UNBOUNDED
all_sign_vectors arrangement_from_quotient both_reduction chamber
chart_complement chart_semistable core core_empty_criterion extended_core
format_pattern format_rational format_sign_vector full_pattern
hk_closed_orbit hk_semistable_geometric hk_semistable_numeric is_regular is_simple is_smooth parse_arrangement parse_pattern
parse_rational parse_sign_vector pattern_realizable render_svg reorient
reorient_pattern serialize_arrangement state_set support_pattern theta_cpt
toric_closed_orbit toric_semistable_geometric toric_semistable_numeric
torus_data trivial_factors verify_certificate verify_covering verify_density
""".split()


def test_all_is_pinned():
    assert len(PUBLIC) == 57
    assert sorted(corecover.__all__) == PUBLIC
    assert all(hasattr(corecover, name) for name in PUBLIC)
