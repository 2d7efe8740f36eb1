"""Numerical verification toolkit for unit vector fields on round spheres,
realized as submanifolds of the unit tangent bundle.

The package builds the singular-value frames of the shape operator of a
field, assembles the second fundamental form of the field's image in the
unit tangent bundle by two independent routes, samples sectional curvatures
of that image, and certifies the sign of the second volume variation.
"""

from .manifold import (
    BasePointMismatchError,
    DegenerateInputError,
    DegeneratePlaneError,
    Frame,
    SpherePoint,
    SphereSpec,
    TangentVector,
    gram_schmidt_rows,
)
from .fields import (
    DecompositionFailure,
    PreconditionError,
    PropagationFailure,
    SingularData,
    SingularLocusError,
    UnitVectorField,
    complex_structure,
    covariant_normality_residual,
    half_curvature,
    hopf_field,
    is_geodesic,
    is_killing,
    is_normal,
    is_strongly_normal,
    jacobi_relation_residual,
    killing_canonical_frames,
    meridian_field,
    sasakian_identity_residual,
    shape_apply_array,
    shape_matrix,
    singular_decomposition,
)
from .sasaki import (
    BundleVector,
    bundle_sectional_curvature,
    geodesic_field_obstruction,
    horizontal_lift,
    second_form_direct,
    second_form_lemma,
    submanifold_plane_curvature,
    tangential_lift,
    xi_tangential_lift,
)
from .report import VerificationReport, reports_from_json, reports_to_csv, reports_to_json

__version__ = "0.1.0"

__all__ = [
    "BasePointMismatchError",
    "BundleVector",
    "DecompositionFailure",
    "DegenerateInputError",
    "DegeneratePlaneError",
    "FiberFrame",
    "Frame",
    "PreconditionError",
    "PropagationFailure",
    "SingularData",
    "SingularLocusError",
    "SpherePoint",
    "SphereSpec",
    "TangentVector",
    "UnitVectorField",
    "VariationField",
    "VerificationReport",
    "bundle_sectional_curvature",
    "complex_structure",
    "covariant_normality_residual",
    "destabilizing_field",
    "destabilizing_integrand",
    "duschek_integrand_general",
    "geodesic_field_obstruction",
    "gram_schmidt_rows",
    "half_curvature",
    "hopf_field",
    "hopf_frame_s3",
    "horizontal_extension_field",
    "horizontal_lift",
    "integrate_over_sphere",
    "is_geodesic",
    "is_killing",
    "is_normal",
    "is_strongly_normal",
    "jacobi_relation_residual",
    "killing_canonical_frames",
    "meridian_field",
    "propagate_fiber_frame",
    "random_hopf_combination",
    "reduced_integrand",
    "reports_from_json",
    "reports_to_csv",
    "reports_to_json",
    "s3_stable_form",
    "sasakian_identity_residual",
    "second_form_direct",
    "second_form_lemma",
    "shape_apply_array",
    "shape_matrix",
    "singular_decomposition",
    "sphere_volume",
    "stability_verdict",
    "submanifold_plane_curvature",
    "tangential_lift",
    "xi_tangential_lift",
]


def __getattr__(name: str):
    """A public name the imports above leave unbound, one of tgeo.variation,
    which only the ``variation`` command runs: read from it on every access
    and never bound here, so that a name rebound in tgeo.variation (a
    monkeypatch, a tracing wrapper) is what ``tgeo.<name>`` gives."""
    if name in __all__:
        from . import variation
        return getattr(variation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
