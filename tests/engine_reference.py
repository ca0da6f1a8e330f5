"""Reference paths that several test modules share."""

from ngtmsv.series import GeneratingExponent, mixed_partial_at_zero


def herald_core(spec, quad):
    """The heralding derivative of ``spec`` applied to exp(u^T quad u): a
    dense engine run of its own on the whole 8-variable form."""
    return mixed_partial_at_zero(GeneratingExponent(8, quad), spec.derivative_spec())
