"""The scalar/array convention shared by every evaluator of beta.

An evaluator takes beta as its last positional argument: a float, a 0-d
array or an array.  Its body always sees a finite float array of at least
one dimension; a scalar or 0-d beta gives a Python float back, an array the
body's array.  Non-finite beta raises InvalidInputError.
"""

import functools

import numpy as np

from .errors import InvalidInputError


def _as_array(beta):
    arr = np.atleast_1d(np.asarray(beta, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("beta must be finite")
    return arr


def scalar_or_array(fn):
    """Decorate fn(*args, betas) -> array with the module's convention."""

    @functools.wraps(fn)
    def evaluator(*args):
        *head, beta = args
        out = fn(*head, _as_array(beta))
        return float(out[0]) if np.ndim(beta) == 0 else out

    return evaluator


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along axis, shifted by the maximum so that no term
    overflows and the largest one is exactly 1 (Blanchard, Higham & Higham,
    IMA J. Numer. Anal. 2021).  A slice that is all -inf gives -inf."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    terms = a - shift
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(terms, axis=axis, keepdims=True))
    out += shift
    if axis is None:
        return out.reshape(())[()]
    return np.squeeze(out, axis=axis)
