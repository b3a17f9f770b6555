"""The result-cache key: ``fingerprint_terms``, what
``Problem.fingerprint`` hashes.  The store itself is tested in
``tests/serve/test_store.py``."""

from repro.api.problem import fingerprint_terms
from repro.smt.terms import bv_ult, bv_val, bv_var


def _formula(width=8, bound=100, name="cf_x"):
    x = bv_var(name, width)
    return [bv_ult(x, bv_val(bound, width))], [x]


class TestFingerprint:
    def test_deterministic(self):
        assertions, projection = _formula()
        params = {"family": "xor", "epsilon": 0.8}
        assert (fingerprint_terms(assertions, projection, params)
                == fingerprint_terms(assertions, projection, params))

    def test_sensitive_to_formula(self):
        a1, p1 = _formula(bound=100)
        a2, p2 = _formula(bound=101)
        assert fingerprint_terms(a1, p1) != fingerprint_terms(a2, p2)

    def test_sensitive_to_projection_sort(self):
        assertions, _ = _formula()
        assert (fingerprint_terms(assertions, [bv_var("cf_p", 8)])
                != fingerprint_terms(assertions, [bv_var("cf_p", 9)]))

    def test_sensitive_to_params(self):
        assertions, projection = _formula()
        assert (fingerprint_terms(assertions, projection,
                                  {"family": "xor"})
                != fingerprint_terms(assertions, projection,
                                     {"family": "prime"}))
