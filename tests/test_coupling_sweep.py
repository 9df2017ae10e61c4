"""Couplings across six hundred decades: a hypothesis sweep runs `spball run`
over exponents up to 400, both coupling kinds and amplitudes 10^k with k in
[-300, 300], and checks that every run verifies or stops with the typed
BallOverflowError, whose one source is the ball's c·φ_e1·e1 overflowing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([6, 8]),
    p=st.floats(1.01, 400.0),
    kind=st.sampled_from(["constant", "sine_bump"]),
    k=st.integers(-300, 300),
)
def test_any_coupling_verifies_or_overflows_typed(n, p, kind, k):
    config = {"grid_n": n, "p": p, "coupling": {kind: 10.0**k},
              "forcing": {"scaled_to_bound": 0.5}}
    code, out, err = run_cli(config)
    if code == 2:
        assert "the coupling ratio's numerator c·φ_e1·e1 overflows the float range" in err
        assert k > 100, err
    else:
        assert code == 0, out
