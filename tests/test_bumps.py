import numpy as np

from toruslab import bumps

from oracles import eta_j


def test_eta_stack_rows_are_eta_j():
    tau = np.concatenate([np.linspace(-3e5, 3e5, 40001), [0.0, 1.25, 1.6, 2.5]])
    stack = bumps.eta_stack(tau, 17)
    assert stack.shape == (18, tau.size)
    for j in range(18):
        assert np.array_equal(stack[j], eta_j(tau, j))


def test_fast_len_is_smallest_5_smooth():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want = 1
    for n in range(1, 5001):
        while want < n or not smooth(want):
            want += 1
        got = bumps.fast_len(n)
        assert got == want
        assert got <= bumps.next_pow2(n)
        if smooth(n):
            assert got == n
