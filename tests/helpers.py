"""Helpers shared by the test modules: named mutants and order-key builders.

A mutant replaces one engine function with a wrong variant of it; the tests
patch it in with monkeypatch and expect a check to fail.
"""

import numpy as np

from poset_secretary import engine


def time_keys_of(times):
    """The order keys of times on the 2^-53 grid, as a Piece makes them."""
    k = (times * 2.0**53).astype(np.uint64)
    return k << np.uint64(6) | np.arange(times.shape[1], dtype=np.uint64)


def tag_keys_of(times, tagged):
    """The (n, rows) tag keys of times on the 2^-53 grid and their tag flags."""
    return np.where(tagged, time_keys_of(times), engine._NO_TAG).T


def _members_ignore_t(bitw, upw, member, _scan=engine._passed_mask):
    """Pinned-scan mutant: every element is a member, whatever its arrival time."""
    return _scan(bitw, upw, np.ones_like(member))


def _read_after_order(bitw, upw, member):
    """Pinned-scan mutant: x's bit is read from the state after the whole order."""
    state = np.full(bitw.shape[1], np.iinfo(bitw.dtype).max, dtype=bitw.dtype)
    for w in range(len(bitw)):
        go = ((state & bitw[w]) != 0) & member[w]
        state = np.where(go, upw[w], state)
    return state


def _b_only(bits, up, blocks, posts, ao, wo, _kernel=engine._tag_sub_batch):
    """Kernel mutant: test (b) alone.

    One block of every element, with weights falling along the arrival
    order: no arrival is earlier and lighter than x, so (a) always passes.
    """
    one_block = ((0, ao.shape[1]),)
    return _kernel(bits, up, one_block, up.dtype.type(0), ao, np.ascontiguousarray(ao[:, ::-1]))


def _a_ignores_arrival(bits, up, blocks, posts, ao, wo, _kernel=engine._tag_sub_batch):
    """Kernel mutant: (a) over every lighter element, arrived or not, with the true (b)."""
    return _kernel(bits, up, blocks, posts, wo, wo) & _b_only(bits, up, blocks, posts, ao, wo)
