"""The package exports: every name in `__all__` resolves, and a token is
built only by `Transition` or `parse_transition(s)`."""

import pytest

import discoseq
import discoseq.neural
from discoseq import transitions

REMOVED_TOKEN_ALIASES = ("shift", "shift_k", "swap", "swap_k", "nt", "reduce_",
                         "reduce_l", "reduce_kl", "finish")


@pytest.mark.parametrize("package", [discoseq, discoseq.neural],
                         ids=lambda package: package.__name__)
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_no_token_alias_is_exported():
    assert [name for name in REMOVED_TOKEN_ALIASES
            if name in discoseq.__all__ or hasattr(discoseq, name)
            or hasattr(transitions, name)] == []
