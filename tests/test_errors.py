"""Every toolkit error survives a pickle round trip, as it must to leave a
forked worker with its type, message and attributes."""

import pickle

import pytest

import sdaekit.cli  # noqa: F401  (defines a subclass of its own)
from sdaekit import _workers
from sdaekit.errors import SdaeError

# constructor arguments of the errors whose __init__ is their own
ARGS = {
    "ExpressionParseError": ("unexpected token", 7),
    "MissingBindingError": ("x1",),
    "EvaluationDomainError": ("log of a non-positive value", "log(x1)"),
    "ProblemFormatError": ("missing section", 12),
    "UnknownBuiltinError": ("nope", ["b", "a"]),
    "NewtonDivergenceError": (50, 1.5e-3),
    "NonConvergenceError": (20, 1.2e-10),
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def sample(cls) -> SdaeError:
    if "__init__" in vars(cls):
        assert cls.__name__ in ARGS, f"{cls.__name__} defines __init__; add its arguments"
        return cls(*ARGS[cls.__name__])
    return cls("a message")


ERRORS = [SdaeError, *subclasses(SdaeError)]


def assert_same(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want) and got.args == want.args
    assert vars(got) == vars(want)


def test_every_table_entry_names_an_error():
    assert set(ARGS) <= {cls.__name__ for cls in ERRORS}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    exc = sample(cls)
    exc.add_note("a note")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(exc, protocol))
        assert_same(back, exc)
        assert back.__notes__ == ["a note"]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_raised_in_a_worker_comes_back_whole(cls):
    want = sample(cls)

    def job(i):
        if i == 1:
            raise sample(cls)

    with pytest.raises(cls) as info:
        _workers.run(job, 2, 2)
    got = info.value
    assert any("raised in ensemble worker" in note for note in got.__notes__)
    del got.__notes__
    assert_same(got, want)
