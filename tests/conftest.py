"""Property-test support.

With hypothesis installed, the ``hypothesis_api`` fixture hands a property
test ``(hypothesis, hypothesis.strategies)``.  With ``CI`` set, the ``ci``
profile draws the same examples on every run, so a property test cannot fail
on one run and pass on the next; local runs keep drawing at random.  Each
test sets its own example count, which the profile leaves alone.

Without hypothesis, the fixture hands over a small stand-in with the same
names for the part of the API these tests use.  It draws each test's
examples from a ``random.Random`` seeded by the test's name, so every run
draws the same examples, and prints the failing example before it re-raises.
It does not shrink."""

from __future__ import annotations

import functools
import os
import random
import types

import pytest

try:
    import hypothesis
    import hypothesis.strategies
except ImportError:
    hypothesis = None

if hypothesis is not None:
    hypothesis.settings.register_profile("ci", derandomize=True)
    if os.environ.get("CI"):
        hypothesis.settings.load_profile("ci")


class _Strategy:
    """A recipe that draws one example from a ``random.Random``."""

    def __init__(self, draw):
        self.draw = draw

    def map(self, f):
        return _Strategy(lambda rng: f(self.draw(rng)))

    def flatmap(self, f):
        return _Strategy(lambda rng: f(self.draw(rng)).draw(rng))

    def filter(self, keep):
        def draw(rng):
            for _ in range(1000):
                value = self.draw(rng)
                if keep(value):
                    return value
            raise RuntimeError("filter rejected 1000 draws in a row")

        return _Strategy(draw)

    def __or__(self, other):
        return _one_of(self, other)


def _integers(min_value, max_value):
    def draw(rng):
        roll = rng.random()
        if roll < 0.1:
            return min_value
        if roll < 0.2:
            return max_value
        if roll < 0.4 and min_value <= 0 <= max_value:
            return rng.randint(max(min_value, -3), min(max_value, 3))
        return rng.randint(min_value, max_value)

    return _Strategy(draw)


def _sampled_from(values):
    values = tuple(values)
    return _Strategy(lambda rng: rng.choice(values))


def _one_of(*strategies):
    return _Strategy(lambda rng: rng.choice(strategies).draw(rng))


def _lists(elements, min_size=0, max_size=None):
    top = min_size + 8 if max_size is None else max_size
    return _Strategy(
        lambda rng: [elements.draw(rng) for _ in range(rng.randint(min_size, top))]
    )


def _sets(elements, min_size=0, max_size=None):
    top = min_size + 8 if max_size is None else max_size

    def draw(rng):
        size, out = rng.randint(min_size, top), set()
        for _ in range(100 * (size + 1)):
            if len(out) >= size:
                break
            out.add(elements.draw(rng))
        return out

    return _Strategy(draw)


def _permutations(values):
    def draw(rng):
        out = list(values)
        rng.shuffle(out)
        return out

    return _Strategy(draw)


# ASCII, the whitespace and line ends the parser knows about, and any code
# point outside the surrogates.
_TEXT_POOLS = (
    lambda rng: chr(rng.randint(32, 126)),
    lambda rng: rng.choice(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000#-+0123456789"),
    lambda rng: chr(rng.choice((rng.randint(0, 0xD7FF), rng.randint(0xE000, 0x10FFFF)))),
)


def _text():
    return _Strategy(
        lambda rng: "".join(rng.choice(_TEXT_POOLS)(rng) for _ in range(rng.randint(0, 20)))
    )


def _composite(f):
    @functools.wraps(f)
    def make(*args, **kwargs):
        return _Strategy(lambda rng: f(lambda s: s.draw(rng), *args, **kwargs))

    return make


class _Data:
    """What ``st.data()`` draws: draws more inside the test body."""

    def __init__(self, rng):
        self._rng = rng

    def draw(self, strategy):
        return strategy.draw(self._rng)


_STANDIN_STRATEGIES = types.SimpleNamespace(
    booleans=lambda: _sampled_from((False, True)),
    builds=lambda target, *args: _Strategy(lambda rng: target(*(a.draw(rng) for a in args))),
    composite=_composite,
    data=lambda: _Strategy(_Data),
    integers=_integers,
    just=lambda value: _Strategy(lambda rng: value),
    lists=_lists,
    none=lambda: _Strategy(lambda rng: None),
    one_of=_one_of,
    permutations=_permutations,
    sampled_from=_sampled_from,
    sets=_sets,
    text=_text,
    tuples=lambda *parts: _Strategy(lambda rng: tuple(p.draw(rng) for p in parts)),
)


def _mark(**attrs):
    def decorate(f):
        for name, value in attrs.items():
            setattr(f, name, value)
        return f

    return decorate


def _given(*strategies):
    def decorate(test):
        @functools.wraps(test)
        def run():
            count = getattr(run, "max_examples", getattr(test, "max_examples", 100))
            rng = random.Random(getattr(run, "seed", getattr(test, "seed", test.__qualname__)))
            for _ in range(count):
                example = [s.draw(rng) for s in strategies]
                try:
                    test(*example)
                except BaseException:
                    print(f"Falsifying example: {test.__qualname__}(*{example!r})")
                    raise

        return run

    return decorate


_STANDIN_HYPOTHESIS = types.SimpleNamespace(
    given=_given,
    seed=lambda seed: _mark(seed=seed),
    settings=lambda max_examples=100, deadline=None: _mark(max_examples=max_examples),
)


@pytest.fixture
def hypothesis_api():
    """``(hypothesis, hypothesis.strategies)``, or the seeded stand-in."""
    if hypothesis is not None:
        return hypothesis, hypothesis.strategies
    return _STANDIN_HYPOTHESIS, _STANDIN_STRATEGIES
