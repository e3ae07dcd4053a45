"""Both front ends reach the same verdicts on the same model.

Each model is written once in the surface language (analyzed through
the kernel AST) and once as a Python ``ProbNode`` (analyzed through its
``step`` source). Since both front ends hand their abstract instants to
one verdict backend, the verdicts and the set of diagnostic codes must
match pair by pair.
"""

import pytest

from repro.analysis import analyze_model, analyze_program
from repro.frontend import parse_program
from repro.lang import bernoulli, beta, gaussian
from repro.runtime.node import ProbCtx, ProbNode


class Hmm(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        x = ctx.sample(gaussian(0.0 if state is None else state, 1.0))
        ctx.observe(gaussian(x, 1.0), y)
        return x, x


class Walk(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        x = ctx.sample(gaussian(0.0 if state is None else state, 1.0))
        return x, x


class HmmInit(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        if state is None:
            i = ctx.sample(gaussian(0.0, 1.0))
            x = ctx.sample(gaussian(i, 1.0))
        else:
            i, prev_x = state
            x = ctx.sample(gaussian(prev_x, 1.0))
        ctx.observe(gaussian(x, 1.0), y)
        return x, (i, x)


class Squared(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        x = ctx.sample(gaussian(0.0 if state is None else state, 1.0))
        ctx.observe(gaussian(x * x, 1.0), y)
        return x, x


class Coin(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        p = ctx.sample(beta(1.0, 1.0)) if state is None else state
        ctx.observe(bernoulli(p), y)
        return p, p


class Blind(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        x = ctx.sample(gaussian(0.0 if state is None else state, 1.0))
        ctx.observe(gaussian(0.0, 1.0), y)
        ctx.observe(gaussian(x, 1.0), y)
        return x, x


class Flip(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        b = ctx.sample(bernoulli(0.5))
        if b > 0.5:
            out = ctx.sample(gaussian(0.0, 1.0))
        else:
            out = ctx.sample(gaussian(10.0, 1.0))
        ctx.observe(gaussian(out, 1.0), y)
        return out, None


class Pair(ProbNode):
    def init(self):
        return None

    def step(self, state, y, ctx: ProbCtx):
        x = ctx.sample(gaussian(0.0 if state is None else state, 1.0))
        v = ctx.sample(gaussian(x, 2.0))
        ctx.observe(gaussian(v, 1.0), y)
        return (x, v), x


PAIRS = [
    (
        "hmm",
        """
let node hmm y = x where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and () = observe (gaussian (x, 1.), y)
""",
        Hmm,
    ),
    (
        "walk",
        """
let node walk y = x where
  rec x = sample (gaussian (0. -> pre x, 1.))
""",
        Walk,
    ),
    (
        "hmm_init",
        """
let node hmm_init y = x where
  rec init i = sample (gaussian (0., 1.))
  and x = sample (gaussian (i -> pre x, 1.))
  and () = observe (gaussian (x, 1.), y)
""",
        HmmInit,
    ),
    (
        "squared",
        """
let node squared y = x where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and () = observe (gaussian (x * x, 1.), y)
""",
        Squared,
    ),
    (
        "coin",
        """
let node coin y = p where
  rec init p = sample (beta (1., 1.))
  and () = observe (bernoulli (p), y)
""",
        Coin,
    ),
    (
        "blind",
        """
let node blind y = x where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and () = observe (gaussian (0., 1.), y)
  and () = observe (gaussian (x, 1.), y)
""",
        Blind,
    ),
    (
        "flip",
        """
let node flip y = out where
  rec b = sample (bernoulli (0.5))
  and out = if b > 0.5 then sample (gaussian (0., 1.))
            else sample (gaussian (10., 1.))
  and () = observe (gaussian (out, 1.), y)
""",
        Flip,
    ),
    (
        "pair",
        """
let node pair y = (x, v) where
  rec x = sample (gaussian (0. -> pre x, 1.))
  and v = sample (gaussian (x, 2.))
  and () = observe (gaussian (v, 1.), y)
""",
        Pair,
    ),
]


def _verdicts(analysis):
    return (
        analysis.conclusive,
        analysis.batchable,
        analysis.bounded,
        analysis.families,
        analysis.shape,
        analysis.forced,
        {d.code for d in analysis.diagnostics},
    )


@pytest.mark.parametrize("name,source,model_cls", PAIRS, ids=[p[0] for p in PAIRS])
def test_surface_and_python_models_agree(name, source, model_cls):
    surface = analyze_program(parse_program(source))[name]
    python = analyze_model(model_cls())
    assert surface.conclusive, surface.reason
    assert _verdicts(surface) == _verdicts(python)
