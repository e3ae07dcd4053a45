"""Adapters exposing compiled muF nodes as runtime stream nodes.

:func:`load` compiles (if necessary) and evaluates a kernel program's
muF image, returning a :class:`CompiledModule` from which individual
nodes can be instantiated either as deterministic
:class:`~repro.runtime.node.Node` values or as probabilistic
:class:`~repro.runtime.node.ProbNode` models for the inference engines.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.ast import Program
from repro.core.compiler import compile_program, prepare_program
from repro.core.kinds import D, check_program
from repro.core.muf import Closure, MuFProgram, eval_program
from repro.errors import CompilationError, ScopeError
from repro.runtime.node import Node, ProbCtx, ProbNode

__all__ = ["CompiledDetNode", "CompiledProbNode", "CompiledModule", "load"]


class CompiledDetNode(Node):
    """A compiled deterministic node (kind D)."""

    def __init__(self, init_value: Any, step_closure: Closure):
        self._init_value = init_value
        self._step = step_closure

    def init(self) -> Any:
        return self._init_value

    def step(self, state: Any, inp: Any) -> Tuple[Any, Any]:
        value, next_state = self._step((state, inp), None)
        return value, next_state


class CompiledProbNode(ProbNode):
    """A compiled probabilistic node (kind P): a model for ``infer``.

    ``program`` is the prepared kernel program the node was compiled
    from and ``name`` the node's name in it. The static analysis reads
    the node's dataflow there (:func:`repro.analysis.analyze_model`),
    because the generated muF code hides it. A pickled (or copied) node
    leaves both behind — workers only step it — so its copy has neither.
    """

    def __init__(
        self,
        init_value: Any,
        step_closure: Closure,
        program: Optional[Program],
        name: Optional[str],
    ):
        self._init_value = init_value
        self._step = step_closure
        self.program = program
        self.name = name

    def init(self) -> Any:
        return self._init_value

    def step(self, state: Any, inp: Any, ctx: ProbCtx) -> Tuple[Any, Any]:
        value, next_state = self._step((state, inp), ctx)
        return value, next_state

    def __getstate__(self) -> Dict[str, Any]:
        return {"_init_value": self._init_value, "_step": self._step}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state, program=None, name=None)


class CompiledModule:
    """The evaluated muF image of a program: a namespace of nodes.

    It keeps the prepared kernel program the image was compiled from;
    :meth:`prob_node` hands it to each node it instantiates.
    """

    def __init__(self, env: Dict[str, Any], kinds: Dict[str, str], program: Program):
        self._env = env
        self._kinds = kinds
        self._program = program

    def node_names(self):
        """Names of the nodes defined by the program."""
        return sorted(self._kinds)

    def kind(self, name: str) -> str:
        return self._kinds[name]

    def det_node(self, name: str) -> CompiledDetNode:
        """Instantiate a deterministic node."""
        self._check(name)
        if self._kinds[name] != D:
            raise CompilationError(
                f"node {name!r} is probabilistic; use prob_node() and infer"
            )
        return CompiledDetNode(self._env[f"{name}_init"], self._env[f"{name}_step"])

    def prob_node(self, name: str) -> CompiledProbNode:
        """Instantiate a node as a probabilistic model (D lifts to P)."""
        self._check(name)
        return CompiledProbNode(
            self._env[f"{name}_init"], self._env[f"{name}_step"], self._program, name
        )

    def _check(self, name: str) -> None:
        if name not in self._kinds:
            raise ScopeError(f"program defines no node {name!r}")


def load(program: Program, muf_program: Optional[MuFProgram] = None) -> CompiledModule:
    """Prepare, compile, and evaluate a program into a module.

    ``muf_program`` can be supplied to reuse an existing compilation.
    """
    prepared = prepare_program(program)
    kinds = check_program(prepared)
    if muf_program is None:
        muf_program = compile_program(prepared, prepared=True)
    env = eval_program(muf_program)
    return CompiledModule(env, kinds, prepared)
