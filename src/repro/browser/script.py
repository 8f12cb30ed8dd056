"""Minimal script engine: event-attribute handler dispatch.

The real RCB rewrites ``onclick``/``onsubmit`` attribute values to call
JavaScript functions that live in Ajax-Snippet (paper §4.1.2, step 4).
In the simulation, an event-attribute value is a call expression like
``rcbSubmit(this)`` and the engine resolves the function name against a
registry of Python callables.  Handlers are invoked with the
element; a handler returning False cancels the default action (exactly
the semantics form interception needs).
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = ["ScriptEngine", "ScriptError", "parse_call_expression"]


class ScriptError(Exception):
    """Unparseable handler expression or unknown function."""


def parse_call_expression(expression: str) -> str:
    """Extract the function name from ``name(...)`` (optionally with a
    ``return`` prefix, as in ``return rcbSubmit(this)``)."""
    text = expression.strip()
    if text.startswith("return "):
        text = text[len("return ") :].strip()
    if text.endswith(";"):
        text = text[:-1].strip()
    paren = text.find("(")
    if paren <= 0 or not text.endswith(")"):
        raise ScriptError("not a call expression: %r" % (expression,))
    name = text[:paren].strip()
    if not name.replace("_", "").replace("$", "").isalnum():
        raise ScriptError("bad function name in %r" % (expression,))
    return name


class ScriptEngine:
    """Registry of named handler functions for one page context."""

    def __init__(self):
        self._functions: Dict[str, Callable] = {}
        self.calls_made = 0

    def register(self, name: str, function: Callable) -> None:
        """Bind a handler function to ``name``."""
        if not callable(function):
            raise TypeError("handler must be callable")
        self._functions[name] = function

    def invoke_attribute(self, expression: str, element):
        """Run the handler named in an event-attribute expression.

        Returns the handler's return value (False means "cancel default").
        """
        name = parse_call_expression(expression)
        function = self._functions.get(name)
        if function is None:
            raise ScriptError("no handler registered for %r" % (name,))
        self.calls_made += 1
        return function(element)
