"""Transducer schemas (Section 2.1, with the Section 3 proviso).

"A transducer schema is a tuple (Sin, Ssys, Smsg, Smem, k) consisting of
four disjoint database schemas and an output arity k."

Per the proviso at the start of Section 3, the system schema is always
``{Id/1, All/1}``: ``Id`` holds the node's own identifier and ``All``
the set of all network nodes.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..db.schema import DatabaseSchema, SchemaError

#: Relation name for the node's own identifier (unary).
ID_RELATION = "Id"
#: Relation name for the set of all network nodes (unary).
ALL_RELATION = "All"

#: The fixed system schema of Section 3's proviso.
SYSTEM_SCHEMA = DatabaseSchema({ID_RELATION: 1, ALL_RELATION: 1})


#: The slots a transducer schema pickles.
_PARTS = ("inputs", "system", "messages", "memory", "output_arity")


class TransducerSchema:
    """The 5-tuple (Sin, Ssys, Smsg, Smem, k) with Ssys fixed to {Id, All}.

    ``combined`` (Sin ∪ Ssys ∪ Smsg ∪ Smem, what every transducer query
    reads) and ``state`` (Sin ∪ Ssys ∪ Smem, what a transducer state
    instantiates) are computed once, when the schema is built.
    """

    __slots__ = (*_PARTS, "combined", "state")

    def __init__(
        self,
        inputs: DatabaseSchema | Mapping[str, int],
        messages: DatabaseSchema | Mapping[str, int],
        memory: DatabaseSchema | Mapping[str, int],
        output_arity: int,
    ):
        inputs = DatabaseSchema(inputs)
        messages = DatabaseSchema(messages)
        memory = DatabaseSchema(memory)
        if not isinstance(output_arity, int) or output_arity < 0:
            raise SchemaError(f"output arity must be a natural number: {output_arity!r}")
        parts = {
            "input": inputs,
            "system": SYSTEM_SCHEMA,
            "message": messages,
            "memory": memory,
        }
        names = list(parts)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if not parts[a].disjoint_from(parts[b]):
                    shared = set(parts[a]) & set(parts[b])
                    raise SchemaError(
                        f"{a} and {b} schemas share relation(s) {sorted(shared)}"
                    )
        self.inputs = inputs
        self.system = SYSTEM_SCHEMA
        self.messages = messages
        self.memory = memory
        self.output_arity = output_arity
        self._derive()

    def _derive(self) -> None:
        self.combined = self.inputs.union(self.system, self.messages, self.memory)
        self.state = self.inputs.union(self.system, self.memory)

    def __getstate__(self):
        # The five parts alone, in the form default slot pickling
        # writes them; the derived schemas are rebuilt on load.
        return None, {name: getattr(self, name) for name in _PARTS}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._derive()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransducerSchema):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.messages == other.messages
            and self.memory == other.memory
            and self.output_arity == other.output_arity
        )

    def __hash__(self) -> int:
        return hash((self.inputs, self.messages, self.memory, self.output_arity))

    def __repr__(self) -> str:
        return (
            f"TransducerSchema(in={list(self.inputs)}, msg={list(self.messages)}, "
            f"mem={list(self.memory)}, k={self.output_arity})"
        )
