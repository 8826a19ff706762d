"""Transducer schemas: disjointness, the fixed system schema."""

import pickle

import pytest

from repro.core import SYSTEM_SCHEMA, TransducerSchema
from repro.core.examples import transitive_closure_transducer
from repro.db import SchemaError, schema


class TestConstruction:
    def test_system_schema_is_fixed(self):
        t = TransducerSchema(schema(S=2), schema(M=2), schema(R=2), 2)
        assert t.system == SYSTEM_SCHEMA
        assert t.system["Id"] == 1
        assert t.system["All"] == 1

    def test_disjointness_enforced(self):
        with pytest.raises(SchemaError):
            TransducerSchema(schema(S=2), schema(S=2), schema(R=2), 0)
        with pytest.raises(SchemaError):
            TransducerSchema(schema(S=2), schema(M=2), schema(M=2), 0)

    def test_input_cannot_shadow_system(self):
        with pytest.raises(SchemaError):
            TransducerSchema(schema(Id=1), schema(), schema(), 0)

    def test_negative_output_arity_rejected(self):
        with pytest.raises(SchemaError):
            TransducerSchema(schema(S=1), schema(), schema(), -1)

    def test_mappings_accepted(self):
        t = TransducerSchema({"S": 2}, {"M": 1}, {"R": 0}, 1)
        assert t.inputs["S"] == 2
        assert t.messages["M"] == 1
        assert t.memory["R"] == 0


class TestDerivedSchemas:
    def test_combined(self):
        t = TransducerSchema(schema(S=2), schema(M=1), schema(R=3), 0)
        assert set(t.combined) == {"S", "Id", "All", "M", "R"}

    def test_state(self):
        t = TransducerSchema(schema(S=2), schema(M=1), schema(R=3), 0)
        assert set(t.state) == {"S", "Id", "All", "R"}
        assert "M" not in t.state

    def test_value_semantics(self):
        a = TransducerSchema(schema(S=2), schema(M=1), schema(R=1), 2)
        b = TransducerSchema(schema(S=2), schema(M=1), schema(R=1), 2)
        assert a == b
        assert hash(a) == hash(b)
        c = TransducerSchema(schema(S=2), schema(M=1), schema(R=1), 3)
        assert a != c

    def test_derived_schemas_are_built_once(self):
        t = transitive_closure_transducer()
        s = t.schema
        assert s.state is s.state
        assert s.combined is s.combined
        assert s.state == s.inputs.union(s.system, s.memory)
        assert s.combined == s.inputs.union(s.system, s.messages, s.memory)

    def test_pickles_only_its_five_parts(self):
        t = TransducerSchema(schema(S=2), schema(M=1), schema(R=3), 1)
        parts = ("inputs", "system", "messages", "memory", "output_arity")
        # What default slot pickling writes for a schema of five slots.
        slot_state = (None, {name: getattr(t, name) for name in parts})
        assert t.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2] == slot_state
        clone = pickle.loads(pickle.dumps(t))
        assert clone == t
        assert clone.state == t.state and clone.combined == t.combined
