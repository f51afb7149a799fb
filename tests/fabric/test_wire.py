"""The JSON wire format of fabric tasks (docs/FABRIC.md).

The contract: a payload/result that crosses the wire decodes back to
*exactly* the in-memory value — tables as arbitrary-precision ints,
signatures as nested tuples — and anything malformed is rejected with
:class:`ValueError` (the service decodes untrusted input).  Every
round-trip here goes through real ``json.dumps``/``json.loads``, not
just the codec pair, so nothing leans on types JSON cannot carry.
"""

import json

import pytest

from repro.fabric import FabricTask, decode_task, encode_task, run_task
from repro.fabric.tasks import task_kind
from repro.benchcircuits import c17
from repro.resynth.candidates import enumerate_candidate_cones
from repro.sim import cone_signature


def wire(doc):
    """One real JSON round-trip."""
    return json.loads(json.dumps(doc))


def real_item():
    """A genuine ``(cone_signature, n)`` pair from c17 — nested tuples."""
    circuit = c17()
    for net in reversed(circuit.topological_order()):
        if not circuit.gate(net).fanins:
            continue
        for cone in enumerate_candidate_cones(circuit, net, 3):
            if cone.inputs:
                sig = cone_signature(circuit, cone.output, cone.members,
                                     cone.inputs)
                return sig, len(cone.inputs)
    raise AssertionError("c17 yielded no candidate cone")


IDENTIFY_KNOBS = dict(perm_budget=24, try_offset=True, seed=3, max_specs=4)


class TestTaskEnvelope:
    def test_round_trip(self):
        task = FabricTask("identify", {
            "items": [(0b0110, 2)], "inject_crash": False,
            **IDENTIFY_KNOBS,
        })
        assert decode_task(wire(encode_task(task))) == task

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="not an object"):
            decode_task([1, 2])

    def test_rejects_missing_kind(self):
        with pytest.raises(ValueError, match="kind is not a string"):
            decode_task({"payload": {}})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            decode_task({"kind": "nope", "payload": {}})


class TestExtractCodec:
    def test_payload_round_trip(self):
        sig, n = real_item()
        payload = {"items": [(sig, n)], "inject_crash": False}
        kind = task_kind("extract")
        decoded = kind.decode_payload(wire(kind.encode_payload(payload)))
        assert decoded == payload
        # Tuples were rebuilt as tuples, not left as lists.
        assert isinstance(decoded["items"][0][0], tuple)

    def test_decoded_payload_runs_identically(self):
        sig, n = real_item()
        payload = {"items": [(sig, n)], "inject_crash": False}
        kind = task_kind("extract")
        decoded = kind.decode_payload(wire(kind.encode_payload(payload)))
        assert (run_task(FabricTask("extract", decoded))
                == run_task(FabricTask("extract", payload)))

    def test_result_round_trip(self):
        rows = run_task(FabricTask("extract", {"items": [real_item()]}))
        kind = task_kind("extract")
        assert kind.decode_result(wire(kind.encode_result(rows))) == rows

    def test_rejects_bad_signature_leaf(self):
        kind = task_kind("extract")
        with pytest.raises(ValueError, match="leaf has type"):
            kind.decode_payload(
                {"items": [[["AND", 1.5], 2]], "inject_crash": False})

    def test_rejects_bool_as_input_count(self):
        kind = task_kind("extract")
        with pytest.raises(ValueError, match="input count"):
            kind.decode_payload(
                {"items": [[["AND", 0], True]], "inject_crash": False})

    def test_rejects_non_items_payload(self):
        kind = task_kind("extract")
        with pytest.raises(ValueError):
            kind.decode_payload({"nope": []})


class TestIdentifyCodec:
    def test_big_table_survives_as_hex(self):
        # 2**100-scale tables exceed IEEE-754 exactness; JSON numbers
        # would silently round them, hex strings cannot.
        table = (1 << 100) + 12345
        payload = {"items": [(table, 7)], "inject_crash": False,
                   **IDENTIFY_KNOBS}
        kind = task_kind("identify")
        decoded = kind.decode_payload(wire(kind.encode_payload(payload)))
        assert decoded["items"][0] == (table, 7)

    def test_result_round_trip(self):
        rows = run_task(FabricTask("identify", {
            "items": [(0b0110, 2), (0b10010110, 3)], **IDENTIFY_KNOBS}))
        kind = task_kind("identify")
        assert kind.decode_result(wire(kind.encode_result(rows))) == rows

    def test_rejects_table_out_of_range(self):
        kind = task_kind("identify")
        with pytest.raises(ValueError, match="out of range"):
            kind.decode_payload({
                "items": [[format(1 << 16, "x"), 2]],
                "inject_crash": False, **IDENTIFY_KNOBS,
            })

    def test_rejects_table_as_number(self):
        kind = task_kind("identify")
        with pytest.raises(ValueError, match="hex string"):
            kind.decode_payload({
                "items": [[6, 2]], "inject_crash": False, **IDENTIFY_KNOBS,
            })

    def test_rejects_missing_knob(self):
        kind = task_kind("identify")
        bad = {"items": [["6", 2]], "inject_crash": False,
               **IDENTIFY_KNOBS}
        del bad["seed"]
        with pytest.raises(ValueError, match="seed"):
            kind.decode_payload(bad)

    def test_rejects_non_permutation_hit(self):
        kind = task_kind("identify")
        with pytest.raises(ValueError, match="not a permutation"):
            kind.decode_result([["6", 2, [[[0, 0], 0, 1, False]], 5]])

    def test_rejects_interval_out_of_range(self):
        kind = task_kind("identify")
        with pytest.raises(ValueError, match="out of range"):
            kind.decode_result([["6", 2, [[[0, 1], 0, 4, False]], 5]])

    def test_rejects_non_bool_complement(self):
        kind = task_kind("identify")
        with pytest.raises(ValueError, match="complement"):
            kind.decode_result([["6", 2, [[[0, 1], 0, 1, 1]], 5]])

    def test_rejects_non_int_tried(self):
        kind = task_kind("identify")
        with pytest.raises(ValueError, match="tried-count"):
            kind.decode_result([["6", 2, [], "many"]])


class TestResynthCellCodec:
    """The whole-cell kind: payload is a job spec, result a report."""

    def cell_payload(self, **kw):
        from repro.io import circuit_to_json
        from repro.service import JobSpec

        spec = JobSpec(netlist=json.loads(circuit_to_json(c17())),
                       k=3, seed=1, perm_budget=20, max_passes=1, jobs=1)
        payload = {"spec": spec.to_doc()}
        payload.update(kw)
        return payload

    def test_payload_round_trip(self):
        kind = task_kind("resynth_cell")
        payload = self.cell_payload()
        decoded = kind.decode_payload(wire(kind.encode_payload(payload)))
        assert decoded == payload

    def test_memo_path_round_trip(self):
        kind = task_kind("resynth_cell")
        payload = self.cell_payload(memo="/tmp/memo-cache")
        decoded = kind.decode_payload(wire(kind.encode_payload(payload)))
        assert decoded["memo"] == "/tmp/memo-cache"

    def test_decode_canonicalizes_defaulted_spec_fields(self):
        kind = task_kind("resynth_cell")
        sparse = {"spec": {"format": "repro-jobspec",
                           "circuit": "syn1423", "k": 3}}
        decoded = kind.decode_payload(wire(sparse))
        from repro.service import spec_from_doc

        assert decoded["spec"] == spec_from_doc(sparse["spec"]).to_doc()

    def test_rejects_missing_spec(self):
        kind = task_kind("resynth_cell")
        with pytest.raises(ValueError, match="spec"):
            kind.decode_payload({"memo": "/tmp/x"})

    def test_rejects_invalid_spec(self):
        kind = task_kind("resynth_cell")
        bad = self.cell_payload()
        bad["spec"]["procedure"] = "procedure9"
        with pytest.raises(ValueError):
            kind.decode_payload(bad)

    def test_rejects_non_string_memo(self):
        kind = task_kind("resynth_cell")
        with pytest.raises(ValueError, match="memo"):
            kind.decode_payload(self.cell_payload(memo=7))

    def test_result_round_trip_through_real_run(self):
        from repro.comparison import identification_cache

        kind = task_kind("resynth_cell")
        identification_cache().clear()
        result = kind.run(self.cell_payload())
        assert kind.decode_result(wire(result)) == result
        assert result["gates_before"] == 6

    def test_rejects_malformed_result(self):
        kind = task_kind("resynth_cell")
        with pytest.raises(ValueError, match="report"):
            kind.decode_result({"format": "repro-report"})
        with pytest.raises(ValueError, match="not an object"):
            kind.decode_result([1, 2])

    def test_full_task_envelope_round_trip(self):
        task = FabricTask("resynth_cell", self.cell_payload())
        again = decode_task(wire(encode_task(task)))
        assert again.kind == task.kind
        assert again.payload == task.payload
