"""Self-time subtraction on a hand-built tree; proxies come off."""

import json

import pytest

from spans import Proxies, Recorder, median_us


def build(recorder: Recorder, tree, request: int) -> None:
    """``tree`` is ``(name, start, end, [children])`` in seconds."""
    name, start, end, children = tree
    recorder.request = request
    index = recorder.open(name)
    for child in children:
        build(recorder, child, request)
    recorder.close(index)
    recorder.spans[index][1:3] = [start, end]


def test_self_time_is_the_span_minus_its_children():
    recorder = Recorder()
    build(recorder, ("request", 0.0, 100e-6, [
        ("bind", 5e-6, 15e-6, []),
        ("execute", 20e-6, 90e-6, [
            ("cache", 30e-6, 50e-6, [("backend", 35e-6, 45e-6, [])]),
            ("cache", 60e-6, 70e-6, []),
        ]),
    ]), request=0)
    build(recorder, ("request", 200e-6, 260e-6, [
        ("execute", 210e-6, 250e-6, []),
    ]), request=1)
    build(recorder, ("housekeeping", 300e-6, 310e-6, []), request=2)

    own = dict(zip((span[0] + str(index) for index, span
                    in enumerate(recorder.spans)), recorder.self_times()))
    assert own["request0"] == pytest.approx(20e-6)   # 100 - 10 - 70
    assert own["execute2"] == pytest.approx(40e-6)   # 70 - 20 - 10
    assert own["cache3"] == pytest.approx(10e-6)     # 20 - 10
    assert own["backend4"] == pytest.approx(10e-6)

    first, second = recorder.per_request("request")
    assert first["cache"] == pytest.approx([30e-6, 20e-6, 2])
    assert first["request"][0] == pytest.approx(100e-6)
    assert "bind" not in second and "housekeeping" not in second
    # Every layer's self time adds back up to the request.
    assert sum(entry[1] for entry in first.values()) == pytest.approx(100e-6)

    requests = [first, second]
    assert median_us(requests, "execute") == pytest.approx(55.0)
    assert median_us(requests, "execute", self_time=True) == pytest.approx(
        40.0)
    assert median_us(requests, "bind") == pytest.approx(5.0)  # 10 and 0
    assert recorder.durations("cache") == pytest.approx([20e-6, 10e-6])


def test_rescale_brings_later_spans_to_the_reference_host_speed(tmp_path):
    recorder = Recorder()
    build(recorder, ("request", 0.0, 100e-6, [("execute", 10e-6, 60e-6, [])]),
          request=0)
    first = len(recorder.spans)
    build(recorder, ("request", 200e-6, 300e-6, [
        ("execute", 210e-6, 260e-6, [])]), request=1)
    recorder.rescale(first, 0.8)  # the second replay ran on a slow host
    assert recorder.durations("execute") == pytest.approx([50e-6, 40e-6])
    assert recorder.self_times() == pytest.approx(
        [50e-6, 50e-6, 40e-6, 40e-6])
    slow = recorder.per_request("request")[1]
    assert slow["request"] == pytest.approx([80e-6, 40e-6, 1])
    # The file keeps the times as measured, and says what they were
    # read through.
    recorder.write_jsonl(tmp_path / "trace.jsonl")
    last = json.loads((tmp_path / "trace.jsonl").read_text()
                      .splitlines()[-1])
    assert last["end_us"] - last["start_us"] == pytest.approx(50.0)
    assert last["host_scale"] == 0.8


def test_spans_are_written_once_with_parent_and_request(tmp_path):
    recorder = Recorder()
    recorder.request = 7
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    assert recorder.write_jsonl(tmp_path / "trace.jsonl") == 2
    outer, inner = (json.loads(line) for line in
                    (tmp_path / "trace.jsonl").read_text().splitlines())
    assert (outer["parent"], inner["parent"], inner["request"]) == (-1, 0, 7)
    assert outer["start_us"] <= inner["start_us"] <= inner["end_us"]
    assert inner["end_us"] <= outer["end_us"]


class Layer:
    def fetch(self, constraint, keys):
        return len(keys)

    def lookup(self, keys):
        return self.fetch(None, keys)


def test_proxies_record_nested_spans_and_are_fully_restored():
    layer = Layer()
    shadowed = Layer()
    shadowed.fetch = lambda constraint, keys: -1  # an instance override
    override = shadowed.fetch
    recorder = Recorder()
    with Proxies(recorder) as proxies:
        proxies.wrap(layer, "lookup", "cache")
        proxies.wrap(layer, "fetch", "backend", tally=True)
        proxies.wrap(shadowed, "fetch", "backend", tally=True)
        assert layer.lookup([1, 2, 3]) == 3
        assert shadowed.fetch(None, [1]) == -1
        assert proxies.counts == {"cache": [1, 0], "backend": [2, 4]}
    assert [span[0] for span in recorder.spans] == [
        "cache", "backend", "backend"]
    assert recorder.spans[1][3] == 0  # backend ran inside cache
    # The class's own methods are what the instance resolves again ...
    assert vars(layer) == {}
    assert layer.fetch.__func__ is Layer.fetch
    assert layer.lookup.__func__ is Layer.lookup
    # ... and an attribute the instance had before is back untouched.
    assert shadowed.fetch is override
    spans_before = len(recorder.spans)
    layer.lookup([1])
    assert len(recorder.spans) == spans_before


def test_proxies_are_restored_when_the_round_raises():
    layer = Layer()
    with pytest.raises(RuntimeError):
        with Proxies(Recorder()) as proxies:
            proxies.wrap(layer, "fetch", "backend")
            raise RuntimeError("traced round failed")
    assert vars(layer) == {}
