"""The traced benchmark (perfbench/traced.py) wraps public vocalm functions
by name. Installing its hooks here makes the removal or renaming of one of
them fail in the test suite instead of in a later traced benchmark run."""

import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _vocalm_attributes() -> dict:
    from vocalm.ulm import attn, ngram

    snap = {
        (name, attr): getattr(mod, attr)
        for name, mod in sorted(sys.modules.items())
        if name.startswith("vocalm")
        for attr in dir(mod)
    }
    snap["NGramLM.score"] = ngram.NGramLM.score
    snap["AttnLM.score"] = attn.AttnLM.score
    return snap


def test_traced_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced
    from tracer import Tracer

    from vocalm import dsp, pipeline

    before = _vocalm_attributes()
    tracer = Tracer()
    try:
        traced.install(tracer, Counter())
        assert pipeline.stage_features is not before[("vocalm.pipeline", "stage_features")]
        assert dsp.read_features_csv is not before[("vocalm.dsp", "read_features_csv")]
    finally:
        tracer.uninstall()
    after = _vocalm_attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_stages_are_the_pipeline_stages(monkeypatch):
    # the per-stage table covers every stage, so its times add up to a run's
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    from vocalm import pipeline

    assert traced.STAGES == pipeline.STAGES
