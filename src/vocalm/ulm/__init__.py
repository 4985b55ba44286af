"""Unit language models: smoothed n-gram and toy causal-attention backends,
context policies, beam generation, and the pooled-feature probe classifier."""

from .policy import ContextPolicy
from .ngram import AddK, KneserNey, NGramLM, train_ngram
from .scoring import ppl
from .attn import AttnLM, attn_train
from .generate import generate
from .probe import ProbeClassifier, probe_eval, train_probe

__all__ = [
    "AddK",
    "AttnLM",
    "ContextPolicy",
    "KneserNey",
    "NGramLM",
    "ProbeClassifier",
    "attn_train",
    "generate",
    "ppl",
    "probe_eval",
    "train_ngram",
    "train_probe",
]
