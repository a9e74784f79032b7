"""The record contract: every plain record of the package is immutable,
value-equal, hashable (an lru_cache key) and picklable (the --jobs pool
sends PhaseParams and SaddleGeometry to its workers)."""

import pickle

import pytest
from mpmath import mpf

from sixvertex import (Precision, bulk_f, elliptic_data_from_gamma, endpoints,
                       enumerate_dwbc, phase_params, specfun, tau_sequence,
                       weights_from)
from sixvertex.exactcore import PHASE_TABLE, Phase

P = Precision(128)


def _records():
    prm = phase_params("af", "0.3", "1", P)
    return {
        "Precision": P,
        "PhaseParams": prm,
        "Weights": weights_from(prm, P),
        # d's bound is 1 (a multiple of pi), fe's and af's mp.inf
        "Phase": PHASE_TABLE["d"],
        "TauValue": tau_sequence(prm, 3, P)[-1],
        "EllipticData": elliptic_data_from_gamma(mpf(1), P),
        "EnumResult": enumerate_dwbc(3),
        "FreeEnergy": bulk_f(prm, P),
        "SaddleGeometry": endpoints(prm, P),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_immutable_value_equal_hashable_and_picklable(name):
    rec = RECORDS[name]
    assert type(rec).__name__ == name
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], rec[0])
    twin = type(rec)(*rec)
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_phase_table_entries_are_value_equal():
    for phase in PHASE_TABLE.values():
        assert Phase(*phase) == phase and hash(Phase(*phase)) == hash(phase)
        assert pickle.loads(pickle.dumps(phase)) == phase


def test_precision_default_and_floor():
    assert Precision() == Precision(256) and Precision().bits == 256
    assert repr(Precision(96)) == "Precision(bits=96)"
    with pytest.raises(ValueError, match=">= 64"):
        Precision(63)


def test_equal_precisions_share_one_cache_entry():
    g = mpf("0.7")
    elliptic_data_from_gamma(g, Precision())
    hits = specfun._elliptic_data.cache_info().hits
    elliptic_data_from_gamma(g, Precision(256))
    assert specfun._elliptic_data.cache_info().hits == hits + 1
