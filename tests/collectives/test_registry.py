"""Scheme registry: SchemeSpec value semantics, resolution, legacy names."""

import pickle
import warnings

import pytest

from repro.collectives import (
    ElmoBroadcast,
    SchemeSpec,
    registered_schemes,
    resolve_scheme,
)


class TestSchemeSpec:
    def test_frozen(self):
        spec = SchemeSpec("elmo", header_bytes=64)
        with pytest.raises(AttributeError):
            spec.name = "bert"
        with pytest.raises(AttributeError):
            del spec.name

    def test_value_semantics(self):
        a = SchemeSpec("elmo", header_bytes=64)
        b = SchemeSpec("elmo", header_bytes=64)
        assert a == b and hash(a) == hash(b)
        assert a != SchemeSpec("elmo", header_bytes=32)
        assert a != SchemeSpec("bert", header_bytes=64)

    def test_params_canonically_sorted(self):
        # Keyword order never matters: equal specs stringify identically.
        a = SchemeSpec("x", b=2, a=1)
        b = SchemeSpec("x", a=1, b=2)
        assert a == b and str(a) == str(b) == "x:a=1,b=2"

    def test_str_parse_round_trip(self):
        for spec in (
            SchemeSpec("peel"),
            SchemeSpec("elmo", header_bytes=64),
            SchemeSpec("rsbf", fpr=0.01),
            SchemeSpec("peel", programmable_cores=True),
        ):
            assert SchemeSpec.parse(str(spec)) == spec

    def test_parse_value_types(self):
        spec = SchemeSpec.parse("x:i=3,f=0.5,t=true,n=false,s=abc")
        assert spec.kwargs == {
            "i": 3, "f": 0.5, "t": True, "n": False, "s": "abc"
        }

    def test_parse_rejects_malformed_params(self):
        with pytest.raises(ValueError, match="param=value"):
            SchemeSpec.parse("elmo:header_bytes")

    def test_pickle_round_trip(self):
        spec = SchemeSpec("elmo", header_bytes=64)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)
        assert str(clone) == "elmo:header_bytes=64"


class TestResolution:
    def test_unknown_scheme_names_the_registry(self):
        with pytest.raises(ValueError, match="scheme registry"):
            resolve_scheme("carrier-pigeon")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            resolve_scheme(SchemeSpec("elmo", header_bites=64))

    def test_every_registered_scheme_constructs(self):
        for name in registered_schemes():
            scheme = resolve_scheme(name)
            assert scheme.name  # constructed, self-describing

    def test_spec_params_reach_the_constructor(self):
        scheme = resolve_scheme(SchemeSpec("elmo", header_bytes=16))
        assert isinstance(scheme, ElmoBroadcast)
        assert scheme.header_bytes == 16

    def test_instance_passes_through(self):
        scheme = ElmoBroadcast(header_bytes=8)
        assert resolve_scheme(scheme) is scheme


class TestAliases:
    def test_legacy_spellings_are_unknown_schemes(self):
        for legacy in ("peel+cores", "orca-nosetup"):
            with pytest.raises(ValueError, match="unknown scheme"):
                resolve_scheme(legacy)

    def test_canonical_names_never_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_scheme("peel")
            resolve_scheme(SchemeSpec("elmo", header_bytes=64))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


class TestRegistryContents:
    def test_source_routed_schemes_registered(self):
        names = registered_schemes()
        for name in ("elmo", "bert", "rsbf", "lipsin", "ip-multicast"):
            assert name in names
