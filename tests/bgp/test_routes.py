"""Unit tests for BGP route objects and selection keys."""

import dataclasses

import pytest

from repro.net.address import Prefix
from repro.net.errors import ReproError
from repro.bgp.routes import (LOCAL_PREF_CUSTOMER, LOCAL_PREF_PEER,
                              LOCAL_PREF_PROVIDER, BgpRoute, BgpUpdate,
                              RouteScope)

PFX = Prefix.parse("10.5.0.0/16")


def route(path, pref=100, learned_from=None, scope=RouteScope.NORMAL):
    return BgpRoute(prefix=PFX, as_path=tuple(path), local_pref=pref,
                    scope=scope, learned_from=learned_from)


class TestBgpRoute:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError) as raised:
            BgpRoute(prefix=PFX, as_path=())
        assert isinstance(raised.value, ReproError)

    def test_origin_and_length(self):
        r = route([3, 2, 5])
        assert r.origin_asn == 5
        assert r.path_length == 3

    def test_originated_flag(self):
        assert route([1]).originated
        assert not route([1], learned_from=2).originated

    def test_prepended(self):
        r = route([2, 5]).prepended(9)
        assert r.as_path == (9, 2, 5)

    def test_prepended_keeps_every_other_field(self):
        """``prepended`` names the fields by hand: one added to
        ``BgpRoute`` later must fail here, not vanish on export."""
        original = route([2, 5], pref=LOCAL_PREF_PEER, learned_from=2,
                         scope=RouteScope.ANYCAST_BILATERAL)
        defaults = BgpRoute(prefix=PFX, as_path=(2, 5))
        exported = original.prepended(9)
        for field in dataclasses.fields(BgpRoute):
            if field.name == "as_path":
                continue
            if field.name != "prefix":  # a value prepended could not guess
                assert getattr(original, field.name) != getattr(defaults,
                                                                field.name)
            assert getattr(exported, field.name) == getattr(original,
                                                            field.name)

    def test_contains_asn(self):
        assert route([2, 5]).contains_asn(5)
        assert not route([2, 5]).contains_asn(7)

    def test_scope_anycast_flags(self):
        assert RouteScope.ANYCAST_GLOBAL.is_anycast
        assert RouteScope.ANYCAST_BILATERAL.is_anycast
        assert not RouteScope.NORMAL.is_anycast


class TestSelection:
    def test_higher_local_pref_wins(self):
        customer = route([9, 5], pref=LOCAL_PREF_CUSTOMER, learned_from=9)
        provider = route([3, 5], pref=LOCAL_PREF_PROVIDER, learned_from=3)
        assert min([provider, customer],
                   key=BgpRoute.selection_key) is customer

    def test_shorter_path_breaks_pref_tie(self):
        short = route([3, 5], pref=LOCAL_PREF_PEER, learned_from=3)
        long = route([4, 6, 5], pref=LOCAL_PREF_PEER, learned_from=4)
        assert min([long, short], key=BgpRoute.selection_key) is short

    def test_lower_origin_breaks_length_tie(self):
        a = route([3, 5], pref=LOCAL_PREF_PEER, learned_from=3)
        b = route([4, 2], pref=LOCAL_PREF_PEER, learned_from=4)
        assert min([a, b], key=BgpRoute.selection_key) is b

    def test_lower_neighbor_breaks_full_tie(self):
        a = route([3, 5], pref=LOCAL_PREF_PEER, learned_from=3)
        b = route([4, 5], pref=LOCAL_PREF_PEER, learned_from=4)
        assert min([a, b], key=BgpRoute.selection_key) is a

    def test_selection_is_deterministic(self):
        routes = [route([3, 5], learned_from=3), route([4, 5], learned_from=4)]
        assert (min(routes, key=BgpRoute.selection_key)
                is min(reversed(routes), key=BgpRoute.selection_key))


class TestBgpUpdate:
    def test_withdrawal_flag(self):
        assert BgpUpdate(sender_asn=1, prefix=PFX).is_withdrawal
        assert not BgpUpdate(sender_asn=1, prefix=PFX,
                             route=route([1])).is_withdrawal
