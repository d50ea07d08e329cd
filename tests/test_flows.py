"""Payload scanning, recipient attribution, geolocation and event grouping."""

import base64
import dataclasses
import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.errors import DomainError, ParseError
from transferaudit.flows import (
    CatalogEntry,
    FlowRecord,
    GeoTable,
    PersonalDataCatalog,
    build_transfer_events,
    classify_recipient,
    extract_sld,
    geolocate,
    load_flow_log,
    load_geo_table,
    scan_payload,
    tokenize_app_identity,
)

AAID = "38400000-8cf0-11bd-b23e-10b96e40000d"
# digest/encoding oracle values computed independently before the build
AAID_MD5 = "5756ae9022b2ea1e47d84fead75220c8"
AAID_SHA1 = "4dfaa92388699ac6539885aef1719293879985bf"
AAID_SHA256 = "d4181bb455a74b3bc8b37c75ac9b2c702eb6b9930bd040b861403b31ca85634d"
AAID_B64 = "Mzg0MDAwMDAtOGNmMC0xMWJkLWIyM2UtMTBiOTZlNDAwMDBk"


@pytest.fixture(scope="module")
def aaid_catalog():
    return PersonalDataCatalog(entries=[CatalogEntry("AAID", AAID)])


def test_catalog_forms_match_frozen_oracle(aaid_catalog):
    entry = aaid_catalog.entries[0]
    assert entry.digest_forms == (AAID_MD5.encode(), AAID_SHA1.encode(),
                                  AAID_SHA256.encode())
    assert AAID_B64.encode() in entry.base64_forms


def test_digest_hex_lengths(catalog):
    for entry in catalog.entries:
        md5, sha1, sha256 = entry.digest_forms
        assert len(md5) == 32 and len(sha1) == 40 and len(sha256) == 64


@pytest.mark.parametrize("form", [AAID, AAID_MD5, AAID_SHA1, AAID_SHA256, AAID_B64])
def test_scan_detects_each_form(aaid_catalog, form):
    payload = f"header data {form} trailer".encode()
    assert scan_payload(payload, aaid_catalog) == {"AAID"}


def test_scan_plain_value_case_insensitive(aaid_catalog):
    assert scan_payload(AAID.upper().encode(), aaid_catalog) == {"AAID"}


def test_scan_corrupted_digest_not_detected(aaid_catalog):
    corrupted = AAID_SHA256[:-1] + ("0" if AAID_SHA256[-1] != "0" else "1")
    assert scan_payload(corrupted.encode(), aaid_catalog) == set()


def test_scan_empty_payload(aaid_catalog):
    assert scan_payload(b"", aaid_catalog) == set()


def test_scan_matches_naive_oracle(catalog):
    # soundness: report a type iff some search form is a byte substring
    payloads = [
        b"nothing here",
        f"x={AAID}".encode(),
        f"sig={AAID_SHA1}".encode(),
        b"ssid=CasaWiFi5G mac=a4:5e:60:c2:7a:93",
        base64.b64encode(b"unrelated"),
    ]
    for payload in payloads:
        lowered = payload.lower()
        expected = set()
        for entry in catalog.entries:
            forms_ci = [entry.plain]
            forms_cs = list(entry.digest_forms) + list(entry.base64_forms)
            if any(f in lowered for f in forms_ci) or any(f in payload for f in forms_cs):
                expected.add(entry.name)
        assert scan_payload(payload, catalog) == expected


def test_identity_tokens_messenger_app():
    tokens = tokenize_app_identity("com.viber.voip", "Viber Media", "Viber Messenger")
    assert tokens == {"viber", "voip", "messenger"}


def test_identity_tokens_vpn_app():
    tokens = tokenize_app_identity("pm.tap.vpn", None, "TapVPN Free VPN")
    assert tokens == {"tap", "vpn", "tapvpn", "free"}


def test_identity_tokens_minimal_package():
    assert tokenize_app_identity("com.example") == {"example"}


def test_extract_sld():
    assert extract_sld("ad.smaato.net") == "smaato.net"
    assert extract_sld("app.adjust.com") == "adjust.com"
    assert extract_sld("tracker.example.co.uk") == "example.co.uk"
    assert extract_sld("mail.ru") == "mail.ru"


def test_extract_sld_rejects_bare_suffix():
    with pytest.raises(DomainError):
        extract_sld("com")


@pytest.mark.parametrize("literal", ["185.151.204.10", "2001:db8::1"])
def test_ip_literal_destination(literal, owner_list, catalog, caplog):
    with pytest.raises(DomainError):
        extract_sld(literal)
    assert classify_recipient(frozenset({"viber"}), literal, owner_list).kind == "unknown"
    # geolocated by its address, then dropped as an unknown recipient
    geo = GeoTable(networks=((ipaddress.ip_network("185.151.204.0/22"), "US"),
                             (ipaddress.ip_network("2001:db8::/32"), "DE")))
    flow = FlowRecord("com.viber.voip", "1", "active", literal, dest_ip=literal,
                      detected_types=frozenset({"AAID"}))
    assert geolocate(geo, ip=literal, fqdn=literal) is not None
    assert build_transfer_events([flow], catalog, owner_list, geo) == []
    assert "unknown recipient" in caplog.text


def test_classify_third_party(owner_list):
    info = classify_recipient(frozenset({"viber", "voip", "messenger"}),
                              "app.adjust.com", owner_list)
    assert info.kind == "third_party"
    assert info.owner_name == "Adjust"
    assert info.hq_country == "US"


def test_classify_first_party_token_match(owner_list):
    info = classify_recipient(frozenset({"hulu", "plus"}), "play.hulu.com", owner_list)
    assert info.kind == "first_party"
    assert info.owner_name is None


def test_classify_unknown_fallthrough(owner_list):
    info = classify_recipient(frozenset({"viber"}),
                              "tracker.example-unlisted.io", owner_list)
    assert info.kind == "unknown"


def test_classify_first_party_wins_over_owner_list(owner_list):
    # first-party check precedes the owner-list lookup
    info = classify_recipient(frozenset({"adjust"}), "app.adjust.com", owner_list)
    assert info.kind == "first_party"


def test_classify_bad_fqdn(owner_list):
    with pytest.raises(DomainError):
        classify_recipient(frozenset(), "not_a_domain", owner_list)


def test_geolocate_cidr(tmp_path):
    path = tmp_path / "geo.tsv"
    path.write_text("104.16.0.0/12\tUS\n", encoding="utf-8")
    table = load_geo_table(path)
    assert geolocate(table, ip="104.18.3.7") == "US"


def test_geolocate_pre_resolved_wins(geo_table):
    assert geolocate(geo_table, ip="104.18.3.7", resolved="RU") == "RU"


def test_geolocate_unresolved(geo_table):
    assert geolocate(geo_table, ip="203.0.113.9") is None


def test_geolocate_fqdn_suffix_walk(tmp_path):
    path = tmp_path / "geo.tsv"
    path.write_text("yandex.net\tRU\n", encoding="utf-8")
    table = load_geo_table(path)
    assert geolocate(table, fqdn="startup.mobile.yandex.net") == "RU"


def test_geolocate_most_specific_cidr(tmp_path):
    path = tmp_path / "geo.tsv"
    path.write_text("10.0.0.0/8\tUS\n10.1.0.0/16\tRU\n10.1.0.0/16\tDE\n::/0\tJP\n",
                    encoding="utf-8")
    table = load_geo_table(path)
    assert geolocate(table, ip="10.1.2.3") == "RU"  # first-listed of a repeated CIDR
    assert geolocate(table, ip="10.2.2.3") == "US"
    assert geolocate(table, ip="192.0.2.1") is None  # a v6 /0 holds no v4 address
    assert geolocate(table, ip="2001:db8::1") == "JP"


def test_geo_table_is_immutable(geo_table):
    with pytest.raises(dataclasses.FrozenInstanceError):
        geo_table.networks = ()
    with pytest.raises(AttributeError):
        geo_table.networks.append((ipaddress.ip_network("10.0.0.0/8"), "US"))
    with pytest.raises(TypeError):
        geo_table.fqdns["example.com"] = "US"


def _linear_lookup(networks, ip):
    """Reference: test every network, keep the first of the longest matches."""
    try:
        addr = ipaddress.ip_address(ip)
    except ValueError:
        return None
    best, best_len = None, -1
    for net, code in networks:
        if addr in net and net.prefixlen > best_len:
            best, best_len = code, net.prefixlen
    return best


_BITS = {4: 32, 6: 128}
_NETWORK = {4: ipaddress.IPv4Network, 6: ipaddress.IPv6Network}
_ADDRESS = {4: ipaddress.IPv4Address, 6: ipaddress.IPv6Address}
_MALFORMED = ["", "not-an-ip", "1.2.3", "256.1.1.1", "1.2.3.4/24", "1.2.3.4.5",
              "::g", "2001:db8::1::2", " 10.0.0.1"]


@st.composite
def _geo_cases(draw):
    # few anchors per family, so networks nest, repeat and contain the probes
    anchors = {v: draw(st.lists(st.integers(0, 2 ** _BITS[v] - 1), min_size=1, max_size=3))
               for v in (4, 6)}
    families = draw(st.sampled_from([(4,), (6,), (4, 6)]))
    codes = st.sampled_from(["US", "RU", "DE", "JP"])
    networks = []
    for _ in range(draw(st.integers(0, 12))):
        v = draw(st.sampled_from(families))
        prefixlen = draw(st.one_of(st.sampled_from([0, _BITS[v]]),
                                   st.integers(0, _BITS[v])))
        net = _NETWORK[v]((draw(st.sampled_from(anchors[v])), prefixlen), strict=False)
        networks.append((net, draw(codes)))
    if networks:
        repeated = draw(st.lists(st.sampled_from(networks), max_size=4))
        networks += [(net, draw(codes)) for net, _ in repeated]
    probes = list(_MALFORMED) + [draw(st.text(max_size=12))]
    for v in (4, 6):
        for anchor in anchors[v]:
            flipped = anchor ^ (1 << draw(st.integers(0, _BITS[v] - 1)))
            probes += [str(_ADDRESS[v](anchor)), str(_ADDRESS[v](flipped))]
        probes += [str(_ADDRESS[v](x))
                   for x in draw(st.lists(st.integers(0, 2 ** _BITS[v] - 1), max_size=3))]
    return networks, probes


@given(_geo_cases())
def test_lookup_ip_matches_linear_reference(case):
    networks, probes = case
    table = GeoTable(networks=tuple(networks))
    for ip in probes:
        assert table.lookup_ip(ip) == _linear_lookup(networks, ip), ip


def test_flow_record_validation():
    with pytest.raises(ValueError):
        FlowRecord("app", "1", "paused", "x.com")
    with pytest.raises(ValueError):
        FlowRecord("app", "1", "idle", "")


def test_build_events_from_fixture(flow_records, catalog, owner_list, geo_table):
    events = build_transfer_events(flow_records, catalog, owner_list, geo_table)
    by_key = {(e.app_id, e.recipient_domain): e for e in events}

    adjust = by_key[("com.viber.voip", "adjust.com")]
    assert adjust.data_types == {"AAID"}
    assert adjust.dest_countries == {"US"}
    assert adjust.recipient.kind == "third_party"
    assert adjust.recipient.owner_name == "Adjust"
    assert not adjust.any_idle_flow

    yandex = by_key[("pm.tap.vpn", "yandex.net")]
    assert yandex.any_idle_flow
    assert yandex.dest_countries == {"RU"}

    smaato = by_key[("com.tellurionmobile.primalcraft", "smaato.net")]
    assert smaato.data_types == {"GPS_LOCATION", "AAID"}
    mailru = by_key[("com.tellurionmobile.primalcraft", "mail.ru")]
    assert mailru.data_types == {"GPS_LOCATION", "SSID", "MAC"}

    viber_cdn = by_key[("com.viber.voip", "viber.com")]
    assert viber_cdn.recipient.kind == "first_party"

    # noise flows were dropped: no-personal-data and unknown-recipient
    assert ("com.tellurionmobile.primalcraft", "google.com") not in by_key
    assert all("unlisted" not in domain for _, domain in by_key)


# one app reaching an owner-listed SLD both through an app-named host (first
# party) and a third-party host: the group must not depend on flow order
_MIXED_GROUP_FLOWS = [
    FlowRecord("com.acme.app", "1", "active", "acme.onesignal.com", country="US",
               detected_types=frozenset({"AAID"})),
    FlowRecord("com.acme.app", "1", "idle", "api.onesignal.com", country="US",
               detected_types=frozenset({"GPS_LOCATION"})),
    FlowRecord("com.acme.app", "1", "active", "push.acme.onesignal.com", country="DE",
               detected_types=frozenset({"AAID"})),
]


@given(st.randoms(use_true_random=False))
def test_events_independent_of_flow_order(flow_records, catalog, owner_list, geo_table,
                                          rnd):
    flows = list(flow_records) + _MIXED_GROUP_FLOWS
    expected = build_transfer_events(flows, catalog, owner_list, geo_table)
    rnd.shuffle(flows)
    assert build_transfer_events(flows, catalog, owner_list, geo_table) == expected
    mixed = next(e for e in expected if e.app_id == "com.acme.app")
    assert mixed.recipient.kind == "third_party"
    assert (mixed.recipient.owner_name, mixed.recipient.hq_country,
            mixed.recipient.category) == ("OneSignal", "US", "messaging")


def test_event_grouping_is_partition(flow_records, catalog, owner_list, geo_table):
    events = build_transfer_events(flow_records, catalog, owner_list, geo_table)
    keys = [(e.app_id, e.recipient_domain) for e in events]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys)
    for event in events:
        assert event.data_types and event.dest_countries
        assert event.recipient.kind in ("first_party", "third_party")


def test_load_flow_log_bad_json(tmp_path):
    path = tmp_path / "flows.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_flow_log(path)
    assert excinfo.value.line_number == 1
