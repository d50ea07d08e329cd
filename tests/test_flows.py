"""Payload scanning, recipient attribution, geolocation and event grouping."""

import base64
import dataclasses
import ipaddress
import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.errors import DomainError, ParseError
from transferaudit.flows import (
    FIRST_PARTY_RECIPIENT,
    THIRD_PARTY,
    CatalogEntry,
    FlowRecord,
    GeoTable,
    RecipientInfo,
    TransferEvent,
    build_transfer_events,
    classify_recipient,
    event_json,
    extract_sld,
    geolocate,
    load_flow_log,
    load_geo_table,
    read_events,
    scan_payload,
    tokenize_app_identity,
)
from transferaudit.flows import _network

AAID = "38400000-8cf0-11bd-b23e-10b96e40000d"
# digest/encoding oracle values computed independently before the build
AAID_MD5 = "5756ae9022b2ea1e47d84fead75220c8"
AAID_SHA1 = "4dfaa92388699ac6539885aef1719293879985bf"
AAID_SHA256 = "d4181bb455a74b3bc8b37c75ac9b2c702eb6b9930bd040b861403b31ca85634d"
AAID_B64 = "Mzg0MDAwMDAtOGNmMC0xMWJkLWIyM2UtMTBiOTZlNDAwMDBk"


@pytest.fixture(scope="module")
def aaid_catalog():
    return (CatalogEntry("AAID", AAID),)


def _triple(net):
    """A `GeoTable` network, from an `ipaddress` network."""
    return net.version, net.prefixlen, int(net.network_address)


def test_catalog_forms_match_frozen_oracle(aaid_catalog):
    entry = aaid_catalog[0]
    assert entry.digest_forms == (AAID_MD5.encode(), AAID_SHA1.encode(),
                                  AAID_SHA256.encode())
    assert AAID_B64.encode() in entry.base64_forms


def test_digest_hex_lengths(catalog):
    for entry in catalog:
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


def _naive_scan(payload, catalog):
    """Reference: a type is found iff some search form is a byte substring."""
    lowered = payload.lower()
    return {entry.name for entry in catalog
            if entry.plain in lowered
            or any(form in payload for form in entry.digest_forms + entry.base64_forms)}


def test_scan_matches_naive_oracle(catalog):
    payloads = [
        b"nothing here",
        f"x={AAID}".encode(),
        f"sig={AAID_SHA1}".encode(),
        b"ssid=CasaWiFi5G mac=a4:5e:60:c2:7a:93",
        base64.b64encode(b"unrelated"),
    ]
    for payload in payloads:
        assert scan_payload(payload, catalog) == _naive_scan(payload, catalog)


@pytest.mark.parametrize("digest", [AAID_MD5, AAID_SHA1, AAID_SHA256])
@pytest.mark.parametrize("template, found", [
    ("{digest}", True),
    ("{digest}&sig=1", True),  # at the start
    ("sig=1&{digest}", True),  # at the end
    ("id=09af{digest}77e0", True),  # inside a longer hex run
    ("id=0BADF00D{digest}CAFE", True),  # next to uppercase hex
    ("id={head}g{tail}", False),  # split by a non-hex byte
    ("id={pad}{head}-{tail}{pad}", False),  # ... that ends one long hex run
    ("id={upper}", False),  # digests match lowercase only
])
def test_scan_finds_digests_only_as_lowercase_hex(aaid_catalog, digest, template, found):
    payload = template.format(digest=digest, head=digest[:10], tail=digest[10:],
                              upper=digest.upper(), pad="0" * 32).encode()
    assert scan_payload(payload, aaid_catalog) == ({"AAID"} if found else set())


@given(st.lists(st.sampled_from([
    AAID_MD5, AAID_SHA1, AAID_SHA256, AAID_SHA256.upper(), AAID_B64, AAID.upper(),
    "0", "f", "a9", "F", "g", " ", "=", "-", "0123456789abcdef" * 2,
]), max_size=8))
def test_scan_matches_naive_scan_on_hex_mixtures(catalog, fragments):
    payload = "".join(fragments).encode()
    assert scan_payload(payload, catalog) == _naive_scan(payload, catalog)


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
    geo = GeoTable(networks=((_triple(ipaddress.ip_network("185.151.204.0/22")), "US"),
                             (_triple(ipaddress.ip_network("2001:db8::/32")), "DE")))
    flow = FlowRecord("com.viber.voip", "active", literal, dest_ip=literal,
                      detected_types=frozenset({"AAID"}))
    assert geolocate(geo, ip=literal, fqdn=literal) is not None
    assert build_transfer_events([flow], catalog, owner_list, geo) == []
    assert "unknown recipient" in caplog.text


def test_classify_third_party(owner_list):
    info = classify_recipient(frozenset({"viber", "voip", "messenger"}),
                              "app.adjust.com", owner_list)
    assert info.kind == "third_party"
    assert info.owner == "Adjust"
    assert info.hq_country == "US"
    assert info is owner_list["adjust.com"]


def test_classify_first_party_token_match(owner_list):
    info = classify_recipient(frozenset({"hulu", "plus"}), "play.hulu.com", owner_list)
    assert info.kind == "first_party"
    assert info.owner is None


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


def test_repeated_fqdn_keeps_first_listed_code(tmp_path):
    path = tmp_path / "geo.tsv"
    path.write_text("yandex.net\tRU\nYandex.NET\tDE\n", encoding="utf-8")
    table = load_geo_table(path)
    assert geolocate(table, fqdn="startup.mobile.yandex.net") == "RU"


@pytest.mark.parametrize("key", ["1.2.3.0/33", "10.0.0.0/x", "300.1.2.3", "X.com.", "_a.b.com",
                                 "com", " x.com", "x.com ", "a..com", "-a.com", "a.123", ""])
def test_a_geo_key_neither_network_nor_hostname_names_its_line(tmp_path, key):
    path = tmp_path / "geo.tsv"
    path.write_text(f"# geo\n10.0.0.0/8\tUS\n{key}\tDE\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line 3: bad geo key {re.escape(repr(key))}: "):
        load_geo_table(path)


def test_geo_hostname_keys_load_in_any_case(tmp_path):
    path = tmp_path / "geo.tsv"
    path.write_text("Example.COM\tUS\nbbc.co.uk\tGB\n4x-1.cdn.net\tDE\n", encoding="utf-8")
    assert dict(load_geo_table(path).fqdns) == {
        "example.com": "US", "bbc.co.uk": "GB", "4x-1.cdn.net": "DE"}


def test_canonical_cidrs_load_without_ipaddress(tmp_path, monkeypatch):
    # parsing a network with ipaddress costs more than the rest of its line
    path = tmp_path / "geo.tsv"
    path.write_text("10.0.0.0/8\tUS\n10.1.2.3/16\tRU\n192.0.2.1\tDE\n::/0\tJP\n"
                    "2001:db8::/32\tFR\n2001:0DB8:0:0:0:0:0:1/128\tIT\n", encoding="utf-8")
    calls = []
    ip_network = ipaddress.ip_network
    monkeypatch.setattr(ipaddress, "ip_network",
                        lambda *args, **kwargs: calls.append(args) or ip_network(*args, **kwargs))
    loaded = set(sys.modules)
    table = load_geo_table(path)
    assert calls == []
    assert set(sys.modules) - loaded == set()
    assert len(table.networks) == 6
    assert [table.lookup_ip(ip) for ip in ("10.1.9.9", "10.2.0.1", "192.0.2.1", "2001:db8::1",
                                           "2001:db8::2", "fe80::1")] == \
        ["RU", "US", "DE", "IT", "FR", "JP"]


def test_geo_table_is_immutable(geo_table):
    with pytest.raises(dataclasses.FrozenInstanceError):
        geo_table.networks = ()
    with pytest.raises(AttributeError):
        geo_table.networks.append(((4, 8, 10 << 24), "US"))
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
    # address text other than the canonical forms, and prefixed addresses
    for anchor in map(_ADDRESS[4], anchors[4]):
        a, b, c, d = anchor.packed
        probes += [f"{a:03d}.{b:02d}.{c}.{d}", f"::ffff:{anchor}", f"{anchor}/32"]
    for anchor in map(_ADDRESS[6], anchors[6]):
        probes += [str(anchor).upper(), anchor.exploded, f"{anchor}%eth0", f"{anchor}/128"]
    return networks, probes


@given(_geo_cases())
def test_lookup_ip_matches_linear_reference(case):
    networks, probes = case
    table = GeoTable(networks=tuple((_triple(net), code) for net, code in networks))
    for ip in probes:
        assert table.lookup_ip(ip) == _linear_lookup(networks, ip), ip


def _ip_network_triple(text):
    try:
        return _triple(ipaddress.ip_network(text, strict=False))
    except ValueError:
        return None


_NON_ASCII_DIGITS = [chr(0x0660 + d) for d in range(10)] + [chr(0xFF10 + d) for d in range(10)]


@st.composite
def _cidr_texts(draw):
    """Texts the parser must read as ipaddress does."""
    v = draw(st.sampled_from([4, 6]))
    # zero runs make `::` compression likely
    chunks = st.lists(st.one_of(st.sampled_from([0, 0, 1, 0xFFFF]), st.integers(0, 0xFFFF)),
                      min_size=2 if v == 4 else 8, max_size=2 if v == 4 else 8)
    value = 0
    for chunk in draw(chunks):
        value = value << 16 | chunk
    prefixlen = draw(st.integers(0, _BITS[v]))
    addr = _ADDRESS[v](value)  # host bits set, masked off by strict=False
    net = _NETWORK[v]((value, prefixlen), strict=False)
    forms = [str(addr), f"{addr}/{prefixlen}", f"{addr}/{prefixlen:02d}",
             f"{addr}/{_BITS[v] + draw(st.integers(1, 999))}",
             f" {addr}/{prefixlen}", f"{addr}/{prefixlen} ", f"{addr} /{prefixlen}"]
    if v == 6:
        forms += [addr.exploded, f"{addr.exploded}/{prefixlen}",
                  f"{str(addr).upper()}/{prefixlen}", f"{addr.exploded.upper()}/{prefixlen}"]
    else:
        octets = str(addr).split(".")
        at = draw(st.integers(0, 3))
        octets[at] = "0" + octets[at]
        forms += [".".join(octets) + f"/{prefixlen}"]
    at = draw(st.sampled_from([i for i, ch in enumerate(forms[1]) if ch.isdigit()]))
    forms.append(forms[1][:at] + draw(st.sampled_from(_NON_ASCII_DIGITS)) + forms[1][at + 1:])
    # forms that the fast path may leave to ipaddress
    forms += [f"{addr}/{prefixlen:04d}", f"{addr}/{net.netmask}", f"{addr}/{net.hostmask}"]
    if v == 6:
        forms += [f"{addr}%eth0/{prefixlen}", f"::ffff:{_ADDRESS[4](value & 0xFFFFFFFF)}"]
    return forms


@given(_cidr_texts())
def test_cidr_parser_agrees_with_ipaddress(forms):
    for text in forms:
        assert _network(text) == _ip_network_triple(text), text


@pytest.mark.parametrize("text", [
    "0.0.0.0/0", "255.255.255.255/32", "::", "::/0", "1::", "1:2:3:4:5:6:7::",
    "::1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8/128",  # read as ipaddress reads them
    "", "/8", "1.2.3.4/", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.4/33", "::/129",
    ":::", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "1::2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8::",
    "2001:db8::1::2", "::g", "12345::", "1.2.3.4\n",  # rejected by both
    "1.2.3.4\x00", "\u0661.2.3.4",  # rejected by both; inet_pton raises ValueError, OSError
    "::ffff:1.2.3.4", "10.0.0.0/255.0.0.0", "fe80::1%eth0",  # read as ipaddress reads them
])
def test_cidr_parser_edges(text):
    assert _network(text) == _ip_network_triple(text)


@pytest.mark.parametrize("literal", ["185.151.204.10.", " 2001:db8::1", "fe80::1%eth0",
                                     "::ffff:185.151.204.10"])
def test_ip_literal_forms_name_no_recipient(literal, owner_list):
    assert classify_recipient(frozenset({"viber"}), literal, owner_list).kind == "unknown"


def test_flow_record_validation():
    with pytest.raises(ValueError):
        FlowRecord("app", "paused", "x.com")
    with pytest.raises(ValueError):
        FlowRecord("app", "idle", "")


def test_build_events_from_fixture(flow_records, catalog, owner_list, geo_table):
    events = build_transfer_events(flow_records, catalog, owner_list, geo_table)
    by_key = {(e.app_id, e.recipient_domain): e for e in events}

    adjust = by_key[("com.viber.voip", "adjust.com")]
    assert adjust.data_types == {"AAID"}
    assert adjust.dest_countries == {"US"}
    assert adjust.recipient.kind == "third_party"
    assert adjust.recipient.owner == "Adjust"
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
    FlowRecord("com.acme.app", "active", "acme.onesignal.com", country="US",
               detected_types=frozenset({"AAID"})),
    FlowRecord("com.acme.app", "idle", "api.onesignal.com", country="US",
               detected_types=frozenset({"GPS_LOCATION"})),
    FlowRecord("com.acme.app", "active", "push.acme.onesignal.com", country="DE",
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
    assert (mixed.recipient.owner, mixed.recipient.hq_country) == ("OneSignal", "US")


def test_app_identity_is_union_over_flows(catalog, owner_list, geo_table):
    # "zappy" is an identity token only through the cert org of one flow
    flows = [
        FlowRecord("com.example.app", "active", "api.zappy.com", country="US",
                   detected_types=frozenset({"AAID"}), cert_org="Zappy Inc"),
        FlowRecord("com.example.app", "idle", "api.zappy.com", country="US",
                   detected_types=frozenset({"AAID"})),
    ]
    for ordered in (flows, flows[::-1]):
        events = build_transfer_events(ordered, catalog, owner_list, geo_table)
        assert [(e.recipient_domain, e.recipient.kind, e.any_idle_flow) for e in events] \
            == [("zappy.com", "first_party", True)]


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


@pytest.mark.parametrize("field, value", [
    ("country", "de"), ("country", 49), ("detected_types", "imei"), ("dest_fqdn", 5),
    ("dest_ip", 5), ("app_id", ["com.zappy"]), ("app_id", None), ("stage", None),
    ("dest_fqdn", None), ("detected_types", [7, "AAID"]), ("detected_types", [7]),
    ("payload_b64", "ab!cd"), ("dest_ip", "999.1.1.1"), ("dest_ip", "abc"),
    ("dest_ip", "1.2.3.4/8"), ("dest_ip", "")])
def test_load_flow_log_rejects_a_wrongly_typed_field(tmp_path, field, value):
    # a lowercase code would be judged outside the EU, a string split into letters,
    # the integer 5 read as the address 0.0.0.5, a null where a string is
    # required would reach the grouping of flows, a number among the detected
    # types would be written as a data type, a non-Base64 character would
    # be skipped, decoding other bytes, and an address that is none would
    # drop its flow as one to an unresolved country
    record = {"app_id": "com.zappy", "stage": "active", "dest_fqdn": "api.zappy.com",
              "country": "DE", "detected_types": ["IMEI"]}
    path = tmp_path / "flows.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_flow_log(path)
    assert excinfo.value.line_number == 2


# the two recipient forms `scan` writes: first party, and third party with
# the owner and hq of an owner-list entry
_recipients = st.one_of(
    st.just(FIRST_PARTY_RECIPIENT),
    st.builds(RecipientInfo, st.just(THIRD_PARTY), st.text(max_size=8),
              st.sampled_from(["US", "DE", "RU", "CN"])))
_transfer_events = st.lists(
    # `scan` writes no empty app id or domain, and `read_events` refuses one
    st.builds(TransferEvent, st.text(min_size=1, max_size=4), st.text(min_size=1, max_size=6),
              st.frozensets(st.text(max_size=5), max_size=3),
              st.frozensets(st.sampled_from(["US", "DE", "JP", "IL"]), max_size=3),
              _recipients, st.booleans()),
    max_size=12, unique_by=lambda e: (e.app_id, e.recipient_domain))


@given(_transfer_events, st.data())
def test_event_json_round_trips_in_any_line_order(events, data):
    lines = [json.dumps(event_json(e), sort_keys=True) + "\n" for e in events]
    got = read_events(data.draw(st.permutations(lines)))
    want: dict[str, list[TransferEvent]] = {}
    for event in sorted(events, key=lambda e: e.recipient_domain):
        want.setdefault(event.app_id, []).append(event)
    assert got == want
