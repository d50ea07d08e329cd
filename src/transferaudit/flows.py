"""Flow-log ingestion and the transfer-event extraction stage.

Consumes captured flow logs (one JSON object per line), detects personal
data in payloads (plain and Base64/MD5/SHA1/SHA256 encoded), attributes the
recipient (first-party token match, then owner-list lookup) and geolocates
the destination.  Flows without personal data are discarded; a flow that
carries personal data is dropped for one of `DROP_REASONS`, and counted,
or joins its per-(app, SLD) transfer event, whose JSON form (written by
`scan`, read by `check` and `report`) is defined here too.
"""

from __future__ import annotations

import base64
import hashlib
import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from types import MappingProxyType

# `_socket`, as `socket` imports `selectors` and every stage imports this module
from _socket import AF_INET, AF_INET6, inet_pton

from .countries import check_country_code
from .errors import DomainError, ParseError
from .lines import (
    check_json_strings,
    data_lines,
    json_records,
    json_string,
    json_type_error,
    tab_records,
)

IDLE = "idle"
ACTIVE = "active"

FIRST_PARTY = "first_party"
THIRD_PARTY = "third_party"
UNKNOWN = "unknown"

# why a flow with personal data is dropped, in the order that `scan` reports the counts
DROP_REASONS = ("unresolved country", "not a hostname", "unknown recipient")
_UNRESOLVED, _NOT_A_HOSTNAME, _UNKNOWN_RECIPIENT = DROP_REASONS

_LABEL_RE = re.compile(r"[0-9a-z]([0-9a-z-]*[0-9a-z])?")
_SPLIT_IDENTITY = re.compile(r"[^0-9a-z]+")


def _load_token_file(name: str) -> frozenset[str]:
    return frozenset(token for _, line in data_lines(None, name)
                     if (token := line.strip().lower()))


@cache
def public_suffixes() -> frozenset[str]:
    return _load_token_file("public_suffixes.txt")


@cache
def generic_tokens() -> frozenset[str]:
    return _load_token_file("generic_tokens.txt")


@dataclass(frozen=True)
class FlowRecord:
    app_id: str
    stage: str
    dest_fqdn: str
    dest_ip: str | None = None
    country: str | None = None
    payload: bytes = b""
    detected_types: frozenset[str] | None = None
    cert_org: str | None = None
    store_name: str | None = None

    def __post_init__(self):
        if self.stage not in (IDLE, ACTIVE):
            raise ValueError(f"stage must be idle or active, got {self.stage!r}")
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if not self.dest_fqdn:
            raise ValueError("dest_fqdn must be non-empty")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    device_value: str
    # search forms derived deterministically from the device value
    plain: bytes = field(init=False)
    # without its `=` padding: a prefix of the padded encoding, so it finds both
    base64_form: bytes = field(init=False)
    digest_forms: tuple[bytes, ...] = field(init=False)

    def __post_init__(self):
        raw = self.device_value.encode("utf-8")
        object.__setattr__(self, "plain", raw.lower())
        object.__setattr__(self, "base64_form", base64.b64encode(raw).rstrip(b"="))
        object.__setattr__(self, "digest_forms", (
            hashlib.md5(raw).hexdigest().encode("ascii"),
            hashlib.sha1(raw).hexdigest().encode("ascii"),
            hashlib.sha256(raw).hexdigest().encode("ascii"),
        ))


def load_catalog(path) -> tuple[CatalogEntry, ...]:
    """Catalog file: `data_type TAB device_value` per line."""
    entries = []
    usage = "data_type TAB device_value"
    for lineno, (name, value) in tab_records(path, usage):
        if not name or not value:
            raise ParseError(f"expected `{usage}`", lineno)
        entries.append(CatalogEntry(name=name, device_value=value))
    return tuple(entries)


# a lowercase-hex digest lies inside a maximal run of 32 or more hex digits
_HEX_RUN = re.compile(rb"[0-9a-f]{32,}")


def scan_payload(payload: bytes, catalog: Sequence[CatalogEntry]) -> set[str]:
    """Data types whose search forms occur in the payload.

    Plain values match case-insensitively; Base64 and hex digests match
    case-sensitively (digests are lowercase hex).  Digests are looked for
    only in the payload's hex runs, joined by a byte that no digest holds.
    """
    lowered = payload.lower()
    hex_runs = b" ".join(_HEX_RUN.findall(payload))
    found = set()
    for entry in catalog:
        if entry.plain in lowered:
            found.add(entry.name)
            continue
        if hex_runs and any(form in hex_runs for form in entry.digest_forms):
            found.add(entry.name)
            continue
        if entry.base64_form in payload:
            found.add(entry.name)
    return found


@dataclass(frozen=True)
class RecipientInfo:
    """First party, unknown, or a third party with its owner-list entry's owner and hq."""

    kind: str
    owner: str | None = None
    hq_country: str | None = None


FIRST_PARTY_RECIPIENT = RecipientInfo(FIRST_PARTY)
UNKNOWN_RECIPIENT = RecipientInfo(UNKNOWN)


def load_owner_list(path=None) -> dict[str, RecipientInfo]:
    """Owner list: `sld TAB owner TAB parent TAB hq_country TAB category`,
    the third-party recipient of each SLD; the parent and category columns
    are not kept.  Each SLD must be its own `extract_sld`, the key that
    `classify_recipient` looks up."""
    owners: dict[str, RecipientInfo] = {}
    for lineno, (sld, owner, _, hq, _) in tab_records(
            path, "sld TAB owner TAB parent TAB hq_country TAB category", "owner_list.tsv"):
        sld = sld.lower()
        try:
            registrable = extract_sld(sld) == sld
        except DomainError:
            registrable = False
        if not registrable:
            raise ParseError(f"{sld!r} is not a registrable domain", lineno)
        if sld in owners:
            raise ParseError(f"duplicate SLD {sld!r}", lineno)
        owners[sld] = RecipientInfo(THIRD_PARTY, owner, check_country_code(hq, lineno))
    return owners


def _fqdn_labels(fqdn: str) -> list[str]:
    fqdn = fqdn.lower().rstrip(".")
    labels = fqdn.split(".")
    # no top-level domain is all-numeric, so this rejects IPv4 literals;
    # the colons of an IPv6 literal fail the label pattern
    if (len(labels) < 2 or labels[-1].isdigit()
            or not all(_LABEL_RE.fullmatch(l) for l in labels)):
        raise DomainError(f"cannot parse FQDN {fqdn!r}")
    return labels


def extract_sld(fqdn: str) -> str:
    """Registrable domain under the shipped public-suffix snapshot.

    Raises DomainError for a string that names no host, an IPv4 or IPv6
    literal included, and for a bare public suffix.
    """
    labels = _fqdn_labels(fqdn)
    suffixes = public_suffixes()
    suffix_len = 1
    for n in (2, 3):
        if len(labels) >= n and ".".join(labels[-n:]) in suffixes:
            suffix_len = n
    if len(labels) <= suffix_len:
        raise DomainError(f"{fqdn!r} is only a public suffix")
    return ".".join(labels[-(suffix_len + 1):])


def tokenize_app_identity(package_name: str, cert_org: str | None = None,
                          store_name: str | None = None) -> frozenset[str]:
    """Token bag for first-party matching: package labels, cert org, app name.

    TLD labels, tokens of one or two characters, and the shipped generic
    token list are removed.
    """
    raw: list[str] = []
    for value in (package_name, cert_org, store_name):
        if value:
            raw.extend(t for t in _SPLIT_IDENTITY.split(value.lower()) if t)
    generic = generic_tokens()
    tlds = public_suffixes()
    return frozenset(
        t for t in raw if len(t) > 2 and t not in generic and t not in tlds
    )


def classify_recipient(app_tokens: frozenset[str], dest_fqdn: str,
                       owner_list: Mapping[str, RecipientInfo]) -> RecipientInfo:
    """First-party token match first, then owner-list lookup, else unknown.

    Raises DomainError where `extract_sld` does, an IP literal included.
    """
    sld = extract_sld(dest_fqdn)
    # the host's labels, less those of the public suffix (one per dot of the SLD)
    domain_bag = set(dest_fqdn.lower().rstrip(".").split(".")[:-sld.count(".")]) - {"www"}
    if domain_bag & app_tokens:
        return FIRST_PARTY_RECIPIENT
    return owner_list.get(sld, UNKNOWN_RECIPIENT)


# (IP version, prefix length, network address as an int without host bits)
Network = tuple[int, int, int]


def _network(text: str) -> Network | None:
    """The network that `text` writes, or None where it writes none: an IP
    address that `inet_pton` reads, optionally with a `/prefix` of one to
    three ASCII digits no larger than the family's bits.  The host bits are
    masked off, so `10.1.2.3/8` is `10.0.0.0/8`."""
    address, slash, prefix = text.partition("/")
    family, version, bits = (AF_INET6, 6, 128) if ":" in address else (AF_INET, 4, 32)
    if slash and not (prefix.isascii() and prefix.isdigit() and len(prefix) <= 3):
        return None
    try:
        value = int.from_bytes(inet_pton(family, address), "big")
    except (OSError, ValueError):  # ValueError: an embedded NUL
        return None
    prefixlen = int(prefix) if slash else bits
    return None if prefixlen > bits else (
        version, prefixlen, value & ((1 << prefixlen) - 1) << (bits - prefixlen))


def _parse_address(text: str) -> Network | None:
    """One IP address as a network of its full prefix length, or None where
    `text` is not one address, a `/prefix` or a zone id included."""
    return None if "/" in text else _network(text)


@dataclass(frozen=True)
class GeoTable:
    """Offline CIDR->country plus FQDN->country lookups.

    An IP takes the code of the longest prefix of its own address family
    that contains it; on a repeated CIDR the first-listed entry wins.  The
    table is immutable: its prefix index is built once, at construction.
    """

    networks: tuple[tuple[Network, str], ...] = ()
    fqdns: Mapping[str, str] = field(default_factory=dict)
    # per IP version: (netmask, {network int: code}) per prefix length, longest first
    _index: dict[int, list[tuple[int, dict[int, str]]]] = \
        field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "networks", tuple(self.networks))
        object.__setattr__(self, "fqdns", MappingProxyType(dict(self.fqdns)))
        by_prefix: dict[tuple[int, int], dict[int, str]] = {}
        for (version, prefixlen, network), code in self.networks:
            by_prefix.setdefault((version, prefixlen), {}).setdefault(network, code)
        index: dict[int, list[tuple[int, dict[int, str]]]] = {4: [], 6: []}
        for (version, prefixlen), codes in sorted(by_prefix.items(),
                                                  key=lambda item: -item[0][1]):
            bits = 32 if version == 4 else 128
            index[version].append((((1 << prefixlen) - 1) << (bits - prefixlen), codes))
        object.__setattr__(self, "_index", index)

    def lookup_ip(self, ip: str) -> str | None:
        """None where `ip` is not one IP address (`_parse_address`)."""
        address = _parse_address(ip)
        if address is None:
            return None
        version, _, value = address
        for mask, codes in self._index[version]:
            code = codes.get(value & mask)
            if code is not None:
                return code
        return None

    def lookup_fqdn(self, fqdn: str) -> str | None:
        labels = fqdn.lower().rstrip(".").split(".")
        for i in range(len(labels) - 1):
            hit = self.fqdns.get(".".join(labels[i:]))
            if hit is not None:
                return hit
        return None


def load_geo_table(path) -> GeoTable:
    """Geo table: `cidr_or_fqdn TAB ISO code` per line.

    A key that `_network` reads is a network: an IPv4 or IPv6 address,
    optionally with a `/prefix` of one to three digits.  Any other key must
    be a hostname as a flow's FQDN can name it, without a trailing dot.  A
    repeated network or FQDN keeps its first-listed code.
    """
    networks: list[tuple[Network, str]] = []
    fqdns: dict[str, str] = {}
    codes: set[str] = set()  # each checked once: tables repeat a few codes over many lines
    for lineno, (key, code) in tab_records(path, "cidr_or_fqdn TAB code"):
        if code not in codes:
            codes.add(check_country_code(code, lineno))
        network = _network(key)
        if network is not None:
            networks.append((network, code))
            continue
        try:
            hostname = ".".join(_fqdn_labels(key))
        except DomainError:
            hostname = None
        if hostname != key.lower():
            raise ParseError(f"bad geo key {key!r}: neither a network nor a hostname", lineno)
        fqdns.setdefault(hostname, code)
    return GeoTable(networks=tuple(networks), fqdns=fqdns)


def geolocate(geo_table: GeoTable, *, ip: str | None = None,
              fqdn: str | None = None, resolved: str | None = None) -> str | None:
    """Country for a destination; a pre-resolved country always wins."""
    if resolved:
        return resolved
    if ip:
        hit = geo_table.lookup_ip(ip)
        if hit is not None:
            return hit
    if fqdn:
        return geo_table.lookup_fqdn(fqdn)
    return None


@dataclass(frozen=True)
class TransferEvent:
    app_id: str
    recipient_domain: str
    data_types: frozenset[str]
    dest_countries: frozenset[str]
    recipient: RecipientInfo
    any_idle_flow: bool


# the optional text fields of a flow, app_version checked but not kept;
# app_id, stage and dest_fqdn are required
_FLOW_STRINGS = ("app_version", "dest_ip", "payload_b64", "cert_org", "store_name")


def load_flow_log(path) -> list[FlowRecord]:
    """One JSON object per line; `payload_b64` carries raw payload bytes.

    The text fields must be JSON strings, of which `app_id`, `stage` and
    `dest_fqdn` are required and not null or empty; `detected_types` must be
    a JSON array of strings, `payload_b64` strict Base64 and `country` an
    ISO-3166 alpha-2 code; each distinct country is checked once.  A
    `dest_ip` must be one IP address (`_parse_address`), and `dest_fqdn`
    must not start or end with whitespace.
    """
    records = []
    codes: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, obj in json_records(fh):
            try:
                check_json_strings(obj, _FLOW_STRINGS, lineno)
                detected = obj.get("detected_types")
                if detected is not None and not (isinstance(detected, list) and all(
                        isinstance(name, str) for name in detected)):
                    raise json_type_error("detected_types", "array of strings", detected, lineno)
                country = obj.get("country")
                if country is not None and country not in codes:
                    codes.add(check_country_code(country, lineno))
                dest_ip = obj.get("dest_ip")
                if dest_ip is not None and _parse_address(dest_ip) is None:
                    raise ValueError(f"dest_ip {dest_ip!r} is not an IP address")
                dest_fqdn = json_string(obj, "dest_fqdn", lineno)
                if dest_fqdn.strip() != dest_fqdn:
                    raise ValueError(f"dest_fqdn {dest_fqdn!r} starts or ends with whitespace")
                records.append(FlowRecord(
                    app_id=json_string(obj, "app_id", lineno),
                    stage=json_string(obj, "stage", lineno),
                    dest_fqdn=dest_fqdn,
                    dest_ip=dest_ip,
                    country=country,
                    payload=(base64.b64decode(obj["payload_b64"], validate=True)
                             if obj.get("payload_b64") else b""),
                    detected_types=frozenset(detected) if detected is not None else None,
                    cert_org=obj.get("cert_org"),
                    store_name=obj.get("store_name"),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad flow record: {exc}", lineno) from exc
    return records


def event_json(event: TransferEvent) -> dict:
    """The JSON object of one transfer event, as `scan` writes it."""
    return {
        "app_id": event.app_id,
        "recipient_domain": event.recipient_domain,
        "data_types": sorted(event.data_types),
        "dest_countries": sorted(event.dest_countries),
        "recipient_kind": event.recipient.kind,
        "recipient_owner": event.recipient.owner,
        "recipient_hq": event.recipient.hq_country,
        "any_idle_flow": event.any_idle_flow,
    }


def _recipient(kind, owner, hq, lineno: int) -> RecipientInfo:
    """The recipient of one of the two forms `event_json` writes."""
    if kind == FIRST_PARTY:
        if owner is not None or hq is not None:
            raise ParseError(f"a {FIRST_PARTY} recipient needs a null recipient_owner and "
                             f"recipient_hq, got {owner!r} and {hq!r}", lineno)
        return FIRST_PARTY_RECIPIENT
    if kind != THIRD_PARTY:
        raise ParseError(f"recipient_kind must be {FIRST_PARTY} or {THIRD_PARTY}, "
                         f"got {kind!r}", lineno)
    if not isinstance(owner, str):
        raise json_type_error("recipient_owner", "string", owner, lineno)
    return RecipientInfo(THIRD_PARTY, owner, check_country_code(hq, lineno))


def read_events(lines: Iterable[str]) -> dict[str, list[TransferEvent]]:
    """Parse `scan` output, one JSON object per line, grouped by app id.

    Each app's events come in `recipient_domain` order, whatever the order
    of the lines, and an app names a recipient domain on one line only.
    Every key that `event_json` writes is required; other keys are ignored.
    `app_id` and `recipient_domain` must be non-empty JSON strings, the two
    lists non-empty JSON arrays (`scan` writes an event only for flows with
    data types and a country), every data type a JSON string,
    `any_idle_flow` a JSON boolean and every country an ISO-3166 alpha-2
    code.  The recipient takes one of the two forms `scan` writes:
    `first_party` with a null `recipient_owner` and `recipient_hq`, or
    `third_party` with a JSON string owner and an ISO-3166 alpha-2 hq.
    Equal recipients and equal type or country lists share one frozen
    object each, and each is checked once, when first seen.
    """
    by_app: dict[str, list[TransferEvent]] = {}
    seen: set[tuple[str, str]] = set()
    recipients: dict[tuple, RecipientInfo] = {}
    type_sets: dict[tuple, frozenset[str]] = {}
    country_sets: dict[tuple, frozenset[str]] = {}
    for lineno, obj in json_records(lines):
        try:
            app_id = json_string(obj, "app_id", lineno)
            domain = json_string(obj, "recipient_domain", lineno)
            types = obj["data_types"]
            countries = obj["dest_countries"]
            idle = obj["any_idle_flow"]
            if not isinstance(types, list):
                raise json_type_error("data_types", "array", types, lineno)
            if not isinstance(countries, list):
                raise json_type_error("dest_countries", "array", countries, lineno)
            if not isinstance(idle, bool):
                raise json_type_error("any_idle_flow", "boolean", idle, lineno)
            recipient_key = (obj["recipient_kind"], obj["recipient_owner"],
                             obj["recipient_hq"])
            recipient = recipients.get(recipient_key)
            if recipient is None:
                recipient = recipients[recipient_key] = _recipient(*recipient_key, lineno)
            types_key = tuple(types)
            data_types = type_sets.get(types_key)
            if data_types is None:
                if not all(isinstance(name, str) for name in types_key):
                    raise json_type_error("data_types", "array of strings", types, lineno)
                if not types_key:
                    raise ParseError("data_types must not be empty", lineno)
                data_types = type_sets[types_key] = frozenset(types_key)
            countries_key = tuple(countries)
            dest_countries = country_sets.get(countries_key)
            if dest_countries is None:
                if not countries_key:
                    raise ParseError("dest_countries must not be empty", lineno)
                dest_countries = country_sets[countries_key] = frozenset(
                    check_country_code(code, lineno) for code in countries_key)
            event = TransferEvent(app_id, domain, data_types, dest_countries, recipient, idle)
        except KeyError as exc:
            raise ParseError(f"event record lacks field {exc}", lineno) from exc
        except TypeError as exc:
            raise ParseError(f"bad event record: {exc}", lineno) from exc
        pair = (app_id, domain)
        if pair in seen:
            raise ParseError(f"repeated event for app_id {app_id!r} and "
                             f"recipient_domain {domain!r}", lineno)
        seen.add(pair)
        by_app.setdefault(app_id, []).append(event)
    for events in by_app.values():
        events.sort(key=attrgetter("recipient_domain"))
    return by_app


def build_transfer_events(flows: list[FlowRecord], catalog: Sequence[CatalogEntry],
                          owner_list: Mapping[str, RecipientInfo], geo_table: GeoTable,
                          ) -> tuple[list[TransferEvent], Counter[str]]:
    """Scan, attribute and geolocate flows, grouped per (app, SLD); returns
    the events and the count of dropped flows per reason of `DROP_REASONS`.

    Flows without personal data are discarded, not counted; a flow with some
    is dropped for the first reason that holds.  A group's recipient is
    third party if any of its flows was attributed to the owner list, else
    first party, so it does not depend on the order of the flows.
    Third-party attributions within a group agree, since all come from the
    owner-list entry of the group's SLD.  An app's identity tokens are those
    of its package name, cert orgs and store names over all of its flows, so
    they do not depend on that order either.
    """
    app_tokens: dict[str, frozenset[str]] = {}
    for app_id, cert_org, store_name in {(f.app_id, f.cert_org, f.store_name) for f in flows}:
        app_tokens[app_id] = app_tokens.get(app_id, frozenset()) | \
            tokenize_app_identity(app_id, cert_org, store_name)
    groups: dict[tuple[str, str], dict] = {}
    drops: Counter[str] = Counter()
    for flow in flows:
        types = (flow.detected_types if flow.detected_types is not None
                 else scan_payload(flow.payload, catalog))
        if not types:
            continue
        country = geolocate(geo_table, ip=flow.dest_ip, fqdn=flow.dest_fqdn,
                            resolved=flow.country)
        if country is None:
            drops[_UNRESOLVED] += 1
            continue
        try:
            recipient = classify_recipient(app_tokens[flow.app_id], flow.dest_fqdn, owner_list)
        except DomainError:
            drops[_NOT_A_HOSTNAME] += 1
            continue
        if recipient.kind == UNKNOWN:
            drops[_UNKNOWN_RECIPIENT] += 1
            continue
        key = (flow.app_id, extract_sld(flow.dest_fqdn))
        group = groups.setdefault(key, {
            "types": set(), "countries": set(), "idle": False, "recipient": recipient,
        })
        if recipient.kind == THIRD_PARTY:
            group["recipient"] = recipient
        group["types"] |= types
        group["countries"].add(country)
        group["idle"] |= flow.stage == IDLE
    events = []
    for (app_id, sld), group in sorted(groups.items()):
        events.append(TransferEvent(
            app_id=app_id,
            recipient_domain=sld,
            data_types=frozenset(group["types"]),
            dest_countries=frozenset(group["countries"]),
            recipient=group["recipient"],
            any_idle_flow=group["idle"],
        ))
    return events, drops
