"""Flow-log ingestion and the transfer-event extraction stage.

Consumes captured flow logs (one JSON object per line), detects personal
data in payloads (plain and Base64/MD5/SHA1/SHA256 encoded), attributes the
recipient (first-party token match, then owner-list lookup) and geolocates
the destination.  Flows without personal data, with unresolvable countries
or with unknown recipients are dropped; the rest group into per-(app, SLD)
transfer events, whose JSON form (written by `scan`, read by `check` and
`report`) is defined here too.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import logging
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType

from .countries import check_country_code
from .errors import DomainError, ParseError
from .lines import check_json_strings, data_lines, json_records, json_type_error, tab_records

log = logging.getLogger(__name__)

IDLE = "idle"
ACTIVE = "active"

FIRST_PARTY = "first_party"
THIRD_PARTY = "third_party"
UNKNOWN = "unknown"

_LABEL_RE = re.compile(r"^[0-9a-z]([0-9a-z-]*[0-9a-z])?$")
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
    app_version: str
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
        if not self.dest_fqdn:
            raise ValueError("dest_fqdn must be non-empty")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    device_value: str
    # search forms derived deterministically from the device value
    plain: bytes = field(init=False)
    base64_forms: tuple[bytes, ...] = field(init=False)
    digest_forms: tuple[bytes, ...] = field(init=False)

    def __post_init__(self):
        raw = self.device_value.encode("utf-8")
        b64 = base64.b64encode(raw)
        object.__setattr__(self, "plain", raw.lower())
        object.__setattr__(self, "base64_forms",
                           (b64,) if not b64.endswith(b"=") else (b64, b64.rstrip(b"=")))
        object.__setattr__(self, "digest_forms", (
            hashlib.md5(raw).hexdigest().encode("ascii"),
            hashlib.sha1(raw).hexdigest().encode("ascii"),
            hashlib.sha256(raw).hexdigest().encode("ascii"),
        ))


@dataclass
class PersonalDataCatalog:
    entries: list[CatalogEntry] = field(default_factory=list)


def load_catalog(path) -> PersonalDataCatalog:
    """Catalog file: `data_type TAB device_value` per line."""
    entries = []
    usage = "data_type TAB device_value"
    for lineno, (name, value) in tab_records(path, usage):
        if not name or not value:
            raise ParseError(f"expected `{usage}`", lineno)
        entries.append(CatalogEntry(name=name, device_value=value))
    return PersonalDataCatalog(entries=entries)


def scan_payload(payload: bytes, catalog: PersonalDataCatalog) -> set[str]:
    """Data types whose search forms occur in the payload.

    Plain values match case-insensitively; Base64 and hex digests match
    case-sensitively (digests are lowercase hex).
    """
    lowered = payload.lower()
    found = set()
    for entry in catalog.entries:
        if entry.plain in lowered:
            found.add(entry.name)
            continue
        if any(form in payload for form in entry.digest_forms):
            found.add(entry.name)
            continue
        if any(form in payload for form in entry.base64_forms):
            found.add(entry.name)
    return found


@dataclass(frozen=True)
class RecipientInfo:
    kind: str
    owner_name: str | None = None
    hq_country: str | None = None
    category: str | None = None


@dataclass(frozen=True)
class DomainOwnerEntry:
    sld: str
    owner: str
    parent: str | None
    hq_country: str
    category: str


def load_owner_list(path=None) -> dict[str, DomainOwnerEntry]:
    """Owner list: `sld TAB owner TAB parent TAB hq_country TAB category`."""
    owners: dict[str, DomainOwnerEntry] = {}
    for lineno, (sld, owner, parent, hq, category) in tab_records(
            path, "sld TAB owner TAB parent TAB hq_country TAB category", "owner_list.tsv"):
        sld = sld.lower()
        if sld in owners:
            raise ParseError(f"duplicate SLD {sld!r}", lineno)
        owners[sld] = DomainOwnerEntry(sld, owner, parent or None,
                                       check_country_code(hq, lineno), category)
    return owners


def _is_ip_literal(host: str) -> bool:
    try:
        ipaddress.ip_address(host.strip().rstrip("."))
    except ValueError:
        return False
    return True


def _fqdn_labels(fqdn: str) -> list[str]:
    fqdn = fqdn.strip().lower().rstrip(".")
    labels = fqdn.split(".")
    # no top-level domain is all-numeric, so this rejects IPv4 literals;
    # the colons of an IPv6 literal fail the label pattern
    if (len(labels) < 2 or labels[-1].isdigit()
            or not all(_LABEL_RE.match(l) for l in labels)):
        raise DomainError(f"cannot parse FQDN {fqdn!r}")
    return labels


def extract_sld(fqdn: str) -> str:
    """Registrable domain under the shipped public-suffix snapshot.

    Raises DomainError for a string that is not a hostname, an IPv4 or IPv6
    literal included.
    """
    labels = _fqdn_labels(fqdn)
    suffixes = public_suffixes()
    suffix_len = 1
    for n in (2, 3):
        if len(labels) > n and ".".join(labels[-n:]) in suffixes:
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
                       owner_list: dict[str, DomainOwnerEntry]) -> RecipientInfo:
    """First-party token match first, then owner-list lookup, else unknown.

    An IP-literal destination names no domain, so its recipient is unknown.
    """
    if _is_ip_literal(dest_fqdn):
        return RecipientInfo(kind=UNKNOWN)
    labels = _fqdn_labels(dest_fqdn)
    sld = extract_sld(dest_fqdn)
    suffix_count = sld.count(".")  # labels taken by the public suffix
    domain_bag = {l for l in labels[:-suffix_count] if l != "www"}
    if domain_bag & app_tokens:
        return RecipientInfo(kind=FIRST_PARTY)
    entry = owner_list.get(sld)
    if entry is not None:
        return RecipientInfo(kind=THIRD_PARTY, owner_name=entry.owner,
                             hq_country=entry.hq_country, category=entry.category)
    return RecipientInfo(kind=UNKNOWN)


Network = ipaddress.IPv4Network | ipaddress.IPv6Network


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
        for net, code in self.networks:
            by_prefix.setdefault((net.version, net.prefixlen), {}) \
                .setdefault(int(net.network_address), code)
        index: dict[int, list[tuple[int, dict[int, str]]]] = {4: [], 6: []}
        for (version, prefixlen), codes in sorted(by_prefix.items(),
                                                  key=lambda item: -item[0][1]):
            bits = 32 if version == 4 else 128
            index[version].append((((1 << prefixlen) - 1) << (bits - prefixlen), codes))
        object.__setattr__(self, "_index", index)

    def lookup_ip(self, ip: str) -> str | None:
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return None
        value = int(addr)
        for mask, codes in self._index[addr.version]:
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
    """Geo table: `cidr_or_fqdn TAB ISO code` per line."""
    networks: list[tuple[Network, str]] = []
    fqdns: dict[str, str] = {}
    codes: set[str] = set()  # each checked once: tables repeat a few codes over many lines
    for lineno, (key, code) in tab_records(path, "cidr_or_fqdn TAB code"):
        if code not in codes:
            codes.add(check_country_code(code, lineno))
        try:
            networks.append((ipaddress.ip_network(key, strict=False), code))
        except ValueError:
            fqdns[key.lower()] = code
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


_FLOW_STRINGS = ("app_id", "app_version", "stage", "dest_fqdn", "dest_ip", "payload_b64",
                 "cert_org", "store_name")
_EVENT_STRINGS = ("app_id", "recipient_domain")


def load_flow_log(path) -> list[FlowRecord]:
    """One JSON object per line; `payload_b64` carries raw payload bytes.

    The text fields must be JSON strings, `detected_types` a JSON array and
    `country` an ISO-3166 alpha-2 code; each distinct country is checked once.
    """
    records = []
    codes: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, obj in json_records(fh):
            try:
                check_json_strings(obj, _FLOW_STRINGS, lineno)
                detected = obj.get("detected_types")
                if detected is not None and not isinstance(detected, list):
                    raise json_type_error("detected_types", "array", detected, lineno)
                country = obj.get("country")
                if country is not None and country not in codes:
                    codes.add(check_country_code(country, lineno))
                records.append(FlowRecord(
                    app_id=obj["app_id"],
                    app_version=obj.get("app_version", ""),
                    stage=obj["stage"],
                    dest_fqdn=obj["dest_fqdn"],
                    dest_ip=obj.get("dest_ip"),
                    country=country,
                    payload=base64.b64decode(obj["payload_b64"]) if obj.get("payload_b64") else b"",
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
        "recipient_owner": event.recipient.owner_name,
        "recipient_hq": event.recipient.hq_country,
        "any_idle_flow": event.any_idle_flow,
    }


def _recipient(kind, owner, hq, lineno: int) -> RecipientInfo:
    if kind not in (FIRST_PARTY, THIRD_PARTY):
        raise ParseError(f"recipient_kind must be {FIRST_PARTY} or {THIRD_PARTY}, "
                         f"got {kind!r}", lineno)
    if owner is not None and not isinstance(owner, str):
        raise json_type_error("recipient_owner", "string", owner, lineno)
    if hq is not None:
        check_country_code(hq, lineno)
    return RecipientInfo(kind, owner, hq)


def read_events(lines: Iterable[str]) -> dict[str, list[TransferEvent]]:
    """Parse `scan` output, one JSON object per line, grouped by app id.

    Only `app_id`, `recipient_domain` and `dest_countries` are required; a
    missing recipient kind reads as third party.  The text fields must be
    JSON strings, the two lists JSON arrays, `any_idle_flow` a JSON boolean,
    the recipient kind first or third party and every country an ISO-3166
    alpha-2 code.  Equal recipients and equal type or country lists share
    one frozen object each, and each is checked once, when first seen.
    """
    by_app: dict[str, list[TransferEvent]] = {}
    recipients: dict[tuple, RecipientInfo] = {}
    type_sets: dict[tuple, frozenset[str]] = {}
    country_sets: dict[tuple, frozenset[str]] = {}
    for lineno, obj in json_records(lines):
        try:
            check_json_strings(obj, _EVENT_STRINGS, lineno)
            types = obj.get("data_types", [])
            countries = obj["dest_countries"]
            idle = obj.get("any_idle_flow", False)
            if not isinstance(types, list):
                raise json_type_error("data_types", "array", types, lineno)
            if not isinstance(countries, list):
                raise json_type_error("dest_countries", "array", countries, lineno)
            if not isinstance(idle, bool):
                raise json_type_error("any_idle_flow", "boolean", idle, lineno)
            recipient_key = (obj.get("recipient_kind", THIRD_PARTY),
                             obj.get("recipient_owner"), obj.get("recipient_hq"))
            recipient = recipients.get(recipient_key)
            if recipient is None:
                recipient = recipients[recipient_key] = _recipient(*recipient_key, lineno)
            types_key = tuple(types)
            data_types = type_sets.get(types_key)
            if data_types is None:
                data_types = type_sets[types_key] = frozenset(types_key)
            countries_key = tuple(countries)
            dest_countries = country_sets.get(countries_key)
            if dest_countries is None:
                dest_countries = country_sets[countries_key] = frozenset(
                    check_country_code(code, lineno) for code in countries_key)
            event = TransferEvent(
                app_id=obj["app_id"],
                recipient_domain=obj["recipient_domain"],
                data_types=data_types,
                dest_countries=dest_countries,
                recipient=recipient,
                any_idle_flow=idle,
            )
        except KeyError as exc:
            raise ParseError(f"event record lacks field {exc}", lineno) from exc
        except TypeError as exc:
            raise ParseError(f"bad event record: {exc}", lineno) from exc
        by_app.setdefault(event.app_id, []).append(event)
    return by_app


def build_transfer_events(flows: list[FlowRecord], catalog: PersonalDataCatalog,
                          owner_list: dict[str, DomainOwnerEntry],
                          geo_table: GeoTable) -> list[TransferEvent]:
    """Scan, attribute and geolocate flows, grouped per (app, SLD).

    Flows with no detected personal data are discarded; unresolved countries,
    unparseable hostnames and unknown recipients are dropped with a logged
    warning.  A group's recipient is third party if any of its flows was
    attributed to the owner list, else first party, so it does not depend on
    the order of the flows.  Third-party attributions within a group agree,
    since all come from the owner-list entry of the group's SLD.  An app's
    identity tokens are those of its package name, cert orgs and store names
    over all of its flows, so they do not depend on that order either.
    """
    app_tokens: dict[str, frozenset[str]] = {}
    for app_id, cert_org, store_name in {(f.app_id, f.cert_org, f.store_name) for f in flows}:
        app_tokens[app_id] = app_tokens.get(app_id, frozenset()) | \
            tokenize_app_identity(app_id, cert_org, store_name)
    groups: dict[tuple[str, str], dict] = {}
    for flow in flows:
        types = (flow.detected_types if flow.detected_types is not None
                 else scan_payload(flow.payload, catalog))
        if not types:
            continue
        country = geolocate(geo_table, ip=flow.dest_ip, fqdn=flow.dest_fqdn,
                            resolved=flow.country)
        if country is None:
            log.warning("dropping flow %s -> %s: unresolved country",
                        flow.app_id, flow.dest_fqdn)
            continue
        try:
            recipient = classify_recipient(app_tokens[flow.app_id], flow.dest_fqdn,
                                           owner_list)
        except DomainError:
            log.warning("dropping flow %s -> %s: unparseable hostname",
                        flow.app_id, flow.dest_fqdn)
            continue
        if recipient.kind == UNKNOWN:
            log.warning("dropping flow %s -> %s: unknown recipient",
                        flow.app_id, flow.dest_fqdn)
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
    return events
