"""Seeded inputs for the perfbench workloads.

`generate(workload, seed, directory)` writes every file a workload's stages
read: a labeled training corpus, privacy policies, a personal-data catalog,
a geo table, a flow capture and, for study-verdicts, study-scale events and
annotations.  It returns the ground truth the checker compares stage outputs
with and the workload properties the run reports.  The same (workload, seed)
always gives byte-identical files.

Filler words are synthetic and drawn Zipf-style, so the text is distinct
rather than a small pool of repeated sentences.  Filler never collides with
a gazetteer token, and a planted place name is always flanked by words that
are not gazetteer tokens, so the countries a segment names are exactly the
ones planted in it.

Shares and sizes are dealt exactly (a shuffled list with the stated
proportions, or the quantiles of the stated distribution) rather than drawn
one by one, so the amount of work differs little between seeds: the seed
changes the content, not the size, of a workload.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from statistics import NormalDist

from transferaudit.countries import EU_MEMBERS_2020, load_country_dictionary
from transferaudit.features import stopword_list
from transferaudit.flows import generic_tokens, load_owner_list, public_suffixes
from transferaudit.stemmer import stem


@dataclass(frozen=True)
class Spec:
    """Sizes and shares of one workload."""

    corpus_segments: int       # labeled training corpus for train and CV
    word_pool: int             # synthetic filler word types (Zipf ranks)
    policies: int
    flows: int
    flow_apps: int             # apps with captured flows
    payload_share: float       # flows scanned from payloads, not pre-set types
    resolution: tuple          # (pre-set country, IP-only, FQDN) shares
    cidrs: int
    study_apps: int = 0        # study-verdicts: generated events + annotations


WORKLOADS = {
    "audit-policies": Spec(corpus_segments=400, word_pool=250_000, policies=1000,
                           flows=300, flow_apps=120, payload_share=0.2,
                           resolution=(0.8, 0.15, 0.05), cidrs=20_000),
    "audit-captures": Spec(corpus_segments=400, word_pool=250_000, policies=200,
                           flows=2000, flow_apps=200, payload_share=0.9,
                           resolution=(0.1, 0.8, 0.1), cidrs=20_000),
    "study-verdicts": Spec(corpus_segments=400, word_pool=40_000, policies=60,
                           flows=300, flow_apps=60, payload_share=0.5,
                           resolution=(0.4, 0.5, 0.1), cidrs=2_000, study_apps=12_000),
    "train-cv": Spec(corpus_segments=5000, word_pool=8_000, policies=60,
                     flows=300, flow_apps=60, payload_share=0.5,
                     resolution=(0.4, 0.5, 0.1), cidrs=2_000),
}

MEAN_SEGMENTS = 35          # per policy, log-normal
SEGMENT_SIGMA = 0.6
BOILERPLATE_SHARE = 0.15    # segments copied verbatim from a shared pool
POSITIVE_SHARE = 0.20       # intention-positive segments
NEGATIVE_PLACE_SHARE = 0.05  # negative segments that still name a place
CORPUS_POSITIVE_SHARE = 0.3
LABEL_NOISE = 0.04          # corpus labels flipped, so SGD keeps updating
ZIPF_EXPONENT = 1.0
IDLE_SHARE = 0.3
PERSONAL_DATA_SHARE = 0.8
PAYLOAD_BYTES = (200, 16384)  # log-uniform
# destination mix of captured flows
DEST_MIX = (("first_party", 0.20), ("third_party", 0.38), ("cdn", 0.10),
            ("shared_sld", 0.06), ("unknown", 0.14), ("ip_literal", 0.06),
            ("unresolvable", 0.06))
V6_SHARE = 0.2              # share of geo-table CIDRs that are IPv6
NESTED_SHARE = 0.1          # CIDRs with a more specific child of another country
GEO_COUNTRIES = ("US", "US", "US", "IE", "DE", "NL", "FR", "SG", "JP", "IN", "CN",
                 "RU", "BR", "CA", "IL", "KR", "AU", "CH", "GB", "SE")
STUDY_COUNTRIES = tuple(dict.fromkeys(GEO_COUNTRIES + ("AR", "NZ", "UY", "ZA", "MX", "TR")))
STUDY_EVENTS_PER_APP = 4.5  # mean of a Pareto(1.5) tail, capped at 60
STUDY_COUNTRIES_PER_EVENT = ((1, 0.6), (2, 0.25), (3, 0.15))
STUDY_MIX = (("both", 0.85), ("events_only", 0.05), ("policy_only", 0.10))

_ONSETS = ("b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k",
           "l", "m", "n", "p", "pl", "qu", "r", "s", "sh", "sk", "st", "t", "th", "tr",
           "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "n", "r", "l", "s", "m", "t", "nd", "rk", "st")
_SUFFIXES = ("", "", "", "s", "ing", "ed", "er", "ation", "ment", "ness", "ly",
             "able", "ity", "ive", "ous", "al", "ize", "ful")
# stems of the shipped rule terms; filler starting with one could fire a rule
_RULE_STEMS = ("contract", "standard", "model", "claus", "bind", "corpor", "rule",
               "you", "consent", "cop", "obtain", "request", "contact", "avail",
               "get", "safeguard", "found", "repres", "control", "eu", "eea",
               "union", "privac", "shield")

_POSITIVE = (
    "we may transfer your personal data to {places}",
    "your information may be processed on servers located in {places}",
    "personal data is transferred to our partners in {places}",
    "we store and process usage information on infrastructure hosted in {places}",
    "your data may be sent outside your country to recipients in {places}",
    "analytics providers receive device identifiers from {places}",
)
_NO_PLACE = ("other countries", "several jurisdictions", "countries outside your region")
_ADEQUACY = ("{places} is recognized by the european commission as providing adequate "
             "protection for transfers")
_ELEMENT_PHRASES = {
    "scc": "under standard contractual clauses",
    "bcr": "under binding corporate rules",
    "explicit_consent": "only after you give your explicit consent",
    "copy_means": "you may request a copy of these safeguards from us",
}
_REPRESENTATIVE = "our eu representative can be reached by post"
_PRIVACY_SHIELD = "we rely on Privacy Shield certification"
_NEGATIVE = (
    "we use cookies to personalize content",
    "you can delete your account from settings",
    "we retain records while your account remains active",
    "push notifications can be disabled on your device",
    "we collect email addresses when accounts are created",
    "advertising identifiers help us show relevant advertisements",
    "we take reasonable security measures",
    "children may not use these services",
    "we update this policy from time to time",
    "payment details are handled by our billing provider",
)
_NEGATIVE_PLACE = "our support office based in {places} answers questions"
_JOINERS = (" or ", " as well as ", " plus ")
_COMMON_PLACES = ("United States", "USA", "U.S.", "China", "India", "Singapore",
                  "Japan", "Canada", "Israel", "Russia", "Brazil", "Switzerland",
                  "Australia", "California", "Virginia", "Germany", "Ireland",
                  "Seattle", "Hong Kong", "South Korea", "Mexico", "Turkey")

_CATALOG_TYPES = ("imei", "imsi", "aaid", "android_id", "gsf_id", "serial",
                  "wifi_mac", "bt_mac", "email", "phone")
_SUBDOMAINS = ("api", "sdk", "events", "cdn", "log", "ads", "track", "edge")
_ELEMENTS = ("adequacy", "scc", "bcr", "explicit_consent", "copy_means",
             "representative", "privacy_shield")


@dataclass
class PolicyTruth:
    app_id: str
    path: Path
    # planted non-EU country codes of each segment, in order
    segment_countries: list[frozenset[str]]
    segment_kinds: list[str]   # boilerplate | positive | negative


@dataclass
class FlowTruth:
    app_id: str
    sld: str                 # registrable domain the flow groups under
    fate: str                # kept | no_personal_data | unresolved_country | unknown_recipient
    types: frozenset[str]
    country: str | None
    idle: bool
    dest: str                # destination kind from DEST_MIX
    host: str


@dataclass
class Inputs:
    directory: Path
    corpus: Path
    policies: list[PolicyTruth]
    catalog: Path
    geo: Path
    flows: Path
    flow_truths: list[FlowTruth]
    study_events: Path | None = None
    study_annotations: Path | None = None
    properties: dict[str, tuple[float, str]] = field(default_factory=dict)

    def expected_events(self) -> dict[tuple[str, str], tuple]:
        """(app, SLD) -> (data types, countries, any idle) of kept flows."""
        groups: dict[tuple[str, str], tuple[set, set, list]] = {}
        for f in self.flow_truths:
            if f.fate != "kept":
                continue
            types, countries, idle = groups.setdefault((f.app_id, f.sld), (set(), set(), [False]))
            types |= f.types
            countries.add(f.country)
            idle[0] |= f.idle
        return {k: (frozenset(t), frozenset(c), i[0]) for k, (t, c, i) in groups.items()}


def _dealt(rng: random.Random, n: int, mix) -> list:
    """`n` items in the exact proportions of `mix` ((item, share), ...), shuffled."""
    quotas = [(item, n * share) for item, share in mix]
    counts = [int(q) for _, q in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda i: counts[i] - quotas[i][1])
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    items = [item for (item, _), c in zip(quotas, counts) for _ in range(c)]
    rng.shuffle(items)
    return items


def _quantiles(rng: random.Random, n: int, inverse_cdf) -> list[float]:
    """The `n` mid-point quantiles of a distribution, shuffled."""
    values = [inverse_cdf((i + 0.5) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _gazetteer() -> tuple[list[tuple[str, str]], frozenset[str]]:
    """(surface, code) pairs usable in text, and every gazetteer token."""
    text = resources.files("transferaudit.data").joinpath(
        "country_dictionary.tsv").read_text("utf-8")
    surfaces = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        code, _, surface = line.split("\t")
        # "St. Petersburg" would be split in two by full-stop segmentation
        if ". " not in surface:
            surfaces.append((surface, code))
    tokens = frozenset(t for phrase in load_country_dictionary().phrases for t in phrase)
    return surfaces, tokens


class _Words:
    """A seeded pool of synthetic English-like words, sampled Zipf-style."""

    def __init__(self, rng: random.Random, size: int, forbidden: frozenset[str]):
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < size:
            w = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                        for _ in range(rng.choice((2, 2, 3)))) + rng.choice(_SUFFIXES)
            if w in seen or w in forbidden or w.startswith(_RULE_STEMS):
                continue
            seen.add(w)
            words.append(w)
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_EXPONENT
                                             for r in range(size)))
        self.rng = rng

    def draw(self, k: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum, k=k)


class _Text:
    """Sentence builder shared by the corpus and the policies."""

    def __init__(self, rng: random.Random, words: _Words, surfaces):
        self.rng, self.words = rng, words
        self.surfaces = surfaces
        by_surface = dict(surfaces)
        self.common = [(s, by_surface[s]) for s in _COMMON_PLACES if s in by_surface]

    def _filler(self, lo: int, hi: int) -> str:
        return " ".join(self.words.draw(self.rng.randint(lo, hi)))

    def places(self, n: int) -> tuple[str, frozenset[str]]:
        """`n` place names joined by non-gazetteer words, and their non-EU codes."""
        if n == 0:
            return self.rng.choice(_NO_PLACE), frozenset()
        picked = [self.rng.choice(self.common) if self.rng.random() < 0.7
                  else self.rng.choice(self.surfaces) for _ in range(n)]
        text = picked[0][0]
        for surface, _ in picked[1:]:
            text += self.rng.choice(_JOINERS) + surface
        return text, frozenset(c for _, c in picked if c not in EU_MEMBERS_2020)

    def sentence(self, core: str) -> str:
        """Filler around a core clause; ends in a filler word and a full stop."""
        text = f"{self._filler(4, 14)} {core} {self._filler(6, 20)}."
        return text[0].upper() + text[1:]

    def positive(self) -> tuple[str, frozenset[str], set[str]]:
        """A transfer-intention sentence, its planted codes and element labels."""
        rng = self.rng
        labels: set[str] = set()
        n = rng.choices((0, 1, 2, 3), weights=(2, 5, 2, 1))[0]
        places, codes = self.places(n)
        if n and rng.random() < 0.2:
            core = _ADEQUACY.format(places=places)
            labels.add("adequacy")
        else:
            core = rng.choice(_POSITIVE).format(places=places)
        for element, phrase in _ELEMENT_PHRASES.items():
            if rng.random() < 0.12:
                core += " " + phrase
                labels.add(element)
        if rng.random() < 0.05:
            core += " " + _PRIVACY_SHIELD  # "Privacy Shield" is a gazetteer alias of US
            codes |= {"US"}
        if rng.random() < 0.05:
            core += " " + _REPRESENTATIVE
            labels.add("representative")
        labels |= {f"country:{c}" for c in codes}
        return self.sentence(core), codes, labels

    def negative(self) -> tuple[str, frozenset[str]]:
        if self.rng.random() < NEGATIVE_PLACE_SHARE:
            places, codes = self.places(1)
            return self.sentence(_NEGATIVE_PLACE.format(places=places)), codes
        return self.sentence(self.rng.choice(_NEGATIVE)), frozenset()


def _write_corpus(path: Path, text: _Text, n: int) -> None:
    rng = text.rng
    lines = []
    kinds = _dealt(rng, n, ((1, CORPUS_POSITIVE_SHARE), (0, 1 - CORPUS_POSITIVE_SHARE)))
    noise = _dealt(rng, n, ((True, LABEL_NOISE), (False, 1 - LABEL_NOISE)))
    for i, (intention, flipped) in enumerate(zip(kinds, noise)):
        if intention:
            sentence, _, labels = text.positive()
        else:
            (sentence, _), labels = text.negative(), set()
        if flipped:
            intention, labels = 1 - intention, set()
        lines.append(f"doc{i // 30:04d}\t{intention}\t{';'.join(sorted(labels)) or '-'}"
                     f"\t{sentence}\n")
    path.write_text("".join(lines), encoding="utf-8")


def _app_ids(rng: random.Random, n: int, forbidden: frozenset[str]) -> list[str]:
    names = _Words(rng, 2 * n, forbidden).words
    return [f"com.{names[2 * i]}.{names[2 * i + 1]}" for i in range(n)]


def _write_policies(directory: Path, text: _Text, app_ids: list[str]) -> list[PolicyTruth]:
    rng = text.rng
    mu = math.log(MEAN_SEGMENTS) - SEGMENT_SIGMA ** 2 / 2
    normal = NormalDist()
    sizes = [max(3, min(400, round(math.exp(mu + SEGMENT_SIGMA * normal.inv_cdf(p)))))
             for p in _quantiles(rng, len(app_ids), lambda p: p)]
    kinds = iter(_dealt(rng, sum(sizes), (
        ("boilerplate", BOILERPLATE_SHARE), ("positive", POSITIVE_SHARE),
        ("negative", 1 - BOILERPLATE_SHARE - POSITIVE_SHARE))))
    boilerplate = [text.negative() for _ in range(150)]
    truths = []
    for app_id, size in zip(app_ids, sizes):
        countries, segment_kinds, sentences = [], [], []
        for _ in range(size):
            kind = next(kinds)
            if kind == "boilerplate":
                sentence, codes = rng.choice(boilerplate)
            elif kind == "positive":
                sentence, codes, _ = text.positive()
            else:
                sentence, codes = text.negative()
            sentences.append(sentence)
            countries.append(codes)
            segment_kinds.append(kind)
        paragraphs = []
        i = 0
        while i < len(sentences):
            k = rng.randint(1, 4)
            paragraphs.append(" ".join(sentences[i:i + k]))
            i += k
        path = directory / f"{app_id}.txt"
        path.write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")
        truths.append(PolicyTruth(app_id, path, countries, segment_kinds))
    return truths


@dataclass
class _Block:
    net: ipaddress.IPv4Network | ipaddress.IPv6Network
    country: str
    child: ipaddress.IPv4Network | ipaddress.IPv6Network | None = None
    child_country: str | None = None


def _write_geo(path: Path, rng: random.Random, n: int) -> list[_Block]:
    """Disjoint v4 /16../24 and v6 /32../48 blocks, some with a nested child."""
    n6 = int(n * V6_SHARE)
    v4_prefixes = rng.sample(range(11 * 256, 224 * 256), n - n6)
    v6_prefixes = rng.sample(range(1, 1 << 16), n6)
    blocks = []
    for p in v4_prefixes:
        blocks.append(_Block(ipaddress.ip_network(
            f"{p >> 8}.{p & 255}.0.0/{rng.randint(16, 24)}"), rng.choice(GEO_COUNTRIES)))
    for p in v6_prefixes:
        blocks.append(_Block(ipaddress.ip_network(
            f"2a{p >> 8:02x}:{p & 255:02x}00::/{rng.randint(32, 48)}"),
            rng.choice(GEO_COUNTRIES)))
    lines = []
    for block in blocks:
        lines.append(f"{block.net}\t{block.country}\n")
        if rng.random() < NESTED_SHARE:
            # the child covers the top quarter of its parent
            block.child = list(block.net.subnets(prefixlen_diff=2))[-1]
            block.child_country = rng.choice([c for c in GEO_COUNTRIES if c != block.country])
            lines.append(f"{block.child}\t{block.child_country}\n")
    rng.shuffle(lines)
    path.write_text("# generated geo table\n" + "".join(lines), encoding="utf-8")
    return blocks


def _pick_ip(rng: random.Random, blocks: list[_Block]) -> tuple[str, str]:
    """An address and the country of its most specific network."""
    block = rng.choice(blocks)
    net, country = block.net, block.country
    if block.child is not None:
        if rng.random() < 0.5:
            net, country = block.child, block.child_country
        else:  # the lower half never overlaps the child
            net = list(net.subnets(prefixlen_diff=1))[0]
    offset = rng.randrange(1, min(net.num_addresses, 1 << 20) - 1)
    return str(net.network_address + offset), country


def _catalog(rng: random.Random) -> list[tuple[str, str]]:
    def digits(k):
        return "".join(rng.choice("0123456789") for _ in range(k))

    def hexs(k):
        return "".join(rng.choice("0123456789abcdef") for _ in range(k))

    def mac():
        return ":".join(hexs(2) for _ in range(6))

    makers = {
        "imei": lambda: "35" + digits(13),
        "imsi": lambda: "262" + digits(12),
        "aaid": lambda: f"{hexs(8)}-{hexs(4)}-4{hexs(3)}-a{hexs(3)}-{hexs(12)}",
        "android_id": lambda: hexs(16),
        "gsf_id": lambda: "3" + hexs(15),
        "serial": lambda: "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ23456789")
                                  for _ in range(12)),
        "wifi_mac": mac,
        "bt_mac": mac,
        "email": lambda: f"user{digits(6)}@example-mail.org",
        "phone": lambda: "+4915" + digits(9),
    }
    return [(t, makers[t]()) for t in _CATALOG_TYPES for _ in range(5)]


def _search_form(rng: random.Random, value: str) -> bytes:
    """Plain, Base64 or digest form of a device value, as a tracker sends it."""
    raw = value.encode("utf-8")
    kind = rng.random()
    if kind < 0.5:
        return raw
    if kind < 0.75:
        return base64.b64encode(raw)
    digest = rng.choice((hashlib.md5, hashlib.sha1, hashlib.sha256))
    return digest(raw).hexdigest().encode("ascii")


def _payload(rng: random.Random, filler: bytes, size: int, forms: list[bytes]) -> bytes:
    """A slice of JSON-like filler with each search form inserted whole."""
    start = rng.randrange(len(filler) - size)
    body = filler[start:start + size]
    cuts = sorted(rng.randrange(len(body) + 1) for _ in forms)
    pieces = [body[:cuts[0]] if cuts else body]
    for form, lo, hi in zip(forms, cuts, cuts[1:] + [len(body)]):
        pieces += [b'"id":"' + form + b'"', body[lo:hi]]
    return b"".join(pieces)


def _write_flows(path: Path, rng: random.Random, spec: Spec, app_ids: list[str],
                 words: _Words, catalog: list[tuple[str, str]],
                 blocks: list[_Block]) -> tuple[list[FlowTruth], list[str], list[int]]:
    owners = sorted(load_owner_list())
    filler = ("{" + ",".join(
        f'"{rng.choice(("k", "ev", "ts", "v", "sid", "ctx"))}{i % 97}":'
        f'"{" ".join(words.draw(rng.randint(1, 3)))}"' for i in range(6000)) + "}").encode()
    apps = app_ids[:spec.flow_apps]
    v4_blocks = [b for b in blocks if b.net.version == 4]
    shared = {app: rng.choice(owners) for app in apps}
    cdn = {app: rng.choice(owners) for app in apps}
    preset, ip_only, by_fqdn = spec.resolution
    n = spec.flows
    dests = _dealt(rng, n, DEST_MIX)
    idles = _dealt(rng, n, ((True, IDLE_SHARE), (False, 1 - IDLE_SHARE)))
    personal = _dealt(rng, n, ((True, PERSONAL_DATA_SHARE), (False, 1 - PERSONAL_DATA_SHARE)))
    scanned = _dealt(rng, n, ((True, spec.payload_share), (False, 1 - spec.payload_share)))
    modes = _dealt(rng, n, (("preset", preset), ("ip", ip_only), ("fqdn", by_fqdn)))
    lo, hi = PAYLOAD_BYTES
    sizes = iter(int(lo * (hi / lo) ** p) for p in _quantiles(rng, sum(scanned), lambda p: p))
    # flows per app are long-tailed: a few chatty apps, many quiet ones
    weights = [1 / (rank + 1) ** 0.8 for rank in range(len(apps))]
    owner_apps = _dealt(rng, n, [(a, w / sum(weights)) for a, w in zip(apps, weights)])
    truths, lines, geo_hosts, payload_sizes = [], [], [], []
    for k in range(n):
        app, dest, idle = owner_apps[k], dests[k], idles[k]
        token = app.split(".")[1]
        sub = rng.choice(_SUBDOMAINS)
        obj = {"app_id": app, "app_version": "1.0", "stage": "idle" if idle else "active"}
        country = None
        if dest == "first_party":
            sld = f"{token}.{rng.choice(('com', 'io', 'net'))}"
            host = f"{sub}.{sld}"
        elif dest in ("third_party", "unresolvable"):
            sld = rng.choice(owners)
            host = f"{sub}.{sld}" if dest == "third_party" else f"nx{k}.{sld}"
        elif dest == "cdn":
            sld = cdn[app]
            host = f"edge{rng.randint(1, 40)}.{sld}"
        elif dest == "shared_sld":
            # the same SLD as a third-party host, but named after the app
            sld = shared[app]
            host = f"{token}.{sld}" if rng.random() < 0.5 else f"{sub}.{sld}"
        elif dest == "unknown":
            sld = f"{words.words[rng.randrange(len(words.words))]}-{rng.randint(1, 999)}.net"
            host = f"{sub}.{sld}"
        else:  # ip_literal
            # IPv4 only: an IPv6 literal is not a parseable FQDN and aborts
            # the whole scan (a known defect), so no operation could pass
            host, country = _pick_ip(rng, v4_blocks)
            sld = host
            obj["dest_ip"] = host
        if dest == "unresolvable":
            if rng.random() < 0.5:  # 10/8 is never in the geo table
                obj["dest_ip"] = (f"10.{rng.randrange(256)}.{rng.randrange(256)}."
                                  f"{rng.randrange(1, 255)}")
        elif dest != "ip_literal":
            mode = "ip" if dest == "cdn" else modes[k]
            if mode == "preset":
                country = obj["country"] = rng.choice(GEO_COUNTRIES)
            elif mode == "ip":
                obj["dest_ip"], country = _pick_ip(rng, blocks)
            else:
                host = f"g{k}.{sld}"
                country = rng.choice(GEO_COUNTRIES)
                geo_hosts.append(f"{host}\t{country}\n")
        obj["dest_fqdn"] = host
        planted = set()
        if personal[k]:
            planted = {name for name, _ in rng.sample(catalog, rng.randint(1, 3))}
        if scanned[k]:
            forms = [_search_form(rng, rng.choice([v for t, v in catalog if t == name]))
                     for name in sorted(planted)]
            body = _payload(rng, filler, next(sizes), forms)
            payload_sizes.append(len(body))
            obj["payload_b64"] = base64.b64encode(body).decode("ascii")
        else:
            obj["detected_types"] = sorted(planted)
        if not planted:
            fate = "no_personal_data"
        elif dest == "unresolvable":
            fate = "unresolved_country"
        elif dest in ("unknown", "ip_literal"):
            fate = "unknown_recipient"
        else:
            fate = "kept"
        truths.append(FlowTruth(app, sld, fate, frozenset(planted), country, idle, dest, host))
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return truths, geo_hosts, payload_sizes


def _write_study(events_path: Path, annotations_path: Path, rng: random.Random,
                 n_apps: int, forbidden: frozenset[str]) -> int:
    """Study-scale events and annotations in the `scan`/`annotate` JSONL forms;
    returns the number of (event, country) judgments."""
    owners = load_owner_list()
    owner_slds = sorted(owners)
    ev_lines, ann_lines = [], []
    app_ids = [a.replace("com.", "org.", 1) for a in _app_ids(rng, n_apps, forbidden)]
    roles = _dealt(rng, n_apps, STUDY_MIX)
    alpha = 1.5
    events_per_app = iter(min(60, round((STUDY_EVENTS_PER_APP * (alpha - 1) / alpha)
                                        * (1 - p) ** (-1 / alpha)))
                          for p in _quantiles(rng, n_apps, lambda p: p))
    total_events = 0
    app_events = []
    for app, role in zip(app_ids, roles):
        k = max(1, next(events_per_app)) if role != "policy_only" else 0
        app_events.append(k)
        total_events += k
    widths = iter(_dealt(rng, total_events, STUDY_COUNTRIES_PER_EVENT))
    judgments = 0
    for app, role, n_events in zip(app_ids, roles, app_events):
        if role != "events_only":
            segments = []
            intention = rng.random() < 0.7
            for _ in range(max(3, round(rng.lognormvariate(math.log(20), 0.5)))):
                seg_int = intention and rng.random() < 0.2
                countries = {rng.choice(STUDY_COUNTRIES) for _ in range(rng.randint(0, 2))}
                seg = {"intention": seg_int,
                       "countries": sorted(countries - EU_MEMBERS_2020) if seg_int else []}
                for e in _ELEMENTS:
                    gated = e not in ("representative", "privacy_shield")
                    seg[e] = (seg_int or not gated) and rng.random() < 0.06
                segments.append(seg)
            policy = {"app_id": app, "segments": segments,
                      "intention": any(s["intention"] for s in segments),
                      "countries": sorted({c for s in segments for c in s["countries"]})}
            for e in _ELEMENTS:
                policy[e] = any(s[e] for s in segments)
            ann_lines.append(json.dumps(policy, sort_keys=True) + "\n")
        first_party_sld = f"{app.split('.')[1]}.com"
        pool = [first_party_sld] + owner_slds
        for sld in sorted(rng.sample(pool, min(n_events, len(pool)))):
            dests = sorted(rng.sample(STUDY_COUNTRIES, next(widths)))
            judgments += len(dests)
            entry = owners.get(sld)
            ev_lines.append(json.dumps({
                "app_id": app, "recipient_domain": sld,
                "data_types": sorted(rng.sample(_CATALOG_TYPES, rng.randint(1, 3))),
                "dest_countries": dests,
                "recipient_kind": "third_party" if entry else "first_party",
                "recipient_owner": entry.owner if entry else None,
                "recipient_hq": entry.hq_country if entry else None,
                "any_idle_flow": rng.random() < 0.4,
            }, sort_keys=True) + "\n")
    events_path.write_text("".join(ev_lines), encoding="utf-8")
    annotations_path.write_text("".join(ann_lines), encoding="utf-8")
    return judgments


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    surfaces, gazetteer_tokens = _gazetteer()
    # words that would match a place, a stop word, a domain label or a generic
    # app-identity token are never used as filler or app names
    forbidden = (gazetteer_tokens | stopword_list() | frozenset(_SUBDOMAINS)
                 | public_suffixes() | generic_tokens()
                 | frozenset(label for sld in load_owner_list() for label in sld.split(".")))
    words = _Words(rng, spec.word_pool, forbidden)
    text = _Text(rng, words, surfaces)

    corpus = directory / "corpus.tsv"
    _write_corpus(corpus, text, spec.corpus_segments)
    policy_dir = directory / "policies"
    policy_dir.mkdir(exist_ok=True)
    app_ids = _app_ids(rng, spec.policies, forbidden | frozenset(words.words))
    policies = _write_policies(policy_dir, text, app_ids)

    catalog_entries = _catalog(rng)
    catalog = directory / "catalog.tsv"
    catalog.write_text("".join(f"{t}\t{v}\n" for t, v in catalog_entries), encoding="utf-8")
    geo = directory / "geo.tsv"
    blocks = _write_geo(geo, rng, spec.cidrs)
    flows = directory / "flows.jsonl"
    flow_truths, geo_hosts, payload_sizes = _write_flows(
        flows, rng, spec, app_ids, words, catalog_entries, blocks)
    with open(geo, "a", encoding="utf-8") as fh:
        fh.writelines(geo_hosts)
    inputs = Inputs(directory, corpus, policies, catalog, geo, flows, flow_truths)

    study_judgments = 0
    if spec.study_apps:
        inputs.study_events = directory / "study_events.jsonl"
        inputs.study_annotations = directory / "study_annotations.jsonl"
        study_judgments = _write_study(inputs.study_events, inputs.study_annotations,
                                       rng, spec.study_apps, forbidden | frozenset(words.words))
    inputs.properties = _properties(inputs, spec, payload_sizes, study_judgments)
    return inputs


def _properties(inputs: Inputs, spec: Spec, payload_sizes: list[int],
                study_judgments: int) -> dict[str, tuple[float, str]]:
    """Measured shares and sizes of the generated inputs."""
    letter_runs = re.compile(r"[a-z]+")
    types: set[str] = set()
    for p in inputs.policies:
        types.update(letter_runs.findall(p.path.read_text(encoding="utf-8").lower()))
    kinds = [k for p in inputs.policies for k in p.segment_kinds]
    flows = inputs.flow_truths
    payload_sizes = sorted(payload_sizes) or [0]
    props = {
        "policies": (len(inputs.policies), "count"),
        "segments_per_policy": (len(kinds) / len(inputs.policies), "count"),
        "word_types_over_stem_cache": (len(types) / stem.cache_parameters()["maxsize"],
                                       "ratio"),
        "boilerplate_share": (kinds.count("boilerplate") / len(kinds), "ratio"),
        "intention_positive_share": (kinds.count("positive") / len(kinds), "ratio"),
        "corpus_segments": (spec.corpus_segments, "count"),
        "flows": (len(flows), "count"),
        "payload_bytes.p10": (payload_sizes[len(payload_sizes) // 10], "B"),
        "payload_bytes.median": (payload_sizes[len(payload_sizes) // 2], "B"),
        "payload_bytes.p90": (payload_sizes[len(payload_sizes) * 9 // 10], "B"),
        "cidrs": (spec.cidrs, "count"),
    }
    for fate in ("kept", "no_personal_data", "unresolved_country", "unknown_recipient"):
        props[f"flow_fate.{fate}"] = (sum(f.fate == fate for f in flows) / len(flows), "ratio")
    for dest, _ in DEST_MIX:
        props[f"flow_dest.{dest}"] = (sum(f.dest == dest for f in flows) / len(flows), "ratio")
    # kept (app, SLD) groups mixing an app-named (first-party) host with a
    # third-party host of the same owner-listed SLD
    hosts: dict[tuple[str, str], set[bool]] = {}
    for f in flows:
        if f.fate == "kept" and f.dest in ("shared_sld", "third_party", "cdn"):
            named = f.host.split(".")[0] == f.app_id.split(".")[1]
            hosts.setdefault((f.app_id, f.sld), set()).add(named)
    props["shared_sld_groups"] = (sum(len(h) == 2 for h in hosts.values()), "count")
    if spec.study_apps:
        props["study_apps"] = (spec.study_apps, "count")
        props["study_judgments_per_app"] = (study_judgments / spec.study_apps, "count")
    return props
