"""Flow analysis: payload scanning, recipient attribution and geolocation.

Builds a small personal-data catalog, shows how encoded search forms are
derived and detected, attributes recipients as first or third party, and
groups flows into transfer events.
"""

import base64
import hashlib
import ipaddress

from transferaudit.flows import (
    CatalogEntry,
    FlowRecord,
    GeoTable,
    build_transfer_events,
    classify_recipient,
    extract_sld,
    geolocate,
    load_owner_list,
    scan_payload,
    tokenize_app_identity,
)

AAID = "38400000-8cf0-11bd-b23e-10b96e40000d"
catalog = (
    CatalogEntry("AAID", AAID),
    CatalogEntry("GPS_LOCATION", "40.416775,-3.703790"),
)

print("== derived search forms ==")
entry = catalog[0]
print(f"plain : {entry.plain.decode()}")
print(f"b64   : {entry.base64_forms[0].decode()}")
for name, form in zip(("md5", "sha1", "sha256"), entry.digest_forms):
    print(f"{name:<6}: {form.decode()}")

print("\n== payload scanning ==")
payloads = {
    "plain": f"ad_id={AAID}".encode(),
    "upper-case plain": AAID.upper().encode(),
    "sha256": hashlib.sha256(AAID.encode()).hexdigest().encode(),
    "base64": base64.b64encode(AAID.encode()),
    "nothing": b"heartbeat=1",
}
for label, payload in payloads.items():
    print(f"  {label:<18} -> {scan_payload(payload, catalog) or '{}'}")

print("\n== recipient attribution ==")
owners = load_owner_list()  # shipped webXray-style seed list
tokens = tokenize_app_identity("com.viber.voip", "Viber Media", "Viber Messenger")
print(f"app identity tokens: {sorted(tokens)}")
for fqdn in ("app.adjust.com", "cdn.viber.com", "tracker.unlisted.io"):
    info = classify_recipient(tokens, fqdn, owners)
    print(f"  {fqdn:<24} sld={extract_sld(fqdn):<14} kind={info.kind:<12} "
          f"owner={info.owner}")

print("\n== geolocation ==")
# a network is (IP version, prefix length, network address as an int)
geo = GeoTable(networks=(((4, 12, int(ipaddress.ip_address("104.16.0.0"))), "US"),),
               fqdns={"yandex.net": "RU"})
print(f"  ip 104.18.3.7            -> {geolocate(geo, ip='104.18.3.7')}")
print(f"  fqdn a.b.yandex.net      -> {geolocate(geo, fqdn='a.b.yandex.net')}")
print(f"  pre-resolved wins        -> {geolocate(geo, ip='104.18.3.7', resolved='RU')}")
print(f"  unknown                  -> {geolocate(geo, ip='203.0.113.9')}")

print("\n== transfer events ==")
# an app's identity is its package name plus every cert org and store name
# that any of its flows carries
flows = [
    FlowRecord("com.viber.voip", "active", "app.adjust.com",
               dest_ip="104.18.3.7", payload=f"ad_id={AAID}".encode(),
               cert_org="Viber Media", store_name="Viber Messenger"),
    FlowRecord("com.viber.voip", "idle", "app.adjust.com",
               country="US", payload=f"boot={AAID}".encode()),
    FlowRecord("com.viber.voip", "active", "time.google.com",
               country="US", payload=b"sync"),
]
events = build_transfer_events(flows, catalog, owners, geo)
for event in events:
    print(f"  {event.app_id} -> {event.recipient_domain}: types={sorted(event.data_types)} "
          f"countries={sorted(event.dest_countries)} idle={event.any_idle_flow}")
print("(the empty-payload flow was discarded; both AAID flows grouped)")
