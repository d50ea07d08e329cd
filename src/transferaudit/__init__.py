"""transferaudit: GDPR cross-border transfer auditing for mobile apps.

Pipeline in three stages: policy analysis (segmentation, n-gram features,
linear intention/adequacy classifiers, gazetteer + proximity rules), flow
analysis (payload scanning, recipient attribution, geolocation) and
compliance checking (transfer typing and FD/AD/ID/OD verdicts).  Import
each name from its module, e.g. `from transferaudit.corpus import
load_corpus`; the package itself imports none, so a process loads only the
modules it uses.
"""

__version__ = "0.1.0"
