"""transferaudit: GDPR cross-border transfer auditing for mobile apps.

Pipeline in three stages: policy analysis (segmentation, n-gram features,
linear intention/adequacy classifiers, gazetteer + proximity rules), flow
analysis (payload scanning, recipient attribution, geolocation) and
compliance checking (transfer typing and FD/AD/ID/OD verdicts).
"""

from .classifier import TextClassifier, cross_validate, fit_text_classifier
from .compliance import (
    AD,
    FD,
    ID,
    INTRA_EU,
    NOT_APPLICABLE,
    OD,
    T1_FIRST_PARTY,
    T2_ADEQUACY,
    T3_NO_ADEQUACY,
    AppAssessment,
    JurisdictionConfig,
    Verdict,
    assess_app,
    classify_transfer_type,
    judge_event,
    judge_transfer,
    load_jurisdiction,
)
from .corpus import (
    Corpus,
    LabeledSegment,
    PolicyDocument,
    PolicySegment,
    load_corpus,
    save_corpus,
    segment_policy,
    stratified_kfold,
)
from .countries import (
    EU_MEMBERS_2020,
    CountryDictionary,
    detect_target_countries,
    load_country_dictionary,
)
from .features import (
    BC,
    TF,
    TFIDF,
    FeatureVector,
    Vocabulary,
    build_vocabulary,
    extract_ngrams,
    tokenize,
    vectorize,
)
from .flows import (
    PersonalDataCatalog,
    RecipientInfo,
    TransferEvent,
    build_transfer_events,
    classify_recipient,
    geolocate,
    scan_payload,
    tokenize_app_identity,
)
from .linear import (
    EvalMetrics,
    LinearModel,
    TrainConfig,
    compute_metrics,
    decision_value,
    predict,
    train,
)
from .reports import ReportSummary, emit_report, summarize
from .rules import ProximityRule, matched_elements, parse_rule
from .stemmer import stem
from .transparency import (
    PolicyAnnotation,
    SegmentAnnotation,
    SegmentAnnotator,
    annotate_policy,
    annotate_segment,
)

__version__ = "0.1.0"
