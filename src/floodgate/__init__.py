"""DDoS flood detection toolkit.

Synthetic traffic scenarios, pcap decoding, windowed feature extraction,
a from-scratch 24-106-5 neural classifier, and confusion-matrix metrics,
wired together by the `floodgate` command-line tool.
"""

__version__ = "0.1.0"

from .dataset import (  # noqa: E402
    NUM_CLASSES,
    NUM_FEATURES,
    Dataset,
    LabeledRecord,
    NormalizationStats,
    TrafficClass,
    apply_normalization,
    encode_label,
    fit_normalization,
    read_csv,
    stratified_split,
    write_csv,
)
from .errors import FloodgateError  # noqa: E402
from .features import (  # noqa: E402
    FEATURE_NAMES,
    SCHEMA_VERSION,
    Windows,
    extract_features,
    label_windows,
    read_truth,
    window_packets,
    write_truth,
)
from .metrics import (  # noqa: E402
    BinaryCounts,
    ConfusionMatrix,
    MetricSet,
    Report,
    build_confusion,
    collapse_binary,
    metric_set,
    pairwise_counts,
    render_report,
)
from .mlp import (  # noqa: E402
    MlpModel,
    TrainConfig,
    TrainHistory,
    forward,
    init_model,
    load_model,
    predict_batch,
    save_model,
    train,
)
from .pcapio import (  # noqa: E402
    Frame,
    PacketMeta,
    Packets,
    TcpFlags,
    Transport,
    decode_frame,
    read_frames,
    read_pcap,
    write_pcap,
)
from .synth import Episode, ScenarioConfig, gen_attack, gen_benign, load_scenario, parse_scenario, run_scenario  # noqa: E402
