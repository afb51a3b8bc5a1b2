"""Range-aware pointwise distance distribution features for LiDAR clouds."""

from .cloud import PointCloud, SensorGeometry
from .errors import (
    ContractError,
    EmptySceneError,
    FormatError,
    InsufficientPointsError,
    LabelMismatchError,
    LabelsRequiredError,
    MalformedScanError,
    RapidError,
    UndefinedAngleError,
    UndefinedMetricError,
)
from .geometry import (
    NeighborList,
    RigidTransform,
    knn_brute,
    knn_indexed,
    range_of,
)
from .rapid import (
    RangeAwareConfig,
    RapidMatrix,
    ReflectivityScale,
    rapid,
    rapid_unnormalized,
    reflectivity_map,
    reflectivity_metric,
)
from .partition import (
    PointwiseFeatureSet,
    c_rapid,
    partition_classes,
    partition_rings,
    r_rapid,
)
from .scene_io import (
    BoxPrimitive,
    CylinderPrimitive,
    PlanePrimitive,
    SyntheticSceneSpec,
    load_feature_file,
    load_kitti_labels,
    load_kitti_scan,
    save_feature_file,
    save_kitti_labels,
    save_kitti_scan,
    synthesize_scene,
)
from .embed import (
    EmbeddingDims,
    EmbeddingForward,
    VoxelGroups,
    WeightSet,
    autoencoder_forward,
    contrastive_loss,
    inner_bottleneck,
    reconstruction_loss,
    scatter_softmax,
    scatter_sum,
    seeded_latents,
    voxelize,
    vsa_decode,
    vsa_encode,
)
from .fusion import concat_embeddings, excite, fuse, gate_weights, squeeze
from .metrics import ConfusionMatrix, accumulate, iou, miou
from .config import RunConfig

__version__ = "0.1.0"
