#ifndef FACTORML_CORE_FACTORML_H_
#define FACTORML_CORE_FACTORML_H_

/// Umbrella header: everything a downstream user needs to generate or load
/// normalized relations and train GMM / NN / linear-regression / k-means /
/// logistic-regression models over them with the materialized, streaming,
/// or factorized strategy.

#include "core/pipeline/access_strategy.h"  // IWYU pragma: export
#include "core/pipeline/model_program.h"    // IWYU pragma: export
#include "core/report.h"            // IWYU pragma: export
#include "core/runtime_options.h"   // IWYU pragma: export
#include "core/statistics.h"        // IWYU pragma: export
#include "core/trainer.h"           // IWYU pragma: export
#include "gmm/inference.h"          // IWYU pragma: export
#include "costmodel/cost_model.h"   // IWYU pragma: export
#include "data/real_shapes.h"       // IWYU pragma: export
#include "data/synthetic.h"         // IWYU pragma: export
#include "gmm/gmm_model.h"          // IWYU pragma: export
#include "gmm/trainers.h"           // IWYU pragma: export
#include "join/materialize.h"       // IWYU pragma: export
#include "join/normalized_relations.h"  // IWYU pragma: export
#include "kmeans/kmeans.h"          // IWYU pragma: export
#include "linreg/linreg.h"          // IWYU pragma: export
#include "logreg/logreg.h"          // IWYU pragma: export
#include "nn/mlp.h"                 // IWYU pragma: export
#include "nn/trainers.h"            // IWYU pragma: export
#include "storage/buffer_pool.h"    // IWYU pragma: export
#include "storage/table.h"          // IWYU pragma: export

#endif  // FACTORML_CORE_FACTORML_H_
