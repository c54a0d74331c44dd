#pragma once
// The panel kernels live in src/core (core/panel_kernels.hpp), where the
// one Algorithm-5 driver runs them; this header keeps their batch names.

#include "core/panel_kernels.hpp"

namespace sttsv::batch {

using core::PanelBuffers;
using core::apply_block_panel;
using core::apply_block_panel_isa;

}  // namespace sttsv::batch
