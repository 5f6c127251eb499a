#pragma once

/// \file annotations.hpp
/// Source annotations consumed by static tooling (tools/hemp_analyzer/).
///
/// `HEMP_HOT` marks a function as a steady-state hot-path root: every tick
/// of a long simulation passes through it, so it must stay free of exact
/// solver calls, heap allocation, locks, iostream/stdio, and throws.  The
/// hemp_analyzer `hot-path-purity` check walks the whole-program call graph
/// from each annotated root and reports any reachable forbidden sink with a
/// witness call chain; reviewed exceptions carry an inline
/// `// hemp-analyzer: allow(hot-path-purity) — <reason>` marker.
///
/// The analyzer reads the `HEMP_HOT` token itself, so the macro expands to
/// nothing.

#define HEMP_HOT
