//===- ir/StructuralHash.h - One-walk structural IR identity ----*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 64-bit hash of everything a function's propagation result depends on
/// inside the function itself, computed in one walk without rendering
/// text: the name, parameter and return types, local objects, blocks with
/// their predecessor lists, and per instruction its opcode, type, id,
/// predicate, slot/object/callee name, φ incoming blocks, branch targets
/// and operands. Operands are hashed as an instruction id, a parameter
/// index, or a constant by bit pattern, so `0.0000051` and `0.0000054`
/// (which print alike) hash apart.
///
/// Equal hashes mean the two functions have the same shape ordinal for
/// ordinal: instruction *i* of one corresponds to instruction *i* of the
/// other. The persistent cache key and the incremental fingerprint both
/// rest on it (docs/CACHE.md, docs/SCALING.md).
///
//===----------------------------------------------------------------------===//

#ifndef VRP_IR_STRUCTURALHASH_H
#define VRP_IR_STRUCTURALHASH_H

#include "ir/Function.h"

#include <cstdint>

namespace vrp {

/// The structural hash of \p F.
uint64_t structuralHash(const Function &F);

} // namespace vrp

#endif // VRP_IR_STRUCTURALHASH_H
