//===- ir/Value.cpp - IR value base class ----------------------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"

#include <cassert>
#include <map>
#include <memory>
#include <mutex>

using namespace vrp;

// Guards the constant pools below. Constants carry no use list, so the
// pools are the only process-wide IR state.
static std::mutex &constantPoolMutex() {
  static std::mutex M;
  return M;
}

void Value::removeUse(Instruction *User, unsigned Index) {
  if (TheKind == Kind::Constant)
    return;
  for (size_t I = 0; I < Uses.size(); ++I) {
    if (Uses[I].User == User && Uses[I].OperandIndex == Index) {
      Uses[I] = Uses.back();
      Uses.pop_back();
      return;
    }
  }
  assert(false && "use not found");
}

std::string Constant::displayName() const {
  if (isInt())
    return std::to_string(IntVal);
  std::string S = std::to_string(FloatVal);
  return S;
}

// Constants are interned process-wide so pointer equality means value
// equality. The pools live in function-local statics (lazy, no static
// constructor) and are intentionally never freed. std::map never
// invalidates element addresses, so returned pointers stay stable while
// the lock protects concurrent insertion.
Constant *Constant::getInt(int64_t V) {
  static std::map<int64_t, std::unique_ptr<Constant>> Pool;
  std::lock_guard<std::mutex> Lock(constantPoolMutex());
  auto &Slot = Pool[V];
  if (!Slot)
    Slot.reset(new Constant(V));
  return Slot.get();
}

Constant *Constant::getFloat(double V) {
  static std::map<double, std::unique_ptr<Constant>> Pool;
  std::lock_guard<std::mutex> Lock(constantPoolMutex());
  auto &Slot = Pool[V];
  if (!Slot)
    Slot.reset(new Constant(V));
  return Slot.get();
}
