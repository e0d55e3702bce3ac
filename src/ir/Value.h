//===- ir/Value.h - IR value base class -------------------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Value hierarchy root. A Value is anything an instruction can use as
/// an operand: constants, function parameters, and instruction results.
/// Def-use edges ("SSA edges" in the paper) are maintained automatically by
/// Instruction::setOperand and drive the SSA worklist of the propagation
/// engine. Only parameters and instruction results record their uses:
/// constants are interned process-wide and carry no use list (nothing
/// reads a constant's uses, and one shared list would grow with every
/// module alive in the process).
///
//===----------------------------------------------------------------------===//

#ifndef VRP_IR_VALUE_H
#define VRP_IR_VALUE_H

#include "ir/Type.h"
#include "support/Casting.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vrp {

class Instruction;

/// One use of a Value: the using instruction and the operand slot.
struct Use {
  Instruction *User = nullptr;
  unsigned OperandIndex = 0;
};

/// Base class for everything that can appear as an instruction operand.
class Value {
public:
  enum class Kind { Constant, Param, Instruction };

  Value(Kind K, IRType Type) : TheKind(K), Type(Type) {}
  virtual ~Value() = default;

  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;

  Kind kind() const { return TheKind; }
  IRType type() const { return Type; }

  /// The recorded uses. Always empty for a Constant.
  const std::vector<Use> &uses() const { return Uses; }
  bool hasUses() const { return !Uses.empty(); }
  unsigned numUses() const { return Uses.size(); }

  /// A short printable name, e.g. "%t12", "7", "arg n". Computed by
  /// subclasses.
  virtual std::string displayName() const = 0;

private:
  friend class Instruction;
  // Both skip Constants, so use-list edits never touch process-wide state
  // and modules can be built and destroyed concurrently without a lock.
  void addUse(Instruction *User, unsigned Index) {
    if (TheKind != Kind::Constant)
      Uses.push_back({User, Index});
  }
  void removeUse(Instruction *User, unsigned Index);

  const Kind TheKind;
  IRType Type;
  std::vector<Use> Uses;
};

/// A compile-time constant (int or float).
class Constant : public Value {
public:
  static Constant *getInt(int64_t V);   // Interned; see Constant.cpp.
  static Constant *getFloat(double V);

  bool isInt() const { return type() == IRType::Int; }
  int64_t intValue() const { return IntVal; }
  double floatValue() const { return FloatVal; }

  std::string displayName() const override;

  static bool classof(const Value *V) {
    return V->kind() == Kind::Constant;
  }

private:
  Constant(int64_t V) : Value(Kind::Constant, IRType::Int), IntVal(V) {}
  Constant(double V) : Value(Kind::Constant, IRType::Float), FloatVal(V) {}

  int64_t IntVal = 0;
  double FloatVal = 0.0;
};

class Function;

/// A formal parameter of a Function.
class Param : public Value {
public:
  Param(IRType Type, std::string Name, unsigned Index, Function *Parent)
      : Value(Kind::Param, Type), Name(std::move(Name)), Index(Index),
        Parent(Parent) {}

  const std::string &name() const { return Name; }
  unsigned index() const { return Index; }
  Function *parent() const { return Parent; }

  std::string displayName() const override { return "%" + Name; }

  static bool classof(const Value *V) { return V->kind() == Kind::Param; }

private:
  std::string Name;
  unsigned Index;
  Function *Parent;
};

} // namespace vrp

#endif // VRP_IR_VALUE_H
