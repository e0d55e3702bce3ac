//===- ir/StructuralHash.cpp - One-walk structural IR identity -------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "ir/StructuralHash.h"

#include "ir/Instruction.h"

#include <cstring>
#include <string>

using namespace vrp;

namespace {

/// Word-at-a-time multiply/xor-shift mixing: one multiply per field
/// instead of one per byte of rendered text.
class Hasher {
public:
  void word(uint64_t W) {
    H = (H ^ W) * 0x9e3779b97f4a7c15ULL;
    H ^= H >> 29;
  }

  void text(const std::string &S) {
    word(S.size());
    size_t I = 0;
    for (; I + 8 <= S.size(); I += 8) {
      uint64_t W;
      std::memcpy(&W, S.data() + I, 8);
      word(W);
    }
    uint64_t Tail = 0;
    std::memcpy(&Tail, S.data() + I, S.size() - I);
    word(Tail);
  }

  /// Operands by ordinal, never by pointer: the tag keeps an instruction
  /// id, a parameter index and a constant of equal bits apart.
  void operand(const Value *V) {
    switch (V->kind()) {
    case Value::Kind::Instruction:
      word(1);
      word(cast<Instruction>(V)->id());
      return;
    case Value::Kind::Param:
      word(2);
      word(cast<Param>(V)->index());
      return;
    case Value::Kind::Constant: {
      const auto *C = cast<Constant>(V);
      if (C->isInt()) {
        word(3);
        word(static_cast<uint64_t>(C->intValue()));
      } else {
        double D = C->floatValue();
        uint64_t Bits;
        std::memcpy(&Bits, &D, sizeof(Bits));
        word(4);
        word(Bits);
      }
      return;
    }
    }
  }

  void object(const MemoryObject &Obj) {
    text(Obj.name());
    word(static_cast<uint64_t>(Obj.elemType()));
    word(static_cast<uint64_t>(Obj.size()));
    word(Obj.isGlobal());
  }

  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

void hashInstruction(Hasher &H, const Instruction &I) {
  H.word(static_cast<uint64_t>(I.opcode()));
  H.word(static_cast<uint64_t>(I.type()));
  H.word(I.id());
  switch (I.opcode()) {
  case Opcode::Cmp:
    H.word(static_cast<uint64_t>(cast<CmpInst>(&I)->pred()));
    break;
  case Opcode::Assert:
    H.word(static_cast<uint64_t>(cast<AssertInst>(&I)->pred()));
    break;
  case Opcode::ReadVar:
    H.text(cast<ReadVarInst>(&I)->slot()->name());
    break;
  case Opcode::WriteVar:
    H.text(cast<WriteVarInst>(&I)->slot()->name());
    break;
  case Opcode::Load:
    H.object(*cast<LoadInst>(&I)->object());
    break;
  case Opcode::Store:
    H.object(*cast<StoreInst>(&I)->object());
    break;
  case Opcode::Call:
    H.text(cast<CallInst>(&I)->callee()->name());
    break;
  case Opcode::Phi: {
    const auto *Phi = cast<PhiInst>(&I);
    for (unsigned Idx = 0; Idx < Phi->numIncoming(); ++Idx)
      H.word(Phi->incomingBlock(Idx)->id());
    break;
  }
  case Opcode::Br:
    H.word(cast<BrInst>(&I)->target()->id());
    break;
  case Opcode::CondBr: {
    const auto *CBr = cast<CondBrInst>(&I);
    H.word(CBr->trueBlock()->id());
    H.word(CBr->falseBlock()->id());
    break;
  }
  default:
    break;
  }
  H.word(I.numOperands());
  for (unsigned Idx = 0; Idx < I.numOperands(); ++Idx)
    H.operand(I.operand(Idx));
}

} // namespace

uint64_t vrp::structuralHash(const Function &F) {
  Hasher H;
  H.text(F.name());
  H.word(static_cast<uint64_t>(F.returnType()));
  H.word(F.numParams());
  for (unsigned I = 0; I < F.numParams(); ++I)
    H.word(static_cast<uint64_t>(F.param(I)->type()));
  H.word(F.localObjects().size());
  for (const MemoryObject *Obj : F.localObjects())
    H.object(*Obj);
  H.word(F.numBlocks());
  for (const auto &B : F.blocks()) {
    H.word(B->id());
    H.word(B->preds().size());
    for (const BasicBlock *P : B->preds())
      H.word(P->id());
    H.word(B->instructions().size());
    for (const auto &I : B->instructions())
      hashInstruction(H, *I);
  }
  return H.value();
}
