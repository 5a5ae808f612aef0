// Pure functional semantics of every compute opcode (Table 1).
//
// The pipeline models (VLIW and CGA) call evalOp for everything except
// loads/stores (memory system), branches (control unit) and control ops.
// Keeping semantics pure and centralized guarantees both execution modes
// compute identically, and lets tests check each op against closed form.
//
// The switch body lives here as evalOpInline so the native execution tier
// can instantiate it with a compile-time opcode (template<Opcode Op>
// steady-loop bodies constant-fold the whole switch down to one case);
// evalOp in semantics.cpp stays the single out-of-line entry point for the
// reference tier and the VLIW pipeline.
#pragma once

#include "common/check.hpp"
#include "common/types.hpp"
#include "isa/opcodes.hpp"

namespace adres {

namespace detail {

inline Word compareResult(bool v) { return v ? 1u : 0u; }

inline Word evalSimd1Inline(Opcode op, Word a, Word b, i32 imm) {
  const auto la = unpackLanes(a);
  const auto lb = unpackLanes(b);
  switch (op) {
    case Opcode::C4ADD: {
      return packLanes(satAdd16(la[0], lb[0]), satAdd16(la[1], lb[1]),
                       satAdd16(la[2], lb[2]), satAdd16(la[3], lb[3]));
    }
    case Opcode::C4SUB: {
      return packLanes(satSub16(la[0], lb[0]), satSub16(la[1], lb[1]),
                       satSub16(la[2], lb[2]), satSub16(la[3], lb[3]));
    }
    case Opcode::C4SHIFTL: {
      const int sh = static_cast<int>(lo32u(b) & 15u);
      Word r = 0;
      for (int i = 0; i < kLanes; ++i)
        r = withLane(r, i, static_cast<i16>(static_cast<u16>(laneU(a, i) << sh)));
      return r;
    }
    case Opcode::C4SHIFTR: {
      const int sh = static_cast<int>(lo32u(b) & 15u);
      Word r = 0;
      for (int i = 0; i < kLanes; ++i)
        r = withLane(r, i, static_cast<i16>(la[i] >> sh));
      return r;
    }
    case Opcode::C4PADD: {
      const i16 s01 = satAdd16(la[0], la[1]);
      const i16 s23 = satAdd16(la[2], la[3]);
      return packLanes(s01, s01, s23, s23);
    }
    case Opcode::C4PSUB: {
      const i16 d01 = satSub16(la[0], la[1]);
      const i16 d23 = satSub16(la[2], la[3]);
      return packLanes(d01, d01, d23, d23);
    }
    case Opcode::C4MIX:
      return packLanes(la[0], lb[1], la[2], lb[3]);
    case Opcode::C4HILO:
      return packLanes(la[0], la[1], lb[2], lb[3]);
    case Opcode::C4SHUF: {
      const u32 ctl = static_cast<u32>(imm) & 0xFFu;
      Word r = 0;
      for (int i = 0; i < kLanes; ++i) {
        const int sel = static_cast<int>((ctl >> (2 * i)) & 3u);
        r = withLane(r, i, la[sel]);
      }
      return r;
    }
    case Opcode::C4MAX: {
      Word r = 0;
      for (int i = 0; i < kLanes; ++i)
        r = withLane(r, i, la[i] > lb[i] ? la[i] : lb[i]);
      return r;
    }
    case Opcode::C4MIN: {
      Word r = 0;
      for (int i = 0; i < kLanes; ++i)
        r = withLane(r, i, la[i] < lb[i] ? la[i] : lb[i]);
      return r;
    }
    case Opcode::C4ABS: {
      return packLanes(satAbs16(la[0]), satAbs16(la[1]), satAbs16(la[2]),
                       satAbs16(la[3]));
    }
    case Opcode::C4NEG: {
      return packLanes(satNeg16(la[0]), satNeg16(la[1]), satNeg16(la[2]),
                       satNeg16(la[3]));
    }
    default:
      throw SimError("evalSimd1: not a SIMD1 op");
  }
}

}  // namespace detail

/// The evalOp switch body.  Call through evalOp unless `op` is a
/// compile-time constant (the native tier's specialized loop bodies).
inline Word evalOpInline(Opcode op, Word a, Word b, i32 imm) {
  const i32 sa = lo32(a);
  const i32 sb = lo32(b);
  const u32 ua = lo32u(a);
  const u32 ub = lo32u(b);
  using detail::compareResult;
  switch (op) {
    // Arith -- 32-bit wrap-around; _u variants differ only in the C-level
    // type they implement, not in the bit pattern produced.
    case Opcode::ADD:
    case Opcode::ADD_U:
      return fromScalar(static_cast<u32>(ua + ub));
    case Opcode::SUB:
    case Opcode::SUB_U:
      return fromScalar(static_cast<u32>(ua - ub));
    case Opcode::MOV:
      return a;  // full 64-bit copy: the CGA routing op.
    case Opcode::MOVI:
      return fromScalar(imm);  // sign-extended 12-bit immediate.
    case Opcode::MOVIH:
      return fromScalar((ua & 0xFFFu) |
                        ((static_cast<u32>(imm) & 0xFFFu) << 12));
    // Logic.
    case Opcode::OR: return fromScalar(ua | ub);
    case Opcode::NOR: return fromScalar(~(ua | ub));
    case Opcode::AND: return fromScalar(ua & ub);
    case Opcode::NAND: return fromScalar(~(ua & ub));
    case Opcode::XOR: return fromScalar(ua ^ ub);
    case Opcode::XNOR: return fromScalar(~(ua ^ ub));
    // Shift (amount mod 32).
    case Opcode::LSL: return fromScalar(ua << (ub & 31u));
    case Opcode::LSR: return fromScalar(ua >> (ub & 31u));
    case Opcode::ASR: return fromScalar(static_cast<u32>(sa >> (ub & 31u)));
    // Comp: 0/1 into a data register.
    case Opcode::EQ: return compareResult(ua == ub);
    case Opcode::NE: return compareResult(ua != ub);
    case Opcode::GT: return compareResult(sa > sb);
    case Opcode::GT_U: return compareResult(ua > ub);
    case Opcode::LT: return compareResult(sa < sb);
    case Opcode::LT_U: return compareResult(ua < ub);
    case Opcode::GE: return compareResult(sa >= sb);
    case Opcode::GE_U: return compareResult(ua >= ub);
    case Opcode::LE: return compareResult(sa <= sb);
    case Opcode::LE_U: return compareResult(ua <= ub);
    // Pred: 0/1 routed to CPRF by the caller.
    case Opcode::PRED_CLEAR: return 0;
    case Opcode::PRED_SET: return 1;
    case Opcode::PRED_EQ: return compareResult(ua == ub);
    case Opcode::PRED_NE: return compareResult(ua != ub);
    case Opcode::PRED_LT: return compareResult(sa < sb);
    case Opcode::PRED_LT_U: return compareResult(ua < ub);
    case Opcode::PRED_LE: return compareResult(sa <= sb);
    case Opcode::PRED_LE_U: return compareResult(ua <= ub);
    case Opcode::PRED_GT: return compareResult(sa > sb);
    case Opcode::PRED_GT_U: return compareResult(ua > ub);
    case Opcode::PRED_GE: return compareResult(sa >= sb);
    case Opcode::PRED_GE_U: return compareResult(ua >= ub);
    // Mul: low 32 bits of the product.
    case Opcode::MUL:
    case Opcode::MUL_U:
      return fromScalar(static_cast<u32>(ua * ub));
    // SIMD1.
    case Opcode::C4ADD:
    case Opcode::C4SUB:
    case Opcode::C4SHIFTL:
    case Opcode::C4SHIFTR:
    case Opcode::C4PADD:
    case Opcode::C4PSUB:
    case Opcode::C4MIX:
    case Opcode::C4HILO:
    case Opcode::C4SHUF:
    case Opcode::C4MAX:
    case Opcode::C4MIN:
    case Opcode::C4ABS:
    case Opcode::C4NEG:
      return detail::evalSimd1Inline(op, a, b, imm);
    // SIMD2: Q15 rounded-saturated lane products.
    case Opcode::D4PROD: {
      const auto la = unpackLanes(a);
      const auto lb = unpackLanes(b);
      return packLanes(mulQ15(la[0], lb[0]), mulQ15(la[1], lb[1]),
                       mulQ15(la[2], lb[2]), mulQ15(la[3], lb[3]));
    }
    case Opcode::C4PROD: {
      // Cross-paired products for complex arithmetic (Table 1):
      // |a0*b1|a1*b0|a2*b3|a3*b2|.
      const auto la = unpackLanes(a);
      const auto lb = unpackLanes(b);
      return packLanes(mulQ15(la[0], lb[1]), mulQ15(la[1], lb[0]),
                       mulQ15(la[2], lb[3]), mulQ15(la[3], lb[2]));
    }
    // Div: 24-bit operands (paper: dividers operate on the 24 LSB).
    // Division by zero yields 0 (documented model choice; real hardware
    // raises the exception signal, which the core model also asserts).
    case Opcode::DIV: {
      const i32 da = (sa << 8) >> 8;  // sign-extend from bit 23
      const i32 db = (sb << 8) >> 8;
      if (db == 0) return 0;
      if (da == -(1 << 23) && db == -1) return fromScalar(i32{1 << 23} - 1);
      return fromScalar((da / db) & 0x00FFFFFF);
    }
    case Opcode::DIV_U: {
      const u32 da = ua & 0x00FFFFFFu;
      const u32 db = ub & 0x00FFFFFFu;
      if (db == 0) return 0;
      return fromScalar(da / db);
    }
    case Opcode::NOP:
      return 0;
    default:
      throw SimError(std::string("evalOp: opcode ") +
                     std::string(opInfo(op).name) +
                     " must be handled by the pipeline, not evalOp");
  }
}

/// Evaluates a compute op.  `a`,`b` are the (already immediate-substituted)
/// source operands; `imm` is the raw immediate for control-field ops
/// (C4PACK lane selectors, MOVI/MOVIH).  Comp-group ops return 0/1 in the
/// low 32 bits; Pred-group ops return 0/1 (the caller routes it to CPRF).
/// Requires: op is not a load, store, branch, or control op.
Word evalOp(Opcode op, Word a, Word b, i32 imm);

/// Returns the number of bytes moved by a memory op (1, 2 or 4).
int memAccessBytes(Opcode op);

/// Effective-address immediate scaling per Table 1: byte ops unscaled,
/// halfword ops imm<<1, word ops imm<<2.
int memImmScale(Opcode op);

/// Applies a load result to the previous destination value (handles the
/// zero/sign extension and the low/high-half merge of LD_IH).
Word applyLoadResult(Opcode op, Word oldDst, u32 memWord);

/// Extracts the 32-bit value a store writes from the src3 register.
u32 storeData(Opcode op, Word src3);

}  // namespace adres
