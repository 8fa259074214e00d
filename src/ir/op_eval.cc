#include "ir/op_eval.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace muir::ir
{

namespace
{

RuntimeValue
tensorMatmul(const RuntimeValue &a, const RuntimeValue &b)
{
    muir_assert(a.kind == RuntimeValue::Kind::Tensor &&
                    b.kind == RuntimeValue::Kind::Tensor,
                "tmul on non-tensor");
    muir_assert(a.cols == b.rows, "tmul shape mismatch");
    std::vector<float> out(size_t(a.rows) * b.cols, 0.0f);
    for (unsigned r = 0; r < a.rows; ++r) {
        for (unsigned c = 0; c < b.cols; ++c) {
            float acc = 0.0f;
            for (unsigned k = 0; k < a.cols; ++k)
                acc += (*a.tensor)[r * a.cols + k] *
                       (*b.tensor)[k * b.cols + c];
            out[r * b.cols + c] = acc;
        }
    }
    return RuntimeValue::makeTensor(a.rows, b.cols, std::move(out));
}

template <typename F>
RuntimeValue
tensorElementwise(const RuntimeValue &a, const RuntimeValue &b, F fn)
{
    muir_assert(a.kind == RuntimeValue::Kind::Tensor &&
                    b.kind == RuntimeValue::Kind::Tensor,
                "tensor op on non-tensor");
    muir_assert(a.rows == b.rows && a.cols == b.cols,
                "tensor elementwise shape mismatch");
    std::vector<float> out(a.tensor->size());
    for (size_t k = 0; k < out.size(); ++k)
        out[k] = fn((*a.tensor)[k], (*b.tensor)[k]);
    return RuntimeValue::makeTensor(a.rows, a.cols, std::move(out));
}

} // namespace

RuntimeValue
applyPureOp(Op op, const std::vector<RuntimeValue> &ops,
            const Type &result_type)
{
    auto intBin = [&](auto fn) {
        return RuntimeValue::makeInt(fn(ops[0].asInt(), ops[1].asInt()));
    };
    auto fpBin = [&](auto fn) {
        // Round through f32 to model single-precision hardware.
        return RuntimeValue::makeFloat(static_cast<float>(
            fn(ops[0].asFloat(), ops[1].asFloat())));
    };
    auto fpCmp = [&](auto fn) {
        return RuntimeValue::makeInt(
            fn(ops[0].asFloat(), ops[1].asFloat()) ? 1 : 0);
    };

    // Integer datapaths wrap like the hardware's two's-complement
    // adders and multipliers; signed overflow would be undefined here.
    auto wrap = [](uint64_t v) { return static_cast<int64_t>(v); };
    switch (op) {
      case Op::Add:
        return intBin([&](uint64_t a, uint64_t b) { return wrap(a + b); });
      case Op::Sub:
        return intBin([&](uint64_t a, uint64_t b) { return wrap(a - b); });
      case Op::Mul:
        return intBin([&](uint64_t a, uint64_t b) { return wrap(a * b); });
      case Op::SDiv:
        return intBin([](int64_t a, int64_t b) {
            muir_assert(b != 0, "division by zero");
            return a / b;
        });
      case Op::SRem:
        return intBin([](int64_t a, int64_t b) {
            muir_assert(b != 0, "remainder by zero");
            return a % b;
        });
      case Op::And: return intBin([](int64_t a, int64_t b) { return a & b; });
      case Op::Or:  return intBin([](int64_t a, int64_t b) { return a | b; });
      case Op::Xor: return intBin([](int64_t a, int64_t b) { return a ^ b; });
      case Op::Shl:
        return intBin([](int64_t a, int64_t b) { return a << (b & 63); });
      case Op::LShr:
        return intBin([](int64_t a, int64_t b) {
            return static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                        (b & 63));
        });
      case Op::AShr:
        return intBin([](int64_t a, int64_t b) { return a >> (b & 63); });

      case Op::FAdd: return fpBin([](double a, double b) { return a + b; });
      case Op::FSub: return fpBin([](double a, double b) { return a - b; });
      case Op::FMul: return fpBin([](double a, double b) { return a * b; });
      case Op::FDiv: return fpBin([](double a, double b) { return a / b; });
      case Op::FExp:
        return RuntimeValue::makeFloat(
            static_cast<float>(std::exp(ops[0].asFloat())));
      case Op::FSqrt:
        return RuntimeValue::makeFloat(
            static_cast<float>(std::sqrt(ops[0].asFloat())));

      case Op::ICmpEq:
        return intBin([](int64_t a, int64_t b) { return a == b ? 1 : 0; });
      case Op::ICmpNe:
        return intBin([](int64_t a, int64_t b) { return a != b ? 1 : 0; });
      case Op::ICmpSlt:
        return intBin([](int64_t a, int64_t b) { return a < b ? 1 : 0; });
      case Op::ICmpSle:
        return intBin([](int64_t a, int64_t b) { return a <= b ? 1 : 0; });
      case Op::ICmpSgt:
        return intBin([](int64_t a, int64_t b) { return a > b ? 1 : 0; });
      case Op::ICmpSge:
        return intBin([](int64_t a, int64_t b) { return a >= b ? 1 : 0; });
      case Op::FCmpOeq: return fpCmp([](double a, double b) { return a == b; });
      case Op::FCmpOlt: return fpCmp([](double a, double b) { return a < b; });
      case Op::FCmpOle: return fpCmp([](double a, double b) { return a <= b; });
      case Op::FCmpOgt: return fpCmp([](double a, double b) { return a > b; });
      case Op::FCmpOge: return fpCmp([](double a, double b) { return a >= b; });

      case Op::Select:
        return ops[0].asInt() ? ops[1] : ops[2];

      case Op::Trunc: {
        int64_t v = ops[0].asInt();
        unsigned bits = result_type.bits();
        if (bits >= 64)
            return RuntimeValue::makeInt(v);
        int64_t mask = (int64_t(1) << bits) - 1;
        int64_t shifted = v & mask;
        if (bits > 0 && (shifted & (int64_t(1) << (bits - 1))))
            shifted |= ~mask;
        return RuntimeValue::makeInt(shifted);
      }
      case Op::ZExt:
      case Op::SExt:
        // Canonical storage is already a sign-extended int64.
        return RuntimeValue::makeInt(ops[0].asInt());
      case Op::SIToFP:
        return RuntimeValue::makeFloat(
            static_cast<float>(ops[0].asInt()));
      case Op::FPToSI:
        return RuntimeValue::makeInt(
            static_cast<int64_t>(ops[0].asFloat()));

      case Op::TMul:
        return tensorMatmul(ops[0], ops[1]);
      case Op::TAdd:
        return tensorElementwise(ops[0], ops[1],
                                 [](float a, float b) { return a + b; });
      case Op::TSub:
        return tensorElementwise(ops[0], ops[1],
                                 [](float a, float b) { return a - b; });
      case Op::TRelu: {
        const RuntimeValue &a = ops[0];
        muir_assert(a.kind == RuntimeValue::Kind::Tensor,
                    "trelu on non-tensor");
        std::vector<float> out(a.tensor->size());
        for (size_t k = 0; k < out.size(); ++k)
            out[k] = std::max(0.0f, (*a.tensor)[k]);
        return RuntimeValue::makeTensor(a.rows, a.cols, std::move(out));
      }

      default:
        muir_panic("applyPureOp: op %s is not pure", opName(op));
    }
}

} // namespace muir::ir
