//===- perfbench/src/Tracer.cpp - The benchmark's own span recorder -------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include "Bench.h"

#include "support/Json.h"

#include <cstdio>
#include <fstream>

using namespace pb;

struct Tracer::ThreadBuf {
  uint32_t Tid = 0;
  uint64_t Op = 0;
  std::vector<SpanRec> Spans;
  std::vector<int32_t> Open;
  std::vector<CounterRec> Counters;
};

namespace {
struct ThreadSlot {
  const Tracer *Owner = nullptr;
  void *Buf = nullptr;
};
thread_local ThreadSlot Slot;
} // namespace

Tracer::Tracer() : Epoch(nowNs()) {}
Tracer::~Tracer() = default;

Tracer::ThreadBuf &Tracer::buffer() {
  if (Slot.Owner != this) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::make_unique<ThreadBuf>());
    Buffers.back()->Tid = static_cast<uint32_t>(Buffers.size());
    Buffers.back()->Spans.reserve(1024);
    Slot = {this, Buffers.back().get()};
  }
  return *static_cast<ThreadBuf *>(Slot.Buf);
}

Tracer::Scope::Scope(Tracer *T, const char *Name, uint64_t Units) : T(T) {
  if (!T)
    return;
  ThreadBuf &B = T->buffer();
  int32_t Parent = B.Open.empty() ? -1 : B.Open.back();
  Index = static_cast<int32_t>(B.Spans.size());
  B.Spans.push_back({Name, nowNs(), 0, Parent, B.Op, Units});
  B.Open.push_back(Index);
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  ThreadBuf &B = T->buffer();
  B.Spans[Index].EndNs = nowNs();
  B.Open.pop_back();
}

void Tracer::Scope::units(uint64_t U) {
  if (T)
    T->buffer().Spans[Index].Units = U;
}

void Tracer::setOp(uint64_t Op) { buffer().Op = Op; }

void Tracer::counters(const std::string &Name,
                      std::vector<std::pair<std::string, double>> Values) {
  ThreadBuf &B = buffer();
  B.Counters.push_back({Name, nowNs(), std::move(Values)});
}

namespace {
/// Self time of every span of one thread buffer: duration minus the
/// durations of its direct children.
std::vector<int64_t> selfTimes(const std::vector<Tracer::SpanRec> &Spans) {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  for (const Tracer::SpanRec &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndNs - S.StartNs;
  return Self;
}
} // namespace

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, Totals> Out;
  for (const auto &B : Buffers) {
    std::vector<int64_t> Self = selfTimes(B->Spans);
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const SpanRec &S = B->Spans[I];
      Totals &T = Out[S.Name];
      ++T.Calls;
      T.TotalNs += S.EndNs - S.StartNs;
      T.SelfNs += Self[I];
      T.Units += S.Units;
    }
  }
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  auto Us = [this](int64_t Ns) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f",
                  static_cast<double>(Ns - Epoch) / 1000.0);
    return std::string(Buf);
  };
  auto Dur = [](int64_t Ns) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f", static_cast<double>(Ns) / 1000.0);
    return std::string(Buf);
  };
  Out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool First = true;
  for (const auto &B : Buffers) {
    std::vector<int64_t> Self = selfTimes(B->Spans);
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const SpanRec &S = B->Spans[I];
      Out << (First ? "\n" : ",\n") << "{\"name\":\""
          << pdt::json::escape(S.Name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << B->Tid << ",\"ts\":" << Us(S.StartNs)
          << ",\"dur\":" << Dur(S.EndNs - S.StartNs)
          << ",\"args\":{\"op\":" << S.Op << ",\"span\":" << I
          << ",\"parent\":" << S.Parent << ",\"units\":" << S.Units
          << ",\"self_us\":" << Dur(Self[I]) << "}}";
      First = false;
    }
    for (const CounterRec &C : B->Counters) {
      Out << (First ? "\n" : ",\n") << "{\"name\":\""
          << pdt::json::escape(C.Name) << "\",\"ph\":\"C\",\"pid\":1,\"tid\":"
          << B->Tid << ",\"ts\":" << Us(C.AtNs) << ",\"args\":{";
      for (size_t K = 0; K != C.Values.size(); ++K) {
        char Num[40];
        std::snprintf(Num, sizeof(Num), "%.17g", C.Values[K].second);
        Out << (K ? "," : "") << "\"" << pdt::json::escape(C.Values[K].first)
            << "\":" << Num;
      }
      Out << "}}";
      First = false;
    }
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}
