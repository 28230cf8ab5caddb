// Decorators that time the benchmark's calls into the library without
// changing what the library computes.
//
// TracedSource wraps the stream source the engine pulls from: it always
// stamps each pass's ingest window (begin_pass -> the call that reports the
// pass exhausted -> end_pass), and with a span buffer it also records one
// `stream.serve` span per batch served.  TracedProcessor wraps an attached
// processor and records absorb / advance / finish spans, plus clone and
// merge spans when ConcurrentIngestDriver shards a pass.
//
// Spans live in per-decorator buffers, so recording takes no lock: a shard
// clone made by clone_empty() is itself a TracedProcessor whose buffer only
// its worker thread writes, and merge() -- which ConcurrentIngestDriver
// calls on the caller thread after the pass-end drain barrier -- folds the
// clone's spans into the primary's buffer while it unwraps the clone for the
// inner merge.
// Every other virtual is forwarded unchanged, so a traced run's outputs are
// bit-identical to an untraced one (bench_e2e checks the digests).
#ifndef KW_E2EBENCH_TRACE_H
#define KW_E2EBENCH_TRACE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/stream_processor.h"
#include "engine/stream_source.h"
#include "harness.h"

namespace kw::e2e {

enum class SpanKind : std::uint8_t {
  kServe,    // source handed the engine one batch
  kAbsorb,   // processor absorbed one batch
  kAdvance,  // processor pass boundary
  kFinish,   // processor end of final pass (decode)
  kClone,    // engine took a shard clone (clone_empty)
  kMerge,    // engine folded a shard clone back (merge)
};

[[nodiscard]] inline const char* span_suffix(SpanKind kind) {
  switch (kind) {
    case SpanKind::kServe: return "serve";
    case SpanKind::kAbsorb: return "absorb";
    case SpanKind::kAdvance: return "advance";
    case SpanKind::kFinish: return "finish";
    case SpanKind::kClone: return "clone";
    case SpanKind::kMerge: return "merge";
  }
  return "?";
}

// One timed call.  The layer name is the owning buffer's; the parent is the
// rep's `engine.run` span, or `engine.worker` for a call a shard worker made
// on its clone.
struct Span {
  SpanKind kind = SpanKind::kAbsorb;
  bool on_worker = false;
  std::uint32_t rep = 0;
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] double seconds() const { return end - start; }
};

class TracedSource final : public StreamSource {
 public:
  struct PassWindow {
    double begin = 0.0;      // begin_pass()
    double exhausted = 0.0;  // the call that returned no updates
    double end = 0.0;        // end_pass(): drained, merged
    std::size_t updates = 0;
  };

  // `spans` null: stamp pass windows only (two clock reads per pass).
  TracedSource(StreamSource& inner, std::vector<Span>* spans,
               std::uint32_t rep)
      : inner_(&inner), spans_(spans), rep_(rep) {}

  [[nodiscard]] Vertex n() const noexcept override { return inner_->n(); }

  void begin_pass() override {
    inner_->begin_pass();
    windows_.push_back({now_s(), 0.0, 0.0, 0});
  }

  [[nodiscard]] std::size_t next_batch(std::span<EdgeUpdate> out) override {
    const double start = spans_ != nullptr ? now_s() : 0.0;
    const std::size_t got = inner_->next_batch(out);
    served(start, got);
    return got;
  }

  [[nodiscard]] std::optional<std::span<const EdgeUpdate>> next_view(
      std::size_t max_len) override {
    const double start = spans_ != nullptr ? now_s() : 0.0;
    auto view = inner_->next_view(max_len);
    if (view.has_value()) served(start, view->size());
    return view;
  }

  void end_pass() override {
    inner_->end_pass();
    windows_.back().end = now_s();
  }

  [[nodiscard]] const std::vector<PassWindow>& windows() const noexcept {
    return windows_;
  }

 private:
  void served(double start, std::size_t got) {
    PassWindow& w = windows_.back();
    w.updates += got;
    if (spans_ != nullptr) {
      const double end = now_s();
      spans_->push_back({SpanKind::kServe, false, rep_, start, end});
      if (got == 0) w.exhausted = end;
    } else if (got == 0) {
      w.exhausted = now_s();
    }
  }

  StreamSource* inner_;
  std::vector<Span>* spans_;
  std::uint32_t rep_;
  std::vector<PassWindow> windows_;
};

class TracedProcessor final : public StreamProcessor {
 public:
  // Wraps an engine-attached processor (non-owning).  `layer` names the
  // module the processor lives in, e.g. "agm.forest".
  TracedProcessor(StreamProcessor& inner, std::string layer, std::uint32_t rep)
      : inner_(&inner), layer_(std::move(layer)), rep_(rep) {}

  [[nodiscard]] const std::string& layer() const noexcept { return layer_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return inner_->passes_required();
  }
  [[nodiscard]] Vertex n() const noexcept override { return inner_->n(); }

  void absorb(std::span<const EdgeUpdate> batch) override {
    const double start = now_s();
    inner_->absorb(batch);
    record(SpanKind::kAbsorb, start);
  }
  void advance_pass() override {
    const double start = now_s();
    inner_->advance_pass();
    record(SpanKind::kAdvance, start);
  }
  void finish() override {
    const double start = now_s();
    inner_->finish();
    record(SpanKind::kFinish, start);
  }

  [[nodiscard]] ProcessorHealth health() const override {
    return inner_->health();
  }

  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override {
    const double start = now_s();
    std::unique_ptr<StreamProcessor> inner_clone = inner_->clone_empty();
    if (inner_clone == nullptr) return nullptr;
    auto clone = std::unique_ptr<TracedProcessor>(
        new TracedProcessor(std::move(inner_clone), layer_, rep_));
    record(SpanKind::kClone, start);
    return clone;
  }

  void merge(StreamProcessor&& other) override {
    auto& clone = merge_cast<TracedProcessor>(other);
    const double start = now_s();
    inner_->merge(std::move(*clone.inner_));
    record(SpanKind::kMerge, start);
    spans_.insert(spans_.end(), clone.spans_.begin(), clone.spans_.end());
  }

  [[nodiscard]] std::size_t shard_affinity(
      const EdgeUpdate& update, std::size_t shards) const noexcept override {
    return inner_->shard_affinity(update, shards);
  }
  void use_worker_pool(std::shared_ptr<WorkerPool> pool,
                       std::size_t decode_lanes) override {
    inner_->use_worker_pool(std::move(pool), decode_lanes);
  }
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override {
    return inner_->serial_tag();
  }
  void serialize(ser::Writer& w) const override { inner_->serialize(w); }
  void deserialize(ser::Reader& r) override { inner_->deserialize(r); }

 private:
  // A shard clone: owns its inner clone, and every span it records was made
  // on a worker thread.
  TracedProcessor(std::unique_ptr<StreamProcessor> owned, std::string layer,
                  std::uint32_t rep)
      : inner_(owned.get()),
        owned_(std::move(owned)),
        layer_(std::move(layer)),
        rep_(rep),
        on_worker_(true) {}

  void record(SpanKind kind, double start) const {
    spans_.push_back({kind, on_worker_, rep_, start, now_s()});
  }

  StreamProcessor* inner_;
  std::unique_ptr<StreamProcessor> owned_;  // set on shard clones only
  std::string layer_;
  std::uint32_t rep_;
  bool on_worker_ = false;
  // Bookkeeping, not processor state: the engine takes clones through a
  // const primary, and that call is timed too.
  mutable std::vector<Span> spans_;
};

}  // namespace kw::e2e

#endif  // KW_E2EBENCH_TRACE_H
