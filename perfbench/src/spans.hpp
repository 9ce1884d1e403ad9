// In-memory span and counter recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a toolchain layer (name, start, end, parent span, request id); the
// program itself is not instrumented.  Everything stays in memory until
// the run ends, then `dump` writes one JSON line per span.  A disabled
// recorder records nothing, which is how untraced runs stay free of
// tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;     ///< index of the enclosing span, -1 = root
    std::uint32_t request = 0;    ///< scenario the span worked for
};

class Recorder {
public:
    explicit Recorder(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Open a span; returns its index (or -1 when disabled).
    std::int32_t open(std::string_view name, std::uint32_t request) {
        if (!enabled_) return -1;
        const auto index = static_cast<std::int32_t>(spans_.size());
        Span span;
        span.name = std::string(name);
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.request = request;
        span.start_ns = now_ns();
        spans_.push_back(std::move(span));
        stack_.push_back(index);
        return index;
    }

    void close(std::int32_t index) {
        if (index < 0) return;
        spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
        if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
    }

    /// A per-call value the program reports itself (stage laps, net laps,
    /// per-instruction cost); kept beside the spans under its metric name.
    void sample(std::string_view name, double value) {
        if (enabled_) samples_[std::string(name)].push_back(value);
    }

    /// A work counter, accumulated.
    void count(std::string_view name, double amount) {
        if (enabled_) counts_[std::string(name)] += amount;
    }

    /// Durations (seconds) of every closed span with this name.
    [[nodiscard]] std::vector<double> durations(std::string_view name) const {
        std::vector<double> out;
        for (const auto& span : spans_)
            if (span.name == name && span.end_ns >= span.start_ns)
                out.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                              1e-9);
        return out;
    }

    [[nodiscard]] std::vector<double> samples(std::string_view name) const {
        const auto it = samples_.find(std::string(name));
        return it == samples_.end() ? std::vector<double>{} : it->second;
    }

    [[nodiscard]] double counter(std::string_view name) const {
        const auto it = counts_.find(std::string(name));
        return it == counts_.end() ? 0.0 : it->second;
    }

    /// Write every span as one JSON object per line.
    void dump(const std::string& path) const {
        std::ofstream out(path);
        for (const auto& span : spans_)
            out << "{\"name\":\"" << span.name << "\",\"start_ns\":"
                << span.start_ns << ",\"end_ns\":" << span.end_ns
                << ",\"parent\":" << span.parent
                << ",\"request\":" << span.request << "}\n";
    }

private:
    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> counts_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
public:
    ScopedSpan(Recorder& recorder, std::string_view name,
               std::uint32_t request = 0)
        : recorder_(recorder), index_(recorder.open(name, request)) {}
    ~ScopedSpan() { recorder_.close(index_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Recorder& recorder_;
    std::int32_t index_;
};

}  // namespace perfbench
