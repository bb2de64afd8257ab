// Unit tests for the per-node event rings and the Chrome trace-event
// exporter: overflow/drain semantics, sampling, JSON well-formedness, and
// per-track timestamp monotonicity.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/tracer.h"

namespace cvm::obs {
namespace {

TraceConfig SmallConfig(size_t ring_capacity = 8, uint32_t sample_period = 1) {
  TraceConfig config;
  config.trace_enabled = true;
  config.ring_capacity = ring_capacity;
  config.sample_period = sample_period;
  return config;
}

TraceEvent Instant(NodeId node, const char* name, double sim_ts_ns) {
  TraceEvent event;
  event.name = name;
  event.cat = "test";
  event.node = node;
  event.sim_ts_ns = sim_ts_ns;
  event.wall_ts_ns = static_cast<uint64_t>(sim_ts_ns) + 1;  // Nonzero.
  return event;
}

// ---------------------------------------------------------------------------
// A tiny JSON reader, enough to validate the exporter's output structurally:
// values are parsed into a tree of maps/vectors/strings/doubles. Any syntax
// error fails the parse. This is deliberately independent of the emitter.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            pos_ += 4;
            c = '?';
            break;
          default:
            return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // Closing quote.
    return true;
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return false;
        }
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->object[key] = std::move(value);
        SkipSpace();
        if (pos_ >= text_.size()) {
          return false;
        }
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) {
          return false;
        }
        out->array.push_back(std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) {
          return false;
        }
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::kBool;
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    // Number.
    const size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == begin) {
      return false;
    }
    out->kind = JsonValue::kNumber;
    try {
      out->number = std::stod(text_.substr(begin, pos_ - begin));
    } catch (...) {
      return false;
    }
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};
// ---------------------------------------------------------------------------

TEST(TracerTest, DrainPreservesEmissionOrder) {
  Tracer tracer(2, SmallConfig(16));
  for (int i = 0; i < 5; ++i) {
    TraceEvent e = Instant(0, "e", 100.0 * i);
    e.arg_name = "i";
    e.arg_value = static_cast<uint64_t>(i);
    tracer.Emit(e);
  }
  EXPECT_EQ(tracer.RingSize(0), 5u);
  tracer.Drain(0);
  EXPECT_EQ(tracer.RingSize(0), 0u);
  const std::vector<TraceEvent> collected = tracer.Collected();
  ASSERT_EQ(collected.size(), 5u);
  for (size_t i = 0; i < collected.size(); ++i) {
    EXPECT_EQ(collected[i].arg_value, i);
  }
  EXPECT_EQ(tracer.TotalDropped(), 0u);
}

TEST(TracerTest, OverflowDropsOldestAndCounts) {
  Tracer tracer(1, SmallConfig(/*ring_capacity=*/4));
  for (int i = 0; i < 10; ++i) {
    TraceEvent e = Instant(0, "e", 10.0 * i);
    e.arg_value = static_cast<uint64_t>(i);
    tracer.Emit(e);
  }
  EXPECT_EQ(tracer.RingSize(0), 4u);  // Capacity-bounded.
  EXPECT_EQ(tracer.TotalDropped(), 6u);
  EXPECT_EQ(tracer.TotalEmitted(), 10u);
  const std::vector<TraceEvent> collected = tracer.Collected();
  ASSERT_EQ(collected.size(), 4u);
  // Survivors are the newest four, still in order.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(collected[i].arg_value, 6 + i);
  }
}

TEST(TracerTest, DrainBelowCapacityDoesNotResurrectOldEvents) {
  // Regression: draining while the ring's lazy storage is still below
  // capacity must not let later emissions re-count the drained slots.
  Tracer tracer(1, SmallConfig(/*ring_capacity=*/16));
  tracer.Emit(Instant(0, "a", 1));
  tracer.Emit(Instant(0, "a", 2));
  tracer.Drain(0);
  tracer.Emit(Instant(0, "b", 3));
  EXPECT_EQ(tracer.RingSize(0), 1u);
  const std::vector<TraceEvent> collected = tracer.Collected();
  ASSERT_EQ(collected.size(), 3u);
  EXPECT_STREQ(collected[2].name, "b");
}

TEST(TracerTest, RingRefillsAfterDrain) {
  Tracer tracer(1, SmallConfig(4));
  for (int i = 0; i < 4; ++i) {
    tracer.Emit(Instant(0, "a", i));
  }
  tracer.Drain(0);
  for (int i = 0; i < 3; ++i) {
    tracer.Emit(Instant(0, "b", i));
  }
  EXPECT_EQ(tracer.RingSize(0), 3u);
  EXPECT_EQ(tracer.TotalDropped(), 0u);
  EXPECT_EQ(tracer.Collected().size(), 7u);
}

TEST(TracerTest, SamplingKeepsOneInEveryPeriod) {
  Tracer tracer(1, SmallConfig(/*ring_capacity=*/64, /*sample_period=*/4));
  for (int i = 0; i < 16; ++i) {
    tracer.Emit(Instant(0, "e", i));
  }
  EXPECT_EQ(tracer.TotalEmitted(), 4u);
  EXPECT_EQ(tracer.TotalSampledOut(), 12u);
  EXPECT_EQ(tracer.Collected().size(), 4u);
}

TEST(TracerTest, OutOfRangeNodeIsClamped) {
  Tracer tracer(2, SmallConfig());
  tracer.Emit(Instant(99, "e", 1));
  tracer.Emit(Instant(-3, "e", 2));
  EXPECT_EQ(tracer.RingSize(1), 1u);
  EXPECT_EQ(tracer.RingSize(0), 1u);
}

TEST(TracerTest, ChromeJsonParsesAndNamesBothTimeTracks) {
  Tracer tracer(3, SmallConfig(32));
  TraceEvent span = Instant(1, "work", 1000);
  span.phase = 'X';
  span.sim_dur_ns = 500;
  span.wall_dur_ns = 400;
  span.epoch = 2;
  tracer.Emit(span);
  TraceEvent weird = Instant(2, "odd", 2000);
  weird.str_arg_name = "kind";
  weird.str_arg_value = "quote\"backslash\\tab\t";
  tracer.Emit(weird);

  const std::string json = tracer.ToChromeJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_TRUE(root.object.count("traceEvents"));
  const JsonValue& events = root.object["traceEvents"];
  ASSERT_EQ(events.kind, JsonValue::kArray);

  std::set<std::string> process_names;
  int span_records = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    const auto& obj = e.object;
    ASSERT_TRUE(obj.count("name"));
    ASSERT_TRUE(obj.count("ph"));
    ASSERT_TRUE(obj.count("pid"));
    ASSERT_TRUE(obj.count("tid"));
    const std::string ph = obj.at("ph").str;
    if (ph == "M") {
      if (obj.at("name").str == "process_name") {
        process_names.insert(obj.at("args").object.at("name").str);
      }
      continue;
    }
    ASSERT_TRUE(obj.count("ts"));
    if (ph == "X") {
      ++span_records;
      EXPECT_TRUE(obj.count("dur"));
      EXPECT_EQ(obj.at("args").object.at("epoch").number, 2);
    }
  }
  EXPECT_EQ(process_names, (std::set<std::string>{"simulated time", "wall time"}));
  EXPECT_EQ(span_records, 2);  // One per time track.
}

TEST(TracerTest, ChromeJsonTimestampsAreMonotonePerTrack) {
  Tracer tracer(4, SmallConfig(256));
  // Emit deliberately interleaved / unsorted across nodes.
  for (int i = 0; i < 40; ++i) {
    const NodeId node = i % 4;
    tracer.Emit(Instant(node, "e", 1000.0 * ((i * 7) % 13)));
  }
  const std::string json = tracer.ToChromeJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
  std::map<std::pair<int, int>, double> last_ts;
  size_t timed_records = 0;
  for (const JsonValue& e : root.object["traceEvents"].array) {
    const auto& obj = e.object;
    if (obj.at("ph").str == "M") {
      continue;
    }
    const auto track = std::make_pair(static_cast<int>(obj.at("pid").number),
                                      static_cast<int>(obj.at("tid").number));
    const double ts = obj.at("ts").number;
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "track pid=" << track.first << " tid=" << track.second;
    }
    last_ts[track] = ts;
    ++timed_records;
  }
  // 40 events, each on the simulated and the wall track.
  EXPECT_EQ(timed_records, 80u);
  EXPECT_EQ(last_ts.size(), 8u);  // 4 nodes x 2 time tracks.
}

TEST(TracerTest, EventWithoutSimTimestampAppearsOnWallTrackOnly) {
  Tracer tracer(1, SmallConfig());
  TraceEvent e;
  e.name = "wall-only";
  e.cat = "test";
  e.node = 0;
  e.sim_ts_ns = -1;
  tracer.Emit(e);
  const std::string json = tracer.ToChromeJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
  int occurrences = 0;
  for (const JsonValue& rec : root.object["traceEvents"].array) {
    if (rec.object.at("name").str == "wall-only") {
      ++occurrences;
      EXPECT_EQ(rec.object.at("pid").number, 1);  // Wall-time track.
    }
  }
  EXPECT_EQ(occurrences, 1);
}

}  // namespace
}  // namespace cvm::obs
