#include "workload/spec.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mcm::workload {

namespace {

dram::DeviceSpec device_by_name(const std::string& name) {
  if (name == "next_gen_mobile_ddr") return dram::DeviceSpec::next_gen_mobile_ddr();
  if (name == "mobile_ddr_2008") return dram::DeviceSpec::mobile_ddr_2008();
  if (name == "eight_bank_future") return dram::DeviceSpec::eight_bank_future();
  if (name == "wide_io_like") return dram::DeviceSpec::wide_io_like();
  throw std::invalid_argument("unknown device spec: " + name);
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Read an optional member into `out`; absent members keep the default.
void get_uint(const obs::JsonValue& obj, std::string_view key, std::uint64_t& out) {
  if (const auto* v = obj.find(key)) out = v->as_uint(out);
}
void get_int64(const obs::JsonValue& obj, std::string_view key, std::int64_t& out) {
  if (const auto* v = obj.find(key)) out = v->as_int(out);
}
void get_string(const obs::JsonValue& obj, std::string_view key, std::string& out) {
  if (const auto* v = obj.find(key)) out = v->as_string(out);
}

bool parse_tenant(const obs::JsonValue& doc, TenantSpec& t, std::size_t index,
                  std::string* error) {
  const std::string where = "tenant " + std::to_string(index);
  if (!doc.is_object()) return fail(error, where + ": not an object");
  get_string(doc, "name", t.name);
  get_string(doc, "kind", t.kind);
  if (t.name.empty()) t.name = t.kind + std::to_string(index);
  get_uint(doc, "partition_bytes", t.partition_bytes);
  get_int64(doc, "pace_ps", t.pace_ps);
  if (t.pace_ps < 0) return fail(error, where + ": pace_ps must be >= 0");

  if (t.kind == "video") {
    get_string(doc, "level", t.level);
    get_uint(doc, "max_requests", t.max_requests);
    if (!parse_level(t.level)) {
      return fail(error, where + ": unknown H.264 level '" + t.level + "'");
    }
  } else if (t.kind == "trace") {
    get_string(doc, "path", t.path);
    get_string(doc, "format", t.format);
    if (t.path.empty()) return fail(error, where + ": trace tenant needs a path");
  } else if (t.kind == "generator") {
    get_string(doc, "generator", t.generator);
    get_uint(doc, "window_bytes", t.window_bytes);
    get_uint(doc, "bytes", t.bytes);
    get_uint(doc, "stride_bytes", t.stride_bytes);
    if (const auto* v = doc.find("write_fraction")) {
      t.write_fraction = v->as_double(t.write_fraction);
    }
    get_uint(doc, "seed", t.seed);
    if (t.generator != "sequential" && t.generator != "strided" &&
        t.generator != "pointer_chase" && t.generator != "uniform_random") {
      return fail(error, where + ": unknown generator '" + t.generator + "'");
    }
    if (t.write_fraction < 0.0 || t.write_fraction > 1.0) {
      return fail(error, where + ": write_fraction must be in [0,1]");
    }
    if (t.window_bytes == 0 || t.bytes == 0) {
      return fail(error, where + ": window_bytes and bytes must be positive");
    }
  } else {
    return fail(error, where + ": unknown kind '" + t.kind +
                           "' (expected video, trace, or generator)");
  }
  return true;
}

}  // namespace

multichannel::SystemConfig WorkloadSpec::system_config() const {
  multichannel::SystemConfig cfg;
  cfg.device = device_by_name(device);
  cfg.freq = Frequency(static_cast<double>(freq_mhz));
  cfg.channels = channels;
  cfg.interleave_bytes = interleave_bytes;
  cfg.channel_classes.reserve(channel_classes.size());
  for (const std::string& name : channel_classes) {
    const auto cls = dram::parse_device_class(name);
    if (!cls.has_value()) {
      throw std::invalid_argument("unknown device class: " + name);
    }
    cfg.channel_classes.push_back(*cls);
  }
  cfg.vault_group = vault_group;
  return cfg;
}

std::string WorkloadSpec::cache_key() const {
  std::ostringstream key;
  key << "workload|" << device << '|' << channels << '|' << freq_mhz << '|'
      << interleave_bytes << '|' << period_ps;
  // Appended only when configured so existing cache entries stay valid.
  if (!channel_classes.empty()) {
    key << "|classes";
    for (const std::string& c : channel_classes) key << ':' << c;
  }
  if (vault_group != 0) key << "|vault" << vault_group;
  for (const auto& t : tenants) {
    key << "||" << t.kind << '|' << t.name << '|' << t.partition_bytes << '|'
        << t.pace_ps;
    if (t.kind == "video") {
      key << '|' << t.level << '|' << t.max_requests;
    } else if (t.kind == "trace") {
      key << '|' << t.path << '|' << t.format;
    } else {
      key << '|' << t.generator << '|' << t.window_bytes << '|' << t.bytes
          << '|' << t.stride_bytes << '|' << t.write_fraction << '|' << t.seed;
    }
  }
  return key.str();
}

std::optional<video::H264Level> parse_level(std::string_view name) {
  for (const video::H264Level level : video::kAllLevels) {
    if (video::level_spec(level).name == name) return level;
  }
  return std::nullopt;
}

obs::JsonValue workload_to_json(const WorkloadSpec& s) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "mcm.workload/v1";
  doc["name"] = s.name;
  auto& sys = doc["system"];
  sys["device"] = s.device;
  sys["channels"] = s.channels;
  sys["freq_mhz"] = s.freq_mhz;
  sys["interleave_bytes"] = s.interleave_bytes;
  if (!s.channel_classes.empty()) {
    auto& classes = sys["channel_classes"];
    classes = obs::JsonValue::array();
    for (const std::string& c : s.channel_classes) classes.push(obs::JsonValue{c});
  }
  if (s.vault_group != 0) sys["vault_group"] = s.vault_group;
  doc["frames"] = s.frames;
  doc["period_ps"] = s.period_ps;
  if (s.sim_threads != 0) doc["sim_threads"] = s.sim_threads;
  auto& tenants = doc["tenants"];
  tenants = obs::JsonValue::array();
  for (const auto& t : s.tenants) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry["name"] = t.name;
    entry["kind"] = t.kind;
    if (t.partition_bytes != 0) entry["partition_bytes"] = t.partition_bytes;
    if (t.pace_ps != 0) entry["pace_ps"] = t.pace_ps;
    if (t.kind == "video") {
      entry["level"] = t.level;
      if (t.max_requests != 0) entry["max_requests"] = t.max_requests;
    } else if (t.kind == "trace") {
      entry["path"] = t.path;
      if (t.format != "auto") entry["format"] = t.format;
    } else {
      entry["generator"] = t.generator;
      entry["window_bytes"] = t.window_bytes;
      entry["bytes"] = t.bytes;
      if (t.generator == "strided") entry["stride_bytes"] = t.stride_bytes;
      if (t.write_fraction != 0.0) entry["write_fraction"] = t.write_fraction;
      entry["seed"] = t.seed;
    }
    tenants.push(std::move(entry));
  }
  return doc;
}

std::optional<WorkloadSpec> workload_from_json(const obs::JsonValue& doc,
                                               std::string* error) {
  const auto bail = [&](const std::string& message) -> std::optional<WorkloadSpec> {
    fail(error, message);
    return std::nullopt;
  };
  if (!doc.is_object()) return bail("workload document is not an object");
  const auto* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "mcm.workload/v1") {
    return bail("missing or unsupported schema (expected mcm.workload/v1)");
  }

  WorkloadSpec s;
  get_string(doc, "name", s.name);
  if (const auto* sys = doc.find("system")) {
    if (!sys->is_object()) return bail("system is not an object");
    get_string(*sys, "device", s.device);
    if (const auto* v = sys->find("channels")) {
      s.channels = static_cast<std::uint32_t>(v->as_uint(s.channels));
    }
    if (const auto* v = sys->find("freq_mhz")) {
      s.freq_mhz = static_cast<std::uint32_t>(v->as_uint(s.freq_mhz));
    }
    if (const auto* v = sys->find("interleave_bytes")) {
      s.interleave_bytes = static_cast<std::uint32_t>(v->as_uint(s.interleave_bytes));
    }
    if (const auto* classes = sys->find("channel_classes")) {
      if (!classes->is_array()) return bail("channel_classes must be an array");
      for (std::size_t i = 0; i < classes->size(); ++i) {
        const std::string name = classes->at(i)->as_string();
        if (!dram::parse_device_class(name).has_value()) {
          return bail("unknown device class: " + name);
        }
        s.channel_classes.push_back(name);
      }
    }
    if (const auto* v = sys->find("vault_group")) {
      s.vault_group = static_cast<std::uint32_t>(v->as_uint(s.vault_group));
    }
  }
  if (const auto* v = doc.find("frames")) s.frames = static_cast<int>(v->as_int(1));
  get_int64(doc, "period_ps", s.period_ps);
  if (const auto* v = doc.find("sim_threads")) {
    s.sim_threads = static_cast<unsigned>(v->as_uint(0));
  }

  if (s.channels == 0) return bail("channels must be positive");
  if (!s.channel_classes.empty() && s.channel_classes.size() != s.channels) {
    return bail("channel_classes must have one entry per channel");
  }
  if (s.freq_mhz == 0) return bail("freq_mhz must be positive");
  if (s.frames < 1) return bail("frames must be >= 1");
  if (s.period_ps <= 0) return bail("period_ps must be positive");
  try {
    (void)device_by_name(s.device);
  } catch (const std::invalid_argument& e) {
    return bail(e.what());
  }

  const auto* tenants = doc.find("tenants");
  if (tenants == nullptr || !tenants->is_array() || tenants->size() == 0) {
    return bail("workload needs a non-empty tenants array");
  }
  for (std::size_t i = 0; i < tenants->size(); ++i) {
    TenantSpec t;
    if (!parse_tenant(*tenants->at(i), t, i, error)) return std::nullopt;
    s.tenants.push_back(std::move(t));
  }
  return s;
}

bool save_workload(const WorkloadSpec& s, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  workload_to_json(s).dump(out);
  out << '\n';
  return static_cast<bool>(out);
}

std::optional<WorkloadSpec> load_workload(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open workload spec '" + path + "'");
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  const auto doc = obs::json_parse(text.str(), &parse_error);
  if (!doc) {
    fail(error, path + ": " + parse_error);
    return std::nullopt;
  }
  auto spec = workload_from_json(*doc, error);
  if (!spec) return std::nullopt;

  // Resolve tenant trace paths against the spec file's directory so a
  // committed scenario works from any working directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "" : path.substr(0, slash + 1);
  if (!dir.empty()) {
    for (auto& t : spec->tenants) {
      if (t.kind == "trace" && !t.path.empty() && t.path.front() != '/') {
        t.path = dir + t.path;
      }
    }
  }
  return spec;
}

}  // namespace mcm::workload
